// Shared CLI parsing for the bench harnesses — one place for the flags
// and the enum spellings instead of per-bench copies.
//
// Flags:
//   --quick               shrink workloads for smoke runs
//   --shape=NAME          override the CHARMM executor shape
//                         (step_graph | step_graph_eager | merged |
//                          multiple | engine | compiler_generated) —
//                         honored by table1/table2; table3/table6/table8
//                         sweep shapes themselves
//   --executor=NAME       override the DSMC executor shape
//                         (step_graph | step_graph_eager |
//                          step_graph_arrival | imperative | regular |
//                          compiler_generated) — honored by table5;
//                         table4/table7 pin their two shapes
//   --partitioner=NAME    override the (re)partitioner
//                         (rcb | rib | chain | block) — honored by the
//                         CHARMM tables; table5 sweeps partitioners itself
//   --pattern=NAME        pin one reference pattern
//                         (sorted | banded | random | hypergraph) — honored
//                         by fig6_hash_schedule and table9_schedule_compile;
//                         both sweep all patterns when it is absent
//   --seeds=N             seed count (a whole number >= 1) for randomized
//                         sweeps — the same knob the stress-labeled
//                         randomized test suites read
//                         (tests/support/seeds.hpp), so one flag drives
//                         both benches and suites instead of per-suite
//                         environment variables
//   --skew=X              hot-spot compute skew factor (a positive number)
//                         for benches that inject imbalance (table10
//                         arrival chunks, table12's rotating hot band);
//                         default 4.0
//   --json=PATH           append one JSON-lines record per measured
//                         configuration (bench_common.hpp emit_json) —
//                         honored by table1/table5/table10/table11/table12
//
// An unknown or malformed value prints what is accepted and a usage line
// to stderr and exits 2; unknown flags are ignored (benches historically
// tolerate extra argv, and chaos_bench passes its own flags through).
// A bench that sweeps or pins a knob simply does not honor its override —
// see the per-table notes above.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>

#include "apps/charmm/parallel.hpp"
#include "apps/dsmc/parallel.hpp"
#include "core/parallel_partition.hpp"
#include "util/check.hpp"

namespace chaos::bench {

inline charmm::CharmmShape charmm_shape_from(const std::string& name) {
  if (name == "step_graph") return charmm::CharmmShape::kStepGraph;
  if (name == "step_graph_eager") return charmm::CharmmShape::kStepGraphEager;
  if (name == "merged") return charmm::CharmmShape::kMerged;
  if (name == "multiple") return charmm::CharmmShape::kMultiple;
  if (name == "engine") return charmm::CharmmShape::kEngine;
  if (name == "compiler_generated")
    return charmm::CharmmShape::kCompilerGenerated;
  throw Error("unknown --shape '" + name +
              "' (step_graph | step_graph_eager | merged | multiple | "
              "engine | compiler_generated)");
}

inline dsmc::DsmcExecutor dsmc_executor_from(const std::string& name) {
  if (name == "step_graph") return dsmc::DsmcExecutor::kStepGraph;
  if (name == "step_graph_eager") return dsmc::DsmcExecutor::kStepGraphEager;
  if (name == "step_graph_arrival" || name == "arrival")
    return dsmc::DsmcExecutor::kStepGraphArrival;
  if (name == "imperative") return dsmc::DsmcExecutor::kImperative;
  if (name == "regular") return dsmc::DsmcExecutor::kRegular;
  if (name == "compiler_generated")
    return dsmc::DsmcExecutor::kCompilerGenerated;
  throw Error("unknown --executor '" + name +
              "' (step_graph | step_graph_eager | step_graph_arrival | "
              "imperative | regular | compiler_generated)");
}

/// `--skew`: the whole text must be one positive finite number.
inline double skew_from(std::string_view text) {
  double v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc{} || ptr != end || !std::isfinite(v) || v <= 0)
    throw Error("bad --skew '" + std::string(text) +
                "' (a positive number, e.g. 4.0)");
  return v;
}

/// `--seeds`: the whole text must be one integer >= 1.
inline std::uint64_t seeds_from(std::string_view text) {
  std::uint64_t v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc{} || ptr != end || v < 1)
    throw Error("bad --seeds '" + std::string(text) +
                "' (a whole number >= 1)");
  return v;
}

/// Reference-pattern families the schedule-compilation benches sweep: how
/// much run structure the indirection array leaves in the schedules.
enum class Pattern { kSorted, kBanded, kRandom, kHypergraph };

inline Pattern pattern_from(const std::string& name) {
  if (name == "sorted") return Pattern::kSorted;
  if (name == "banded") return Pattern::kBanded;
  if (name == "random") return Pattern::kRandom;
  if (name == "hypergraph") return Pattern::kHypergraph;
  throw Error("unknown --pattern '" + name +
              "' (sorted | banded | random | hypergraph)");
}

inline const char* pattern_name(Pattern p) {
  switch (p) {
    case Pattern::kSorted: return "sorted";
    case Pattern::kBanded: return "banded";
    case Pattern::kRandom: return "random";
    case Pattern::kHypergraph: return "hypergraph";
  }
  return "?";
}

inline core::PartitionerKind partitioner_from(const std::string& name) {
  if (name == "rcb") return core::PartitionerKind::kRcb;
  if (name == "rib") return core::PartitionerKind::kRib;
  if (name == "chain") return core::PartitionerKind::kChain;
  if (name == "block") return core::PartitionerKind::kBlock;
  throw Error("unknown --partitioner '" + name +
              "' (rcb | rib | chain | block)");
}

struct Options {
  /// Shrink workloads for smoke runs (`--quick`).
  bool quick = false;
  std::optional<charmm::CharmmShape> shape;
  std::optional<dsmc::DsmcExecutor> executor;
  std::optional<core::PartitionerKind> partitioner;
  std::optional<Pattern> pattern;
  /// Machine-readable results: append one JSON record per measured
  /// configuration to this path (`--json <path>` / `--json=<path>`).
  std::string json;
  /// Per-rank compute skew factor for benches that inject imbalance
  /// (table10): the slow rank's compute is multiplied by this.
  double skew = 4.0;
  /// Seed count for randomized sweeps (`--seeds=N` / `--seeds N`).
  std::optional<std::uint64_t> seeds;

  /// The seed-count knob with a bench-chosen default.
  std::uint64_t seeds_or(std::uint64_t fallback) const {
    return seeds ? *seeds : fallback;
  }

  /// Parse argv. A value the parsers above reject prints the error and a
  /// usage line to stderr and exits 2.
  static Options parse(int argc, char** argv) {
    Options o;
    const auto value_of = [](const char* arg,
                             const char* flag) -> const char* {
      const std::size_t n = std::strlen(flag);
      if (std::strncmp(arg, flag, n) == 0 && arg[n] == '=') return arg + n + 1;
      return nullptr;
    };
    try {
      for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) {
          o.quick = true;
        } else if (const char* v = value_of(argv[i], "--shape")) {
          o.shape = charmm_shape_from(v);
        } else if (const char* v = value_of(argv[i], "--executor")) {
          o.executor = dsmc_executor_from(v);
        } else if (const char* v = value_of(argv[i], "--partitioner")) {
          o.partitioner = partitioner_from(v);
        } else if (const char* v = value_of(argv[i], "--pattern")) {
          o.pattern = pattern_from(v);
        } else if (const char* v = value_of(argv[i], "--json")) {
          o.json = v;
        } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
          o.json = argv[++i];
        } else if (const char* v = value_of(argv[i], "--skew")) {
          o.skew = skew_from(v);
        } else if (std::strcmp(argv[i], "--skew") == 0 && i + 1 < argc) {
          o.skew = skew_from(argv[++i]);
        } else if (const char* v = value_of(argv[i], "--seeds")) {
          o.seeds = seeds_from(v);
        } else if (std::strcmp(argv[i], "--seeds") == 0 && i + 1 < argc) {
          o.seeds = seeds_from(argv[++i]);
        }
      }
    } catch (const Error& e) {
      const char* prog = argc > 0 ? argv[0] : "bench";
      std::cerr << prog << ": " << e.what() << "\n"
                << "usage: " << prog
                << " [--quick] [--shape=NAME] [--executor=NAME]"
                   " [--partitioner=NAME] [--pattern=NAME] [--seeds=N]"
                   " [--skew=X] [--json=PATH]\n";
      std::exit(2);
    }
    return o;
  }

  /// Apply the overrides a CHARMM bench honors (benches that sweep shapes
  /// themselves only take the partitioner).
  void apply(charmm::ParallelCharmmConfig& cfg, bool honor_shape = true) const {
    if (honor_shape && shape) cfg.shape = *shape;
    if (partitioner) cfg.partitioner = *partitioner;
  }

  /// Apply the overrides a DSMC bench honors (benches that sweep
  /// partitioners or pin the executor suppress the respective knob).
  void apply(dsmc::ParallelDsmcConfig& cfg, bool honor_executor = true,
             bool honor_partitioner = true) const {
    if (honor_executor && executor) cfg.executor = *executor;
    if (honor_partitioner && partitioner) cfg.remap_partitioner = *partitioner;
  }
};

}  // namespace chaos::bench
