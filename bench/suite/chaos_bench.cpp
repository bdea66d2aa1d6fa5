// chaos_bench — the two-clock CHAOS benchmark runner.
//
// One invocation runs one named workload, on one seed, on a 4-rank
// sim::Machine, and reports its metrics on two clocks: host wall time
// (std::chrono::steady_clock — what the library's own code costs on the
// host that runs it) and modeled virtual time (sim::Comm::now() — the cost
// model's verdict). The runner reaches the library only from outside: it times
// calls into chaos::Runtime, comm::Engine, compile:: and the app entry points,
// and reads the public stats structs. Workloads, metrics and the two-clock
// rule are documented in README.md next to this file.
//
//   chaos_bench --workload NAME --seed N --seconds S --trace 0|1
//               [--trace-out PATH] [--quick]
//   chaos_bench --calibrate [--quick]
//
// The last stdout line is one JSON object {"correct", "attempted",
// "failed", "metrics"}: the end-to-end metrics with --trace 0, the
// per-layer metrics with --trace 1. Every self-check runs outside the timed
// regions and compares against a reference computed in the same run. The
// exit status is nonzero when any self-check fails.
#include <malloc.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <numeric>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "apps/charmm/parallel.hpp"
#include "apps/charmm/sequential.hpp"
#include "apps/dsmc/parallel.hpp"
#include "apps/dsmc/sequential.hpp"
#include "compile/schedule_plan.hpp"
#include "core/hash_table.hpp"
#include "core/owner_delta.hpp"
#include "core/translation_table.hpp"
#include "patterns.hpp"
#include "runtime/runtime.hpp"

namespace {

using namespace chaos;
using Clock = std::chrono::steady_clock;

constexpr int kRanks = 4;
/// Fresh set-ups per run; setup_s is their median.
constexpr int kSetups = 8;

// Every workload is one fixed input that --seed perturbs slightly: the
// sweeps shift their reference pattern by 1 to 16 elements; each charmm
// input widens the cutoff by less than 0.001 Å and each dsmc input adds
// fewer than 16 particles (see kAppInputs). Each seed is a distinct input,
// so no metric reads the same on every seed, yet modeled time moves across
// seeds by well under its 0.1% bound, and the spread of a host metric
// across seeds is host noise, not input variety.
constexpr std::uint64_t kSweepPatternSeed = 2026;
constexpr std::uint64_t kSweepShift = 16;
constexpr double kCharmmCutoffJitter = 1e-3;  ///< Å
constexpr std::uint64_t kDsmcPopulationJitter = 16;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// CPU seconds of `clock` (a thread's or the whole process's).
double cpu_s(clockid_t clock) {
  timespec t{};
  clock_gettime(clock, &t);
  return static_cast<double>(t.tv_sec) + 1e-9 * static_cast<double>(t.tv_nsec);
}

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// The modern-node calibration table9_schedule_compile runs on (~1 GB/s
/// links, microsecond overheads): on the iPSC/860 defaults the wire
/// dominates 10:1 and no pack-layer change could show in modeled time.
sim::CostParams modern_node() {
  sim::CostParams p;
  p.send_overhead = 1e-6;
  p.recv_overhead = 1e-6;
  p.latency = 5e-6;
  p.byte_time = 1e-9;
  return p;
}

// ---- command line, checks, report -------------------------------------------

struct Cli {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool quick = false;
  bool calibrate = false;
  std::string trace_out;
};

Cli parse_cli(int argc, char** argv) {
  Cli c;
  c.quick = bench::Options::parse(argc, argv).quick;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i], value;
    const std::size_t eq = arg.find('=');
    const bool flag_value = arg.rfind("--", 0) == 0 && eq != std::string::npos;
    if (flag_value) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    }
    const auto next = [&]() -> std::string {
      if (flag_value) return value;
      CHAOS_CHECK(i + 1 < argc, "missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--workload") {
      c.workload = next();
    } else if (arg == "--seed") {
      c.seed = std::stoull(next());
    } else if (arg == "--seconds") {
      c.seconds = std::stod(next());
    } else if (arg == "--trace") {
      c.trace = std::stoi(next()) != 0;
    } else if (arg == "--trace-out") {
      c.trace_out = next();
    } else if (arg == "--calibrate") {
      c.calibrate = true;
    } else if (arg != "--quick") {
      throw Error("unknown argument '" + arg + "'");
    }
  }
  CHAOS_CHECK(c.seconds > 0, "--seconds must be positive");
  // Smoke mode: small inputs and a short loop, so a run ends within ~2 s.
  if (c.quick) c.seconds = std::min(c.seconds, 0.5);
  return c;
}

/// Self-check tally. Checks never run inside a timed region.
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void expect(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::cerr << "CHECK FAILED: " << what << "\n";
    }
  }
  void merge(const Checks& o) {
    attempted += o.attempted;
    failed += o.failed;
  }
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// What a user of the system sees; printed with --trace 0. BENCHMARK.json
/// lists the same names, units and bounds.
constexpr MetricSpec kEndToEnd[] = {
    {"host_ms_per_step", "ms"}, {"modeled_ms_per_step", "ms"},
    {"setup_s", "s"},           {"modeled_setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

/// One layer each, from the traced run; printed with --trace 1. A metric
/// that does not apply to a workload reads 0 (see README.md).
constexpr MetricSpec kPerLayer[] = {
    // inspect
    {"inspect.host_ms_per_step", "ms"}, {"inspect.model_ms_per_step", "ms"},
    {"inspect.calls", "count"}, {"translate.lookups_per_step", "count"},
    {"translate.reused_homes", "count"}, {"hash.inserts_per_step", "count"},
    {"hash.hit_ratio", "ratio"}, {"schedule.rebuilt", "count"},
    {"schedule.patched", "count"}, {"schedule.carried_plans", "count"},
    {"charmm.schedule_gen_model_s", "s"}, {"charmm.schedule_regen_model_s", "s"},
    // compile
    {"compile.host_ms_per_plan", "ms"}, {"compile.plans", "count"},
    {"compile.run_fraction", "ratio"}, {"compile.recompiles", "count"},
    {"compile.carried_plans", "count"},
    // pack
    {"pack.host_ms_per_step", "ms"}, {"pack.model_ms_per_step", "ms"},
    {"pack.words_per_step", "count"}, {"pack.host_ns_per_word", "ns"},
    // wire
    {"wire.host_ms_per_step", "ms"}, {"wire.msgs_per_step", "count"},
    {"wire.kb_per_step", "KB"}, {"wire.coalesced_segments_per_step", "count"},
    // wait
    {"wait.host_ms_per_step", "ms"}, {"wait.model_ms_per_step", "ms"},
    {"graph.hazard_stalls", "count"}, {"graph.pipelined_gathers", "count"},
    {"graph.overlapped_posts", "count"},
    // compute
    {"compute.host_ms_per_step", "ms"}, {"compute.model_ms_per_step", "ms"},
    {"charmm.nb_list_model_s", "s"}, {"charmm.executor_model_s", "s"},
    {"dsmc.collide_model_s", "s"}, {"load_balance", "ratio"},
    // migrate
    {"dsmc.migrate_model_s", "s"}, {"dsmc.peak_particle_kb", "KB"},
    // rebalance
    {"repartition.host_ms", "ms"}, {"plan_remap.host_ms", "ms"},
    {"remap.host_ms", "ms"}, {"remap.kb_moved", "KB"},
    {"rebalance.diffusions", "count"}, {"rebalance.rebuilds", "count"},
    {"dsmc.remap_model_s", "s"},
    // runtime memory
    {"registry.kb", "KB"}, {"registry.compact_released_kb", "KB"},
    // host clock: wall time per step and the host's speed
    {"wall_ms_per_step", "ms"}, {"host.kernel_ms", "ms"},
    // run shape
    {"step.p50_ms", "ms"}, {"step.p99_ms", "ms"}, {"step.samples", "count"},
    {"trace.overhead_pct", "%"}, {"trace.coverage_pct", "%"},
};

/// Metric values by name, printed in the order of a spec list.
class Report {
 public:
  void set(const std::string& name, double value) {
    values_.emplace_back(name, std::isfinite(value) ? value : 0.0);
  }

  /// Human-readable listing, then the one-line JSON result (the last
  /// line). Every value set must be a listed metric; unset ones read 0.
  void print(std::span<const MetricSpec> specs, const Checks& checks) const {
    const auto listed = [](const std::string& name) {
      const auto is = [&](const MetricSpec& s) { return name == s.name; };
      return std::any_of(std::begin(kEndToEnd), std::end(kEndToEnd), is) ||
             std::any_of(std::begin(kPerLayer), std::end(kPerLayer), is);
    };
    for (const auto& [name, value] : values_)
      CHAOS_CHECK(listed(name), "metric '" + name + "' is not a listed metric");
    std::ostringstream json;
    json << std::setprecision(17) << "{\"correct\": "
         << (checks.failed == 0 ? "true" : "false")
         << ", \"attempted\": " << checks.attempted
         << ", \"failed\": " << checks.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < specs.size(); ++i) {
      double value = 0;
      for (const auto& [name, v] : values_)
        if (name == specs[i].name) value = v;
      std::cout << "  " << std::left << std::setw(36) << specs[i].name
                << std::right << std::setw(16) << std::setprecision(6) << value
                << " " << specs[i].unit << "\n";
      json << (i ? ", " : "") << "\"" << specs[i].name
           << "\": {\"value\": " << value << ", \"unit\": \"" << specs[i].unit
           << "\"}";
    }
    json << "}}";
    // error_rate travels in the JSON as failed / attempted, not as a metric.
    std::cout << "  " << std::left << std::setw(36) << "error_rate" << std::right
              << std::setw(16) << ratio(static_cast<double>(checks.failed),
                                        static_cast<double>(checks.attempted))
              << " ratio (" << checks.failed << " of " << checks.attempted
              << " self-checks failed)\n"
              << json.str() << std::endl;
  }

 private:
  std::vector<std::pair<std::string, double>> values_;
};

/// Hand freed heap back to the OS once a machine is gone. Each machine's
/// rank threads may land on different malloc arenas, so without this the
/// process peak grows with how many rounds fit the time budget instead of
/// measuring one machine's footprint.
void release_free_memory() {
#ifdef __GLIBC__
  malloc_trim(0);
#endif
}

/// Restart the process's peak resident-set count (Linux clear_refs "5").
void reset_peak_rss() { std::ofstream("/proc/self/clear_refs") << "5"; }

/// The process's peak resident set since start or the last
/// reset_peak_rss(), in MB.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // KiB
  throw Error("no VmHWM line in /proc/self/status");
}

// ---- host time ------------------------------------------------------------------
//
// The host metrics (host_ms_per_step, setup_s) count CPU time of the rank
// threads, not wall time, and scale it to a reference host speed. On a
// shared virtual machine wall time mostly measures the neighbours: while
// vCPUs are stolen, the four ranks stall at every exchange for whichever
// one was descheduled (one sweep step measured 1.7 ms and 16 ms minutes
// apart), and between such stretches the cores run up to 2x faster or
// slower. CPU time leaves out the stalls. Each sample is then scaled by
// the CPU time of a fixed reference kernel run on four threads right
// before and right after it, which leaves out the speed changes. The
// kernel calls no library code, so a change to the library moves only the
// sample.

/// Iterations of the reference kernel per thread.
constexpr int kKernelIterations = 800000;
/// CPU seconds of one kernel on four threads at the reference speed (its
/// time on the host the baseline was recorded on, in a fast stretch).
constexpr double kKernelRefS = 4 * 8e-3;

/// The kernel's 16 MB table, shared read-only by every thread. It is
/// built once, before the first measurement, so it adds the same resident
/// memory to every peak_rss_mb reading.
const std::vector<double>& kernel_table() {
  static const std::vector<double> table(std::size_t{1} << 21, 1.0);
  return table;
}

/// This rank's share of the reference kernel, run by all ranks together:
/// random reads of the table feeding a chain of square roots. Returns the
/// thread's CPU seconds.
double reference_kernel(sim::Comm& comm) {
  const std::vector<double>& table = kernel_table();
  comm.barrier();
  const double t0 = cpu_s(CLOCK_THREAD_CPUTIME_ID);
  std::uint64_t x = 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(comm.rank());
  double acc = 1.0;
  for (int i = 0; i < kKernelIterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc = std::sqrt(acc + table[x & (table.size() - 1)]);
  }
  const double t = cpu_s(CLOCK_THREAD_CPUTIME_ID) - t0;
  comm.barrier();
  CHAOS_CHECK(acc > 1.0, "reference kernel result");
  return t;
}

/// CPU seconds of one reference kernel on a fresh 4-rank machine.
double reference_kernel_s() {
  std::array<double, kRanks> s{};
  sim::Machine machine(kRanks);
  machine.run([&](sim::Comm& comm) {
    s[static_cast<std::size_t>(comm.rank())] = reference_kernel(comm);
  });
  return std::accumulate(s.begin(), s.end(), 0.0);
}

/// `cpu` seconds measured between kernels that took `before` and `after`
/// seconds, scaled to the reference speed.
double at_reference_speed(double cpu, double before, double after) {
  return cpu * ratio(2 * kKernelRefS, before + after);
}

// ---- bench-side spans ---------------------------------------------------------

/// The layers a sweep step passes through, each bracketed by a span around
/// the public call that enters it.
enum Layer : int {
  kInspect,      // Runtime::inspect (translate + hash + schedule)
  kPack,         // Runtime::gather_async / scatter_add_async (engine post)
  kWire,         // Runtime::comm_flush
  kWait,         // Runtime::comm_wait (receive + unpack)
  kCompute,      // the sweep body
  kRepartition,  // Runtime::repartition
  kPlanRemap,    // Runtime::plan_remap
  kRemap,        // Runtime::remap
  kLayerCount
};
constexpr std::array<const char*, kLayerCount> kLayerName = {
    "inspect", "pack", "wire", "wait", "compute",
    "repartition", "plan_remap", "remap"};

struct LayerTotals {
  double host_s = 0;
  double model_s = 0;
  std::uint64_t calls = 0;
};

/// One Chrome trace-event ("ph": "X") record.
struct TraceEvent {
  const char* name = "";  ///< a string literal
  int tid = 0;
  double ts_us = 0;
  double dur_us = 0;
  double model_ms = 0;
};

/// Per-rank span recorder: host and modeled time around each call while
/// `on`, kept in memory and written out when the run ends.
class Spans {
 public:
  static constexpr std::size_t kMaxEvents = 200000;

  Spans(sim::Comm& comm, Clock::time_point origin)
      : comm_(comm), origin_(origin) {}

  bool on = false;
  std::array<LayerTotals, kLayerCount> totals{};
  std::vector<TraceEvent> events;

  template <typename F>
  auto operator()(Layer layer, F&& f) {
    if (!on) return f();
    const Clock::time_point t0 = Clock::now();
    const double m0 = comm_.now();
    if constexpr (std::is_void_v<decltype(f())>) {
      f();
      close(layer, t0, m0);
    } else {
      auto result = f();
      close(layer, t0, m0);
      return result;
    }
  }

 private:
  void close(Layer layer, Clock::time_point t0, double m0) {
    const double host = std::chrono::duration<double>(Clock::now() - t0).count();
    const double model = comm_.now() - m0;
    LayerTotals& t = totals[static_cast<std::size_t>(layer)];
    t.host_s += host;
    t.model_s += model;
    ++t.calls;
    if (events.size() < kMaxEvents)
      events.push_back(
          {kLayerName[static_cast<std::size_t>(layer)], comm_.rank(),
           std::chrono::duration<double, std::micro>(t0 - origin_).count(),
           host * 1e6, model * 1e3});
  }

  sim::Comm& comm_;
  Clock::time_point origin_;
};

/// Wall and thread CPU time of one step on one rank, minus the stretches
/// excluded from it (self-checks and input generation).
class StepClock {
 public:
  void start() {
    t0_ = Clock::now();
    cpu0_ = cpu_s(CLOCK_THREAD_CPUTIME_ID);
    excluded_ = excluded_cpu_ = 0;
  }
  template <typename F>
  void exclude(F&& f) {
    const Clock::time_point t = Clock::now();
    const double c = cpu_s(CLOCK_THREAD_CPUTIME_ID);
    f();
    excluded_ += since(t);
    excluded_cpu_ += cpu_s(CLOCK_THREAD_CPUTIME_ID) - c;
  }
  double wall() const { return since(t0_) - excluded_; }
  double cpu() const { return cpu_s(CLOCK_THREAD_CPUTIME_ID) - cpu0_ - excluded_cpu_; }

 private:
  Clock::time_point t0_;
  double cpu0_ = 0;
  double excluded_ = 0;
  double excluded_cpu_ = 0;
};

void write_trace(const std::string& path, const std::vector<TraceEvent>& ev,
                 const std::vector<std::string>& lanes) {
  if (path.empty()) return;
  std::ofstream f(path);
  CHAOS_CHECK(f.good(), "cannot write trace file '" + path + "'");
  f << std::setprecision(12) << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  bool first = true;
  for (std::size_t t = 0; t < lanes.size(); ++t) {
    f << (first ? "\n" : ",\n")
      << "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 0, \"tid\": " << t
      << ", \"args\": {\"name\": \"" << lanes[t] << "\"}}";
    first = false;
  }
  for (const TraceEvent& e : ev) {
    f << (first ? "\n" : ",\n") << "{\"name\": \"" << e.name
      << "\", \"cat\": \"bench\", \"ph\": \"X\", \"pid\": 0, \"tid\": " << e.tid
      << ", \"ts\": " << e.ts_us << ", \"dur\": " << e.dur_us
      << ", \"args\": {\"model_ms\": " << e.model_ms << "}}";
    first = false;
  }
  f << "\n]}\n";
}

// ---- edge sweeps on the public Runtime API ----------------------------------

struct SweepConfig {
  bench::Pattern pattern = bench::Pattern::kBanded;
  GlobalIndex n = 0;         ///< data elements (block-distributed at start)
  std::size_t refs = 0;      ///< references per rank
  int round_steps = 0;       ///< steps per measured round
  /// Adaptive only (0 = static): every `reinspect_every` steps a
  /// `replace_fraction` of each rank's references changes and the loop is
  /// re-inspected; once per round a `band` share of each rank's elements
  /// moves to the next rank (repartition -> plan_remap -> remap ->
  /// re-inspect on the successor epoch -> retire -> compact).
  int reinspect_every = 0;
  double replace_fraction = 0.1;
  double band = 0.05;

  bool adaptive() const { return reinspect_every > 0; }
};

/// Modeled work per element the sweep body touches (a streaming
/// read-modify-write, at the segment-copy rate).
constexpr double kWorkPerElement = 0.1;

/// The value the owner writes into x[g] at `step`. Integers, so gathered
/// values compare exactly.
double gather_value(GlobalIndex g, int step) {
  return static_cast<double>((static_cast<std::uint64_t>(g) * 2654435761ULL +
                              static_cast<std::uint64_t>(step) * 40503ULL) %
                             1000003ULL);
}

/// `k` (slot, new value) reference changes drawn from `rng`, applied in
/// order; values never touch the reserved top band.
std::vector<std::pair<std::size_t, GlobalIndex>> redraw(const SweepConfig& c,
                                                        Rng rng, std::size_t k) {
  const auto span = static_cast<std::uint64_t>(c.n - bench::kReservedTop);
  std::vector<std::pair<std::size_t, GlobalIndex>> out(k);
  for (auto& [slot, value] : out) {
    slot = static_cast<std::size_t>(rng.below(c.refs));
    value = static_cast<GlobalIndex>(rng.below(span));
  }
  return out;
}

/// `rank`'s references before step 0: the fixed pattern, shifted by the
/// seed's offset (cyclically below the reserved top band). The pattern keeps
/// its shape; only references near block boundaries change owner.
std::vector<GlobalIndex> initial_refs(const SweepConfig& c, std::uint64_t seed,
                                      int rank) {
  std::vector<GlobalIndex> refs =
      bench::pattern_refs(c.pattern, rank, kRanks, c.n, c.refs, kSweepPatternSeed);
  const GlobalIndex span = c.n - bench::kReservedTop;
  const auto shift = static_cast<GlobalIndex>(1 + Rng(seed).below(kSweepShift));
  for (GlobalIndex& ref : refs) ref = (ref + shift) % span;
  return refs;
}

/// Reference changes of `rank` at adaptive `step` (the same on every seed).
std::vector<std::pair<std::size_t, GlobalIndex>> replacement(const SweepConfig& c,
                                                             int rank, int step) {
  return redraw(c,
                Rng(kSweepPatternSeed * 0x9e3779b97f4a7c15ULL +
                    static_cast<std::uint64_t>(rank) * 1000003ULL +
                    static_cast<std::uint64_t>(step) * 7919ULL + 17ULL),
                static_cast<std::size_t>(static_cast<double>(c.refs) * c.replace_fraction));
}

bool replaces_at(const SweepConfig& c, int step) {
  return c.adaptive() && step % c.reinspect_every == c.reinspect_every / 2;
}

bool repartitions_at(const SweepConfig& c, int step) {
  return c.adaptive() && step % c.round_steps == c.round_steps / 2;
}

/// The repartition map: each rank's highest-id `band` share of its elements
/// moves to the next rank.
std::vector<int> shifted_map(const std::vector<int>& map, int nranks,
                             double band) {
  std::vector<GlobalIndex> quota(static_cast<std::size_t>(nranks), 0);
  for (int owner : map) ++quota[static_cast<std::size_t>(owner)];
  for (GlobalIndex& q : quota)
    q = static_cast<GlobalIndex>(static_cast<double>(q) * band);
  std::vector<int> out = map;
  for (std::size_t g = map.size(); g-- > 0;) {
    const int owner = map[g];
    if (quota[static_cast<std::size_t>(owner)] > 0) {
      out[g] = (owner + 1) % nranks;
      --quota[static_cast<std::size_t>(owner)];
    }
  }
  return out;
}

/// Words a rank packs per gather + scatter_add under `s` (gather ships the
/// send blocks, scatter_add ships the recv blocks back).
std::uint64_t packed_words(const core::Schedule& s, int me) {
  std::uint64_t w = 0;
  for (const auto& b : s.send_blocks())
    if (b.proc != me) w += b.indices.size();
  for (const auto& b : s.recv_blocks())
    if (b.proc != me) w += b.indices.size();
  return w;
}

/// Library counters the sweeps read from the public stats structs.
enum Counter : int {
  cTranslations, cReusedHomes, cInserts, cHits, cRebuilt, cPatched,
  cCarriedPlans, cCompiledPlans, cRecompiles, cCarriedCompiled,
  cMsgs, cBytes, cSegments, cCounterCount
};
using Counters = std::array<std::uint64_t, cCounterCount>;

Counters epoch_counters(const Runtime& rt, DistHandle d) {
  const core::IndexHashTable::Stats h = rt.hash_stats(d);
  const runtime::ScheduleRegistry::Stats r = rt.registry_stats(d);
  Counters c{};
  c[cTranslations] = h.translations;
  c[cReusedHomes] = h.reused_homes;
  c[cInserts] = h.inserts;
  c[cHits] = h.hits;
  c[cRebuilt] = r.rebuilt_schedules;
  c[cPatched] = r.patched_schedules;
  c[cCarriedPlans] = r.carried_plans;
  c[cCompiledPlans] = r.compiled_plans;
  c[cRecompiles] = r.recompiles_after_repartition;
  c[cCarriedCompiled] = r.carried_compiled_plans;
  return c;
}

/// What one rank of a sweep reports back to the main thread.
struct SweepRankOut {
  double setup_kernel_s = 0;  ///< the reference kernel before the set-up
  double setup_cpu_s = 0;     ///< thread CPU seconds of the set-up
  double setup_model_s = 0;
  std::vector<double> round_s;         ///< timed wall seconds per round
  std::vector<double> round_cpu_s;     ///< timed thread CPU seconds per round
  /// The reference kernel after the set-up and after each round.
  std::vector<double> kernel_s;
  std::vector<char> round_traced;
  std::vector<double> step_s;      ///< per-step host seconds, untraced rounds
  int steps = 0;
  // Round 0 (deterministic for a seed): modeled time and counter deltas.
  double round0_model_s = 0;
  double round0_compute_s = 0;
  double round0_rss_mb = 0;  ///< process peak through round 0 (rank 0 only)
  Counters round0{};
  std::uint64_t inspect_calls = 0;
  std::uint64_t pack_words = 0;
  std::uint64_t remap_bytes = 0;
  std::uint64_t repartitions = 0;
  std::size_t compact_released = 0;
  std::size_t registry_bytes = 0;
  double run_fraction = 0;
  // Traced rounds.
  std::array<LayerTotals, kLayerCount> layers{};
  int traced_steps = 0;
  double traced_s = 0;
  double compile_s = 0;  ///< median host time of one SchedulePlan::compile
  std::vector<TraceEvent> events;
  // Final scatter_add check: the owned elements and their accumulated y.
  std::vector<GlobalIndex> owned;
  std::vector<double> y;
  Checks checks;
};

/// One rank of a sweep: set-up, then (unless `setup_only`) measured rounds
/// until `seconds` of loop time are spent. Rounds alternate untraced and
/// traced when `trace` is set.
void sweep_rank(sim::Comm& comm, const SweepConfig& c, const Cli& cli,
                bool setup_only, Clock::time_point origin, SweepRankOut& out) {
  const int me = comm.rank();
  const int nranks = comm.size();

  // Input (not timed): this rank's references, generated from the seed.
  lang::IndirectionArray ind(initial_refs(c, cli.seed, me));
  out.setup_kernel_s = reference_kernel(comm);

  // Set-up: Runtime + distribution + cold inspect + first (compiling)
  // execute. y starts all-zero, so the first scatter_add adds nothing.
  const double c_setup = cpu_s(CLOCK_THREAD_CPUTIME_ID);
  const double m_setup = comm.now();
  Runtime rt(comm);
  DistHandle d = rt.block(c.n);
  ScheduleHandle h = rt.inspect(d, ind);
  auto extent = static_cast<std::size_t>(rt.extent(h));
  std::vector<double> x(extent, 0.0), y(extent, 0.0);
  rt.gather<double>(h, std::span<double>{x});
  rt.scatter_add<double>(h, std::span<double>{y});
  out.setup_model_s = comm.now() - m_setup;
  out.setup_cpu_s = cpu_s(CLOCK_THREAD_CPUTIME_ID) - c_setup;
  out.kernel_s.push_back(reference_kernel(comm));
  if (setup_only) return;

  std::vector<GlobalIndex> owned = rt.owned_globals(d);
  std::span<const GlobalIndex> local = rt.local_refs(rt.bind(d, ind));
  std::uint64_t words = packed_words(rt.schedule(h), me);
  Counters retired{};  // counters of epochs already retired
  const auto snapshot = [&] {
    Counters s = epoch_counters(rt, d);
    for (int i = 0; i < cCounterCount; ++i) s[i] += retired[i];
    s[cMsgs] = comm.stats().msgs_sent;
    s[cBytes] = comm.stats().bytes_sent;
    s[cSegments] = comm.stats().coalesced_segments;
    return s;
  };

  Spans spans(comm, origin);
  StepClock clock;
  int step = 0;
  const Clock::time_point loop_start = Clock::now();
  for (int round = 0;; ++round) {
    spans.on = cli.trace && round % 2 == 1;
    const bool first = round == 0;
    const Counters before = snapshot();
    const double m_round = comm.now();
    const double compute_before = comm.stats().compute_s;
    double round_s = 0, round_cpu_s = 0;

    for (int k = 0; k < c.round_steps; ++k, ++step) {
      clock.start();
      if (replaces_at(c, step)) {
        std::vector<GlobalIndex> next;
        clock.exclude([&] {
          next.assign(ind.values().begin(), ind.values().end());
          for (const auto& [slot, value] : replacement(c, me, step))
            next[slot] = value;
        });
        ind.assign(std::move(next));
        h = spans(kInspect, [&] { return rt.inspect(d, ind); });
        if (first) ++out.inspect_calls;
      }
      if (repartitions_at(c, step)) {
        std::vector<int> map;
        clock.exclude([&] { map = shifted_map(rt.dist(d).map(), nranks, c.band); });
        const DistHandle d2 =
            spans(kRepartition, [&] { return rt.repartition(d, std::move(map)); });
        const ScheduleHandle plan =
            spans(kPlanRemap, [&] { return rt.plan_remap(d, d2); });
        const std::uint64_t bytes0 = comm.stats().bytes_sent;
        std::vector<double> y2 = spans(kRemap, [&] {
          return rt.remap<double>(plan, std::span<const double>{y.data(), owned.size()});
        });
        const std::uint64_t moved = comm.stats().bytes_sent - bytes0;
        const Counters last = epoch_counters(rt, d);
        h = spans(kInspect, [&] { return rt.inspect(d2, ind); });
        clock.exclude([&] {
          for (int i = 0; i < cCounterCount; ++i) retired[i] += last[i];
        });
        rt.retire(d);
        const std::size_t released = rt.compact();
        d = d2;
        y = std::move(y2);
        clock.exclude([&] { owned = rt.owned_globals(d); });
        if (first) {
          ++out.inspect_calls;
          ++out.repartitions;
          out.remap_bytes += moved;
          out.compact_released += released;
        }
      }
      if (c.adaptive()) {
        local = rt.local_refs(rt.bind(d, ind));
        words = packed_words(rt.schedule(h), me);
      }

      // Owners publish x for this step, then the gather fetches ghosts.
      spans(kCompute, [&] {
        extent = static_cast<std::size_t>(rt.extent(h));
        x.resize(extent);
        y.resize(extent);
        for (std::size_t i = 0; i < owned.size(); ++i)
          x[i] = gather_value(owned[i], step);
        comm.charge_work(kWorkPerElement * static_cast<double>(owned.size()));
      });
      const comm::CommHandle hg =
          spans(kPack, [&] { return rt.gather_async<double>(h, std::span<double>{x}); });
      spans(kWire, [&] { rt.comm_flush(); });
      spans(kWait, [&] { rt.comm_wait(hg); });
      clock.exclude([&] {
        const std::span<const GlobalIndex> refs = ind.values();
        bool ok = true;
        for (std::size_t j = 0; j < refs.size() && ok; ++j)
          ok = x[static_cast<std::size_t>(local[j])] == gather_value(refs[j], step);
        out.checks.expect(ok, "sweep gather delivered a wrong value at step " +
                                  std::to_string(step));
      });

      // Body: every reference adds 1 to y; ghost sums go back to owners.
      spans(kCompute, [&] {
        std::fill(y.begin() + static_cast<std::ptrdiff_t>(owned.size()), y.end(), 0.0);
        for (GlobalIndex l : local) y[static_cast<std::size_t>(l)] += 1.0;
        comm.charge_work(kWorkPerElement * static_cast<double>(local.size()));
      });
      const comm::CommHandle hs = spans(
          kPack, [&] { return rt.scatter_add_async<double>(h, std::span<double>{y}); });
      spans(kWire, [&] { rt.comm_flush(); });
      spans(kWait, [&] { rt.comm_wait(hs); });

      const double dt = clock.wall();
      round_s += dt;
      round_cpu_s += clock.cpu();
      if (!spans.on) out.step_s.push_back(dt);
      if (first) out.pack_words += words;
    }

    out.round_s.push_back(round_s);
    out.round_traced.push_back(spans.on ? 1 : 0);
    if (spans.on) {
      out.traced_steps += c.round_steps;
      out.traced_s += round_s;
    }
    if (first) {
      out.round0_model_s = comm.now() - m_round;
      out.round0_compute_s = comm.stats().compute_s - compute_before;
      const Counters after = snapshot();
      for (int i = 0; i < cCounterCount; ++i) out.round0[i] = after[i] - before[i];
      out.registry_bytes = rt.registry_bytes();
      const runtime::ScheduleRegistry::Stats rs = rt.registry_stats(d);
      out.run_fraction = ratio(static_cast<double>(rs.run_elements),
                               static_cast<double>(rs.run_elements + rs.residue_elements));
    }
    out.round_cpu_s.push_back(round_cpu_s);
    out.kernel_s.push_back(reference_kernel(comm));
    // The kernel's barriers hold every rank until round 0 is done here.
    if (first && me == 0) out.round0_rss_mb = peak_rss_mb();

    // Every rank takes the same decision: the slowest rank's elapsed time
    // and mean round length decide whether another round fits.
    const int rounds = round + 1;
    const double elapsed = comm.allreduce_max(since(loop_start));
    const int min_rounds = cli.trace ? 2 : 1;
    if (rounds >= min_rounds && elapsed + elapsed / rounds > cli.seconds) break;
  }
  out.steps = step;
  out.layers = spans.totals;
  out.events = std::move(spans.events);

  // Bench-side compile timing (outside every round): lower the live
  // schedule the way the registry does on first execute.
  if (cli.trace) {
    std::vector<double> samples;
    for (int i = 0; i < 5; ++i) {
      const Clock::time_point t = Clock::now();
      const compile::SchedulePlan plan = compile::SchedulePlan::compile(rt.schedule(h));
      samples.push_back(since(t));
      out.checks.expect(plan.stats().total_elements > 0 || words == 0,
                        "compiled plan covers no elements");
    }
    out.compile_s = median(samples);
  }
  out.owned = std::move(owned);
  out.y.assign(y.begin(), y.begin() + static_cast<std::ptrdiff_t>(out.owned.size()));
}

/// The scatter_add reference: replay every rank's reference stream and count
/// how many step-references each element received.
std::vector<double> expected_counts(const SweepConfig& c, std::uint64_t seed,
                                    int steps) {
  std::vector<double> count(static_cast<std::size_t>(c.n), 0.0);
  for (int r = 0; r < kRanks; ++r) {
    std::vector<GlobalIndex> refs = initial_refs(c, seed, r);
    std::vector<int> active_from(refs.size(), 0);
    for (int s = 0; s < steps; ++s) {
      if (!replaces_at(c, s)) continue;
      for (const auto& [slot, value] : replacement(c, r, s)) {
        count[static_cast<std::size_t>(refs[slot])] += s - active_from[slot];
        refs[slot] = value;
        active_from[slot] = s;
      }
    }
    for (std::size_t j = 0; j < refs.size(); ++j)
      count[static_cast<std::size_t>(refs[j])] += steps - active_from[j];
  }
  return count;
}

void run_sweep(const SweepConfig& c, const Cli& cli, Report& report,
               Checks& checks) {
  const Clock::time_point origin = Clock::now();
  std::vector<double> setup_s, setup_model_s;
  std::vector<SweepRankOut> out;
  const auto sum_over = [&](auto&& f) {
    double s = 0;
    for (const SweepRankOut& o : out) s += f(o);
    return s;
  };
  for (int i = 0; i < kSetups; ++i) {
    const bool measure = i == kSetups - 1;
    out.assign(kRanks, SweepRankOut{});
    {
      sim::Machine machine(kRanks, modern_node());
      machine.run([&](sim::Comm& comm) {
        sweep_rank(comm, c, cli, !measure, origin,
                   out[static_cast<std::size_t>(comm.rank())]);
      });
    }
    release_free_memory();
    double model = 0;
    for (const SweepRankOut& o : out) model = std::max(model, o.setup_model_s);
    setup_s.push_back(at_reference_speed(
        sum_over([](const SweepRankOut& o) { return o.setup_cpu_s; }),
        sum_over([](const SweepRankOut& o) { return o.setup_kernel_s; }),
        sum_over([](const SweepRankOut& o) { return o.kernel_s[0]; })));
    setup_model_s.push_back(model);
  }

  // Final scatter_add check against the replayed reference streams.
  const int steps = out[0].steps;
  const std::vector<double> expected = expected_counts(c, cli.seed, steps);
  GlobalIndex covered = 0;
  for (int r = 0; r < kRanks; ++r) {
    const SweepRankOut& o = out[static_cast<std::size_t>(r)];
    checks.merge(o.checks);
    checks.expect(o.steps == steps, "ranks ran different step counts");
    bool ok = o.owned.size() == o.y.size();
    for (std::size_t i = 0; i < o.owned.size() && ok; ++i)
      ok = o.y[i] == expected[static_cast<std::size_t>(o.owned[i])];
    covered += static_cast<GlobalIndex>(o.owned.size());
    checks.expect(ok, "scatter_add sums on rank " + std::to_string(r) +
                          " differ from the replayed reference");
  }
  checks.expect(covered == c.n, "owned elements do not partition the index space");

  // Per round: host time is the ranks' summed CPU time at the reference
  // speed, between the kernels before and after the round (kernel_s[k] and
  // kernel_s[k + 1]); wall time is the slowest rank's timed seconds.
  const std::size_t rounds = out[0].round_s.size();
  std::vector<double> host_ms, untraced_ms, traced_ms, kernel_ms;
  const auto kernel = [&](std::size_t i) {
    return sum_over([&](const SweepRankOut& o) { return o.kernel_s[i]; });
  };
  for (std::size_t k = 0; k < rounds; ++k) {
    double wall = 0;
    for (const SweepRankOut& o : out) wall = std::max(wall, o.round_s[k]);
    kernel_ms.push_back(kernel(k + 1) * 1e3 / kRanks);
    if (out[0].round_traced[k]) {
      traced_ms.push_back(wall * 1e3 / c.round_steps);
      continue;
    }
    untraced_ms.push_back(wall * 1e3 / c.round_steps);
    host_ms.push_back(
        at_reference_speed(sum_over([&](const SweepRankOut& o) { return o.round_cpu_s[k]; }),
                           kernel(k), kernel(k + 1)) *
        1e3 / c.round_steps);
  }
  const double wall_ms = median(untraced_ms);
  const double steps_d = c.round_steps;
  const auto max_over = [&](auto&& f) {
    double m = 0;
    for (const SweepRankOut& o : out) m = std::max(m, static_cast<double>(f(o)));
    return m;
  };

  report.set("host_ms_per_step", median(host_ms));
  report.set("modeled_ms_per_step",
             max_over([](const SweepRankOut& o) { return o.round0_model_s; }) *
                 1e3 / steps_d);
  report.set("setup_s", median(setup_s));
  report.set("modeled_setup_s", median(setup_model_s));
  report.set("peak_rss_mb", out[0].round0_rss_mb);
  report.set("wall_ms_per_step", wall_ms);
  report.set("host.kernel_ms", median(kernel_ms));
  if (!cli.trace) return;

  std::vector<TraceEvent> events;
  std::vector<std::string> lanes;
  for (int r = 0; r < kRanks; ++r) {
    const SweepRankOut& o = out[static_cast<std::size_t>(r)];
    events.insert(events.end(), o.events.begin(), o.events.end());
    lanes.push_back("rank " + std::to_string(r));
  }
  write_trace(cli.trace_out, events, lanes);

  const auto layer_ms = [&](Layer l, bool model) {
    return max_over([&](const SweepRankOut& o) {
      const LayerTotals& t = o.layers[static_cast<std::size_t>(l)];
      return (model ? t.model_s : t.host_s) * 1e3 / std::max(o.traced_steps, 1);
    });
  };
  const auto per_call_ms = [&](Layer l) {
    return max_over([&](const SweepRankOut& o) {
      const LayerTotals& t = o.layers[static_cast<std::size_t>(l)];
      return ratio(t.host_s * 1e3, static_cast<double>(t.calls));
    });
  };
  const auto counter = [&](Counter k) {
    return max_over([&](const SweepRankOut& o) { return o.round0[k]; });
  };
  double hits = 0, inserts = 0, compute_max = 0, compute_sum = 0;
  for (const SweepRankOut& o : out) {
    hits += static_cast<double>(o.round0[cHits]);
    inserts += static_cast<double>(o.round0[cInserts]);
    compute_max = std::max(compute_max, o.round0_compute_s);
    compute_sum += o.round0_compute_s;
  }
  // Step samples: the slowest rank at each untraced step.
  std::vector<double> step_ms(out[0].step_s.size(), 0.0);
  for (const SweepRankOut& o : out)
    for (std::size_t i = 0; i < step_ms.size() && i < o.step_s.size(); ++i)
      step_ms[i] = std::max(step_ms[i], o.step_s[i] * 1e3);
  // Span coverage: the share of a rank's traced step time its spans account
  // for, on the least-covered rank.
  double coverage = 100.0;
  for (const SweepRankOut& o : out) {
    double spanned = 0;
    for (const LayerTotals& t : o.layers) spanned += t.host_s;
    coverage = std::min(coverage, 100.0 * ratio(spanned, o.traced_s));
  }

  report.set("inspect.host_ms_per_step", layer_ms(kInspect, false));
  report.set("inspect.model_ms_per_step", layer_ms(kInspect, true));
  report.set("inspect.calls",
             max_over([](const SweepRankOut& o) { return o.inspect_calls; }));
  report.set("translate.lookups_per_step", counter(cTranslations) / steps_d);
  report.set("translate.reused_homes", counter(cReusedHomes));
  report.set("hash.inserts_per_step", counter(cInserts) / steps_d);
  report.set("hash.hit_ratio", ratio(hits, hits + inserts));
  report.set("schedule.rebuilt", counter(cRebuilt));
  report.set("schedule.patched", counter(cPatched));
  report.set("schedule.carried_plans", counter(cCarriedPlans));
  report.set("compile.host_ms_per_plan",
             max_over([](const SweepRankOut& o) { return o.compile_s; }) * 1e3);
  report.set("compile.plans", counter(cCompiledPlans));
  report.set("compile.run_fraction",
             max_over([](const SweepRankOut& o) { return o.run_fraction; }));
  report.set("compile.recompiles", counter(cRecompiles));
  report.set("compile.carried_plans", counter(cCarriedCompiled));
  report.set("pack.host_ms_per_step", layer_ms(kPack, false));
  report.set("pack.model_ms_per_step", layer_ms(kPack, true));
  report.set("pack.words_per_step", max_over([&](const SweepRankOut& o) {
               return static_cast<double>(o.pack_words) / steps_d;
             }));
  report.set("pack.host_ns_per_word", max_over([&](const SweepRankOut& o) {
               const double words = static_cast<double>(o.pack_words) / steps_d;
               return ratio(o.layers[kPack].host_s * 1e9 /
                                std::max(o.traced_steps, 1),
                            words);
             }));
  report.set("wire.host_ms_per_step", layer_ms(kWire, false));
  report.set("wire.msgs_per_step", counter(cMsgs) / steps_d);
  report.set("wire.kb_per_step", counter(cBytes) / 1024.0 / steps_d);
  report.set("wire.coalesced_segments_per_step", counter(cSegments) / steps_d);
  report.set("wait.host_ms_per_step", layer_ms(kWait, false));
  report.set("wait.model_ms_per_step", layer_ms(kWait, true));
  report.set("compute.host_ms_per_step", layer_ms(kCompute, false));
  report.set("compute.model_ms_per_step", layer_ms(kCompute, true));
  report.set("load_balance", ratio(compute_max * kRanks, compute_sum));
  report.set("repartition.host_ms", per_call_ms(kRepartition));
  report.set("plan_remap.host_ms", per_call_ms(kPlanRemap));
  report.set("remap.host_ms", per_call_ms(kRemap));
  report.set("remap.kb_moved", max_over([](const SweepRankOut& o) {
               return ratio(static_cast<double>(o.remap_bytes) / 1024.0,
                            static_cast<double>(o.repartitions));
             }));
  report.set("registry.kb", max_over([](const SweepRankOut& o) {
               return o.registry_bytes;
             }) / 1024.0);
  report.set("registry.compact_released_kb", max_over([](const SweepRankOut& o) {
               return o.compact_released;
             }) / 1024.0);
  report.set("step.p50_ms", quantile(step_ms, 0.5));
  report.set("step.p99_ms", quantile(step_ms, 0.99));
  report.set("step.samples", static_cast<double>(step_ms.size()));
  report.set("trace.overhead_pct",
             100.0 * (ratio(median(traced_ms), wall_ms) - 1.0));
  report.set("trace.coverage_pct", coverage);
}

// ---- the applications ---------------------------------------------------------
//
// An app round is one whole app call on a fresh Machine; a set-up is the
// same call with zero steps. The bench cannot see inside an app call, so
// the apps' per-layer numbers are what their result structs expose.

/// Physical traffic of the machine's last run, summed over ranks.
struct Traffic {
  double msgs = 0, bytes = 0, segments = 0;
};

Traffic traffic_of(const sim::Machine& m) {
  Traffic t;
  for (int r = 0; r < m.size(); ++r) {
    t.msgs += static_cast<double>(m.stats(r).msgs_sent);
    t.bytes += static_cast<double>(m.stats(r).bytes_sent);
    t.segments += static_cast<double>(m.stats(r).coalesced_segments);
  }
  return t;
}

/// An app's modeled time per step moves chaotically with its input: one
/// more DSMC particle re-rolls every later collision and shifts the step
/// time by about 0.05% either way. So an app run cycles through
/// kAppInputs inputs drawn from its seed, and its modeled metrics are the
/// mean over them.
constexpr int kAppInputs = 4;

/// Seed of input `input` of an app run.
std::uint64_t input_seed(std::uint64_t seed, int input) {
  return seed * kAppInputs + static_cast<std::uint64_t>(input);
}

/// One app call's measurements.
template <typename Result>
struct AppCall {
  Result result;
  double wall_s = 0;
  double host_s = 0;  ///< process CPU seconds at the reference speed
  double rss_mb = 0;  ///< peak resident memory during the call
  Traffic traffic;
};

template <typename Result>
struct AppRuns {
  /// Per zero-step and per whole app call: wall and host seconds.
  std::vector<double> setup_wall_s, setup_host_s, round_wall_s, round_host_s;
  std::vector<double> kernel_s;      ///< the reference kernel after every call
  std::vector<double> round_rss_mb;  ///< peak resident memory per whole call
  /// Modeled execution time of each input's zero-step and whole calls.
  std::array<double, kAppInputs> setup_model{}, round_model{};
  Result setup;                 ///< input 0's zero-step call
  Traffic setup_traffic;
  Result first;                 ///< input 0's first whole call
  Traffic first_traffic;
};

/// kSetups zero-step app calls, then whole `steps`-step calls until
/// `seconds` of loop time are spent, both cycling through the inputs
/// (every input runs at least once). A repeated input must repeat its
/// modeled time exactly.
template <typename Result, typename Drive>
AppRuns<Result> time_app(Drive drive, int steps, double seconds,
                         Clock::time_point origin,
                         std::vector<TraceEvent>& events, Checks& checks) {
  static_assert(kSetups >= kAppInputs);
  AppRuns<Result> runs;
  // Only the rank threads run during a call (the main thread blocks in
  // Machine::run), so the process CPU time is theirs.
  double before = reference_kernel_s();  // the kernel after the previous call
  const auto timed = [&](int n, int input, const char* name) {
    AppCall<Result> c;
    reset_peak_rss();
    const Clock::time_point t0 = Clock::now();
    const double cpu0 = cpu_s(CLOCK_PROCESS_CPUTIME_ID);
    {
      sim::Machine machine(kRanks);
      c.result = drive(machine, n, input);
      c.wall_s = since(t0);
      c.traffic = traffic_of(machine);
    }
    const double cpu = cpu_s(CLOCK_PROCESS_CPUTIME_ID) - cpu0;
    c.rss_mb = peak_rss_mb();
    release_free_memory();
    const double after = reference_kernel_s();
    c.host_s = at_reference_speed(cpu, before, after);
    runs.kernel_s.push_back(after);
    before = after;
    events.push_back({name, 0,
                      std::chrono::duration<double, std::micro>(t0 - origin).count(),
                      c.wall_s * 1e6, c.result.execution_time * 1e3});
    return c;
  };
  const auto note_model = [&](std::array<double, kAppInputs>& model, int call,
                              double value) {
    if (call < kAppInputs)
      model[static_cast<std::size_t>(call)] = value;
    else
      checks.expect(value == model[static_cast<std::size_t>(call % kAppInputs)],
                    "repeated app calls disagree in modeled time");
  };
  for (int i = 0; i < kSetups; ++i) {
    AppCall<Result> c = timed(0, i % kAppInputs, "setup");
    runs.setup_wall_s.push_back(c.wall_s);
    runs.setup_host_s.push_back(c.host_s);
    note_model(runs.setup_model, i, c.result.execution_time);
    if (i == 0) {
      runs.setup = std::move(c.result);
      runs.setup_traffic = c.traffic;
    }
  }
  const Clock::time_point loop_start = Clock::now();
  for (int k = 0;; ++k) {
    AppCall<Result> c = timed(steps, k % kAppInputs, "round");
    runs.round_wall_s.push_back(c.wall_s);
    runs.round_host_s.push_back(c.host_s);
    runs.round_rss_mb.push_back(c.rss_mb);
    note_model(runs.round_model, k, c.result.execution_time);
    if (k == 0) {
      runs.first = std::move(c.result);
      runs.first_traffic = c.traffic;
    }
    const double rounds = k + 1;
    if (rounds >= kAppInputs && since(loop_start) * (1.0 + 1.0 / rounds) > seconds) break;
  }
  return runs;
}

/// End-to-end metrics and the shared per-layer ones of an app workload.
template <typename Result>
void report_app(const AppRuns<Result>& runs, int steps, Report& report) {
  const Result& s = runs.setup;
  const Result& r = runs.first;
  // A whole call's time per step, less the median zero-step call.
  const auto per_step_ms = [&](const std::vector<double>& rounds,
                               const std::vector<double>& setups) {
    const double setup = median(setups);
    std::vector<double> ms;
    for (double t : rounds) ms.push_back((t - setup) * 1e3 / steps);
    return median(ms);
  };
  double step_model = 0, setup_model = 0;
  for (int i = 0; i < kAppInputs; ++i) {
    const auto k = static_cast<std::size_t>(i);
    step_model += (runs.round_model[k] - runs.setup_model[k]) / steps / kAppInputs;
    setup_model += runs.setup_model[k] / kAppInputs;
  }
  report.set("host_ms_per_step", per_step_ms(runs.round_host_s, runs.setup_host_s));
  report.set("modeled_ms_per_step", step_model * 1e3);
  report.set("setup_s", median(runs.setup_host_s));
  report.set("modeled_setup_s", setup_model);
  report.set("peak_rss_mb", median(runs.round_rss_mb));
  report.set("wall_ms_per_step", per_step_ms(runs.round_wall_s, runs.setup_wall_s));
  report.set("host.kernel_ms", median(runs.kernel_s) * 1e3 / kRanks);

  // The result structs split modeled time only into computation and
  // communication; they stand in for the compute and wait layers.
  report.set("compute.model_ms_per_step",
             (r.computation_time - s.computation_time) * 1e3 / steps);
  report.set("wait.model_ms_per_step",
             (r.communication_time - s.communication_time) * 1e3 / steps);
  const Traffic& a = runs.setup_traffic;
  const Traffic& b = runs.first_traffic;
  report.set("wire.msgs_per_step", (b.msgs - a.msgs) / steps);
  report.set("wire.kb_per_step", (b.bytes - a.bytes) / 1024.0 / steps);
  report.set("wire.coalesced_segments_per_step", (b.segments - a.segments) / steps);
  report.set("load_balance", r.load_balance);
  report.set("rebalance.diffusions", r.diffusions);
  report.set("rebalance.rebuilds", r.rebuilds);
}

struct CharmmWorkload {
  charmm::ParallelCharmmConfig cfg;
  int steps = 0;
  charmm::SystemParams check_system;  ///< the sequential cross-check
  int check_steps = 0;
};

CharmmWorkload charmm_workload(const Cli& cli) {
  CharmmWorkload w;
  w.cfg.shape = charmm::CharmmShape::kStepGraph;
  w.cfg.partitioner = core::PartitionerKind::kRcb;
  w.cfg.run.nb_rebuild_every = 25;
  w.cfg.collect_state = true;
  w.steps = 50;
  w.check_system = charmm::SystemParams::small(2000, cli.seed);
  w.check_steps = 30;
  if (cli.quick) {
    w.cfg.system = charmm::SystemParams::small(600);
    w.cfg.run.nb_rebuild_every = 5;
    w.steps = 10;
    w.check_system = charmm::SystemParams::small(300, cli.seed);
    w.check_steps = 8;
  }
  return w;
}

void run_charmm(const Cli& cli, Report& report, Checks& checks,
                std::vector<TraceEvent>& events, Clock::time_point origin) {
  const CharmmWorkload w = charmm_workload(cli);
  const auto drive = [&](sim::Machine& m, int steps, int input) {
    charmm::ParallelCharmmConfig cfg = w.cfg;
    cfg.system.cutoff +=
        Rng(input_seed(cli.seed, input)).uniform(0.0, kCharmmCutoffJitter);
    cfg.run.steps = steps;
    return charmm::run_parallel_charmm(m, cfg);
  };
  const auto runs = time_app<charmm::ParallelCharmmResult>(
      drive, w.steps, cli.seconds, origin, events, checks);
  const charmm::ParallelCharmmResult& r = runs.first;
  const charmm::ParallelCharmmResult& s = runs.setup;

  // Pairwise forces cancel, so the collected total force is ~0 relative to
  // the force magnitudes.
  part::Vec3 total{};
  double magnitude = 0;
  for (const part::Vec3& f : r.force) {
    total = total + f;
    magnitude += std::abs(f.x) + std::abs(f.y) + std::abs(f.z);
  }
  checks.expect(r.force.size() == w.cfg.system.n_atoms,
                "collected force array has the wrong size");
  checks.expect(std::abs(total.x) + std::abs(total.y) + std::abs(total.z) <=
                    1e-9 * magnitude,
                "total force does not cancel");

  // A small run of the same app against the sequential reference, held
  // to the physics tolerance the CHARMM tests use across list rebuilds.
  charmm::ParallelCharmmConfig small = w.cfg;
  small.system = w.check_system;
  small.run.steps = w.check_steps;
  sim::Machine m(kRanks);
  const charmm::ParallelCharmmResult par = charmm::run_parallel_charmm(m, small);
  const charmm::SequentialResult seq = charmm::run_sequential_charmm(
      charmm::MolecularSystem::generate(small.system), small.run);
  bool close = par.pos.size() == seq.pos.size();
  for (std::size_t i = 0; i < seq.pos.size() && close; ++i)
    for (int a = 0; a < 3; ++a) close = close && std::abs(par.pos[i][a] - seq.pos[i][a]) <= 5e-3;
  checks.expect(close, "parallel CHARMM drifted from the sequential reference");
  checks.expect(par.phases.nb_rebuilds == seq.nb_rebuilds,
                "parallel CHARMM rebuilt the non-bonded list a different number of times");

  report_app(runs, w.steps, report);
  const double steps = w.steps;
  report.set("inspect.calls", r.phases.nb_rebuilds - s.phases.nb_rebuilds);
  report.set("translate.lookups_per_step",
             static_cast<double>(r.translations - s.translations) / steps);
  report.set("translate.reused_homes", static_cast<double>(r.reused_homes - s.reused_homes));
  report.set("schedule.rebuilt",
             static_cast<double>(r.rebuilt_schedules - s.rebuilt_schedules));
  report.set("schedule.patched",
             static_cast<double>(r.patched_schedules - s.patched_schedules));
  report.set("charmm.schedule_gen_model_s", r.phases.schedule_gen);
  report.set("charmm.schedule_regen_model_s", r.phases.schedule_regen);
  report.set("graph.hazard_stalls", static_cast<double>(r.hazard_stalls));
  report.set("graph.pipelined_gathers", static_cast<double>(r.pipelined_gathers));
  report.set("graph.overlapped_posts", static_cast<double>(r.steps_overlapped));
  report.set("charmm.nb_list_model_s", r.phases.nb_list);
  report.set("charmm.executor_model_s", r.phases.executor);
}

struct DsmcWorkload {
  dsmc::ParallelDsmcConfig cfg;
  int steps = 0;
  dsmc::ParallelDsmcConfig check;  ///< the sequential cross-check
};

DsmcWorkload dsmc_workload(const Cli& cli) {
  DsmcWorkload w;
  dsmc::DsmcParams& p = w.cfg.params;
  p.nx = p.ny = cli.quick ? 32 : 128;
  p.n_particles = cli.quick ? 8000 : 262144;
  // table12's density-drift settings: a density ramp the +x drift erodes,
  // with 1% births and deaths per step.
  p.nonuniform_init = true;
  p.flow_bias = 0.8;
  p.drift = 0.5;
  p.births_per_step = p.n_particles / 100;
  p.death_rate = 0.01;
  w.cfg.executor = dsmc::DsmcExecutor::kStepGraph;
  w.cfg.autonomic = true;
  w.cfg.collect_state = true;
  w.steps = cli.quick ? 20 : 100;
  w.check = w.cfg;
  w.check.params.seed = cli.seed;
  w.check.params.nx = w.check.params.ny = 16;
  w.check.params.n_particles = 4000;
  w.check.params.births_per_step = 40;
  w.check.steps = 24;
  return w;
}

bool same_particles(const std::vector<dsmc::Particle>& a,
                    const std::vector<dsmc::Particle>& b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(),
                    [](const dsmc::Particle& p, const dsmc::Particle& q) {
                      return p.id == q.id && p.x == q.x && p.y == q.y &&
                             p.z == q.z && p.vx == q.vx && p.vy == q.vy &&
                             p.vz == q.vz;
                    });
}

void run_dsmc(const Cli& cli, Report& report, Checks& checks,
              std::vector<TraceEvent>& events, Clock::time_point origin) {
  const DsmcWorkload w = dsmc_workload(cli);
  // Particles are drawn in id order, so an input's extra ones leave every
  // other particle's initial state as it is.
  const auto config = [&](int input) {
    dsmc::ParallelDsmcConfig cfg = w.cfg;
    cfg.params.n_particles += static_cast<GlobalIndex>(
        Rng(input_seed(cli.seed, input)).below(kDsmcPopulationJitter));
    return cfg;
  };
  const auto drive = [&](sim::Machine& m, int steps, int input) {
    dsmc::ParallelDsmcConfig cfg = config(input);
    cfg.steps = steps;
    return dsmc::run_parallel_dsmc(m, cfg);
  };
  const auto runs = time_app<dsmc::ParallelDsmcResult>(drive, w.steps, cli.seconds,
                                                       origin, events, checks);
  const dsmc::ParallelDsmcResult& r = runs.first;

  // Ids are unique, and the survivors are exactly the closed-form
  // birth/death model: absorption is a pure hash of (seed, id, step).
  const dsmc::DsmcParams p = config(0).params;
  std::vector<GlobalIndex> model(static_cast<std::size_t>(p.n_particles));
  std::iota(model.begin(), model.end(), GlobalIndex{0});
  for (int step = 0; step < w.steps; ++step) {
    std::erase_if(model, [&](GlobalIndex id) { return dsmc::absorbed(p, id, step); });
    for (GlobalIndex i = 0; i < p.births_per_step; ++i)
      model.push_back(p.n_particles + step * p.births_per_step + i);
  }
  bool unique = true;
  for (std::size_t i = 1; i < r.particles.size() && unique; ++i)
    unique = r.particles[i - 1].id < r.particles[i].id;
  checks.expect(unique, "DSMC particle ids are not unique");
  bool live = r.particles.size() == model.size();
  for (std::size_t i = 0; i < model.size() && live; ++i)
    live = r.particles[i].id == model[i];
  checks.expect(live, "DSMC survivors differ from the closed-form birth/death model");

  // A small run of the same configuration is bitwise the sequential DSMC.
  sim::Machine m(kRanks);
  const dsmc::ParallelDsmcResult par = dsmc::run_parallel_dsmc(m, w.check);
  const dsmc::SequentialDsmcResult seq =
      dsmc::run_sequential_dsmc(w.check.params, w.check.steps);
  checks.expect(same_particles(par.particles, seq.particles) &&
                    par.collisions == seq.collisions,
                "parallel DSMC is not bitwise the sequential DSMC");

  report_app(runs, w.steps, report);
  report.set("dsmc.collide_model_s", r.phases.collide);
  report.set("dsmc.migrate_model_s", r.phases.reduce_append);
  report.set("dsmc.peak_particle_kb", static_cast<double>(r.peak_particle_bytes) / 1024.0);
  report.set("dsmc.remap_model_s", r.phases.remap);
}

// ---- calibration: host ratio next to modeled ratio ---------------------------

struct CalibrationPair {
  std::string name;
  double host = 0;   ///< host-time ratio
  double model = 0;  ///< modeled-time ratio
};

/// Median host seconds of `f` over `reps` calls.
template <typename F>
double host_median(int reps, F&& f) {
  std::vector<double> s;
  for (int i = 0; i < reps; ++i) {
    const Clock::time_point t = Clock::now();
    f();
    s.push_back(since(t));
  }
  return median(s);
}

/// kPackWord / kSegmentWord: compile::pack_block over a residue-only plan
/// vs a run-only plan of the same length.
CalibrationPair calibrate_pack(bool quick) {
  const GlobalIndex n = quick ? (1 << 14) : (1 << 18);
  std::vector<double> src(static_cast<std::size_t>(n)), out(src.size());
  std::iota(src.begin(), src.end(), 0.0);
  compile::BlockPlan run, residue;
  run.count = residue.count = n;
  run.lo = residue.lo = 0;
  run.hi = residue.hi = n - 1;
  run.ops = {{0, n, 1}};
  residue.ops = {{0, n, 0}};
  residue.residue.resize(static_cast<std::size_t>(n));
  std::iota(residue.residue.begin(), residue.residue.end(), GlobalIndex{0});
  Rng rng(2026);
  for (std::size_t i = residue.residue.size(); i > 1; --i)
    std::swap(residue.residue[i - 1], residue.residue[rng.below(i)]);

  double sink = 0;
  const auto time_plan = [&](const compile::BlockPlan& b) {
    return host_median(quick ? 5 : 41, [&] {
      compile::pack_block<double>(b, std::span<const double>{src}, out.data());
      sink += out[static_cast<std::size_t>(n) / 2];
    });
  };
  const double host_run = time_plan(run);
  const double host_residue = time_plan(residue);
  CHAOS_CHECK(sink > 0);
  return {"kPackWord/kSegmentWord (residue vs run pack)",
          ratio(host_residue, host_run),
          ratio(compile::block_work(residue, sizeof(double)),
                compile::block_work(run, sizeof(double)))};
}

/// kHashInsert / kHashHit: a cold IndexHashTable::hash vs a warm re-hash of
/// the same references; and a cold translation-table build vs a kDeltaScan
/// patch. Measured on rank 0 of a 4-rank machine (every rank does the same).
std::pair<CalibrationPair, CalibrationPair> calibrate_inspector(bool quick) {
  const GlobalIndex n = quick ? (1 << 15) : (1 << 20);
  const std::size_t m = static_cast<std::size_t>(n / 2);
  const int reps = quick ? 3 : 9;
  CalibrationPair hash{"kHashInsert/kHashHit (cold vs warm hash)"};
  CalibrationPair table{"cold table build vs kDeltaScan patch"};
  sim::Machine machine(kRanks, modern_node());
  machine.run([&](sim::Comm& comm) {
    std::vector<int> map(static_cast<std::size_t>(n));
    const part::BlockLayout layout(n, comm.size());
    for (GlobalIndex g = 0; g < n; ++g) map[static_cast<std::size_t>(g)] = layout.owner(g);
    const core::TranslationTable tt = core::TranslationTable::from_full_map(comm, map);
    const std::vector<GlobalIndex> refs =
        bench::pattern_refs(bench::Pattern::kRandom, comm.rank(), comm.size(), n, m, 2026);

    std::vector<double> cold_s, warm_s, cold_m, warm_m;
    for (int i = 0; i < reps; ++i) {
      core::IndexHashTable ht(tt.owned_count(comm.rank()));
      std::vector<GlobalIndex> a = refs, b = refs;
      comm.barrier();
      double m0 = comm.now();
      Clock::time_point t0 = Clock::now();
      ht.hash(comm, tt, a);
      cold_s.push_back(since(t0));
      cold_m.push_back(comm.now() - m0);
      m0 = comm.now();
      t0 = Clock::now();
      ht.hash(comm, tt, b);
      warm_s.push_back(since(t0));
      warm_m.push_back(comm.now() - m0);
    }

    // Only the reserved top band moves, so every other Home stays put and
    // the patch is the delta scan alone.
    std::vector<int> moved = map;
    for (GlobalIndex g = n - bench::kReservedTop; g < n; ++g)
      moved[static_cast<std::size_t>(g)] = 0;
    const core::OwnerDelta delta = core::OwnerDelta::compute(map, moved);
    std::vector<double> build_s, patch_s, build_m, patch_m;
    for (int i = 0; i < reps; ++i) {
      comm.barrier();
      double m0 = comm.now();
      Clock::time_point t0 = Clock::now();
      const core::TranslationTable cold = core::TranslationTable::from_full_map(comm, moved);
      build_s.push_back(since(t0));
      build_m.push_back(comm.now() - m0);
      comm.barrier();
      m0 = comm.now();
      t0 = Clock::now();
      const core::TranslationTable warm = core::TranslationTable::patched(comm, tt, moved, delta);
      patch_s.push_back(since(t0));
      patch_m.push_back(comm.now() - m0);
      CHAOS_CHECK(cold == warm, "patched translation table differs from a cold build");
    }
    if (comm.rank() == 0) {
      hash.host = ratio(median(cold_s), median(warm_s));
      hash.model = ratio(median(cold_m), median(warm_m));
      table.host = ratio(median(build_s), median(patch_s));
      table.model = ratio(median(build_m), median(patch_m));
    }
  });
  return {hash, table};
}

int calibrate(bool quick) {
  std::vector<CalibrationPair> pairs{calibrate_pack(quick)};
  const auto [hash, table] = calibrate_inspector(quick);
  pairs.push_back(hash);
  pairs.push_back(table);
  std::cout << "calibration: host-time ratio vs modeled-time ratio "
               "(report only; a pair is flagged when they differ by > 2x)\n";
  for (const CalibrationPair& p : pairs) {
    const double disagreement = std::max(ratio(p.host, p.model), ratio(p.model, p.host));
    std::cout << "  " << std::left << std::setw(46) << p.name << std::right
              << " host " << std::setw(8) << std::setprecision(3) << p.host
              << "   modeled " << std::setw(8) << p.model
              << (disagreement > 2.0 ? "   FLAG: host and model disagree" : "")
              << "\n";
  }
  return 0;
}

// ---- workloads ----------------------------------------------------------------

SweepConfig sweep_static(bool quick) {
  SweepConfig c;
  c.pattern = bench::Pattern::kBanded;
  c.n = quick ? (1 << 16) : (1 << 19);
  c.refs = quick ? (1 << 14) : 250000;
  c.round_steps = quick ? 10 : 25;
  return c;
}

SweepConfig sweep_adaptive(bool quick) {
  SweepConfig c;
  c.pattern = bench::Pattern::kRandom;
  c.n = quick ? (1 << 16) : (1 << 19);
  c.refs = quick ? (1 << 14) : 250000;
  c.round_steps = quick ? 20 : 100;
  c.reinspect_every = 10;
  return c;
}

int run(const Cli& cli) {
  if (cli.calibrate) return calibrate(cli.quick);
  kernel_table();  // resident before the first measurement
  const Clock::time_point origin = Clock::now();
  Report report;
  Checks checks;
  std::vector<TraceEvent> events;
  if (cli.workload == "charmm") {
    run_charmm(cli, report, checks, events, origin);
  } else if (cli.workload == "dsmc") {
    run_dsmc(cli, report, checks, events, origin);
  } else if (cli.workload == "sweep_static") {
    run_sweep(sweep_static(cli.quick), cli, report, checks);
  } else if (cli.workload == "sweep_adaptive") {
    run_sweep(sweep_adaptive(cli.quick), cli, report, checks);
  } else {
    throw Error("unknown --workload '" + cli.workload +
                "' (charmm | dsmc | sweep_static | sweep_adaptive)");
  }
  if (cli.trace && !events.empty()) write_trace(cli.trace_out, events, {"app"});
  std::cout << cli.workload << " seed " << cli.seed << "\n";
  if (cli.trace)
    report.print(kPerLayer, checks);
  else
    report.print(kEndToEnd, checks);
  return checks.failed == 0 ? 0 : 1;
}
}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_cli(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "chaos_bench: " << e.what() << "\n";
    return 2;
  }
}
