// CHAOS-parallel driver for the mini-CHARMM molecular dynamics simulation
// (paper §4.1), written against the chaos::Runtime facade: all six runtime
// phases as handle operations, schedule-registry reuse across non-bonded
// list regenerations, merged vs multiple schedules, and an optional
// "compiler-generated" mode with per-step modification-record guards
// (paper §5.3.1, Table 6).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "apps/charmm/sequential.hpp"
#include "apps/charmm/system.hpp"
#include "balance/policy.hpp"
#include "core/parallel_partition.hpp"
#include "sim/machine.hpp"
#include "verify/diagnostic.hpp"

namespace chaos::charmm {

/// Executor communication shape (Table 3, plus the step-graph redesign).
/// Every shape is a strict step graph the executor advances once per step;
/// the shapes differ only in their declarations.
enum class CharmmShape {
  /// Declarative chaos::StepGraph over the bonded / non-bonded / integrate
  /// cycle, communication pipelined across steps from the declared array
  /// accesses (the primary driver).
  kStepGraph,
  /// The same step graph executed eagerly — post/flush/wait at every step.
  /// The bitwise reference arm for kStepGraph.
  kStepGraphEager,
  /// Message-driven arm: the non-bonded compute is split into partition
  /// chunks keyed by the gather schedule's recv peers, and each chunk
  /// fires once its peer's ghost positions have landed by the rank's
  /// modeled clock instead of waiting for the whole gather batch. The
  /// non-bonded chunks share one force accumulator (conflicted), so they
  /// fire one at a time in canonical order (local, then ascending peer):
  /// the forces are bitwise identical run to run and across delivery
  /// permutations, though not to kStepGraph, whose unchunked loop sums
  /// in pair-list order.
  kStepGraphArrival,
  /// One merged gather/scatter schedule for both force loops (Table 3 a).
  kMerged,
  /// Separate schedules per loop (Table 3 b), one eager batch per
  /// schedule: duplicated fetches of shared off-processor atoms, one
  /// message per peer per loop. verify::Analyzer's redundant-gather rule
  /// counts the ghost slots fetched twice.
  kMultiple,
  /// Separate schedules posted in one batch per direction, so each flush
  /// sends at most one message per peer (Table 3 c) — run-time message
  /// merging without rebuilding schedules.
  kEngine,
};

struct ParallelCharmmConfig {
  SystemParams system;
  SequentialRunConfig run;  ///< steps / rebuild period / dt
  core::PartitionerKind partitioner = core::PartitionerKind::kRcb;

  /// Executor shape. compiler_generated overrides this to kMultiple
  /// (Table 6 measures generated code, not the engine or the pipelined
  /// graph).
  CharmmShape shape = CharmmShape::kStepGraph;

  /// Table 6 mode: re-partition + remap every k steps (0 = partition once),
  /// alternating RCB and RIB as the paper does.
  int repartition_every = 0;
  bool alternate_partitioners = false;

  /// Autonomic mode: ignore repartition_every and let a balance::Policy
  /// decide when to redistribute from windowed per-rank load telemetry.
  /// Diffusion rebalances adopt an incrementally shifted atom map (the
  /// non-bonded list rows travel with their atoms, schedules re-seed on
  /// the successor epoch); rebuilds run the configured partitioner. The
  /// periodic non-bonded list rebuild cadence is unaffected.
  bool autonomic = false;
  balance::PolicyConfig policy;

  /// Run the compiler-generated path: the kMultiple graph with a
  /// modification-record guard (rt.inspect on the runtime's schedule
  /// registry) for both loops before every advance, and the mechanical
  /// overheads of generated code charged around each phase.
  bool compiler_generated = false;

  /// Collect final global positions/forces into the result (tests only;
  /// costs an allgather outside the timed region).
  bool collect_state = false;

  /// Analysis-only mode: declare the step graph, run the verify::Analyzer
  /// rule pipeline over it, store the findings in the result, and return
  /// WITHOUT simulating anything (the chaos-verify CLI and the shipped-
  /// graphs-clean sweep). Every shape declares a graph.
  bool verify_graph = false;
};

/// Per-rank virtual-time spent in each phase; the bench tables report the
/// max over ranks, like the paper.
struct CharmmPhaseTimes {
  double data_partition = 0;
  double nb_list = 0;        ///< initial build + periodic updates
  double remap_preproc = 0;  ///< data/iteration remap ("Remapping and Preproc")
  double schedule_gen = 0;   ///< first inspector run
  double schedule_regen = 0; ///< inspector re-runs after list updates
  double executor = 0;       ///< gather + compute + scatter + integrate
  int nb_rebuilds = 0;
};

struct ParallelCharmmResult {
  /// Max-over-ranks phase times (paper's Table 2 convention).
  CharmmPhaseTimes phases;
  /// Machine-level metrics (paper's Table 1): all in virtual seconds.
  double execution_time = 0;
  double computation_time = 0;
  double communication_time = 0;
  double load_balance = 0;
  /// Message accounting summed over ranks (from sim::RankStats): physical
  /// messages, and the engine's coalescing counters — segments is the
  /// number of logical per-schedule messages a blocking executor would have
  /// sent for the same traffic.
  std::uint64_t msgs_sent = 0;
  std::uint64_t coalesced_msgs = 0;
  std::uint64_t coalesced_segments = 0;

  /// Cross-epoch reuse accounting, summed over ranks and distribution
  /// epochs: translation-table lookups the inspector actually performed vs
  /// Homes carried forward across repartitions without one, and how many
  /// cached schedules survived a repartition via recv-side patching alone.
  std::uint64_t translations = 0;
  std::uint64_t reused_homes = 0;
  std::uint64_t patched_schedules = 0;
  std::uint64_t rebuilt_schedules = 0;

  /// Step-graph pipelining accounting, reported by the kStepGraph* shapes
  /// only: the Table 3 shapes run no statistics collectives, which would
  /// be charged modeled time. Arming decisions are SPMD-static, so these
  /// are identical on every rank: gather batches posted while an earlier
  /// step's scatters were still in flight, gather batches hoisted ahead of
  /// their step, and forced waits the hazard analysis inserted.
  std::uint64_t steps_overlapped = 0;
  std::uint64_t pipelined_gathers = 0;
  std::uint64_t hazard_stalls = 0;

  /// Message-driven execution accounting (kStepGraphArrival), summed over
  /// ranks — unlike the arming counters above these depend on modeled
  /// arrivals and genuinely differ per rank: chunks that fired while their
  /// step's gather batch was still partially outstanding, clock advances
  /// to the next modeled arrival, conflict classes over built chunk plans,
  /// and pool worker busy-time (host time, the one non-modeled field).
  std::uint64_t chunks_fired_early = 0;
  std::uint64_t arrival_wakeups = 0;
  std::uint64_t color_classes = 0;
  std::uint64_t pool_busy_ns = 0;

  /// Autonomic mode: rebalances the policy fired (= diffusions +
  /// rebuilds); replicated decisions, identical on every rank.
  int rebalances = 0;
  int diffusions = 0;
  int rebuilds = 0;

  /// Per-step wire traffic, summed over ranks (comm::Engine per-batch
  /// snapshots), attributing messages/bytes to individual steps
  /// (kStepGraph* shapes only, like the counters above).
  struct StepTraffic {
    std::string name;
    std::uint64_t gather_msgs = 0;
    std::uint64_t gather_bytes = 0;
    std::uint64_t write_msgs = 0;
    std::uint64_t write_bytes = 0;
  };
  std::vector<StepTraffic> step_traffic;

  /// Global state in global-id order (only when collect_state).
  std::vector<part::Point3> pos;
  std::vector<part::Vec3> force;

  /// Findings of the analysis-only run (cfg.verify_graph), from rank 0
  /// (error rules are declaration-level — identical on every rank).
  std::vector<verify::Diagnostic> verify_diagnostics;
};

/// Runs the full parallel simulation on the given machine. The machine's
/// stats reflect only this run afterwards.
ParallelCharmmResult run_parallel_charmm(sim::Machine& machine,
                                         const ParallelCharmmConfig& cfg);

}  // namespace chaos::charmm
