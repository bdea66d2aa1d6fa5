// CHAOS-parallel driver for the mini-DSMC simulation (paper §4.2):
// cell-based domain decomposition, per-step particle migration through
// light-weight schedules (or through regular schedules, for the Table 4
// comparison), periodic load-balancing remaps with pluggable partitioners
// (Table 5), and a compiler-generated shape that lowers the MOVE phase to
// REDUCE(APPEND, ...) plus the extra size-recovery loop (Table 7).
#pragma once

#include "apps/dsmc/sequential.hpp"
#include "balance/policy.hpp"
#include "core/parallel_partition.hpp"
#include "runtime/step_graph.hpp"
#include "sim/machine.hpp"
#include "verify/diagnostic.hpp"

namespace chaos::dsmc {

/// How the per-step collide/move cycle is driven. Every shape is a step
/// graph (a collide step, then a move step) the driver advances once per
/// step, each verified before it arms; the shapes differ in how the graph
/// runs and in what the move step does.
enum class DsmcExecutor {
  /// Declarative chaos::StepGraph (primary): the move step binds
  /// migrate(mine).to(dest).into(arrived) and the runtime defers the
  /// migration wait to the next collide's derived dependence on `mine`.
  kStepGraph,
  /// The same graph, eager post/flush/wait — the bitwise reference arm.
  kStepGraphEager,
  /// Arrival-driven arm: the collide phase is split into fixed-count cell
  /// chunks with disjoint writes (one particle lives in exactly one cell),
  /// so chunks run as concurrent waves on the graph's worker pool, and the
  /// result stays bitwise identical to the serial arms (collision counts
  /// sum; cell updates never overlap).
  kStepGraphArrival,
  /// Eager graph whose move step migrates inside its own compute through
  /// a blocking light-weight migrate (the hand-sequenced cycle).
  kImperative,
  /// kImperative's graph with regular-schedule migration (Table 4's
  /// expensive path): a full inspector over the destination cells through
  /// a paged translation table plus a per-particle placement exchange,
  /// every step.
  kRegular,
  /// kImperative's graph with the compiler-generated MOVE (Table 7): the
  /// REDUCE(APPEND) lowering plus the extra size-recovery loop, and the
  /// FORALL copy-in/copy-out overhead charged on the collide phase.
  kCompilerGenerated,
};

struct ParallelDsmcConfig {
  DsmcParams params;
  int steps = 50;

  /// Executor shape: how the graph runs and how the MOVE phase migrates.
  DsmcExecutor executor = DsmcExecutor::kStepGraph;

  /// 0 = static partition (cells partitioned once at start, never remapped).
  int remap_every = 0;
  core::PartitionerKind remap_partitioner = core::PartitionerKind::kChain;

  /// Autonomic mode: replace the fixed remap_every cadence with a
  /// balance::Policy fed by windowed per-rank load telemetry. When the
  /// policy fires, diffusion shifts whole cells between ranks through the
  /// same migrate/adopt path a manual remap uses; a rebuild runs
  /// remap_partitioner. Remap cadence never changes particle physics
  /// (collisions are per (cell, step, bucket)), so results stay bitwise
  /// identical to any other cadence — including never remapping.
  bool autonomic = false;
  balance::PolicyConfig policy;

  /// Collect final particles (sorted by id) into the result. Tests only.
  bool collect_state = false;

  /// Analysis-only mode: declare the step graph, run the verify::Analyzer
  /// rule pipeline over it, store the findings in the result, and return
  /// without simulating (the chaos-verify CLI and the shipped-graphs-clean
  /// sweep). Every shape declares a graph.
  bool verify_graph = false;
};

/// Per-phase virtual times. The kStepGraph* shapes post and wait the
/// migration from StepGraph::advance, outside these buckets:
/// `reduce_append` then covers only the local move compute and the
/// deferred transport lands in no bucket (aggregate machine metrics are
/// unaffected). kImperative, kRegular and kCompilerGenerated migrate inside
/// the move step's compute, so their `reduce_append` holds the transport;
/// benches that compare per-phase rows across those three (tables 4 and 7)
/// get identical accounting.
struct DsmcPhaseTimes {
  double collide = 0;        ///< cell-ordering counting sort + collisions
  double reduce_append = 0;  ///< MOVE-phase migration (schedule + transport)
  double size_recompute = 0; ///< compiler-generated size-recovery loop
  double remap = 0;          ///< periodic repartition + cell/particle remap
};

struct ParallelDsmcResult {
  DsmcPhaseTimes phases;  ///< max over ranks
  double execution_time = 0;
  double computation_time = 0;
  double communication_time = 0;
  double load_balance = 0;
  long long collisions = 0;
  /// Sum over ranks of peak resident-particle bytes — with birth/death
  /// enabled this is what dynamic storage actually cost, vs. the
  /// fixed-capacity over-allocation of one slot per particle ever alive.
  std::size_t peak_particle_bytes = 0;
  /// Autonomic mode: rebalances fired (= diffusions + rebuilds). Decisions
  /// are made from replicated windows, so these agree on every rank.
  int rebalances = 0;
  int diffusions = 0;
  int rebuilds = 0;
  /// Rank 0's step-graph counters, copied without a collective (so no
  /// modeled clock moves).
  StepGraph::Stats graph;
  std::vector<Particle> particles;  ///< only when collect_state
  /// Findings of the analysis-only run (cfg.verify_graph), from rank 0.
  std::vector<verify::Diagnostic> verify_diagnostics;
};

ParallelDsmcResult run_parallel_dsmc(sim::Machine& machine,
                                     const ParallelDsmcConfig& cfg);

/// One rank's cell-ordered particle store, with scratch reused across
/// steps. Only the first `carried` entries of `slot` (owned-cell slot per
/// particle) are current: the move pass records the stayers' slots, and
/// migration keeps stayers first and in order, so sort() locates the rest.
struct CellOrder {
  std::vector<std::int32_t> slot;
  std::size_t carried = 0;
  std::vector<std::uint32_t> start;  ///< slot s owns keys [start[s], start[s+1])
  std::vector<std::uint64_t> keys;   ///< id << 32 | index, in (slot, id) order
  std::vector<Particle*> ptrs;       ///< per key: its particle in `spare`

  /// Locate, counting-sort the keys by (slot, id), and size `spare` for the
  /// gather. `cell_slot` maps a cell to its owned slot (or -1).
  void sort(const DsmcParams& p, std::span<const std::int32_t> cell_slot,
            std::size_t nslots, std::vector<Particle>& parts,
            std::vector<Particle>& spare);

  /// Copy slot s's particles to their (slot, id) place in `spare`; returns
  /// them id-sorted for collide_cell. Slots touch disjoint ranges; after
  /// the last one the caller swaps `spare` and `parts`.
  std::span<Particle*> gather(std::size_t s, const std::vector<Particle>& parts,
                              std::vector<Particle>& spare);
};

/// The fused MOVE pass of rank `rank` of `nranks`: advance, drop the
/// particles absorbed at `step` in place, append this rank's newborns
/// (id % nranks == rank), and fill `dest` from `cell_map`, carrying the
/// `cell_slot` of every particle that stays into `order`.
void move_pass(const DsmcParams& p, int step, std::span<const int> cell_map,
               std::span<const std::int32_t> cell_slot, int rank, int nranks,
               std::vector<Particle>& parts, std::vector<int>& dest,
               CellOrder& order);

}  // namespace chaos::dsmc
