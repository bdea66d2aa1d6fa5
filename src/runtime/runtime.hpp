// chaos::Runtime — the descriptor-based facade over the CHAOS++ runtime
// (paper §3, Figure 4), unifying the inspector/executor API.
//
// The paper's CHAOS library is a coherent procedural interface around a few
// descriptors: distributions (translation tables), the inspector hash table
// with stamps, and communication schedules. Runtime packages our layers the
// same way: one per-rank object constructed over sim::Comm that owns every
// live distribution epoch, one shared IndexHashTable per epoch (inside a
// ScheduleRegistry), and typed handles instead of loose objects:
//
//   DistHandle      a distribution epoch (Phase A); repartition/remap move
//                   data between epochs (Phases A-D)
//   LoopHandle      an irregular loop bound to (distribution, indirection
//                   array); carries the localized references
//   ScheduleHandle  a communication schedule in the unified registry: a
//                   loop's own schedule, a merged or incremental schedule
//                   (first-class stamp expressions, §3.2.2), a remap
//                   schedule, or a one-shot inspector result
//
// Executor primitives (gather / scatter / scatter_add / migrate / append,
// Phase F) take handles. Typed loops sit one layer up (lang/array.hpp):
//
//   chaos::forall(rt, dist, ind, in(y), sum(x)).run(body);
//
// lowers to inspect -> gather -> body(localized refs) -> scatter_add with
// inspector caching driven by the indirection array's modification record.
//
// Handle validity: handles are descriptors, not snapshots. Re-inspecting a
// changed loop updates the loop's schedule in place (its handles stay
// valid); derived merged/incremental handles become stale when a component
// is re-inspected and must be re-derived. Retiring a distribution
// (rt.retire, after repartition+remap) invalidates every handle bound to
// it; rt.valid() probes without throwing.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <initializer_list>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "comm/engine.hpp"
#include "core/iteration.hpp"
#include "core/lightweight.hpp"
#include "core/parallel_partition.hpp"
#include "core/remap.hpp"
#include "core/schedule.hpp"
#include "lang/distribution.hpp"
#include "lang/forall.hpp"
#include "lang/indirection.hpp"
#include "runtime/schedule_registry.hpp"
#include "sim/machine.hpp"

namespace chaos {

using core::GlobalIndex;

namespace detail {
constexpr std::uint32_t kInvalidHandle = ~std::uint32_t{0};
}

/// A distribution epoch (Phase A descriptor).
struct DistHandle {
  std::uint32_t id = detail::kInvalidHandle;
  friend bool operator==(const DistHandle&, const DistHandle&) = default;
};

/// An irregular loop bound to (distribution, indirection array).
struct LoopHandle {
  std::uint32_t id = detail::kInvalidHandle;
  friend bool operator==(const LoopHandle&, const LoopHandle&) = default;
};

/// A communication schedule in the unified registry.
struct ScheduleHandle {
  std::uint32_t id = detail::kInvalidHandle;
  friend bool operator==(const ScheduleHandle&, const ScheduleHandle&) = default;
};

/// Iteration-partitioning policy (Phase C, paper §3.1).
enum class IterationPolicy { kOwnerComputes, kAlmostOwnerComputes };

class StepGraph;

namespace balance {
class Policy;
struct Binding;
struct Report;
struct ServiceState;
}  // namespace balance

namespace verify {
struct Diagnostic;
}  // namespace verify

class Runtime {
 public:
  // Both out of line (balance/service.cpp): the ctor/dtor must see the
  // complete type behind the opaque balance-service pointer.
  explicit Runtime(sim::Comm& comm);
  ~Runtime();
  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  sim::Comm& comm() { return comm_; }

  // ---- Phase A: distributions ---------------------------------------

  DistHandle block(GlobalIndex n) {
    return adopt(lang::Distribution::block(comm_, n));
  }
  DistHandle cyclic(GlobalIndex n) {
    return adopt(lang::Distribution::cyclic(comm_, n));
  }
  DistHandle irregular(std::span<const int> map) {
    return adopt(lang::Distribution::irregular(comm_, map));
  }
  /// Irregular distribution with a paged (distributed) translation table;
  /// index analysis through it communicates (paper §3.2.2).
  DistHandle irregular_paged(std::span<const int> map) {
    return adopt(lang::Distribution::irregular_paged(comm_, map));
  }
  DistHandle adopt(lang::Distribution dist);

  /// Run a parallel partitioner and return the raw map array (identical on
  /// every rank). Collective. Exposed separately from partition() for call
  /// sites that post-process the map (e.g. permuting chain positions back
  /// to cell ids) before adopting it.
  std::vector<int> partition_map(core::PartitionerKind kind,
                                 std::span<const GlobalIndex> my_ids,
                                 std::span<const part::Point3> my_points,
                                 std::span<const double> my_weights,
                                 GlobalIndex n_total);

  /// Partition + adopt in one step.
  DistHandle partition(core::PartitionerKind kind,
                       std::span<const GlobalIndex> my_ids,
                       std::span<const part::Point3> my_points,
                       std::span<const double> my_weights,
                       GlobalIndex n_total);

  /// Re-partition the elements of `from` (geometry/load contributed for
  /// this rank's owned elements, in owned-offset order) into a fresh
  /// distribution epoch. `from` stays valid until retired — its data must
  /// still be readable while remap schedules execute.
  ///
  /// With cross-epoch reuse enabled (the default), the new epoch is a
  /// *successor* of `from`: its translation table is patched from the old
  /// one, its schedule registry is seeded with the old epoch's inspector
  /// products (translations and ghost assignments carried forward for
  /// owner-stable elements, cached schedules revalidated or regenerated),
  /// and plan_remap(from, new) migrates only the owner delta. The
  /// resulting state is element-for-element identical to a cold rebuild;
  /// only the cost differs. See docs/API.md "Cross-epoch reuse".
  DistHandle repartition(DistHandle from, core::PartitionerKind kind,
                         std::span<const part::Point3> my_points,
                         std::span<const double> my_weights);

  /// Adopt an externally computed map array (identical on every rank) as
  /// the successor epoch of `from` — the map-driven flavor of
  /// repartition() for apps that post-process partitioner output (e.g.
  /// the DSMC cell remap). Same reuse semantics as above.
  DistHandle repartition(DistHandle from, std::vector<int> new_map);
  DistHandle repartition(DistHandle from, std::span<const int> new_map) {
    return repartition(from, std::vector<int>(new_map.begin(), new_map.end()));
  }

  // ---- dynamic index spaces ------------------------------------------
  //
  // A successor epoch may also grow or shrink the universe. Deleted
  // elements become tombstones: the global id keeps its slot in the
  // numbering (Home{-1,-1}, no owner, no data) so surviving ids never
  // renumber; a trailing run of tombstones is truncated, shrinking
  // global_size(). Insertions fill the lowest tombstone holes first and
  // append past the end after that. Cross-epoch reuse applies unchanged:
  // the table patches, the registry seeds from the predecessor (loops
  // referencing a deleted element are dropped machine-wide and re-inspect
  // cold), and plan_remap ships only moved survivors — born slots arrive
  // value-initialized, deleted data is dropped. See docs/API.md "Dynamic
  // index spaces".

  struct InsertResult {
    DistHandle dist;                 ///< the successor epoch
    std::vector<GlobalIndex> ids;    ///< assigned id of owners[i], ascending
  };

  /// Insert `owners.size()` new elements, owned as given. `owners` must be
  /// identical on every rank (replicated-argument collective). Returns the
  /// successor epoch plus the assigned global ids (holes first, ascending,
  /// then appended past the old end — ids pair with `owners` in order).
  InsertResult insert_elements(DistHandle from, std::span<const int> owners);

  /// Delete elements (global ids, identical on every rank; each must be
  /// live in `from`). Returns the successor epoch: deleted ids become
  /// tombstones, and a trailing tombstone run shrinks the universe.
  DistHandle delete_elements(DistHandle from,
                             std::span<const GlobalIndex> dead);

  /// Cross-epoch reuse switch. Disabling it forces every repartition()
  /// (and insert/delete epoch) back to the cold path: a from-scratch
  /// translation table and an empty schedule registry for the new epoch
  /// (useful for A/B measurement and as the reference arm of the
  /// equivalence suite).
  void set_cross_epoch_reuse(bool on) { cross_epoch_reuse_ = on; }
  bool cross_epoch_reuse() const { return cross_epoch_reuse_; }

  /// The owner delta that produced `h` as a successor epoch, or nullptr if
  /// `h` was built cold. Benches read moved counts / stability from it.
  const core::OwnerDelta* owner_delta(DistHandle h) const;

  /// Retire a distribution epoch after its data has been remapped away.
  /// Every LoopHandle / ScheduleHandle bound to it becomes invalid. Do not
  /// retire an epoch whose schedules still have engine operations in
  /// flight.
  void retire(DistHandle h);

  // ---- schedule compilation -------------------------------------------
  //
  // Every executor call runs through a compile::SchedulePlan. Loop, merged
  // and incremental schedules are lowered on first use (contiguous and
  // constant-stride runs become segment copies; the residue keeps an index
  // list) and executed through that plan from then on. Remap and one-shot
  // schedules execute once, so they run through a verbatim plan (their
  // index lists as written, at the element-loop charge). See docs/API.md
  // "Compiled schedules".

  /// Locality remap (compile/locality.hpp): renumber epoch `h`'s ghost
  /// region so cached schedules' recv blocks land consecutively in wire
  /// order, creating the runs schedule compilation feeds on. Rewrites the
  /// epoch's inspector state, cached schedules, localized references, and
  /// any merged/incremental schedules derived from them; compiled plans
  /// re-lower on next use. Ghost data already gathered under the old
  /// numbering is invalidated — run it between inspection and execution.
  /// Purely local (not collective); requires an idle engine. Returns
  /// new_slot_of_old (empty when the numbering was already optimal) so
  /// callers can rewrite auxiliary per-slot state of their own.
  std::vector<GlobalIndex> remap_ghost_locality(DistHandle h);

  /// Registry memory hygiene (ROADMAP): free the inspector state (hash
  /// table, cached plans) and derived-schedule storage of every retired
  /// epoch. Handles bound to retired epochs were already invalid, so this
  /// changes no observable behavior — it only releases memory that long
  /// runs with many repartitions would otherwise hold until the Runtime
  /// dies. Requires an idle comm engine. Returns the approximate number of
  /// bytes released.
  std::size_t compact();

  /// Approximate bytes of inspector/schedule state currently held across
  /// all epochs (live and retired): registries (hash tables, cached plans,
  /// compiled plans), translation-table homes, and derived-schedule
  /// storage. Drops after compact().
  std::size_t registry_bytes() const;

  const lang::Distribution& dist(DistHandle h) const;
  GlobalIndex owned_count(DistHandle h) const {
    return dist(h).owned_count(comm_.rank());
  }
  std::vector<GlobalIndex> owned_globals(DistHandle h) const {
    return dist(h).owned_globals(comm_.rank());
  }
  GlobalIndex global_size(DistHandle h) const { return dist(h).global_size(); }

  /// Owned + all ghost slots assigned so far in this epoch (0 before any
  /// inspection) — the extent local arrays need for merged gathers.
  GlobalIndex local_extent(DistHandle h) const;

  bool valid(DistHandle h) const;

  // ---- Phase B: data remapping --------------------------------------

  /// Build the push schedule that moves every element owned under `from`
  /// to its owner under `to`. One plan remaps all aligned arrays.
  /// Collective.
  ScheduleHandle plan_remap(DistHandle from, DistHandle to);

  /// Execute a remap plan between two raw local arrays (src spans the old
  /// owned region, dst the new). Collective.
  template <typename T>
  void remap(ScheduleHandle h, std::span<const T> src, std::span<T> dst) {
    const Executable x = remap_executable(h, dst.size());
    comm::Engine engine(comm_);
    engine.wait(engine.post_transport<T>(x.sched, src, dst, x.plan));
  }

  /// Execute a remap plan, allocating the new owned region.
  template <typename T>
  std::vector<T> remap(ScheduleHandle h, std::span<const T> src) {
    std::vector<T> dst(static_cast<std::size_t>(checked(h).new_owned));
    remap<T>(h, src, std::span<T>{dst});
    return dst;
  }

  /// Asynchronous remap execution: post the plan's data motion on the comm
  /// engine (for delta plans this ships only the owner delta's moved
  /// elements; on-rank survivors are copied at post time) and return
  /// without receiving. Overlap the transfer with local epoch rebuild
  /// work, then comm_wait(). `src` and `dst` must stay valid until
  /// completion.
  template <typename T>
  comm::CommHandle remap_async(ScheduleHandle h, std::span<const T> src,
                               std::span<T> dst) {
    const Executable x = remap_executable(h, dst.size());
    return engine_.post_transport<T>(x.sched, src, dst, x.plan);
  }

  // ---- Phases C & D: iteration partitioning / remapping -------------

  /// Assign loop iterations to processors from their data references
  /// (iteration-major, `arity` refs per iteration). Collective.
  std::vector<int> partition_iterations(
      DistHandle h, std::span<const GlobalIndex> refs, std::size_t arity,
      IterationPolicy policy = IterationPolicy::kAlmostOwnerComputes);

  /// Redistribute iteration records to their executing processors.
  core::RemappedIterations remap_iterations(
      std::span<const int> dest_proc, std::span<const GlobalIndex> refs,
      std::size_t arity, std::span<const GlobalIndex> iter_ids) {
    return core::remap_iterations(comm_, dest_proc, refs, arity, iter_ids);
  }

  // ---- Phase E: the inspector ----------------------------------------

  /// Register the irregular loop driven by `ind` over arrays aligned with
  /// `dist`. The indirection array is referenced, not copied — it must
  /// outlive the handle. Binding the same array twice returns the same
  /// handle.
  LoopHandle bind(DistHandle dist, const lang::IndirectionArray& ind);

  /// Run (or reuse) the inspector for a bound loop. Collective: the
  /// modification record is checked machine-wide; the plan is rebuilt only
  /// if the array or distribution changed anywhere. Returns the loop's
  /// schedule handle (stable across re-inspections).
  ScheduleHandle inspect(LoopHandle loop);
  ScheduleHandle inspect(DistHandle dist, const lang::IndirectionArray& ind) {
    return inspect(bind(dist, ind));
  }

  /// One-shot inspector for per-step reference patterns that are never
  /// reused (the "regular schedule" migration path of Table 4): hashes
  /// `refs` through a scratch hash table (localizing them in place) and
  /// builds their schedule. Collective. At most one one-shot schedule per
  /// distribution is live: the next call invalidates the previous handle.
  ScheduleHandle inspect_once(DistHandle dist, std::span<GlobalIndex> refs);

  /// Build a merged schedule serving several inspected loops — the paper's
  /// CHAOS_schedule(stamp = a+b+...) (§3.2.2). Collective. Re-deriving
  /// with the same components refreshes the same handle.
  ScheduleHandle merge(std::span<const ScheduleHandle> loops);
  ScheduleHandle merge(std::initializer_list<ScheduleHandle> loops) {
    return merge(std::span<const ScheduleHandle>{loops.begin(), loops.size()});
  }

  /// Build an incremental schedule: what `wanted` references that `covered`
  /// (a loop or a merged schedule) does not — CHAOS_schedule(stamp = b-a).
  /// Collective.
  ScheduleHandle incremental(ScheduleHandle wanted, ScheduleHandle covered);

  /// The localized (translated) references of an inspected loop.
  std::span<const GlobalIndex> local_refs(LoopHandle loop) const;

  const core::Schedule& schedule(ScheduleHandle h) const {
    return schedule_of(checked(h));
  }

  /// Local extent (owned + ghosts) data arrays executed under `h` must
  /// cover.
  GlobalIndex extent(ScheduleHandle h) const;

  bool valid(LoopHandle h) const;
  bool valid(ScheduleHandle h) const;

  /// Inspector hash statistics for a distribution epoch (zeros before any
  /// inspection) and registry build/reuse counters.
  core::IndexHashTable::Stats hash_stats(DistHandle h) const;
  runtime::ScheduleRegistry::Stats registry_stats(DistHandle h) const;

  // ---- Phase F: the executor -----------------------------------------

  // Blocking shorthands: one post plus one wait on a local comm::Engine,
  // so they never join the Runtime engine's open batch.

  template <typename T>
  void gather(ScheduleHandle h, std::span<T> data) {
    const Executable x = executable(h, data.size());
    comm::Engine engine(comm_);
    engine.wait(engine.post_gather<T>(x.sched, data, x.plan));
  }

  template <typename T>
  void scatter(ScheduleHandle h, std::span<T> data) {
    const Executable x = executable(h, data.size());
    comm::Engine engine(comm_);
    engine.wait(engine.post_scatter<T>(x.sched, data, x.plan));
  }

  template <typename T>
  void scatter_add(ScheduleHandle h, std::span<T> data) {
    const Executable x = executable(h, data.size());
    comm::Engine engine(comm_);
    engine.wait(engine.post_scatter_add<T>(x.sched, data, x.plan));
  }

  // ---- Phase F, asynchronous: the communication engine ----------------
  //
  // The blocking executor primitives above are one-post-one-wait shorthands.
  // The async variants post first-class operations on the Runtime's
  // comm::Engine: independent schedules posted into one batch leave as ONE
  // coalesced message per peer at comm_flush(), and distinct batches (tag-
  // disjoint) overlap in flight. Lifecycle: post -> flush -> wait. The data
  // spans must stay valid, and the posted schedules must not be
  // re-inspected, until the operation completes.

  /// The engine itself, for advanced control (test(), multiple batches).
  comm::Engine& engine() { return engine_; }

  template <typename T>
  comm::CommHandle gather_async(ScheduleHandle h, std::span<T> data) {
    const Executable x = executable(h, data.size());
    return engine_.post_gather<T>(x.sched, data, x.plan);
  }

  template <typename T>
  comm::CommHandle scatter_async(ScheduleHandle h, std::span<T> data) {
    const Executable x = executable(h, data.size());
    return engine_.post_scatter<T>(x.sched, data, x.plan);
  }

  template <typename T>
  comm::CommHandle scatter_add_async(ScheduleHandle h, std::span<T> data) {
    const Executable x = executable(h, data.size());
    return engine_.post_scatter_add<T>(x.sched, data, x.plan);
  }

  /// Async light-weight migration: builds the schedule (collective), posts
  /// the item motion, and returns without receiving — overlap local work
  /// with the transfer, then comm_wait(). `items` and `out` must stay valid
  /// until completion; arrivals are appended to `out` during the wait.
  template <typename T>
  comm::CommHandle migrate_async(std::span<const int> dest_procs,
                                 std::span<const T> items,
                                 std::vector<T>& out) {
    auto sched = core::LightweightSchedule::build(comm_, dest_procs);
    return engine_.post_migrate<T>(std::move(sched), items, out);
  }

  void comm_flush() { engine_.flush(); }
  void comm_wait(comm::CommHandle h) { engine_.wait(h); }
  void comm_wait_all() { engine_.wait_all(); }

  /// Light-weight migration (paper §3.2.1): move items to known destination
  /// processors and append arrivals to `out`. No inspector, no placement
  /// lists. Collective.
  template <typename T>
  void migrate(std::span<const int> dest_procs, std::span<const T> items,
               std::vector<T>& out) {
    auto sched = core::LightweightSchedule::build(comm_, dest_procs);
    core::scatter_append<T>(comm_, sched, items, out);
  }

  /// REDUCE(APPEND) lowering: move `items` to the owners of their
  /// destination rows under `rows` and append arrivals. Collective.
  template <typename T>
  void append(DistHandle rows, std::span<const GlobalIndex> dest_rows,
              std::span<const T> items, std::vector<T>& out) {
    lang::reduce_append<T>(comm_, dist(rows), dest_rows, items, out);
  }

  /// The compiler-generated per-row size-recovery loop (paper §5.3.2).
  std::vector<GlobalIndex> row_sizes(DistHandle rows,
                                     std::span<const GlobalIndex> dest_rows) {
    return lang::recompute_row_sizes(comm_, dist(rows), dest_rows);
  }

  // ---- the declarative step-graph executor ---------------------------
  //
  // The preferred executor surface: declare each step's array accesses on
  // a chaos::StepGraph (runtime/step_graph.hpp) and let the runtime derive
  // hazards and pipeline communication across steps. The async primitives
  // above remain the low-level escape hatch.

  /// Run `iterations` advances of a declared step graph, then quiesce it
  /// (complete all in-flight pipelined communication).
  void run(StepGraph& graph, int iterations = 1);

  // ---- autonomic load balancing (src/balance/, defined in service.cpp) -
  //
  // Install a balance::Policy plus a Binding describing the application
  // state a rebalance must move (managed arrays, a re-inspect callback,
  // rebuild geometry), then call balance_step(graph) once per iteration
  // between advances. The service samples telemetry every step; when a
  // window closes and the policy fires, it quiesces the graph,
  // repartitions (incremental diffusion or full rebuild), retargets the
  // managed arrays and the graph onto the successor epoch, retires the
  // predecessor, and records a balance::Report. See docs/API.md
  // "Autonomic load balancing".

  /// Install (or replace) the balance service. Passing a null policy
  /// uninstalls it.
  void set_balance_policy(std::unique_ptr<balance::Policy> policy,
                          balance::Binding binding);

  /// One service tick: sample telemetry; on window close, decide and (if
  /// the policy fires) rebalance. Collective in the same pattern on every
  /// rank (decisions are made from replicated windows). Returns true iff a
  /// rebalance fired this step. No-op returning false when no policy is
  /// installed. The service consumes the graph's windowed counters via
  /// take_stats() — do not mix with cumulative stats() readers.
  bool balance_step(StepGraph& graph);

  /// The installed policy (null when none).
  balance::Policy* balance_policy();

  // ---- static verification (src/verify/, defined in analyzer.cpp) ------

  /// Run the verify::Analyzer rule pipeline over a declared graph and
  /// return every finding (analysis only — nothing executes, nothing
  /// communicates; see docs/API.md "Static verification"). Equivalent to
  /// verify::Analyzer().analyze(graph); StepGraph::set_strict(true) runs
  /// the same pipeline at arm time and refuses on error findings.
  std::vector<verify::Diagnostic> verify(StepGraph& graph);

  /// The distribution currently bound to the service (moves to each
  /// successor epoch as rebalances fire).
  DistHandle balance_dist() const;

  /// Every rebalance fired so far, oldest first.
  const std::vector<balance::Report>& balance_reports() const;

 private:
  friend class StepGraph;

  /// StepGraph self-registration (ctor/dtor), so registry_bytes/compact can
  /// account and release the graphs' cached chunk plans.
  void register_graph(StepGraph* g) { graphs_.push_back(g); }
  void unregister_graph(StepGraph* g) {
    for (std::size_t i = 0; i < graphs_.size(); ++i)
      if (graphs_[i] == g) {
        graphs_.erase(graphs_.begin() +
                      static_cast<std::ptrdiff_t>(i));
        return;
      }
  }

  enum class ScheduleKind { kLoop, kMerged, kIncremental, kRemap, kOnce };

  struct DistEntry {
    std::unique_ptr<lang::Distribution> dist;
    runtime::ScheduleRegistry registry;
    bool retired = false;
    // Cross-epoch lineage: set when this epoch was produced by a reusing
    // repartition. The delta is self-contained (owns its vectors), so
    // retiring/compacting the parent cannot dangle it.
    std::uint32_t parent = detail::kInvalidHandle;
    std::shared_ptr<const core::OwnerDelta> delta;
  };

  struct LoopEntry {
    std::uint32_t dist = 0;
    const lang::IndirectionArray* ind = nullptr;
    std::uint64_t ind_id = 0;
  };

  struct ScheduleEntry {
    ScheduleKind kind = ScheduleKind::kLoop;
    std::uint32_t dist = 0;
    std::uint64_t ind_id = 0;               // kLoop: indirection array id
    std::vector<std::uint64_t> part_ids;    // kMerged/kIncremental components
    std::vector<std::uint64_t> part_revs;   // captured component revisions
    core::Schedule sched;                   // all kinds except kLoop
    GlobalIndex extent = 0;                 // all kinds except kLoop/kRemap
    GlobalIndex new_owned = 0;              // kRemap
    std::uint32_t to_dist = 0;              // kRemap target epoch
    bool revoked = false;                   // kOnce superseded by a newer one
    /// Execution plan, built lazily by plan_of (mutable because executor
    /// calls see the entry through checked()): lowered for
    /// kMerged/kIncremental, verbatim for kRemap/kOnce (executed once, not
    /// worth lowering). kLoop plans are cached in the registry instead.
    mutable std::unique_ptr<const compile::SchedulePlan> compiled;
  };

  /// Shared back half of insert_elements/delete_elements: adopt `new_map`
  /// (which may differ in size from `from`'s map) as a successor epoch,
  /// patching the table and seeding the registry when reuse is on.
  DistHandle dynamic_successor(DistHandle from, std::vector<int> new_map);

  DistEntry& dist_entry(DistHandle h);
  const DistEntry& dist_entry(DistHandle h) const;
  const LoopEntry& loop_entry(LoopHandle h) const;
  /// Entry of `h`, with use-time validity checks (retired epoch, stale
  /// derived schedule).
  const ScheduleEntry& checked(ScheduleHandle h) const;
  const core::Schedule& schedule_of(const ScheduleEntry& e) const;
  /// The plan `e` executes through. Builds and caches it on first use.
  const compile::SchedulePlan& plan_of(const ScheduleEntry& e);

  /// What an executor call runs: a schedule and its plan.
  struct Executable {
    const core::Schedule& sched;
    const compile::SchedulePlan& plan;
  };
  /// Gather/scatter target of `h` after the use-time checks (a data array
  /// of `size` elements must cover the schedule's extent).
  Executable executable(ScheduleHandle h, std::size_t size);
  /// Remap target of `h` (a remap handle; a destination of `size`
  /// elements must cover the new owned region).
  Executable remap_executable(ScheduleHandle h, std::size_t size);
  GlobalIndex extent_of(const ScheduleEntry& e) const;
  ScheduleHandle loop_schedule_handle(std::uint32_t dist_id,
                                      std::uint64_t ind_id);
  /// Component (dist id, ind ids) of a merge/incremental argument; checks
  /// the handle is loop-backed or merged.
  void collect_components(ScheduleHandle h, std::uint32_t& dist_id,
                          std::vector<std::uint64_t>& ind_ids) const;

  sim::Comm& comm_;
  comm::Engine engine_{comm_};
  bool cross_epoch_reuse_ = true;
  std::vector<DistEntry> dists_;
  std::vector<LoopEntry> loops_;
  // Deque, not vector: posted engine operations hold references to
  // schedules stored in these entries, so creating new schedules while
  // operations are in flight must not move existing ones.
  std::deque<ScheduleEntry> scheds_;

  /// Registered step graphs (must be destroyed before the Runtime).
  std::vector<StepGraph*> graphs_;

  /// Autonomic balance service (balance/service.cpp); null until
  /// set_balance_policy.
  std::unique_ptr<balance::ServiceState> bal_;

  // Dedup keys so repeated bind/inspect/merge calls reuse handles.
  std::map<std::pair<std::uint32_t, std::uint64_t>, std::uint32_t> loop_keys_;
  std::map<std::pair<std::uint32_t, std::uint64_t>, std::uint32_t> sched_keys_;
  std::map<std::tuple<int, std::uint32_t, std::vector<std::uint64_t>>,
           std::uint32_t>
      derived_keys_;
  std::map<std::uint32_t, std::uint32_t> once_keys_;  // dist -> kOnce handle
};

}  // namespace chaos
