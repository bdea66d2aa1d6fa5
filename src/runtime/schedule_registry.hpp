// The unified schedule registry of the chaos::Runtime facade.
//
// One registry manages all inspector state for one distribution epoch: the
// shared IndexHashTable, the per-loop cached LoopPlans (keyed by
// IndirectionArray id, guarded by modification records exactly as the
// Fortran 90D compiler's generated code does — paper §5.3.1), and the
// derived merged / incremental schedules the paper builds from stamp
// expressions (§3.2.2, Figure 6).
//
// The registry subsumed (and as of the step-graph PR fully replaced) the
// old lang::InspectorCache compatibility shim. Runtime owns one registry
// per live distribution; the FORALL lowerings take one directly.
#pragma once

#include <map>
#include <memory>
#include <span>
#include <vector>

#include "compile/schedule_plan.hpp"
#include "core/hash_table.hpp"
#include "core/owner_delta.hpp"
#include "core/schedule.hpp"
#include "lang/distribution.hpp"
#include "lang/indirection.hpp"

namespace chaos::runtime {

using core::GlobalIndex;

class ScheduleRegistry {
 public:
  /// Get the plan for the loop driven by `ind` over arrays aligned with
  /// `dist`. Collective. Rebuilds when the indirection array or the
  /// distribution changed anywhere on the machine; otherwise returns the
  /// cached plan (and only pays the version check). A rebuild re-hashes
  /// only the changed slots when `ind`'s slot-level record is relative to
  /// the planned version (including a plan seed_from carried).
  const lang::LoopPlan& plan(sim::Comm& comm, const lang::Distribution& dist,
                             const lang::IndirectionArray& ind);

  /// The cached plan for a loop previously planned in this epoch, or null.
  const lang::LoopPlan* find(std::uint64_t ind_id) const;

  /// How many times the loop's plan has been (re)built in this epoch. Used
  /// by derived-schedule handles to detect staleness after re-inspection.
  std::uint64_t revision(std::uint64_t ind_id) const;

  /// Build a merged schedule (one gather serving several loops) over loops
  /// already planned in this epoch. Collective.
  core::Schedule merged(sim::Comm& comm,
                        std::span<const std::uint64_t> ind_ids) const;

  /// Build an incremental schedule: entries referenced by `wanted` but
  /// already covered by none of `covered`. Collective.
  core::Schedule incremental(sim::Comm& comm, std::uint64_t wanted_id,
                             std::span<const std::uint64_t> covered_ids) const;

  /// Cross-epoch carry (the paper's amortization claim, made concrete):
  /// seed this registry — which must belong to the fresh epoch `dist` —
  /// from the previous epoch's registry plus the owner delta between the
  /// two maps. Every cached loop plan is replayed into a fresh hash table
  /// in first-plan order: entries whose Home the delta proves stable carry
  /// their translation (and ghost assignment) forward without a
  /// translation-table lookup; only unstable entries are re-translated.
  /// Loops touching exclusively home-stable elements machine-wide keep
  /// their prior schedule with the recv side rewritten to the new ghost
  /// slots (no request exchange); the rest regenerate their schedule from
  /// the seeded table. The seeded state is element-for-element what a cold
  /// inspector replay of the same plans (in the same order) would build.
  /// Dynamic deltas (insert/delete epochs): a loop referencing a deleted
  /// element is dropped machine-wide instead of seeded — its access set no
  /// longer exists — and rebuilds cold at its next inspect().
  /// Collective.
  void seed_from(sim::Comm& comm, const lang::Distribution& dist,
                 const ScheduleRegistry& prior, const core::OwnerDelta& delta);

  // ---- schedule compilation (compile/schedule_plan.hpp) ----------------

  /// Compiled execution plan for a cached loop's schedule, lowered on first
  /// call and cached until the loop is re-inspected. Charges the (local)
  /// lowering scan. Null when the loop has no plan in this epoch.
  const compile::SchedulePlan* compiled_plan(sim::Comm& comm,
                                             std::uint64_t ind_id);

  /// Fold an externally lowered plan (derived merged/incremental schedule,
  /// compiled by Runtime) into this epoch's compile stats.
  void note_external_compile(const compile::SchedulePlan::Stats& s);

  /// Locality remap (compile/locality.hpp): renumber this epoch's ghost
  /// region so cached schedules' recv blocks land consecutively in wire
  /// order, then rewrite the hash table, localized references, and recv
  /// sides of all cached schedules through the renumbering. Compiled plans
  /// are dropped (the next compiled_plan() call re-lowers over the new,
  /// run-friendlier numbering). Purely local. Returns new_slot_of_old
  /// (empty if the numbering was already optimal); the caller must rewrite
  /// any schedules it derived from this registry through the same
  /// permutation, and ghost data already gathered is invalidated.
  std::vector<GlobalIndex> remap_ghost_locality(sim::Comm& comm);

  /// Statistics the benches report: how often preprocessing was reused.
  struct Stats {
    std::uint64_t builds = 0;
    std::uint64_t reuses = 0;
    /// Re-inspections that re-hashed only the slots the array's record
    /// named (IndexHashTable::rehash) instead of the whole array.
    std::uint64_t incremental_rehashes = 0;
    // Cross-epoch reuse counters (seed_from).
    std::uint64_t carried_plans = 0;      ///< plans replayed into a new epoch
    std::uint64_t patched_schedules = 0;  ///< schedules kept, recv remapped
    std::uint64_t rebuilt_schedules = 0;  ///< schedules regenerated on seed
    std::uint64_t seed_translations = 0;  ///< unstable entries re-translated
    /// Plans dropped at seed time because the loop referenced an element
    /// deleted by a dynamic (insert/delete) epoch; the loop re-inspects
    /// cold on next use.
    std::uint64_t dropped_plans = 0;
    // Schedule-compilation counters (compile/schedule_plan.hpp).
    std::uint64_t compiled_plans = 0;    ///< plans lowered in this epoch
    std::uint64_t runs_detected = 0;     ///< segment ops covering runs
    std::uint64_t run_elements = 0;      ///< elements inside runs
    std::uint64_t residue_elements = 0;  ///< elements left to index lists
    /// Runs that continued across a block boundary and were fused into one
    /// segment op by wire grouping (multi-block-per-peer schedules only).
    std::uint64_t cross_block_runs = 0;
    /// Compiled plans carried across a repartition by seed_from (send side
    /// reused verbatim, recv side re-lowered — no full recompile).
    std::uint64_t carried_compiled_plans = 0;
    /// Compiled plans dropped because seed_from had to rebuild their
    /// schedule, then lowered again on next use.
    std::uint64_t recompiles_after_repartition = 0;
    std::uint64_t locality_remaps = 0;  ///< remap_ghost_locality passes run
  };
  const Stats& stats() const { return stats_; }

  /// The shared hash table for the current distribution epoch (for building
  /// stamp-expression schedules on top of cached loops). Null before any
  /// plan() call.
  const core::IndexHashTable* hash_table() const { return hash_.get(); }

  /// Size a local data array must have to hold owned + all ghost slots
  /// assigned so far in this epoch (0 before any plan() call).
  GlobalIndex local_extent() const {
    return hash_ ? hash_->local_extent() : 0;
  }

  /// Approximate heap footprint of all inspector state held by this
  /// registry (hash table + cached plans), for Runtime::compact accounting.
  std::size_t footprint_bytes() const {
    std::size_t n = hash_ ? hash_->footprint_bytes() : 0;
    for (const auto& [id, cached] : loops_) {
      n += cached.plan.local_refs.capacity() * sizeof(GlobalIndex);
      n += cached.plan.schedule.footprint_bytes();
      if (cached.compiled) n += cached.compiled->footprint_bytes();
    }
    return n;
  }

 private:
  struct CachedLoop {
    std::uint64_t version = ~std::uint64_t{0};
    std::uint64_t revision = 0;
    /// First-plan sequence number within the epoch. seed_from replays
    /// loops in this order so cross-epoch ghost slots land exactly where a
    /// cold replay of the same plan calls would put them.
    std::uint64_t order = 0;
    lang::LoopPlan plan;
    /// Compiled execution plan, lowered lazily by compiled_plan() and
    /// dropped whenever the schedule changes under it (re-inspection,
    /// locality remap, seed-time rebuild).
    std::unique_ptr<const compile::SchedulePlan> compiled;
    /// Set when seed_from rebuilt this loop's schedule in a successor epoch
    /// and the prior epoch had compiled it: the next compiled_plan() call
    /// is counted as a recompile forced by the repartition.
    bool recompile_pending = false;
  };

  core::Stamp stamp_of(std::uint64_t ind_id) const;

  std::uint64_t epoch_ = 0;  // distribution epoch the registry is bound to
  std::uint64_t next_order_ = 0;
  /// True while the hash table's entry order equals a compact replay of
  /// the current plans (no re-inspection has interleaved entries or left
  /// dead slots). Only then does a prior schedule's block order match what
  /// a cold rebuild would produce, so only then may seed_from carry it;
  /// re-inspections flip this to false for the rest of the epoch. The
  /// transition is machine-wide symmetric (re-inspection is collective).
  bool scan_order_pristine_ = true;
  std::unique_ptr<core::IndexHashTable> hash_;
  std::map<std::uint64_t, CachedLoop> loops_;  // by IndirectionArray::id
  Stats stats_;
};

}  // namespace chaos::runtime
