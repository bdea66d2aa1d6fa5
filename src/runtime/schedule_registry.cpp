#include "runtime/schedule_registry.hpp"

#include <algorithm>

#include "compile/locality.hpp"
#include "core/costs.hpp"

namespace chaos::runtime {

const lang::LoopPlan& ScheduleRegistry::plan(sim::Comm& comm,
                                             const lang::Distribution& dist,
                                             const lang::IndirectionArray& ind) {
  // Distribution change invalidates everything bound to the old epoch.
  if (!hash_ || epoch_ != dist.epoch()) {
    epoch_ = dist.epoch();
    hash_ = std::make_unique<core::IndexHashTable>(
        dist.owned_count(comm.rank()));
    loops_.clear();
    next_order_ = 0;
    scan_order_pristine_ = true;
  }

  auto [it, fresh] = loops_.try_emplace(ind.id());
  CachedLoop& entry = it->second;
  if (fresh) entry.order = next_order_++;
  const bool stale_here = entry.version != ind.version();

  // The modification-record check the compiler emits: one rank's change
  // forces every rank into the (collective) inspector. This small allreduce
  // is the price of automatic reuse detection.
  const int stale_anywhere = comm.allreduce_max(stale_here ? 1 : 0);
  if (stale_anywhere == 0) {
    ++stats_.reuses;
    return entry.plan;
  }
  ++stats_.builds;
  ++entry.revision;

  // A re-inspection leaves dead slots / appended entries behind, so the
  // table's scan order no longer equals a compact replay of the plans.
  const bool replan = entry.plan.stamp != 0;
  if (replan) scan_order_pristine_ = false;

  // When the array's slot-level record is relative to the planned version,
  // re-hash only the changed slots (same resulting state as the full path).
  const lang::SlotDelta* delta = ind.delta();
  if (replan && delta != nullptr && entry.version + 1 == ind.version() &&
      hash_->rehash(comm, dist.table(), entry.plan.stamp,
                    entry.plan.local_refs, delta->slots, delta->old_values,
                    ind.values())) {
    ++stats_.incremental_rehashes;
  } else {
    // Clear the loop's previous stamp (if any) so the recycled bit marks
    // the regenerated indirection array, as the paper's CHARMM flow does.
    if (replan) hash_->clear_stamp(entry.plan.stamp);
    entry.plan.local_refs.assign(ind.values().begin(), ind.values().end());
    entry.plan.stamp = hash_->hash(comm, dist.table(), entry.plan.local_refs);
  }
  entry.plan.schedule = core::build_schedule(
      comm, *hash_, core::StampExpr::only(entry.plan.stamp));
  entry.plan.local_extent = hash_->local_extent();
  entry.version = ind.version();
  // The schedule changed under any compiled plan; re-lower on next use (a
  // re-inspection is not a repartition, so it is not counted as one).
  entry.compiled.reset();
  entry.recompile_pending = false;
  return entry.plan;
}

const lang::LoopPlan* ScheduleRegistry::find(std::uint64_t ind_id) const {
  auto it = loops_.find(ind_id);
  return it == loops_.end() ? nullptr : &it->second.plan;
}

std::uint64_t ScheduleRegistry::revision(std::uint64_t ind_id) const {
  auto it = loops_.find(ind_id);
  return it == loops_.end() ? 0 : it->second.revision;
}

core::Stamp ScheduleRegistry::stamp_of(std::uint64_t ind_id) const {
  const lang::LoopPlan* p = find(ind_id);
  CHAOS_CHECK(p != nullptr,
              "loop has no plan in this epoch; inspect it before deriving "
              "merged/incremental schedules");
  return p->stamp;
}

core::Schedule ScheduleRegistry::merged(
    sim::Comm& comm, std::span<const std::uint64_t> ind_ids) const {
  CHAOS_CHECK(hash_ != nullptr, "no inspector state in this epoch");
  core::StampExpr expr;
  for (std::uint64_t id : ind_ids) expr.include |= stamp_of(id);
  CHAOS_CHECK(expr.include != 0, "empty merged loop set");
  return core::build_schedule(comm, *hash_, expr);
}

core::Schedule ScheduleRegistry::incremental(
    sim::Comm& comm, std::uint64_t wanted_id,
    std::span<const std::uint64_t> covered_ids) const {
  CHAOS_CHECK(hash_ != nullptr, "no inspector state in this epoch");
  core::StampExpr expr;
  expr.include = stamp_of(wanted_id);
  for (std::uint64_t id : covered_ids) expr.exclude |= stamp_of(id);
  return core::build_schedule(comm, *hash_, expr);
}

const compile::SchedulePlan* ScheduleRegistry::compiled_plan(
    sim::Comm& comm, std::uint64_t ind_id) {
  auto it = loops_.find(ind_id);
  if (it == loops_.end()) return nullptr;
  CachedLoop& entry = it->second;
  if (!entry.compiled) {
    auto plan = std::make_unique<const compile::SchedulePlan>(
        compile::SchedulePlan::compile(entry.plan.schedule, copts_));
    // Lowering is one local scan over the schedule's index lists.
    comm.charge_work(static_cast<double>(plan->stats().total_elements) *
                     core::costs::kDeltaScan);
    note_external_compile(plan->stats());
    if (entry.recompile_pending) {
      ++stats_.recompiles_after_repartition;
      entry.recompile_pending = false;
    }
    entry.compiled = std::move(plan);
  }
  return entry.compiled.get();
}

void ScheduleRegistry::note_external_compile(
    const compile::SchedulePlan::Stats& s) {
  ++stats_.compiled_plans;
  stats_.runs_detected += s.run_ops;
  stats_.run_elements += s.run_elements;
  stats_.residue_elements += s.residue_elements;
  stats_.cross_block_runs += s.cross_block_runs;
}

std::vector<GlobalIndex> ScheduleRegistry::remap_ghost_locality(
    sim::Comm& comm) {
  ++stats_.locality_remaps;
  if (!hash_ || hash_->ghost_count() == 0) return {};

  // Schedules in first-plan order: the loop planned first claims its slots
  // first, so its recv blocks become fully contiguous.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> order_ids;
  order_ids.reserve(loops_.size());
  for (const auto& [id, cached] : loops_)
    order_ids.emplace_back(cached.order, id);
  std::sort(order_ids.begin(), order_ids.end());
  std::vector<const core::Schedule*> scheds;
  scheds.reserve(order_ids.size());
  for (const auto& [ord, id] : order_ids)
    scheds.push_back(&loops_.at(id).plan.schedule);

  const GlobalIndex owned = hash_->owned_count();
  std::vector<GlobalIndex> perm = compile::ghost_locality_permutation(
      owned, hash_->ghost_count(), scheds);
  if (perm.empty()) return perm;

  hash_->permute_ghosts(perm);
  double touched = static_cast<double>(perm.size());
  for (auto& [id, cached] : loops_) {
    compile::apply_ghost_permutation(perm, owned, cached.plan.local_refs);
    std::vector<core::ScheduleBlock> send =
        cached.plan.schedule.send_blocks();
    std::vector<core::ScheduleBlock> recv =
        cached.plan.schedule.recv_blocks();
    for (core::ScheduleBlock& b : recv) {
      compile::apply_ghost_permutation(perm, owned, b.indices);
      touched += static_cast<double>(b.indices.size());
    }
    cached.plan.schedule = core::Schedule(std::move(send), std::move(recv));
    cached.compiled.reset();  // re-lower over the run-friendly numbering
    touched += static_cast<double>(cached.plan.local_refs.size());
  }
  comm.charge_work(touched * core::costs::kDeltaScan);
  return perm;
}

namespace {

/// Carry a schedule across epochs: every element it touches is home-stable,
/// so the send side (owner-local offsets) is unchanged and only the recv
/// side (this rank's ghost slots) is rewritten through `new_local`, the
/// old-local -> new-local map. No request exchange.
template <typename NewLocal>
core::Schedule patch_schedule(sim::Comm& comm, const core::Schedule& prior,
                              NewLocal&& new_local) {
  std::vector<core::ScheduleBlock> send = prior.send_blocks();
  std::vector<core::ScheduleBlock> recv = prior.recv_blocks();
  double entries = 0;
  for (core::ScheduleBlock& b : recv) {
    for (GlobalIndex& i : b.indices) i = new_local(i);
    entries += static_cast<double>(b.indices.size());
  }
  for (const core::ScheduleBlock& b : send)
    entries += static_cast<double>(b.indices.size());
  comm.charge_work(entries * core::costs::kSchedulePatchEntry);
  return core::Schedule(std::move(send), std::move(recv));
}

}  // namespace

void ScheduleRegistry::seed_from(sim::Comm& comm,
                                 const lang::Distribution& dist,
                                 const ScheduleRegistry& prior,
                                 const core::OwnerDelta& delta) {
  epoch_ = dist.epoch();
  loops_.clear();
  next_order_ = 0;
  scan_order_pristine_ = true;  // seeding is itself a compact replay
  copts_ = prior.copts_;
  hash_ = std::make_unique<core::IndexHashTable>(
      dist.owned_count(comm.rank()));
  if (!prior.hash_) return;
  const int me = comm.rank();
  const std::vector<int>& owner = dist.map();

  // One row per prior local index (unique until compact()), resolved once
  // per live entry, prefetched ahead: the global, the owner in the new map
  // (-1 once deleted) and the old Home offset, still valid while the
  // element is home-stable. Once seeded, a row holds its entry id and
  // `slot` becomes the new local index, which carried schedules' recv
  // sides are remapped to.
  struct Row {
    GlobalIndex global = -1;
    GlobalIndex slot = -1;
    int proc = -1;
    std::int32_t id = -1;
  };
  enum : std::uint8_t { kUnstable = 1, kMet = 2 };
  const auto extent = static_cast<std::size_t>(prior.hash_->local_extent());
  std::vector<Row> rows(extent);
  std::vector<std::uint8_t> state(extent);
  const std::span<const core::IndexHashTable::Entry> prior_entries =
      prior.hash_->entries();
  for (std::size_t i = 0; i < prior_entries.size(); ++i) {
    if (i + 16 < prior_entries.size()) {
      const core::IndexHashTable::Entry& ahead = prior_entries[i + 16];
      __builtin_prefetch(&rows[static_cast<std::size_t>(ahead.local_index)]);
      if (static_cast<std::size_t>(ahead.global) < owner.size())
        __builtin_prefetch(&owner[static_cast<std::size_t>(ahead.global)]);
    }
    const core::IndexHashTable::Entry& e = prior_entries[i];
    if (e.stamps == 0) continue;  // dead: no loop references it
    const auto lr = static_cast<std::size_t>(e.local_index);
    const auto g = static_cast<std::size_t>(e.global);
    rows[lr] = {e.global, e.home.offset, g < owner.size() ? owner[g] : -1};
    state[lr] = delta.home_stable(e.global) ? 0 : kUnstable;
  }

  // Replay loops in first-plan order: ghost slots are then assigned in
  // exactly the first-encounter order a cold replay of the same plan calls
  // would produce (this is what the equivalence suite checks bitwise).
  std::vector<std::pair<std::uint64_t, std::uint64_t>> order_ids;
  order_ids.reserve(prior.loops_.size());
  for (const auto& [id, cached] : prior.loops_)
    order_ids.emplace_back(cached.order, id);
  std::sort(order_ids.begin(), order_ids.end());

  std::uint64_t replayed = 0, reused_homes = 0;
  std::size_t load = 0;  // entries present before the last replayed ref
  for (const auto& [ord, id] : order_ids) {
    const CachedLoop& pl = prior.loops_.at(id);
    const std::vector<GlobalIndex>& old_refs = pl.plan.local_refs;

    // Dynamic epochs: a loop whose reference stream touches a deleted
    // element has no valid access set anymore — drop it machine-wide
    // instead of seeding (its next inspect() rebuilds cold over the seeded
    // table). The allreduce keeps every rank's per-loop collective
    // sequence aligned; it only runs for dynamic deltas, so pure
    // repartitions pay nothing new.
    if (delta.is_dynamic()) {
      bool touches_deleted = false;
      for (std::size_t k = 0; k < old_refs.size() && !touches_deleted; ++k)
        touches_deleted = delta.deleted(
            rows[static_cast<std::size_t>(old_refs[k])].global);
      if (comm.allreduce_max(touches_deleted ? 1 : 0) == 1) {
        ++stats_.dropped_plans;
        continue;
      }
    }

    const core::Stamp stamp = hash_->allocate_stamp();

    // Pass A: count the rows this loop meets first and list the unstable
    // ones in that order; only they need a lookup through the new table
    // (collective when distributed — every rank participates per loop,
    // possibly with an empty batch).
    bool loop_stable = true;
    std::size_t met = 0;
    std::vector<GlobalIndex> unknown;
    for (const GlobalIndex ref : old_refs) {
      const auto lr = static_cast<std::size_t>(ref);
      const std::uint8_t st = state[lr];
      if ((st & kUnstable) != 0) loop_stable = false;
      if ((st & kMet) != 0) continue;
      state[lr] = st | kMet;
      ++met;
      if ((st & kUnstable) != 0) unknown.push_back(rows[lr].global);
    }
    const std::vector<core::Home> fresh = dist.table().lookup(comm, unknown);
    stats_.seed_translations += unknown.size();

    // Pass B: dense first-encounter replay. A row seeded by an earlier
    // loop gains the stamp; a first reference appends the row's entry with
    // the carried Home offset or, when unstable, the next looked-up one
    // (pass A listed them in this same order).
    CachedLoop nl;
    nl.version = pl.version;
    nl.revision = pl.revision;
    nl.order = next_order_++;
    nl.plan.stamp = stamp;
    nl.plan.local_refs.resize(old_refs.size());
    const auto first = static_cast<std::int32_t>(hash_->entries().size());
    hash_->reserve_seeded(met);
    std::size_t next_fresh = 0;
    bool appended = false;
    for (std::size_t k = 0; k < old_refs.size(); ++k) {
      if (k + 16 < old_refs.size())
        __builtin_prefetch(&rows[static_cast<std::size_t>(old_refs[k + 16])]);
      const auto lr = static_cast<std::size_t>(old_refs[k]);
      Row& r = rows[lr];
      appended = r.id < 0;
      if (appended) {
        const GlobalIndex offset = (state[lr] & kUnstable) != 0
                                       ? fresh[next_fresh++].offset
                                       : r.slot;
        r.id = static_cast<std::int32_t>(hash_->entries().size());
        r.slot = hash_->append_seeded(r.global, core::Home{r.proc, offset},
                                      stamp, me);
      } else if (r.id < first) {
        hash_->restamp_seeded(r.id, stamp);
      }
      nl.plan.local_refs[k] = r.slot;
    }
    if (!old_refs.empty())
      load = hash_->entries().size() - (appended ? 1 : 0);
    replayed += old_refs.size();
    reused_homes += met - unknown.size();
    nl.plan.local_extent = hash_->local_extent();
    comm.charge_work(
        static_cast<double>(met) * core::costs::kSeedInsert +
        static_cast<double>(old_refs.size() - met) * core::costs::kSeedHit);

    // Schedule: carried verbatim (recv side remapped) when every element
    // the loop touches is home-stable machine-wide — the allreduce also
    // covers the send side, since every element an owner serves is some
    // requester's ref. Otherwise regenerate from the seeded table: the
    // request exchange is repeated but the translations were already saved.
    // Carrying additionally requires the prior epoch's scan order to be
    // pristine: after a re-inspection there, the old schedule's block
    // order no longer matches what a cold rebuild over the seeded table
    // produces (the sets would agree but the permutation would not).
    const int stable_all = comm.allreduce_min(
        (loop_stable && prior.scan_order_pristine_) ? 1 : 0);
    if (stable_all == 1) {
      nl.plan.schedule =
          patch_schedule(comm, pl.plan.schedule, [&](GlobalIndex lr) {
            const auto row = static_cast<std::size_t>(lr);
            CHAOS_ASSERT(lr >= 0 && row < extent && rows[row].id >= 0,
                         "carried schedule references an unseeded ghost slot");
            return rows[row].slot;
          });
      ++stats_.patched_schedules;
      if (pl.compiled) {
        // A patched schedule keeps its send side verbatim, so the carried
        // compiled plan reuses the send BlockPlans and re-lowers only the
        // remapped recv side.
        nl.compiled = std::make_unique<const compile::SchedulePlan>(
            compile::SchedulePlan::carry_patched(*pl.compiled,
                                                 nl.plan.schedule, copts_));
        ++stats_.carried_compiled_plans;
      }
    } else {
      nl.plan.schedule =
          core::build_schedule(comm, *hash_, core::StampExpr::only(stamp));
      ++stats_.rebuilt_schedules;
      nl.recompile_pending = pl.compiled != nullptr;
    }
    ++stats_.carried_plans;
    loops_.emplace(id, std::move(nl));
  }
  hash_->index_seeded(replayed, reused_homes, load);
}

}  // namespace chaos::runtime
