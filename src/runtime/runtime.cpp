#include "runtime/runtime.hpp"

#include <algorithm>

#include "compile/locality.hpp"
#include "runtime/step_graph.hpp"

namespace chaos {

// ---- Phase A ---------------------------------------------------------------

DistHandle Runtime::adopt(lang::Distribution dist) {
  DistEntry entry;
  entry.dist = std::make_unique<lang::Distribution>(std::move(dist));
  dists_.push_back(std::move(entry));
  return DistHandle{static_cast<std::uint32_t>(dists_.size() - 1)};
}

std::vector<int> Runtime::partition_map(core::PartitionerKind kind,
                                        std::span<const GlobalIndex> my_ids,
                                        std::span<const part::Point3> my_points,
                                        std::span<const double> my_weights,
                                        GlobalIndex n_total) {
  return core::parallel_partition(comm_, kind, my_ids, my_points, my_weights,
                                  n_total);
}

DistHandle Runtime::partition(core::PartitionerKind kind,
                              std::span<const GlobalIndex> my_ids,
                              std::span<const part::Point3> my_points,
                              std::span<const double> my_weights,
                              GlobalIndex n_total) {
  return irregular(
      partition_map(kind, my_ids, my_points, my_weights, n_total));
}

DistHandle Runtime::repartition(DistHandle from, core::PartitionerKind kind,
                                std::span<const part::Point3> my_points,
                                std::span<const double> my_weights) {
  const DistEntry& e = dist_entry(from);
  const std::vector<GlobalIndex> my_ids =
      e.dist->owned_globals(comm_.rank());
  const GlobalIndex n = e.dist->global_size();
  if (e.dist->live_count() == n) {
    std::vector<int> map =
        partition_map(kind, my_ids, my_points, my_weights, n);
    return repartition(from, std::move(map));
  }

  // Holey universe (dynamic deletions): the partitioners require a dense
  // id range, so partition in the compressed live-id space — rank of each
  // live id among live ids, computable locally from the replicated map —
  // and scatter the result back over the tombstones.
  const std::vector<int>& old_map = e.dist->map();
  std::vector<GlobalIndex> comp_ids(my_ids.size());
  {
    std::size_t k = 0;
    GlobalIndex comp = 0;
    for (GlobalIndex g = 0; g < n && k < my_ids.size(); ++g) {
      if (old_map[static_cast<std::size_t>(g)] < 0) continue;
      if (g == my_ids[k]) comp_ids[k++] = comp;
      ++comp;
    }
  }
  std::vector<int> cmap = partition_map(kind, comp_ids, my_points, my_weights,
                                        e.dist->live_count());
  std::vector<int> new_map(static_cast<std::size_t>(n), -1);
  std::size_t c = 0;
  for (GlobalIndex g = 0; g < n; ++g)
    if (old_map[static_cast<std::size_t>(g)] >= 0)
      new_map[static_cast<std::size_t>(g)] = cmap[c++];
  return repartition(from, std::move(new_map));
}

DistHandle Runtime::repartition(DistHandle from, std::vector<int> new_map) {
  {
    const DistEntry& e = dist_entry(from);
    CHAOS_CHECK(static_cast<GlobalIndex>(new_map.size()) ==
                    e.dist->global_size(),
                "successor map must cover the same element set");
  }

  if (!cross_epoch_reuse_) {
    // Cold path: from-scratch table (same storage mode), empty registry.
    const bool paged = dist_entry(from).dist->table().mode() ==
                       core::TranslationTable::Mode::kDistributed;
    return paged ? irregular_paged(new_map) : irregular(new_map);
  }

  auto delta = std::make_shared<core::OwnerDelta>(
      core::OwnerDelta::compute(dist_entry(from).dist->map(), new_map));
  comm_.charge_work(static_cast<double>(new_map.size()) *
                    core::costs::kDeltaScan);
  lang::Distribution next = lang::Distribution::patched(
      comm_, *dist_entry(from).dist, std::move(new_map), *delta);
  const DistHandle h = adopt(std::move(next));  // may reallocate dists_
  DistEntry& ne = dists_[h.id];
  ne.parent = from.id;
  ne.delta = std::move(delta);
  ne.registry.seed_from(comm_, *ne.dist, dists_[from.id].registry,
                        *ne.delta);
  return h;
}

Runtime::InsertResult Runtime::insert_elements(DistHandle from,
                                               std::span<const int> owners) {
  std::vector<int> new_map = dist_entry(from).dist->map();
  InsertResult out;
  out.ids.reserve(owners.size());
  // Fill the lowest tombstone holes first, then append past the end —
  // keeps the numbering dense under birth/death churn instead of growing
  // without bound.
  GlobalIndex next_hole = 0;
  for (int owner : owners) {
    CHAOS_CHECK(owner >= 0 && owner < comm_.size(),
                "insert_elements owner outside the machine");
    while (next_hole < static_cast<GlobalIndex>(new_map.size()) &&
           new_map[static_cast<std::size_t>(next_hole)] >= 0)
      ++next_hole;
    if (next_hole < static_cast<GlobalIndex>(new_map.size())) {
      new_map[static_cast<std::size_t>(next_hole)] = owner;
      out.ids.push_back(next_hole++);
    } else {
      new_map.push_back(owner);
      out.ids.push_back(static_cast<GlobalIndex>(new_map.size()) - 1);
    }
  }
  out.dist = dynamic_successor(from, std::move(new_map));
  return out;
}

DistHandle Runtime::delete_elements(DistHandle from,
                                    std::span<const GlobalIndex> dead) {
  std::vector<int> new_map = dist_entry(from).dist->map();
  for (GlobalIndex g : dead) {
    CHAOS_CHECK(g >= 0 && g < static_cast<GlobalIndex>(new_map.size()),
                "delete_elements id outside the universe");
    CHAOS_CHECK(new_map[static_cast<std::size_t>(g)] >= 0,
                "delete_elements id is already a tombstone");
    new_map[static_cast<std::size_t>(g)] = -1;
  }
  // A trailing tombstone run shrinks the universe; interior holes stay so
  // surviving ids never renumber.
  while (!new_map.empty() && new_map.back() < 0) new_map.pop_back();
  return dynamic_successor(from, std::move(new_map));
}

DistHandle Runtime::dynamic_successor(DistHandle from,
                                      std::vector<int> new_map) {
  if (!cross_epoch_reuse_) {
    const bool paged = dist_entry(from).dist->table().mode() ==
                       core::TranslationTable::Mode::kDistributed;
    return paged ? irregular_paged(new_map) : irregular(new_map);
  }
  auto delta = std::make_shared<core::OwnerDelta>(
      core::OwnerDelta::compute_dynamic(dist_entry(from).dist->map(),
                                        new_map));
  comm_.charge_work(static_cast<double>(
                        std::max(new_map.size(),
                                 dist_entry(from).dist->map().size())) *
                    core::costs::kDeltaScan);
  lang::Distribution next = lang::Distribution::patched(
      comm_, *dist_entry(from).dist, std::move(new_map), *delta);
  const DistHandle h = adopt(std::move(next));  // may reallocate dists_
  DistEntry& ne = dists_[h.id];
  ne.parent = from.id;
  ne.delta = std::move(delta);
  ne.registry.seed_from(comm_, *ne.dist, dists_[from.id].registry,
                        *ne.delta);
  return h;
}

const core::OwnerDelta* Runtime::owner_delta(DistHandle h) const {
  return dist_entry(h).delta.get();
}

void Runtime::retire(DistHandle h) {
  CHAOS_CHECK(h.id < dists_.size(), "invalid distribution handle");
  dists_[h.id].retired = true;  // idempotent
}

std::size_t Runtime::compact() {
  CHAOS_CHECK(engine_.idle(),
              "compact() with engine operations in flight");
  std::size_t released = 0;
  for (DistEntry& e : dists_) {
    if (!e.retired) continue;
    released += e.registry.footprint_bytes();
    e.registry = runtime::ScheduleRegistry{};
    if (e.dist) {
      // Translation table of a retired epoch (the full home array when
      // replicated, one page when distributed).
      released += e.dist->table().footprint_bytes();
      e.dist.reset();
    }
    if (e.delta) {
      released += e.delta->footprint_bytes();
      e.delta.reset();  // lineage record of a retired epoch
    }
  }
  for (ScheduleEntry& e : scheds_) {
    const bool dead = dists_[e.dist].retired ||
                      (e.kind == ScheduleKind::kRemap &&
                       dists_[e.to_dist].retired);
    if (!dead) continue;
    released += e.sched.footprint_bytes();
    e.sched = core::Schedule{};
    if (e.compiled) {
      released += e.compiled->footprint_bytes();
      e.compiled.reset();
    }
  }
  // Engine bookkeeping of drained batches and the step graphs' cached
  // chunk plans; both rebuild lazily on next use.
  released += engine_.compact();
  for (StepGraph* g : graphs_) released += g->release_chunk_plans();
  return released;
}

std::size_t Runtime::registry_bytes() const {
  std::size_t n = 0;
  for (const DistEntry& e : dists_) {
    n += e.registry.footprint_bytes();
    if (e.dist) n += e.dist->table().footprint_bytes();
    // Lineage deltas (including birth/death records of dynamic epochs) are
    // held until compact(); count them so the accounting stays exact:
    // registry_bytes() before == registry_bytes() after + compact().
    if (e.delta) n += e.delta->footprint_bytes();
  }
  for (const ScheduleEntry& e : scheds_) {
    n += e.sched.footprint_bytes();
    if (e.compiled) n += e.compiled->footprint_bytes();
  }
  n += engine_.footprint_bytes();
  for (const StepGraph* g : graphs_) n += g->footprint_bytes();
  return n;
}

const lang::Distribution& Runtime::dist(DistHandle h) const {
  return *dist_entry(h).dist;
}

GlobalIndex Runtime::local_extent(DistHandle h) const {
  const DistEntry& e = dist_entry(h);
  const GlobalIndex registry_extent = e.registry.local_extent();
  return registry_extent > 0 ? registry_extent
                             : e.dist->owned_count(comm_.rank());
}

bool Runtime::valid(DistHandle h) const {
  return h.id < dists_.size() && !dists_[h.id].retired;
}

// ---- Phase B ---------------------------------------------------------------

ScheduleHandle Runtime::plan_remap(DistHandle from, DistHandle to) {
  const DistEntry& src = dist_entry(from);
  const DistEntry& dst = dist_entry(to);
  ScheduleEntry entry;
  entry.kind = ScheduleKind::kRemap;
  entry.dist = from.id;
  entry.to_dist = to.id;
  const std::vector<GlobalIndex> mine = src.dist->owned_globals(comm_.rank());
  // When `to` is a reuse successor of `from`, the owner delta replaces the
  // full translation pass: only moved elements are looked up, stable ones
  // derive their new offsets locally. The schedule itself is identical.
  if (dst.parent == from.id && dst.delta != nullptr) {
    entry.sched = core::build_remap_schedule_delta(
        comm_, mine, dst.dist->table(), *dst.delta);
  } else {
    entry.sched = core::build_remap_schedule(comm_, mine, dst.dist->table());
  }
  entry.new_owned = dst.dist->owned_count(comm_.rank());
  scheds_.push_back(std::move(entry));
  return ScheduleHandle{static_cast<std::uint32_t>(scheds_.size() - 1)};
}

// ---- Phase E ---------------------------------------------------------------

LoopHandle Runtime::bind(DistHandle dist, const lang::IndirectionArray& ind) {
  (void)dist_entry(dist);  // validate
  const auto key = std::make_pair(dist.id, ind.id());
  auto it = loop_keys_.find(key);
  if (it != loop_keys_.end()) return LoopHandle{it->second};
  LoopEntry entry;
  entry.dist = dist.id;
  entry.ind = &ind;
  entry.ind_id = ind.id();
  loops_.push_back(entry);
  const auto id = static_cast<std::uint32_t>(loops_.size() - 1);
  loop_keys_.emplace(key, id);
  return LoopHandle{id};
}

ScheduleHandle Runtime::loop_schedule_handle(std::uint32_t dist_id,
                                             std::uint64_t ind_id) {
  const auto key = std::make_pair(dist_id, ind_id);
  auto it = sched_keys_.find(key);
  if (it != sched_keys_.end()) return ScheduleHandle{it->second};
  ScheduleEntry entry;
  entry.kind = ScheduleKind::kLoop;
  entry.dist = dist_id;
  entry.ind_id = ind_id;
  scheds_.push_back(std::move(entry));
  const auto id = static_cast<std::uint32_t>(scheds_.size() - 1);
  sched_keys_.emplace(key, id);
  return ScheduleHandle{id};
}

ScheduleHandle Runtime::inspect(LoopHandle loop) {
  const LoopEntry& le = loop_entry(loop);
  DistEntry& de = dists_[le.dist];
  CHAOS_CHECK(!de.retired, "loop bound to a retired distribution epoch");
  de.registry.plan(comm_, *de.dist, *le.ind);
  return loop_schedule_handle(le.dist, le.ind_id);
}

ScheduleHandle Runtime::inspect_once(DistHandle dist,
                                     std::span<GlobalIndex> refs) {
  DistEntry& de = dist_entry(dist);
  core::IndexHashTable scratch(de.dist->owned_count(comm_.rank()));
  const core::Stamp stamp = scratch.hash(comm_, de.dist->table(), refs);
  ScheduleEntry entry;
  entry.kind = ScheduleKind::kOnce;
  entry.dist = dist.id;
  entry.sched = core::build_schedule(comm_, scratch,
                                     core::StampExpr::only(stamp));
  entry.extent = scratch.local_extent();

  // Revoke the previous one-shot handle for this distribution (and free its
  // schedule storage) rather than refreshing it in place: the old handle
  // must not silently alias the new pattern's schedule.
  auto it = once_keys_.find(dist.id);
  if (it != once_keys_.end()) {
    ScheduleEntry& old = scheds_[it->second];
    old.revoked = true;
    old.sched = core::Schedule{};
    old.compiled.reset();
    old.extent = 0;
  }
  scheds_.push_back(std::move(entry));
  const auto id = static_cast<std::uint32_t>(scheds_.size() - 1);
  once_keys_[dist.id] = id;
  return ScheduleHandle{id};
}

void Runtime::collect_components(ScheduleHandle h, std::uint32_t& dist_id,
                                 std::vector<std::uint64_t>& ind_ids) const {
  const ScheduleEntry& e = checked(h);
  CHAOS_CHECK(e.kind == ScheduleKind::kLoop || e.kind == ScheduleKind::kMerged,
              "merged/incremental schedules combine loop or merged handles");
  if (dist_id == detail::kInvalidHandle) dist_id = e.dist;
  CHAOS_CHECK(dist_id == e.dist,
              "cannot combine schedules from different distributions");
  if (e.kind == ScheduleKind::kLoop) {
    ind_ids.push_back(e.ind_id);
  } else {
    ind_ids.insert(ind_ids.end(), e.part_ids.begin(), e.part_ids.end());
  }
}

ScheduleHandle Runtime::merge(std::span<const ScheduleHandle> loops) {
  CHAOS_CHECK(!loops.empty(), "empty merged loop set");
  std::uint32_t dist_id = detail::kInvalidHandle;
  std::vector<std::uint64_t> ind_ids;
  for (ScheduleHandle h : loops) collect_components(h, dist_id, ind_ids);

  DistEntry& de = dists_[dist_id];
  ScheduleEntry entry;
  entry.kind = ScheduleKind::kMerged;
  entry.dist = dist_id;
  entry.part_ids = ind_ids;
  entry.part_revs.reserve(ind_ids.size());
  for (std::uint64_t id : ind_ids)
    entry.part_revs.push_back(de.registry.revision(id));
  entry.sched = de.registry.merged(comm_, ind_ids);
  entry.extent = de.registry.local_extent();

  std::vector<std::uint64_t> key_ids = ind_ids;
  std::sort(key_ids.begin(), key_ids.end());
  const auto key = std::make_tuple(static_cast<int>(ScheduleKind::kMerged),
                                   dist_id, std::move(key_ids));
  auto it = derived_keys_.find(key);
  if (it != derived_keys_.end()) {
    scheds_[it->second] = std::move(entry);
    return ScheduleHandle{it->second};
  }
  scheds_.push_back(std::move(entry));
  const auto id = static_cast<std::uint32_t>(scheds_.size() - 1);
  derived_keys_.emplace(key, id);
  return ScheduleHandle{id};
}

ScheduleHandle Runtime::incremental(ScheduleHandle wanted,
                                    ScheduleHandle covered) {
  const ScheduleEntry& we = checked(wanted);
  CHAOS_CHECK(we.kind == ScheduleKind::kLoop,
              "incremental `wanted` must be a loop schedule");
  std::uint32_t dist_id = we.dist;
  std::vector<std::uint64_t> covered_ids;
  collect_components(covered, dist_id, covered_ids);

  DistEntry& de = dists_[dist_id];
  ScheduleEntry entry;
  entry.kind = ScheduleKind::kIncremental;
  entry.dist = dist_id;
  entry.part_ids.push_back(we.ind_id);
  entry.part_ids.insert(entry.part_ids.end(), covered_ids.begin(),
                        covered_ids.end());
  entry.part_revs.reserve(entry.part_ids.size());
  for (std::uint64_t id : entry.part_ids)
    entry.part_revs.push_back(de.registry.revision(id));
  entry.sched = de.registry.incremental(comm_, we.ind_id, covered_ids);
  entry.extent = de.registry.local_extent();

  const auto key = std::make_tuple(
      static_cast<int>(ScheduleKind::kIncremental), dist_id, entry.part_ids);
  auto it = derived_keys_.find(key);
  if (it != derived_keys_.end()) {
    scheds_[it->second] = std::move(entry);
    return ScheduleHandle{it->second};
  }
  scheds_.push_back(std::move(entry));
  const auto id = static_cast<std::uint32_t>(scheds_.size() - 1);
  derived_keys_.emplace(key, id);
  return ScheduleHandle{id};
}

std::span<const GlobalIndex> Runtime::local_refs(LoopHandle loop) const {
  const LoopEntry& le = loop_entry(loop);
  const DistEntry& de = dists_[le.dist];
  CHAOS_CHECK(!de.retired, "loop bound to a retired distribution epoch");
  const lang::LoopPlan* plan = de.registry.find(le.ind_id);
  CHAOS_CHECK(plan != nullptr, "loop has not been inspected in this epoch");
  return plan->local_refs;
}

GlobalIndex Runtime::extent(ScheduleHandle h) const {
  return extent_of(checked(h));
}

bool Runtime::valid(LoopHandle h) const {
  return h.id < loops_.size() && !dists_[loops_[h.id].dist].retired;
}

bool Runtime::valid(ScheduleHandle h) const {
  if (h.id >= scheds_.size()) return false;
  const ScheduleEntry& e = scheds_[h.id];
  if (e.revoked) return false;
  if (dists_[e.dist].retired) return false;
  if (e.kind == ScheduleKind::kRemap && dists_[e.to_dist].retired)
    return false;
  if (e.kind == ScheduleKind::kLoop &&
      dists_[e.dist].registry.find(e.ind_id) == nullptr)
    return false;
  if (e.kind == ScheduleKind::kMerged ||
      e.kind == ScheduleKind::kIncremental) {
    const runtime::ScheduleRegistry& reg = dists_[e.dist].registry;
    for (std::size_t i = 0; i < e.part_ids.size(); ++i)
      if (reg.revision(e.part_ids[i]) != e.part_revs[i]) return false;
  }
  return true;
}

core::IndexHashTable::Stats Runtime::hash_stats(DistHandle h) const {
  const core::IndexHashTable* hash = dist_entry(h).registry.hash_table();
  return hash ? hash->stats() : core::IndexHashTable::Stats{};
}

runtime::ScheduleRegistry::Stats Runtime::registry_stats(DistHandle h) const {
  return dist_entry(h).registry.stats();
}

// ---- internals -------------------------------------------------------------

Runtime::DistEntry& Runtime::dist_entry(DistHandle h) {
  CHAOS_CHECK(h.id < dists_.size(), "invalid distribution handle");
  DistEntry& e = dists_[h.id];
  CHAOS_CHECK(!e.retired, "distribution epoch has been retired");
  return e;
}

const Runtime::DistEntry& Runtime::dist_entry(DistHandle h) const {
  CHAOS_CHECK(h.id < dists_.size(), "invalid distribution handle");
  const DistEntry& e = dists_[h.id];
  CHAOS_CHECK(!e.retired, "distribution epoch has been retired");
  return e;
}

const Runtime::LoopEntry& Runtime::loop_entry(LoopHandle h) const {
  CHAOS_CHECK(h.id < loops_.size(), "invalid loop handle");
  return loops_[h.id];
}

const Runtime::ScheduleEntry& Runtime::checked(ScheduleHandle h) const {
  CHAOS_CHECK(h.id < scheds_.size(), "invalid schedule handle");
  const ScheduleEntry& e = scheds_[h.id];
  CHAOS_CHECK(!e.revoked,
              "one-shot schedule handle superseded by a newer inspect_once");
  CHAOS_CHECK(!dists_[e.dist].retired,
              "schedule bound to a retired distribution epoch");
  if (e.kind == ScheduleKind::kRemap)
    CHAOS_CHECK(!dists_[e.to_dist].retired,
                "remap schedule targets a retired distribution epoch");
  if (e.kind == ScheduleKind::kMerged ||
      e.kind == ScheduleKind::kIncremental) {
    const runtime::ScheduleRegistry& reg = dists_[e.dist].registry;
    for (std::size_t i = 0; i < e.part_ids.size(); ++i)
      CHAOS_CHECK(reg.revision(e.part_ids[i]) == e.part_revs[i],
                  "derived schedule is stale: a component loop was "
                  "re-inspected; re-derive it (rt.merge / rt.incremental)");
  }
  return e;
}

Runtime::Executable Runtime::executable(ScheduleHandle h, std::size_t size) {
  const ScheduleEntry& e = checked(h);
  CHAOS_CHECK(static_cast<GlobalIndex>(size) >= extent_of(e),
              "data array smaller than the schedule's local extent");
  const core::Schedule& sched = schedule_of(e);
  return {sched, plan_of(e)};
}

Runtime::Executable Runtime::remap_executable(ScheduleHandle h,
                                              std::size_t size) {
  const ScheduleEntry& e = checked(h);
  CHAOS_CHECK(e.kind == ScheduleKind::kRemap,
              "handle is not a remap schedule");
  CHAOS_CHECK(static_cast<GlobalIndex>(size) >= e.new_owned,
              "destination smaller than the plan's new owned region");
  return {e.sched, plan_of(e)};
}

const compile::SchedulePlan& Runtime::plan_of(const ScheduleEntry& e) {
  if (e.kind == ScheduleKind::kLoop) {
    const compile::SchedulePlan* plan =
        dists_[e.dist].registry.compiled_plan(comm_, e.ind_id);
    CHAOS_CHECK(plan != nullptr, "loop has not been inspected in this epoch");
    return *plan;
  }
  if (!e.compiled) {
    if (e.kind == ScheduleKind::kRemap || e.kind == ScheduleKind::kOnce) {
      // Executed once: lowering would cost more than it saves.
      e.compiled = std::make_unique<const compile::SchedulePlan>(
          compile::SchedulePlan::verbatim(e.sched));
    } else {
      // kMerged/kIncremental: checked() already validated component
      // revisions, and re-deriving replaces the whole entry, so a cached
      // plan here is never stale.
      runtime::ScheduleRegistry& reg = dists_[e.dist].registry;
      auto plan = std::make_unique<const compile::SchedulePlan>(
          compile::SchedulePlan::compile(e.sched));
      comm_.charge_work(static_cast<double>(plan->stats().total_elements) *
                        core::costs::kDeltaScan);
      reg.note_external_compile(plan->stats());
      e.compiled = std::move(plan);
    }
  }
  return *e.compiled;
}

std::vector<GlobalIndex> Runtime::remap_ghost_locality(DistHandle h) {
  CHAOS_CHECK(engine_.idle(),
              "locality remap with engine operations in flight");
  DistEntry& de = dist_entry(h);
  std::vector<GlobalIndex> perm = de.registry.remap_ghost_locality(comm_);
  if (perm.empty()) return perm;

  // Merged/incremental schedules derived from this epoch reference the
  // renumbered ghost slots too; rewrite them through the same permutation
  // so their handles stay valid. kOnce schedules number ghosts through
  // their own scratch table and are untouched.
  const GlobalIndex owned = de.dist->owned_count(comm_.rank());
  for (ScheduleEntry& e : scheds_) {
    if (e.dist != h.id || e.revoked) continue;
    if (e.kind != ScheduleKind::kMerged &&
        e.kind != ScheduleKind::kIncremental)
      continue;
    std::vector<core::ScheduleBlock> send = e.sched.send_blocks();
    std::vector<core::ScheduleBlock> recv = e.sched.recv_blocks();
    for (core::ScheduleBlock& b : recv)
      compile::apply_ghost_permutation(perm, owned, b.indices);
    e.sched = core::Schedule(std::move(send), std::move(recv));
    e.compiled.reset();
  }
  return perm;
}

const core::Schedule& Runtime::schedule_of(const ScheduleEntry& e) const {
  if (e.kind != ScheduleKind::kLoop) return e.sched;
  const lang::LoopPlan* plan = dists_[e.dist].registry.find(e.ind_id);
  CHAOS_CHECK(plan != nullptr, "loop has not been inspected in this epoch");
  return plan->schedule;
}

GlobalIndex Runtime::extent_of(const ScheduleEntry& e) const {
  if (e.kind != ScheduleKind::kLoop) return e.extent;
  const lang::LoopPlan* plan = dists_[e.dist].registry.find(e.ind_id);
  CHAOS_CHECK(plan != nullptr, "loop has not been inspected in this epoch");
  return plan->local_extent;
}

}  // namespace chaos
