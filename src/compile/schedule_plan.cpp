#include "compile/schedule_plan.hpp"

#include <algorithm>

namespace chaos::compile {

namespace {

/// Lower one index list into wire-order segment ops. Scans left to right
/// emitting maximal constant-stride runs; runs shorter than opt.min_run
/// (and zero-stride repeats, which a block copy cannot express) fall into
/// the residue. Each stretch of residue between two runs is appended as
/// one op, in one copy.
BlockPlan lower_block(const core::ScheduleBlock& blk, const Options& opt) {
  BlockPlan out;
  out.proc = blk.proc;
  out.count = static_cast<GlobalIndex>(blk.indices.size());
  const std::vector<GlobalIndex>& idx = blk.indices;
  if (idx.empty()) return out;

  const auto [lo, hi] = std::minmax_element(idx.begin(), idx.end());
  out.lo = *lo;
  out.hi = *hi;

  const auto emit_residue = [&](std::size_t from, std::size_t to) {
    if (from == to) return;
    out.ops.push_back(SegmentOp{static_cast<GlobalIndex>(out.residue.size()),
                                static_cast<GlobalIndex>(to - from), 0});
    out.residue.insert(out.residue.end(), idx.begin() + from,
                       idx.begin() + to);
  };

  std::size_t i = 0, residue_from = 0;
  while (i + 1 < idx.size()) {
    // Maximal run starting at i: stride fixed by the first pair. A zero
    // stride is not a block copy; idx[i] stays in the residue.
    const GlobalIndex d = idx[i + 1] - idx[i];
    std::size_t j = i + 1;
    if (d != 0)
      while (j + 1 < idx.size() && idx[j + 1] - idx[j] == d) ++j;
    const GlobalIndex len = static_cast<GlobalIndex>(j - i + 1);
    if (d != 0 && len >= opt.min_run) {
      emit_residue(residue_from, i);
      out.ops.push_back(SegmentOp{idx[i], len, d});
      i = residue_from = j + 1;
    } else {
      ++i;
    }
  }
  emit_residue(residue_from, idx.size());
  return out;
}

void accumulate(SchedulePlan::Stats& st, const BlockPlan& b) {
  st.run_ops += static_cast<std::uint64_t>(b.run_ops());
  st.run_elements += static_cast<std::uint64_t>(b.run_elements());
  st.residue_elements += b.residue.size();
  st.total_elements += static_cast<std::uint64_t>(b.count);
}

/// Append `next`'s lowered ops to `fused`, preserving wire order. The
/// boundary pair merges when the tail run continues into the head run
/// (same stride, continuing start — the cross-block run the per-block
/// lowering cannot see) or when both boundary ops are residue (their index
/// lists concatenate into one loop).
void append_fused(BlockPlan& fused, const BlockPlan& next,
                  std::uint64_t& cross_block_runs) {
  const auto residue_base = static_cast<GlobalIndex>(fused.residue.size());
  std::size_t skip = 0;
  if (!fused.ops.empty() && !next.ops.empty()) {
    SegmentOp& tail = fused.ops.back();
    const SegmentOp& head = next.ops.front();
    if (tail.stride != 0 && head.stride == tail.stride &&
        head.start == tail.start + tail.stride * tail.len) {
      tail.len += head.len;
      ++cross_block_runs;
      skip = 1;
    } else if (tail.stride == 0 && head.stride == 0) {
      // The tail residue op's indices end exactly at residue_base, so the
      // head's (appended right there) continue it contiguously.
      tail.len += head.len;
      skip = 1;
    }
  }
  for (std::size_t k = skip; k < next.ops.size(); ++k) {
    SegmentOp op = next.ops[k];
    if (op.stride == 0) op.start += residue_base;
    fused.ops.push_back(op);
  }
  fused.residue.insert(fused.residue.end(), next.residue.begin(),
                       next.residue.end());
  if (next.count > 0) {
    if (fused.count == 0) {
      fused.lo = next.lo;
      fused.hi = next.hi;
    } else {
      fused.lo = std::min(fused.lo, next.lo);
      fused.hi = std::max(fused.hi, next.hi);
    }
  }
  fused.count += next.count;
}

/// Group one direction's blocks by runs of consecutive equal peers. Leaves
/// `groups` empty when every group would be a singleton, so the engine's
/// per-block path keeps running unchanged for built schedules.
void build_direction(const std::vector<core::ScheduleBlock>& blks,
                     const std::vector<BlockPlan>& plans,
                     std::vector<WireGroup>& groups,
                     SchedulePlan::Stats& stats) {
  groups.clear();
  bool adjacent = false;
  for (std::size_t i = 1; i < blks.size(); ++i)
    if (blks[i].proc == blks[i - 1].proc) {
      adjacent = true;
      break;
    }
  if (!adjacent) return;
  std::size_t i = 0;
  while (i < blks.size()) {
    WireGroup g;
    g.proc = blks[i].proc;
    g.first = i;
    g.fused = plans[i];
    std::size_t j = i + 1;
    while (j < blks.size() && blks[j].proc == g.proc) {
      append_fused(g.fused, plans[j], stats.cross_block_runs);
      ++j;
    }
    g.nblocks = j - i;
    groups.push_back(std::move(g));
    i = j;
  }
}

/// Lower every block of both directions of `sched` with `lower`, in block
/// order, accumulating the plan stats.
template <typename Lower>
void lower_sides(const core::Schedule& sched, Lower&& lower,
                 std::vector<BlockPlan>& send, std::vector<BlockPlan>& recv,
                 SchedulePlan::Stats& stats) {
  for (auto [blocks, out] : {std::pair{&sched.send_blocks(), &send},
                             std::pair{&sched.recv_blocks(), &recv}}) {
    out->reserve(blocks->size());
    for (const core::ScheduleBlock& b : *blocks) {
      out->push_back(lower(b));
      accumulate(stats, out->back());
    }
  }
}

/// One residue op over the whole block: the index list run as written.
BlockPlan residue_block(const core::ScheduleBlock& blk) {
  BlockPlan out;
  out.proc = blk.proc;
  out.count = static_cast<GlobalIndex>(blk.indices.size());
  if (blk.indices.empty()) return out;
  const auto [lo, hi] =
      std::minmax_element(blk.indices.begin(), blk.indices.end());
  out.lo = *lo;
  out.hi = *hi;
  out.ops.push_back(SegmentOp{0, out.count, 0});
  out.residue = blk.indices;
  return out;
}

}  // namespace

SchedulePlan SchedulePlan::compile(const core::Schedule& sched, Options opt) {
  CHAOS_CHECK(opt.min_run >= 2, "min_run must be at least 2");
  SchedulePlan plan;
  lower_sides(
      sched, [&](const core::ScheduleBlock& b) { return lower_block(b, opt); },
      plan.send_, plan.recv_, plan.stats_);
  plan.build_groups(sched);
  return plan;
}

SchedulePlan SchedulePlan::verbatim(const core::Schedule& sched) {
  SchedulePlan plan;
  plan.lowered_ = false;
  lower_sides(sched, residue_block, plan.send_, plan.recv_, plan.stats_);
  return plan;
}

SchedulePlan SchedulePlan::carry_patched(const SchedulePlan& prior,
                                         const core::Schedule& patched,
                                         Options opt) {
  CHAOS_CHECK(prior.send_.size() == patched.send_blocks().size(),
              "carried plan does not match the patched schedule");
  SchedulePlan plan;
  plan.send_ = prior.send_;  // send side of a patched schedule is verbatim
  for (const BlockPlan& b : plan.send_) accumulate(plan.stats_, b);
  plan.recv_.reserve(patched.recv_blocks().size());
  for (const core::ScheduleBlock& b : patched.recv_blocks()) {
    plan.recv_.push_back(lower_block(b, opt));
    accumulate(plan.stats_, plan.recv_.back());
  }
  plan.build_groups(patched);
  return plan;
}

void SchedulePlan::build_groups(const core::Schedule& sched) {
  build_direction(sched.send_blocks(), send_, send_groups_, stats_);
  build_direction(sched.recv_blocks(), recv_, recv_groups_, stats_);
}

std::size_t SchedulePlan::footprint_bytes() const {
  std::size_t n = 0;
  for (const std::vector<BlockPlan>* side : {&send_, &recv_}) {
    n += side->capacity() * sizeof(BlockPlan);
    for (const BlockPlan& b : *side) {
      n += b.ops.capacity() * sizeof(SegmentOp);
      n += b.residue.capacity() * sizeof(GlobalIndex);
    }
  }
  for (const std::vector<WireGroup>* side : {&send_groups_, &recv_groups_}) {
    n += side->capacity() * sizeof(WireGroup);
    for (const WireGroup& g : *side) {
      n += g.fused.ops.capacity() * sizeof(SegmentOp);
      n += g.fused.residue.capacity() * sizeof(GlobalIndex);
    }
  }
  return n;
}

}  // namespace chaos::compile
