// Test oracle: the schedule lowering's original per-element loop. Every
// element that does not start a run of at least min_run is appended to the
// residue on its own, merging into the preceding residue op.
// compile::SchedulePlan::compile must produce exactly the ops, residue and
// hull this loop produces, and the stats and cross-block run count that
// follow from them (tests/compile/schedule_compile_test.cpp).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "compile/schedule_plan.hpp"

namespace chaos::testing_support {

inline compile::BlockPlan reference_lower_block(
    const core::ScheduleBlock& blk, const compile::Options& opt) {
  using compile::SegmentOp;
  using core::GlobalIndex;
  compile::BlockPlan out;
  out.proc = blk.proc;
  out.count = static_cast<GlobalIndex>(blk.indices.size());
  const std::vector<GlobalIndex>& idx = blk.indices;
  if (idx.empty()) return out;

  out.lo = *std::min_element(idx.begin(), idx.end());
  out.hi = *std::max_element(idx.begin(), idx.end());

  const auto emit_residue = [&](std::size_t from, std::size_t to) {
    if (from == to) return;
    if (!out.ops.empty() && out.ops.back().stride == 0) {
      SegmentOp& prev = out.ops.back();
      prev.len += static_cast<GlobalIndex>(to - from);
    } else {
      out.ops.push_back(
          SegmentOp{static_cast<GlobalIndex>(out.residue.size()),
                    static_cast<GlobalIndex>(to - from), 0});
    }
    out.residue.insert(out.residue.end(), idx.begin() + from,
                       idx.begin() + to);
  };

  std::size_t i = 0;
  while (i < idx.size()) {
    std::size_t j = i + 1;
    if (j < idx.size()) {
      const GlobalIndex d = idx[j] - idx[i];
      if (d != 0)
        while (j + 1 < idx.size() && idx[j + 1] - idx[j] == d) ++j;
      else
        j = i;
      const GlobalIndex len = static_cast<GlobalIndex>(j - i + 1);
      if (j > i && len >= opt.min_run) {
        out.ops.push_back(SegmentOp{idx[i], len, d});
        i = j + 1;
        continue;
      }
    }
    emit_residue(i, i + 1);
    ++i;
  }
  return out;
}

/// Stats of lowering one direction's `blocks` block by block, plus the
/// boundary runs that fusing consecutive same-peer blocks merges (the
/// library's append_fused, replayed on the ops alone).
inline void reference_accumulate(const std::vector<core::ScheduleBlock>& blocks,
                                 const compile::Options& opt,
                                 compile::SchedulePlan::Stats& st) {
  std::vector<compile::SegmentOp> fused;  // the current peer group's ops
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    const compile::BlockPlan b = reference_lower_block(blocks[i], opt);
    for (const compile::SegmentOp& op : b.ops)
      if (op.stride != 0) {
        ++st.run_ops;
        st.run_elements += static_cast<std::uint64_t>(op.len);
      }
    st.residue_elements += b.residue.size();
    st.total_elements += static_cast<std::uint64_t>(b.count);

    if (i == 0 || blocks[i].proc != blocks[i - 1].proc) fused.clear();
    std::size_t skip = 0;
    if (!fused.empty() && !b.ops.empty()) {
      compile::SegmentOp& tail = fused.back();
      const compile::SegmentOp& head = b.ops.front();
      if (tail.stride != 0 && head.stride == tail.stride &&
          head.start == tail.start + tail.stride * tail.len) {
        tail.len += head.len;
        ++st.cross_block_runs;
        skip = 1;
      } else if (tail.stride == 0 && head.stride == 0) {
        tail.len += head.len;
        skip = 1;
      }
    }
    fused.insert(fused.end(), b.ops.begin() + static_cast<std::ptrdiff_t>(skip),
                 b.ops.end());
  }
}

}  // namespace chaos::testing_support
