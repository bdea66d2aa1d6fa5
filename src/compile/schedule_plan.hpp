// Schedule compilation — exploit the regularity inside irregularity
// (ROADMAP; the Intelligent-Unrolling idea applied at inspector time).
//
// A built core::Schedule is an index-list program: every gather/scatter
// walks its blocks element-at-a-time, even when the indices form long
// contiguous or constant-stride runs (sorted meshes, banded matrices,
// locality-remapped ghost regions). A SchedulePlan is the compiled form of
// one Schedule: each block is lowered, in wire order, into a short sequence
// of segment ops —
//
//   stride == 1   contiguous run  -> one memcpy
//   stride != 0   constant-stride run -> strided block copy (tight loop,
//                 no per-element bounds check, auto-vectorizable)
//   stride == 0   residue         -> an index-list op over the irregular
//                 leftovers (runs shorter than Options::min_run)
//
// Compilation is local, cheap (one linear scan per block) and loses no
// information: executing a plan produces the exact byte stream, placement
// order, and combining order of an element-at-a-time walk of the schedule,
// so compiled execution is bitwise identical to the test oracle
// (tests/support/reference_executor.hpp; the schedule_compile suite proves
// this property on randomized schedules). Bounds are validated once per
// block (the [lo, hi] hull) instead of once per element.
//
// Plans are the engine's only execution input. A schedule executed once
// (a remap, a one-shot inspection) is not worth lowering; it runs through
// a *verbatim* plan instead — one residue op per block, i.e. the indexed
// loop itself — which charges exactly the element-loop rate
// (costs::pack_work). An index stream with no regular sub-pattern is just
// a plan whose only op is the residue.
//
// The inspector builds a schedule once and the executor runs it many times
// (the paper's central amortization claim), so the runtime compiles on
// first execute and caches plans next to their schedules
// (runtime::ScheduleRegistry). A plan must outlive any engine operation
// posted with it, exactly like the Schedule it lowers; rebuilding or
// re-inspecting a schedule invalidates its plan.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>
#include <vector>

#include "core/costs.hpp"
#include "core/schedule.hpp"
#include "util/check.hpp"

namespace chaos::compile {

using core::GlobalIndex;

/// Compilation knobs.
struct Options {
  /// Minimum run length worth a segment op; shorter runs join the residue.
  /// 4 balances dispatch overhead against run coverage on banded patterns.
  GlobalIndex min_run = 4;
};

/// One lowered copy op. `stride == 0` marks a residue op: `len` irregular
/// indices starting at BlockPlan::residue[start]. Otherwise a run: `len`
/// elements at local indices start, start + stride, start + 2*stride, ...
struct SegmentOp {
  GlobalIndex start = 0;
  GlobalIndex len = 0;
  GlobalIndex stride = 0;
};

/// Compiled form of one ScheduleBlock. Ops partition the block's index
/// list in wire order, so executing them in sequence reproduces the
/// schedule's element order exactly.
struct BlockPlan {
  int proc = -1;
  GlobalIndex count = 0;            ///< elements (== schedule block size)
  GlobalIndex lo = 0, hi = -1;      ///< index hull, for one-shot bounds checks
  std::vector<SegmentOp> ops;       ///< wire order
  std::vector<GlobalIndex> residue; ///< irregular indices, in op order

  GlobalIndex run_elements() const {
    return count - static_cast<GlobalIndex>(residue.size());
  }
  GlobalIndex run_ops() const {
    GlobalIndex n = 0;
    for (const SegmentOp& op : ops)
      if (op.stride != 0) ++n;
    return n;
  }
};

/// One or more CONSECUTIVE schedule blocks addressed to the same peer,
/// fused into a single wire segment. Built schedules emit one block per
/// peer, so groups normally degenerate to singletons and the group lists
/// stay empty; hand-constructed schedules (and future hierarchical
/// schedules) may interleave several blocks per peer, and fusing them lets
/// a run that spans a block boundary become one segment op — the PR-6
/// leftover ("run detection across block boundaries"). Fusion preserves
/// wire order exactly, so grouped execution is bitwise identical to
/// per-block execution.
struct WireGroup {
  int proc = -1;
  std::size_t first = 0;    ///< index of the group's first schedule block
  std::size_t nblocks = 1;  ///< consecutive blocks covered
  BlockPlan fused;          ///< concatenated plan, boundary runs merged
};

/// The compiled form of a whole Schedule: one BlockPlan per ScheduleBlock,
/// in block order (send()[i] lowers sched.send_blocks()[i]).
class SchedulePlan {
 public:
  struct Stats {
    std::uint64_t run_ops = 0;           ///< contiguous/strided segment ops
    std::uint64_t run_elements = 0;      ///< elements covered by runs
    std::uint64_t residue_elements = 0;  ///< elements left on index lists
    std::uint64_t total_elements = 0;
    /// Boundary fusions where one block's tail run continued into the next
    /// block's head run (same stride, continuing start) and the two ops
    /// merged into one.
    std::uint64_t cross_block_runs = 0;
  };

  /// Lower every block of `sched` (both directions, self-blocks included).
  static SchedulePlan compile(const core::Schedule& sched, Options opt = {});

  /// Run `sched` as written: each non-empty block becomes one residue op
  /// over its indices (hull computed, no wire groups, nothing charged).
  /// work() then charges the element-loop rate.
  static SchedulePlan verbatim(const core::Schedule& sched);

  /// Cross-epoch carry for a *patched* schedule (ScheduleRegistry::
  /// seed_from): the send side of a patched schedule is verbatim the prior
  /// epoch's, so its block plans are reused; only the recv side (rewritten
  /// ghost slots) is re-lowered.
  static SchedulePlan carry_patched(const SchedulePlan& prior,
                                    const core::Schedule& patched,
                                    Options opt = {});

  const std::vector<BlockPlan>& send() const { return send_; }
  const std::vector<BlockPlan>& recv() const { return recv_; }

  /// Wire groups per direction. EMPTY when every group would be a
  /// singleton (the built-schedule common case: one block per peer) — the
  /// engine then runs its ordinary per-block path with zero overhead.
  /// Non-empty lists cover every block of the direction in order.
  const std::vector<WireGroup>& send_groups() const { return send_groups_; }
  const std::vector<WireGroup>& recv_groups() const { return recv_groups_; }

  const Stats& stats() const { return stats_; }

  /// Modeled work of executing block `b` of this plan: costs::pack_work
  /// for verbatim plans, block_work for lowered ones.
  double work(const BlockPlan& b, std::size_t elem_bytes) const;

  /// Approximate heap footprint, for registry memory accounting
  /// (Runtime::registry_bytes / compact).
  std::size_t footprint_bytes() const;

 private:
  void build_groups(const core::Schedule& sched);

  std::vector<BlockPlan> send_;
  std::vector<BlockPlan> recv_;
  std::vector<WireGroup> send_groups_;
  std::vector<WireGroup> recv_groups_;
  Stats stats_;
  bool lowered_ = true;  ///< false for verbatim()
};

// ---- compiled executor kernels ---------------------------------------------
//
// The engine's pack/unpack loops. Each kernel validates the block's index
// hull once, then runs unchecked segment copies. All three preserve the
// schedule's element order bit-for-bit.

namespace detail {
inline void check_hull(const BlockPlan& b, std::size_t size) {
  CHAOS_CHECK(b.count == 0 ||
                  (b.lo >= 0 && static_cast<std::size_t>(b.hi) < size),
              "compiled block's index hull outside the data array");
}
}  // namespace detail

/// Gather/transport pack: read `src` at the block's indices (wire order)
/// into the wire bytes at `out` (room for count elements). Writes go
/// through memcpy, like place_block's reads, because a segment inside a
/// coalesced peer buffer may start at an offset misaligned for `T`.
template <typename T>
void pack_block(const BlockPlan& b, std::span<const T> src, std::byte* out) {
  detail::check_hull(b, src.size());
  const T* s0 = src.data();
  for (const SegmentOp& op : b.ops) {
    if (op.stride == 1) {
      std::memcpy(out, s0 + op.start, static_cast<std::size_t>(op.len) *
                                          sizeof(T));
    } else if (op.stride == 0) {
      const GlobalIndex* idx = b.residue.data() + op.start;
      for (GlobalIndex k = 0; k < op.len; ++k)
        std::memcpy(out + k * sizeof(T), s0 + idx[k], sizeof(T));
    } else {
      const T* s = s0 + op.start;
      for (GlobalIndex k = 0; k < op.len; ++k)
        std::memcpy(out + k * sizeof(T), s + k * op.stride, sizeof(T));
    }
    out += static_cast<std::size_t>(op.len) * sizeof(T);
  }
}

/// The same kernel into a typed array of count elements.
template <typename T>
  requires(!std::is_same_v<T, std::byte>)
void pack_block(const BlockPlan& b, std::span<const T> src, T* out) {
  pack_block<T>(b, src, reinterpret_cast<std::byte*>(out));
}

/// Gather/transport place: write an incoming wire segment to `dst` at the
/// block's indices (replacement).
template <typename T>
void place_block(const BlockPlan& b, std::span<const std::byte> bytes,
                 std::span<T> dst) {
  CHAOS_CHECK(bytes.size() == static_cast<std::size_t>(b.count) * sizeof(T),
              "incoming segment size does not match compiled block");
  detail::check_hull(b, dst.size());
  const std::byte* in = bytes.data();
  T* d0 = dst.data();
  for (const SegmentOp& op : b.ops) {
    if (op.stride == 1) {
      std::memcpy(d0 + op.start, in, static_cast<std::size_t>(op.len) *
                                         sizeof(T));
    } else if (op.stride == 0) {
      const GlobalIndex* idx = b.residue.data() + op.start;
      for (GlobalIndex k = 0; k < op.len; ++k)
        std::memcpy(d0 + idx[k], in + k * sizeof(T), sizeof(T));
    } else {
      T* d = d0 + op.start;
      for (GlobalIndex k = 0; k < op.len; ++k)
        std::memcpy(d + k * op.stride, in + k * sizeof(T), sizeof(T));
    }
    in += static_cast<std::size_t>(op.len) * sizeof(T);
  }
}

/// Scatter combine: apply `combine(own, incoming)` at the block's indices.
/// Element order equals the schedule's, so non-associative combines stay
/// bitwise identical.
template <typename T, typename Combine>
void combine_block(const BlockPlan& b, std::span<const std::byte> bytes,
                   std::span<T> dst, Combine combine) {
  CHAOS_CHECK(bytes.size() == static_cast<std::size_t>(b.count) * sizeof(T),
              "incoming segment size does not match compiled block");
  detail::check_hull(b, dst.size());
  const std::byte* in = bytes.data();
  T* d0 = dst.data();
  T incoming;
  for (const SegmentOp& op : b.ops) {
    if (op.stride == 0) {
      const GlobalIndex* idx = b.residue.data() + op.start;
      for (GlobalIndex k = 0; k < op.len; ++k) {
        std::memcpy(&incoming, in + k * sizeof(T), sizeof(T));
        d0[idx[k]] = combine(d0[idx[k]], incoming);
      }
    } else {
      T* d = d0 + op.start;
      for (GlobalIndex k = 0; k < op.len; ++k) {
        std::memcpy(&incoming, in + k * sizeof(T), sizeof(T));
        d[k * op.stride] = combine(d[k * op.stride], incoming);
      }
    }
    in += static_cast<std::size_t>(op.len) * sizeof(T);
  }
}

/// Modeled work of executing one lowered block: segment dispatch per op,
/// the bulk-copy rate inside runs, the element-loop rate on the residue.
inline double block_work(const BlockPlan& b, std::size_t elem_bytes) {
  return core::costs::compiled_pack_work(
      static_cast<std::uint64_t>(b.ops.size()),
      static_cast<std::uint64_t>(b.run_elements()),
      static_cast<std::uint64_t>(b.residue.size()), elem_bytes);
}

inline double SchedulePlan::work(const BlockPlan& b,
                                 std::size_t elem_bytes) const {
  return lowered_ ? block_work(b, elem_bytes)
                  : core::costs::pack_work(static_cast<std::size_t>(b.count),
                                           elem_bytes);
}

}  // namespace chaos::compile
