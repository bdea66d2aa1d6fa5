// The communication engine: asynchronous, batched gather/scatter (the
// executor's plan -> post -> flush -> wait pipeline).
//
// The paper's executor wins come from message vectorization and schedule
// merging (§3.2.1, Table 3). A blocking executor realizes vectorization one
// schedule at a time: each call is a synchronous round-trip, so independent
// schedules serialize and two loops' ghost traffic to the same peer goes
// out as two messages. The Engine makes communication first-class instead
// (the Runtime's blocking gather/scatter/remap are one post plus one wait
// on a local Engine):
//
//   comm::Engine engine(comm);
//   auto ha = engine.post_gather<double>(sched_a, xa, plan_a);  // stage only
//   auto hb = engine.post_gather<double>(sched_b, xb, plan_b);  // same batch
//   engine.flush();      // ONE coalesced message per peer for a AND b
//   ...local work overlapped with the transfers...
//   engine.wait(ha);     // or wait_all() / test(ha)
//
// Posting packs outgoing elements straight into the tail of the open
// batch's wire buffer for their peer and records the segments the rank
// expects back; no message leaves until flush(). A flush closes the open
// batch under one fresh tag and moves each peer's buffer into one message,
// which the receiver pops by move and unpacks in place: every word is
// written once at pack time and read once at unpack time, and the receiver
// owns the payload after the pop. At most one message goes to each peer
// per batch, regardless of how many operations were posted — the run-time
// counterpart of compile-time schedule merging, without requiring the
// schedules to share a hash table. Successive batches use distinct tags, so
// independent batches may be in flight simultaneously and waited out of
// order.
//
// SPMD contract (stated batch-wise): every
// rank posts the same logical sequence of operations into the same batches
// and flushes/waits at the same points. wait(h) flushes h's batch if it is
// still open — even when h completed locally at post time — so the
// machine-wide tag sequence stays in lockstep on ranks whose share of an
// operation happens to be empty.
//
// Lifetimes: the data span, and for schedule-based posts the Schedule and
// its SchedulePlan, must stay valid until the operation completes (post_migrate takes
// its LightweightSchedule by value and keeps it alive internally). Do not
// re-inspect or rebuild a schedule while an operation posted on it is in
// flight.
//
// Determinism: incoming batches are consumed in post order and, within a
// batch, in ascending peer order, so results are independent of OS
// scheduling. The
// arrival-driven calls (test_peer / ready_peers / receive_any /
// wait_arrival) relax that order ONLY for operations whose unpack provably
// commutes (gather/transport: disjoint destination slots), so results stay
// bitwise identical there too; order-dependent messages (scatter combines,
// migrate appends) are always consumed in canonical order, whichever call
// drives progress.
// test() only consumes messages that have arrived in *modeled* time (the
// mailbox probe is gated on this rank's virtual clock), so a probe can
// never pull virtual time forward; a polling loop must charge its own
// work to make virtual progress, and how many polls it needs is the one
// place real-time scheduling can show through (as with MPI_Test).
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "compile/schedule_plan.hpp"
#include "core/costs.hpp"
#include "core/lightweight.hpp"
#include "core/schedule.hpp"
#include "sim/machine.hpp"

namespace chaos::comm {

using core::GlobalIndex;

/// Handle to one posted communication operation. Cheap value type. Valid
/// from the post until the engine next goes fully idle (every operation
/// complete, no open batch) AND a new operation is posted — at that point
/// the drained bookkeeping is recycled and old handles must not be used.
struct CommHandle {
  std::uint32_t id = ~std::uint32_t{0};
  friend bool operator==(const CommHandle&, const CommHandle&) = default;
};

class Engine {
 public:
  explicit Engine(sim::Comm& comm) : comm_(comm) {}
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  sim::Comm& comm() { return comm_; }

  // ---- posting -------------------------------------------------------

  /// Forward execution between two arrays (remap shape): read src at send
  /// indices, deliver, place incoming at dst recv indices. Self-blocks are
  /// copied at post time.
  ///
  /// `plan` is the schedule's executable form (compile/schedule_plan.hpp):
  /// a lowered plan runs segment ops at bulk-copy charges, a verbatim plan
  /// runs the index lists at the element-loop charge. It must lower
  /// exactly `sched` and, like the schedule, stay valid until the
  /// operation completes.
  template <typename T>
  CommHandle post_transport(const core::Schedule& sched,
                            std::span<const T> src, std::span<T> dst,
                            const compile::SchedulePlan& plan);

  /// Gather: fetch off-processor elements into the ghost region of `data`
  /// (which spans owned + ghost).
  template <typename T>
  CommHandle post_gather(const core::Schedule& sched, std::span<T> data,
                         const compile::SchedulePlan& plan) {
    return post_transport<T>(sched, data, data, plan);
  }

  /// Transpose execution with a combiner: ship ghost values back to owners;
  /// each owner applies `combine(owned, incoming)` at the original send
  /// indices. Same plan contract as post_transport.
  template <typename T, typename Combine>
  CommHandle post_scatter_op(const core::Schedule& sched, std::span<T> data,
                             Combine combine,
                             const compile::SchedulePlan& plan);

  template <typename T>
  CommHandle post_scatter(const core::Schedule& sched, std::span<T> data,
                          const compile::SchedulePlan& plan) {
    return post_scatter_op<T>(
        sched, data, [](const T&, const T& incoming) { return incoming; },
        plan);
  }

  template <typename T>
  CommHandle post_scatter_add(const core::Schedule& sched, std::span<T> data,
                              const compile::SchedulePlan& plan) {
    return post_scatter_op<T>(
        sched, data,
        [](const T& own, const T& incoming) { return own + incoming; }, plan);
  }

  /// Light-weight migration: move `items` per the schedule, appending every
  /// item that now lives on this rank to `out` (items that stayed local
  /// first, then arrivals in ascending source rank, like scatter_append).
  /// Takes the schedule by value and keeps it alive until completion.
  template <typename T>
  CommHandle post_migrate(core::LightweightSchedule sched,
                          std::span<const T> items, std::vector<T>& out);

  // ---- progress ------------------------------------------------------

  /// Close the open batch: send one coalesced message per peer with any
  /// staged traffic, under one fresh tag. No-op when nothing was posted
  /// since the last flush.
  void flush();

  /// Complete `h`: flush its batch if still open, then receive (in batch /
  /// ascending-peer order) until every segment of `h` has been unpacked.
  void wait(CommHandle h);

  /// Complete every posted operation (flushes first).
  void wait_all();

  /// Non-blocking completion probe: drains any already-arrived messages of
  /// flushed batches, then reports whether `h` is complete. Never flushes
  /// and never blocks — an operation in a still-open batch reports false.
  bool test(CommHandle h);

  // ---- per-peer completion (arrival-driven execution) -----------------
  //
  // A gather/transport operation's incoming segments land in disjoint
  // destination slots, so delivering them in ANY order is bitwise
  // identical — such operations are marked order-independent at post, and
  // the calls below may consume their messages the moment they arrive in
  // modeled time instead of in canonical FIFO/ascending-peer order.
  // Scatter combines and migrate appends stay order-dependent: their
  // messages are only ever consumed by the canonical in-order path, so
  // arrival-driven progress never perturbs a floating-point combine order
  // or an append order.

  /// Non-blocking: have all of `h`'s segments from `peer` been delivered?
  /// Drains any consumable messages first (order-independent ones in
  /// arrival order, others in canonical order). True when `h` expects
  /// nothing from `peer`.
  bool test_peer(CommHandle h, int peer);

  /// Non-blocking: the ascending list of peers `h` expects segments from
  /// whose segments have all been delivered (drains like test_peer).
  std::vector<int> ready_peers(CommHandle h);

  /// Consume ONE message that (a) has arrived in modeled time and (b)
  /// carries only order-independent segments; false when none qualifies.
  bool receive_any();

  /// Block until at least one message has been consumed: prefers the
  /// earliest-arriving safe message physically queued (advancing this
  /// rank's virtual clock to its modeled arrival), yields while sender
  /// threads lag in real time, and falls back to one canonical blocking
  /// receive when nothing order-independent is outstanding.
  void wait_arrival();

  /// Bookkeeping heap footprint (ops, batches, per-part completion state),
  /// for Runtime::registry_bytes accounting.
  std::size_t footprint_bytes() const;

  /// Release drained bookkeeping (requires an idle engine; no-op
  /// otherwise). Returns the bytes released. Invalidates old handles, like
  /// the idle recycling at open_batch.
  std::size_t compact();

  /// True when `h` has completed (no progress attempted).
  bool done(CommHandle h) const {
    CHAOS_CHECK(h.id < ops_.size(), "invalid comm handle");
    return ops_[h.id].remaining == 0;
  }

  /// True when no operation is outstanding and no batch is open. Runtime
  /// epoch retirement and registry compaction require an idle engine.
  bool idle() const {
    if (open_ != kNone) return false;
    for (const Op& op : ops_)
      if (op.remaining > 0) return false;
    return true;
  }

  /// Cumulative wire traffic this engine has flushed (self-copies
  /// excluded): one message per (peer, batch) with staged payload. Benches
  /// diff this around a phase to report bytes actually migrated — e.g. the
  /// delta-remap path of cross-epoch reuse ships only moved elements.
  struct Traffic {
    std::uint64_t messages = 0;
    std::uint64_t bytes = 0;
  };
  const Traffic& traffic() const { return traffic_; }

  /// Cumulative outgoing traffic split by destination rank (index = peer;
  /// sized comm.size() lazily on first flush, empty before any traffic).
  /// balance::Monitor folds this into its per-window load vectors so the
  /// policy can see *who* a rank talks to, not just how much.
  std::span<const Traffic> peer_traffic() const { return peer_traffic_; }

  /// Zero the cumulative counters (per-batch snapshots are unaffected) so
  /// a bench can attribute subsequent traffic to one phase without keeping
  /// a baseline copy around.
  void reset_traffic() {
    traffic_ = Traffic{};
    std::fill(peer_traffic_.begin(), peer_traffic_.end(), Traffic{});
  }

  /// Wire traffic of the batch `h` was posted into, recorded at its flush
  /// (zeros while the batch is still open). Lets benches attribute
  /// messages/bytes to individual steps instead of whole runs. Same handle
  /// validity rules as done()/test().
  Traffic batch_traffic(CommHandle h) const {
    CHAOS_CHECK(h.id < ops_.size(), "invalid comm handle");
    const std::uint32_t b = ops_[h.id].batch;
    if (b == kNone) return Traffic{};
    return batches_[b].sent_traffic;
  }

  /// Operations posted and not yet complete (including an open batch).
  std::size_t in_flight() const {
    std::size_t n = 0;
    for (const Op& op : ops_)
      if (op.remaining > 0) ++n;
    return n;
  }

 private:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  struct Op {
    std::uint32_t batch = kNone;
    std::size_t remaining = 0;  ///< incoming segments still to unpack
    /// Unpacking this op's segments commutes (disjoint destination slots):
    /// gather/transport. Order-dependent ops (scatter combines, migrate
    /// appends) are only consumed by the canonical in-order path.
    bool order_independent = false;
    /// Consumes the op's `part`-th expected segment (post order), so
    /// schedules with several blocks for the same peer resolve correctly.
    std::function<void(std::uint32_t part, std::span<const std::byte>)> unpack;
    std::shared_ptr<void> keepalive;  ///< e.g. the moved-in LightweightSchedule
    // Per-part completion, indexed by part ordinal (test_peer/ready_peers).
    std::vector<int> part_peer;
    std::vector<bool> part_done;
  };

  struct Segment {
    std::uint32_t op = 0;
    std::uint32_t part = 0;  ///< ordinal among the op's expected segments
    std::size_t bytes = 0;
  };

  struct PeerIncoming {
    int peer = -1;
    std::vector<Segment> segments;  ///< in post order
    std::size_t total_bytes = 0;
    bool received = false;  ///< delivered (possibly out of canonical order)
  };

  struct Outgoing {
    std::vector<std::byte> bytes;  ///< the wire buffer, packed in place
    std::uint64_t segments = 0;    ///< staged segments; 0 = no message
  };

  struct Batch {
    int tag = 0;
    bool sent = false;
    Traffic sent_traffic;  ///< this batch's share of traffic_, set at flush
    std::vector<PeerIncoming> incoming;  ///< ascending peer
    std::size_t next = 0;                ///< receive progress
    /// Outgoing coalescer, indexed by peer (sized comm.size() at open);
    /// flush moves the buffers out and drops it.
    std::vector<Outgoing> out;
  };

  /// The open batch, creating one if needed; returns its index. Opening a
  /// fresh batch on a fully drained engine first discards the completed
  /// bookkeeping, so a long-lived engine's memory stays bounded by its
  /// in-flight traffic (this is what invalidates pre-idle handles).
  std::uint32_t open_batch() {
    if (open_ == kNone) {
      // idle() implies every segment was delivered (undelivered segments
      // keep their op's `remaining` nonzero), so the whole history is
      // droppable even if receive progress never visited trailing batches
      // with no incoming traffic.
      if (idle()) {
        ops_.clear();
        batches_.clear();
        recv_batch_ = 0;
      }
      batches_.emplace_back();
      batches_.back().out.resize(static_cast<std::size_t>(comm_.size()));
      open_ = static_cast<std::uint32_t>(batches_.size() - 1);
    }
    return open_;
  }

  /// Grow `peer`'s wire buffer in the open batch by one segment of
  /// `bytes` and return where the segment starts, for packing in place.
  std::byte* stage_out(Batch& b, int peer, std::size_t bytes) {
    CHAOS_CHECK(peer >= 0 && peer < comm_.size(),
                "schedule peer out of range");
    Outgoing& o = b.out[static_cast<std::size_t>(peer)];
    ++o.segments;
    const std::size_t at = o.bytes.size();
    o.bytes.resize(at + bytes);
    return o.bytes.data() + at;
  }

  /// Record that op `id` expects its `part`-th segment, of `bytes`, from
  /// `peer` in batch `b` (maintains ascending peer order; posts arrive
  /// peer-ascending per op, but different ops may interleave peers
  /// arbitrarily).
  void expect_in(Batch& b, int peer, std::uint32_t id, std::uint32_t part,
                 std::size_t bytes);

  /// Receive one pending coalesced message (FIFO batch order, ascending
  /// peer within a batch, skipping entries receive_any already delivered)
  /// and unpack its segments. Blocking variant waits; non-blocking returns
  /// false if the next message has not arrived (or nothing is in flight).
  bool receive_one(bool blocking);

  /// Every segment of this pending message belongs to an order-independent
  /// op, so it may be delivered out of canonical order.
  bool safe_out_of_order(const PeerIncoming& pi) const;

  void deliver(Batch& b, PeerIncoming& pi, std::span<const std::byte> payload);

  /// `plan` must lower `sched` block for block.
  static void check_lowers(const compile::SchedulePlan& plan,
                           const core::Schedule& sched);

  /// Pack one wire part of `src` straight into its peer's wire buffer,
  /// charging the plan's rate.
  template <typename T>
  void pack_out(Batch& b, const compile::SchedulePlan& plan,
                const compile::BlockPlan& part, std::span<const T> src) {
    compile::pack_block<T>(
        part, src,
        stage_out(b, part.proc,
                  static_cast<std::size_t>(part.count) * sizeof(T)));
    comm_.charge_work(plan.work(part, sizeof(T)));
  }

  /// Record that op `id` expects wire part `part` (its next part ordinal)
  /// and remember the part for the unpack.
  void expect_part(Batch& b, std::uint32_t id, const compile::BlockPlan& part,
                   std::size_t elem_bytes,
                   std::vector<const compile::BlockPlan*>& parts) {
    expect_in(b, part.proc, id, static_cast<std::uint32_t>(parts.size()),
              static_cast<std::size_t>(part.count) * elem_bytes);
    parts.push_back(&part);
  }

  /// Visit one direction's wire parts in order: the wire groups when the
  /// plan built them, else one part per block. `fn(part, first_block)`.
  template <typename Fn>
  static void for_each_part(const std::vector<compile::BlockPlan>& blocks,
                            const std::vector<compile::WireGroup>& groups,
                            Fn&& fn) {
    if (groups.empty()) {
      for (std::size_t i = 0; i < blocks.size(); ++i) fn(blocks[i], i);
      return;
    }
    for (const compile::WireGroup& g : groups) fn(g.fused, g.first);
  }

  sim::Comm& comm_;
  std::vector<Op> ops_;
  std::vector<Batch> batches_;
  std::size_t recv_batch_ = 0;  ///< first batch not fully received
  std::uint32_t open_ = kNone;
  Traffic traffic_;
  std::vector<Traffic> peer_traffic_;  ///< by destination rank, lazy-sized
};

// ---- template implementations ---------------------------------------------

template <typename T>
CommHandle Engine::post_transport(const core::Schedule& sched,
                                  std::span<const T> src, std::span<T> dst,
                                  const compile::SchedulePlan& plan) {
  static_assert(std::is_trivially_copyable_v<T>);
  check_lowers(plan, sched);
  const int me = comm_.rank();
  const std::uint32_t batch_id = open_batch();
  const auto id = static_cast<std::uint32_t>(ops_.size());
  ops_.emplace_back();
  // Transport recv blocks place into disjoint destination slots (each slot
  // is fetched from exactly one owner), so segment delivery order cannot
  // change the result — eligible for arrival-driven receives.
  ops_.back().order_independent = true;
  Batch& b = batches_[batch_id];

  const core::ScheduleBlock* self_send = nullptr;
  const core::ScheduleBlock* self_recv = nullptr;

  for_each_part(plan.send(), plan.send_groups(),
                [&](const compile::BlockPlan& bp, std::size_t first) {
                  if (bp.proc == me) {
                    self_send = &sched.send_blocks()[first];
                    CHAOS_CHECK(bp.count == static_cast<GlobalIndex>(
                                                self_send->indices.size()),
                                "self blocks cannot be wire-grouped");
                    return;
                  }
                  pack_out<T>(b, plan, bp, src);
                });

  std::vector<const compile::BlockPlan*> in_plans;  // post order
  for_each_part(plan.recv(), plan.recv_groups(),
                [&](const compile::BlockPlan& bp, std::size_t first) {
                  if (bp.proc == me) {
                    self_recv = &sched.recv_blocks()[first];
                    CHAOS_CHECK(bp.count == static_cast<GlobalIndex>(
                                                self_recv->indices.size()),
                                "self blocks cannot be wire-grouped");
                    return;
                  }
                  expect_part(b, id, bp, sizeof(T), in_plans);
                });

  // Self-block: straight copy at post time, no messages.
  if (self_send || self_recv) {
    CHAOS_CHECK(self_send && self_recv &&
                    self_send->indices.size() == self_recv->indices.size(),
                "self send/recv blocks must pair up");
    for (std::size_t k = 0; k < self_send->indices.size(); ++k) {
      const GlobalIndex s = self_send->indices[k];
      const GlobalIndex d = self_recv->indices[k];
      CHAOS_CHECK(s >= 0 && static_cast<std::size_t>(s) < src.size());
      CHAOS_CHECK(d >= 0 && static_cast<std::size_t>(d) < dst.size());
      dst[static_cast<std::size_t>(d)] = src[static_cast<std::size_t>(s)];
    }
    comm_.charge_work(
        core::costs::pack_work(self_send->indices.size(), sizeof(T)));
  }

  Op& op = ops_[id];
  op.batch = batch_id;
  if (op.remaining > 0) {
    op.unpack = [this, &plan, plans = std::move(in_plans),
                 dst](std::uint32_t part, std::span<const std::byte> bytes) {
      compile::place_block<T>(*plans[part], bytes, dst);
      comm_.charge_work(plan.work(*plans[part], sizeof(T)));
    };
  }
  return CommHandle{id};
}

template <typename T, typename Combine>
CommHandle Engine::post_scatter_op(const core::Schedule& sched,
                                   std::span<T> data, Combine combine,
                                   const compile::SchedulePlan& plan) {
  static_assert(std::is_trivially_copyable_v<T>);
  check_lowers(plan, sched);
  const int me = comm_.rank();
  const std::uint32_t batch_id = open_batch();
  const auto id = static_cast<std::uint32_t>(ops_.size());
  ops_.emplace_back();
  Batch& b = batches_[batch_id];

  for_each_part(plan.recv(), plan.recv_groups(),
                [&](const compile::BlockPlan& bp, std::size_t) {
                  CHAOS_CHECK(bp.proc != me,
                              "scatter does not support self-blocks");
                  pack_out<T>(b, plan, bp,
                              std::span<const T>{data.data(), data.size()});
                });

  std::vector<const compile::BlockPlan*> in_plans;  // post order
  for_each_part(plan.send(), plan.send_groups(),
                [&](const compile::BlockPlan& bp, std::size_t) {
                  CHAOS_CHECK(bp.proc != me,
                              "scatter does not support self-blocks");
                  expect_part(b, id, bp, sizeof(T), in_plans);
                });

  Op& op = ops_[id];
  op.batch = batch_id;
  if (op.remaining > 0) {
    op.unpack = [this, &plan, plans = std::move(in_plans), data,
                 combine](std::uint32_t part,
                          std::span<const std::byte> bytes) {
      compile::combine_block<T>(*plans[part], bytes, data, combine);
      comm_.charge_work(plan.work(*plans[part], sizeof(T)));
    };
  }
  return CommHandle{id};
}

template <typename T>
CommHandle Engine::post_migrate(core::LightweightSchedule sched,
                                std::span<const T> items,
                                std::vector<T>& out) {
  static_assert(std::is_trivially_copyable_v<T>);
  const std::uint32_t batch_id = open_batch();
  const auto id = static_cast<std::uint32_t>(ops_.size());
  ops_.emplace_back();
  Batch& b = batches_[batch_id];

  auto kept = std::make_shared<core::LightweightSchedule>(std::move(sched));

  for (const auto& blk : kept->send_blocks()) {
    std::byte* w = stage_out(b, blk.proc, blk.indices.size() * sizeof(T));
    for (GlobalIndex i : blk.indices) {
      CHAOS_CHECK(i >= 0 && static_cast<std::size_t>(i) < items.size(),
                  "schedule item position outside item array");
      std::memcpy(w, &items[static_cast<std::size_t>(i)], sizeof(T));
      w += sizeof(T);
    }
    comm_.charge_work(core::costs::pack_work(blk.indices.size(), sizeof(T)));
  }

  // Items that stay local are appended at post time, before any arrival —
  // the same deterministic order as the blocking scatter_append.
  for (GlobalIndex i : kept->self_positions()) {
    CHAOS_CHECK(i >= 0 && static_cast<std::size_t>(i) < items.size());
    out.push_back(items[static_cast<std::size_t>(i)]);
  }

  std::uint32_t parts = 0;
  for (const auto& [proc, count] : kept->fetch_counts())
    expect_in(b, proc, id, parts++,
              static_cast<std::size_t>(count) * sizeof(T));

  Op& op = ops_[id];
  op.batch = batch_id;
  op.keepalive = kept;
  if (op.remaining > 0) {
    op.unpack = [this, kept_raw = kept.get(), &out](
                    std::uint32_t part, std::span<const std::byte> bytes) {
      const GlobalIndex expected = kept_raw->fetch_counts()[part].second;
      CHAOS_CHECK(bytes.size() ==
                      static_cast<std::size_t>(expected) * sizeof(T),
                  "incoming item count does not match schedule");
      const std::size_t n = bytes.size() / sizeof(T);
      const std::size_t at = out.size();
      out.resize(at + n);
      std::memcpy(out.data() + at, bytes.data(), bytes.size());
      comm_.charge_work(core::costs::pack_work(n, sizeof(T)));
    };
  }
  return CommHandle{id};
}

}  // namespace chaos::comm
