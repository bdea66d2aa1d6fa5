#include "comm/engine.hpp"

#include <algorithm>

namespace chaos::comm {

void Engine::expect_in(Batch& b, int peer, std::uint32_t id,
                       std::uint32_t part, std::size_t bytes) {
  CHAOS_CHECK(peer >= 0 && peer < comm_.size(),
              "schedule peer out of range");
  // Keep incoming peers sorted ascending; segments to the same peer
  // append in post order.
  auto it = std::lower_bound(
      b.incoming.begin(), b.incoming.end(), peer,
      [](const PeerIncoming& pi, int p) { return pi.peer < p; });
  if (it == b.incoming.end() || it->peer != peer) {
    CHAOS_CHECK(b.next == 0,
                "cannot post into a batch that is being received");
    it = b.incoming.insert(it, PeerIncoming{peer, {}, 0, false});
  }
  it->segments.push_back(Segment{id, part, bytes});
  it->total_bytes += bytes;
  ++ops_[id].remaining;
}

void Engine::check_lowers(const compile::SchedulePlan& plan,
                          const core::Schedule& sched) {
  const auto same = [](const std::vector<compile::BlockPlan>& plans,
                       const std::vector<core::ScheduleBlock>& blocks) {
    if (plans.size() != blocks.size()) return false;
    for (std::size_t i = 0; i < plans.size(); ++i)
      if (plans[i].proc != blocks[i].proc ||
          plans[i].count != static_cast<GlobalIndex>(blocks[i].indices.size()))
        return false;
    return true;
  };
  CHAOS_CHECK(same(plan.send(), sched.send_blocks()) &&
                  same(plan.recv(), sched.recv_blocks()),
              "plan does not lower this schedule");
}

void Engine::flush() {
  if (open_ == kNone) return;
  Batch& b = batches_[open_];
  // Every rank with an open batch draws exactly one tag here; posts are
  // collective, so the open-batch pattern — and therefore the machine-wide
  // tag sequence — is identical on every rank.
  b.tag = comm_.fresh_tag();
  for (std::size_t peer = 0; peer < b.out.size(); ++peer) {
    Outgoing& o = b.out[peer];
    if (o.segments == 0) continue;
    if (peer_traffic_.empty())
      peer_traffic_.resize(static_cast<std::size_t>(comm_.size()));
    const std::size_t bytes = o.bytes.size();
    comm_.send(static_cast<int>(peer), b.tag, std::move(o.bytes));
    ++traffic_.messages;
    traffic_.bytes += bytes;
    ++peer_traffic_[peer].messages;
    peer_traffic_[peer].bytes += bytes;
    ++b.sent_traffic.messages;
    b.sent_traffic.bytes += bytes;
    // Only messages that actually packed several operations' segments
    // count as coalesced: single-segment engine sends are indistinguishable
    // on the wire from blocking sends, and counting them would dilute the
    // segments-per-message reduction factor the benches report.
    if (o.segments >= 2) comm_.note_coalesced_send(o.segments, bytes);
  }
  b.sent = true;
  b.out = {};
  open_ = kNone;
}

void Engine::deliver(Batch&, PeerIncoming& pi,
                     std::span<const std::byte> payload) {
  CHAOS_CHECK(payload.size() == pi.total_bytes,
              "coalesced message size does not match expected segments");
  std::size_t at = 0;
  for (const Segment& seg : pi.segments) {
    Op& op = ops_[seg.op];
    CHAOS_ASSERT(op.remaining > 0);
    op.unpack(seg.part, payload.subspan(at, seg.bytes));
    at += seg.bytes;
    if (--op.remaining == 0) {
      // Release the completed operation's heavy state (captured closures,
      // kept-alive schedules) immediately; the small Op record stays so
      // the handle remains queryable.
      op.unpack = nullptr;
      op.keepalive.reset();
    }
  }
  pi.received = true;
  pi.segments = {};  // release; the flag is all later passes need
}

bool Engine::receive_one(bool blocking) {
  while (recv_batch_ < batches_.size()) {
    Batch& b = batches_[recv_batch_];
    if (!b.sent) return false;  // the open batch; nothing in flight yet
    // Skip entries receive_peer already delivered out of canonical order.
    while (b.next < b.incoming.size() && b.incoming[b.next].received)
      ++b.next;
    if (b.next == b.incoming.size()) {
      // Fully received: release the peer bookkeeping and move on.
      b.incoming = {};
      b.next = 0;
      ++recv_batch_;
      continue;
    }
    PeerIncoming& pi = b.incoming[b.next];
    std::vector<std::byte> payload;
    if (blocking) {
      payload = comm_.recv<std::byte>(pi.peer, b.tag);
    } else if (!comm_.try_recv<std::byte>(pi.peer, b.tag, payload)) {
      return false;
    }
    deliver(b, pi, payload);
    ++b.next;
    return true;
  }
  return false;
}

Engine::Batch& Engine::arrival_batch(CommHandle h) {
  CHAOS_CHECK(h.id < ops_.size(), "invalid comm handle");
  const std::uint32_t bi = ops_[h.id].batch;
  CHAOS_CHECK(bi != kNone && batches_[bi].sent,
              "arrival-driven receive: the operation's batch is not flushed");
  for (const Op& op : ops_)
    CHAOS_CHECK(op.batch != bi || op.order_independent,
                "arrival-driven receive: the batch holds an order-dependent "
                "operation (scatter combine or migrate append), whose "
                "messages are consumed only in canonical order");
  return batches_[bi];
}

std::vector<Engine::Arrival> Engine::arrival_order(CommHandle h) {
  const Batch& b = arrival_batch(h);
  std::vector<Arrival> order;
  for (const PeerIncoming& pi : b.incoming)
    if (!pi.received)
      order.push_back(Arrival{pi.peer, comm_.arrival_time(pi.peer, b.tag)});
  std::sort(order.begin(), order.end(),
            [](const Arrival& x, const Arrival& y) {
              return x.at != y.at ? x.at < y.at : x.peer < y.peer;
            });
  return order;
}

void Engine::receive_peer(CommHandle h, int peer) {
  Batch& b = arrival_batch(h);
  auto it = std::lower_bound(
      b.incoming.begin(), b.incoming.end(), peer,
      [](const PeerIncoming& pi, int p) { return pi.peer < p; });
  CHAOS_CHECK(it != b.incoming.end() && it->peer == peer && !it->received,
              "receive_peer: no undelivered message from that peer in the "
              "operation's batch");
  const std::vector<std::byte> payload = comm_.recv<std::byte>(peer, b.tag);
  deliver(b, *it, payload);
}

std::size_t Engine::footprint_bytes() const {
  std::size_t n = ops_.capacity() * sizeof(Op) +
                  batches_.capacity() * sizeof(Batch);
  for (const Batch& b : batches_) {
    n += b.incoming.capacity() * sizeof(PeerIncoming);
    for (const PeerIncoming& pi : b.incoming)
      n += pi.segments.capacity() * sizeof(Segment);
  }
  return n;
}

std::size_t Engine::compact() {
  if (!idle()) return 0;
  const std::size_t released = footprint_bytes();
  ops_.clear();
  ops_.shrink_to_fit();
  batches_.clear();
  batches_.shrink_to_fit();
  recv_batch_ = 0;
  return released;
}

void Engine::wait(CommHandle h) {
  CHAOS_CHECK(h.id < ops_.size(), "invalid comm handle");
  // Flush h's batch even when h itself already completed at post time:
  // other ranks' share of the same collective operation may carry traffic,
  // and the tag draw must stay in lockstep machine-wide.
  if (ops_[h.id].batch != kNone && !batches_[ops_[h.id].batch].sent &&
      ops_[h.id].batch == open_) {
    flush();
  }
  while (ops_[h.id].remaining > 0) {
    const bool progressed = receive_one(/*blocking=*/true);
    CHAOS_CHECK(progressed,
                "wait would deadlock: operation's batch was never flushed");
  }
}

void Engine::wait_all() {
  flush();
  while (receive_one(/*blocking=*/true)) {
  }
  for (const Op& op : ops_)
    CHAOS_ASSERT(op.remaining == 0);
}

bool Engine::test(CommHandle h) {
  CHAOS_CHECK(h.id < ops_.size(), "invalid comm handle");
  while (ops_[h.id].remaining > 0) {
    if (!receive_one(/*blocking=*/false)) break;
  }
  return ops_[h.id].remaining == 0;
}

}  // namespace chaos::comm
