// Test oracle: the executor's original element-at-a-time loops. Every
// schedule block is packed, placed and combined one index at a time, with
// a bounds check per element and the element-loop charge
// (costs::pack_work) per block — what comm::Engine ran before plans became
// its only execution input. The message pattern is the engine's for one
// posted operation: all packs (and the self-block copy) at post time, one
// coalesced message per peer under one fresh tag, receives in ascending
// peer order. So executing a schedule's verbatim plan on an Engine must
// match this oracle bitwise AND advance comm.now() by exactly the same
// amount; a compiled plan must match it bitwise
// (tests/compile/schedule_compile_test.cpp).
#pragma once

#include <cstddef>
#include <cstring>
#include <map>
#include <span>
#include <vector>

#include "core/costs.hpp"
#include "core/schedule.hpp"
#include "sim/machine.hpp"
#include "util/check.hpp"

namespace chaos::testing_support {

namespace detail {

/// Pack `blocks` (self-blocks skipped) into per-peer coalesced payloads,
/// one block per wire segment, in block order.
template <typename T>
std::map<int, std::vector<std::byte>> reference_pack(
    sim::Comm& comm, const std::vector<core::ScheduleBlock>& blocks,
    std::span<const T> src) {
  std::map<int, std::vector<std::byte>> out;
  for (const core::ScheduleBlock& blk : blocks) {
    if (blk.proc == comm.rank()) continue;
    std::vector<T> buf;
    buf.reserve(blk.indices.size());
    for (core::GlobalIndex i : blk.indices) {
      CHAOS_CHECK(i >= 0 && static_cast<std::size_t>(i) < src.size(),
                  "schedule send index outside source array");
      buf.push_back(src[static_cast<std::size_t>(i)]);
    }
    comm.charge_work(core::costs::pack_work(buf.size(), sizeof(T)));
    auto& bytes = out[blk.proc];
    const auto* p = reinterpret_cast<const std::byte*>(buf.data());
    bytes.insert(bytes.end(), p, p + buf.size() * sizeof(T));
  }
  return out;
}

/// Send the coalesced payloads, then receive one message per peer of
/// `blocks` (ascending peer) and hand each block its segment, in block
/// order within a peer: `apply(block, segment_bytes)`.
template <typename T, typename Apply>
void reference_exchange(sim::Comm& comm,
                        std::map<int, std::vector<std::byte>> outgoing,
                        const std::vector<core::ScheduleBlock>& blocks,
                        Apply&& apply) {
  const int tag = comm.fresh_tag();
  for (auto& [peer, bytes] : outgoing)
    comm.send<std::byte>(peer, tag, bytes);
  std::map<int, std::vector<const core::ScheduleBlock*>> incoming;
  for (const core::ScheduleBlock& blk : blocks)
    if (blk.proc != comm.rank()) incoming[blk.proc].push_back(&blk);
  for (const auto& [peer, blks] : incoming) {
    const std::vector<std::byte> payload = comm.recv<std::byte>(peer, tag);
    std::size_t at = 0;
    for (const core::ScheduleBlock* blk : blks) {
      const std::size_t n = blk->indices.size() * sizeof(T);
      CHAOS_CHECK(at + n <= payload.size(),
                  "incoming segment size does not match schedule");
      apply(*blk, std::span<const std::byte>{payload.data() + at, n});
      at += n;
    }
    CHAOS_CHECK(at == payload.size(),
                "incoming segment size does not match schedule");
  }
}

}  // namespace detail

/// Forward execution between two arrays (gather when src and dst alias):
/// read src at send indices, place incoming at dst recv indices; a
/// self-block is copied directly.
template <typename T>
void reference_transport(sim::Comm& comm, const core::Schedule& sched,
                         std::span<const T> src, std::span<T> dst) {
  static_assert(std::is_trivially_copyable_v<T>);
  const int me = comm.rank();
  auto outgoing = detail::reference_pack<T>(comm, sched.send_blocks(), src);

  const core::ScheduleBlock* self_send = nullptr;
  const core::ScheduleBlock* self_recv = nullptr;
  for (const core::ScheduleBlock& b : sched.send_blocks())
    if (b.proc == me) self_send = &b;
  for (const core::ScheduleBlock& b : sched.recv_blocks())
    if (b.proc == me) self_recv = &b;
  if (self_send || self_recv) {
    CHAOS_CHECK(self_send && self_recv &&
                    self_send->indices.size() == self_recv->indices.size(),
                "self send/recv blocks must pair up");
    for (std::size_t k = 0; k < self_send->indices.size(); ++k) {
      const core::GlobalIndex s = self_send->indices[k];
      const core::GlobalIndex d = self_recv->indices[k];
      CHAOS_CHECK(s >= 0 && static_cast<std::size_t>(s) < src.size());
      CHAOS_CHECK(d >= 0 && static_cast<std::size_t>(d) < dst.size());
      dst[static_cast<std::size_t>(d)] = src[static_cast<std::size_t>(s)];
    }
    comm.charge_work(
        core::costs::pack_work(self_send->indices.size(), sizeof(T)));
  }

  detail::reference_exchange<T>(
      comm, std::move(outgoing), sched.recv_blocks(),
      [&](const core::ScheduleBlock& blk, std::span<const std::byte> bytes) {
        for (std::size_t k = 0; k < blk.indices.size(); ++k) {
          const core::GlobalIndex d = blk.indices[k];
          CHAOS_CHECK(d >= 0 && static_cast<std::size_t>(d) < dst.size(),
                      "schedule recv index outside destination array");
          std::memcpy(dst.data() + d, bytes.data() + k * sizeof(T),
                      sizeof(T));
        }
        comm.charge_work(
            core::costs::pack_work(blk.indices.size(), sizeof(T)));
      });
}

/// Gather: fetch off-processor elements into the ghost region of `data`.
template <typename T>
void reference_gather(sim::Comm& comm, const core::Schedule& sched,
                      std::span<T> data) {
  reference_transport<T>(comm, sched, data, data);
}

/// Transpose execution: ship ghost values back to their owners, which
/// apply `combine(owned, incoming)` at the send indices.
template <typename T, typename Combine>
void reference_scatter_op(sim::Comm& comm, const core::Schedule& sched,
                          std::span<T> data, Combine combine) {
  static_assert(std::is_trivially_copyable_v<T>);
  for (const core::ScheduleBlock& b : sched.recv_blocks())
    CHAOS_CHECK(b.proc != comm.rank(), "scatter does not support self-blocks");
  for (const core::ScheduleBlock& b : sched.send_blocks())
    CHAOS_CHECK(b.proc != comm.rank(), "scatter does not support self-blocks");
  auto outgoing = detail::reference_pack<T>(
      comm, sched.recv_blocks(), std::span<const T>{data.data(), data.size()});
  detail::reference_exchange<T>(
      comm, std::move(outgoing), sched.send_blocks(),
      [&](const core::ScheduleBlock& blk, std::span<const std::byte> bytes) {
        for (std::size_t k = 0; k < blk.indices.size(); ++k) {
          const core::GlobalIndex d = blk.indices[k];
          CHAOS_CHECK(d >= 0 && static_cast<std::size_t>(d) < data.size());
          T incoming;
          std::memcpy(&incoming, bytes.data() + k * sizeof(T), sizeof(T));
          data[static_cast<std::size_t>(d)] =
              combine(data[static_cast<std::size_t>(d)], incoming);
        }
        comm.charge_work(
            core::costs::pack_work(blk.indices.size(), sizeof(T)));
      });
}

template <typename T>
void reference_scatter(sim::Comm& comm, const core::Schedule& sched,
                       std::span<T> data) {
  reference_scatter_op<T>(comm, sched, data,
                          [](const T&, const T& incoming) { return incoming; });
}

template <typename T>
void reference_scatter_add(sim::Comm& comm, const core::Schedule& sched,
                           std::span<T> data) {
  reference_scatter_op<T>(
      comm, sched, data,
      [](const T& own, const T& incoming) { return own + incoming; });
}

}  // namespace chaos::testing_support
