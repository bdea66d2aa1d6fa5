// The simulated distributed-memory machine.
//
// `Machine` runs an SPMD body on N ranks, each rank an OS thread with a
// private virtual clock. Ranks communicate only through the `Comm` handle:
// point-to-point typed messages (real data moves between address spaces via
// per-rank mailboxes) and collectives. Time is *modeled*: computation is
// charged explicitly via Comm::charge_work, and every communication
// operation advances the virtual clock according to the CostModel. This is
// the substitution for the paper's Intel iPSC/860: the
// runtime's scheduling behaviour — message counts, volumes, dedup, load
// balance — is real; absolute seconds come from the calibrated model.
//
// Determinism: given a deterministic body, all results and all virtual
// times are independent of OS thread scheduling, because receives name
// their source and collectives are phase-synchronized.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "sim/cost_model.hpp"
#include "sim/mailbox.hpp"
#include "util/check.hpp"

namespace chaos::sim {

/// Per-rank accounting, retrievable from Machine after a run.
struct RankStats {
  double clock = 0.0;       ///< final virtual time
  double compute_s = 0.0;   ///< charged computation
  double comm_s = 0.0;      ///< everything else (overheads, transfers, waits)
  std::uint64_t msgs_sent = 0;   ///< physical messages (coalesced count as 1)
  std::uint64_t bytes_sent = 0;  ///< physical payload bytes

  // Comm-engine batching accounting, kept separate from the physical
  // counters above so benches can report message-count reduction honestly.
  // Only messages that packed >= 2 logical per-schedule segments count
  // here (a coalesced message is one physical message, msgs_sent += 1);
  // single-segment engine sends are indistinguishable on the wire from
  // blocking sends and would dilute the reduction factor.
  std::uint64_t coalesced_msgs_sent = 0;  ///< multi-segment engine messages
  std::uint64_t coalesced_segments = 0;   ///< logical segments inside them
  std::uint64_t coalesced_bytes_sent = 0; ///< payload bytes in those messages
};

class Machine;

/// Per-rank communication handle passed to the SPMD body. Not copyable;
/// valid only during Machine::run.
class Comm {
 public:
  Comm(const Comm&) = delete;
  Comm& operator=(const Comm&) = delete;

  int rank() const { return rank_; }
  int size() const { return nranks_; }

  /// Current virtual time on this rank.
  double now() const { return st_.clock; }

  /// Charge `work_units` of computation (≈ flop-equivalents) to this rank's
  /// virtual clock.
  void charge_work(double work_units);

  /// Charge an explicit span of computation seconds (used by layers that
  /// precompute their own cost).
  void charge_compute_seconds(double seconds);

  /// Charge an explicit span of communication seconds (used by layers that
  /// model a communication pattern analytically instead of performing it
  /// message by message).
  void charge_comm_seconds(double seconds);

  // ---- point-to-point -----------------------------------------------

  /// Send `payload` to `dst` with `tag` by move: the buffer itself becomes
  /// the message, and the receiver owns it after the pop, so no byte is
  /// copied on the way. Non-blocking (mailboxes are unbounded); self-sends
  /// are allowed. The one send path; the modeled charge depends only on
  /// the payload size.
  void send(int dst, int tag, std::vector<std::byte>&& payload);

  /// Send a span of trivially copyable elements: copies it into a fresh
  /// payload and sends that by move.
  template <typename T>
  void send(int dst, int tag, std::span<const T> data) {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto* p = reinterpret_cast<const std::byte*>(data.data());
    send(dst, tag, std::vector<std::byte>(p, p + data.size_bytes()));
  }

  template <typename T>
  void send_value(int dst, int tag, const T& v) {
    send<T>(dst, tag, std::span<const T>{&v, 1});
  }

  /// Receive a message from exactly (src, tag); returns its elements.
  /// recv<std::byte> hands back the sender's payload itself, by move.
  template <typename T>
  std::vector<T> recv(int src, int tag) {
    return from_payload<T>(recv_bytes(src, tag));
  }

  template <typename T>
  T recv_value(int src, int tag) {
    auto v = recv<T>(src, tag);
    CHAOS_CHECK(v.size() == 1, "expected single-element message");
    return v[0];
  }

  /// Non-blocking receive: if a message from exactly (src, tag) has
  /// already *arrived in modeled time* (its arrival is not after this
  /// rank's clock), consume it into `out` — charging only the receive
  /// overhead, never a wire wait — and return true; otherwise return
  /// false without blocking. A polling loop must therefore advance its
  /// own virtual clock (charge work) to ever observe a message that is
  /// still in modeled transit.
  template <typename T>
  bool try_recv(int src, int tag, std::vector<T>& out) {
    std::vector<std::byte> bytes;
    if (!try_recv_bytes(src, tag, bytes)) return false;
    out = from_payload<T>(std::move(bytes));
    return true;
  }

  /// Earliest modeled arrival among messages from (src, tag) that are
  /// physically queued at this rank, or nullopt when none is queued yet.
  /// Free of charge and never moves the clock: the comm engine's
  /// arrival-driven wait peeks to decide how far virtual time must advance
  /// before the next interesting message becomes consumable.
  std::optional<double> peek_arrival(int src, int tag);

  /// Advance this rank's virtual clock to at least `t` (no-op when already
  /// past); the advance is idle wait, charged to comm_s.
  void wait_until(double t);

  /// Comm-engine accounting hook: one physical coalesced message just left
  /// this rank carrying `segments` logical per-schedule segments of `bytes`
  /// total payload. The physical send itself is charged by send(); this
  /// only updates the separate coalescing counters in RankStats.
  void note_coalesced_send(std::uint64_t segments, std::uint64_t bytes) {
    ++st_.coalesced_msgs_sent;
    st_.coalesced_segments += segments;
    st_.coalesced_bytes_sent += bytes;
  }

  // ---- collectives ----------------------------------------------------
  // All ranks must call the same collective in the same order (SPMD).

  void barrier();

  /// Element-wise reduction with `op` over one value per rank; every rank
  /// receives the result. Reduction order is by ascending rank, so
  /// non-associative floating point reductions are still deterministic.
  template <typename T, typename Op>
  T allreduce(const T& v, Op op) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::vector<T> all = allgather(v);
    T acc = all[0];
    for (int r = 1; r < nranks_; ++r) acc = op(acc, all[r]);
    charge_collective(model().allreduce_cost(nranks_, sizeof(T)));
    return acc;
  }

  template <typename T>
  T allreduce_sum(const T& v) {
    return allreduce(v, [](const T& a, const T& b) { return a + b; });
  }
  template <typename T>
  T allreduce_max(const T& v) {
    return allreduce(v, [](const T& a, const T& b) { return a < b ? b : a; });
  }
  template <typename T>
  T allreduce_min(const T& v) {
    return allreduce(v, [](const T& a, const T& b) { return b < a ? b : a; });
  }

  /// Gather one value per rank; result[r] is rank r's contribution.
  template <typename T>
  std::vector<T> allgather(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    publish_bytes({reinterpret_cast<const std::byte*>(&v), sizeof(T)});
    std::vector<T> out(static_cast<std::size_t>(nranks_));
    std::uint64_t total = 0;
    for (int r = 0; r < nranks_; ++r) {
      std::span<const std::byte> b = peer_bytes(r);
      CHAOS_ASSERT(b.size() == sizeof(T));
      std::memcpy(&out[static_cast<std::size_t>(r)], b.data(), sizeof(T));
      total += b.size();
    }
    finish_staged(model().allgather_cost(nranks_, total));
    return out;
  }

  /// Gather variable-length contributions; returns the concatenation in
  /// rank order. If `counts` is non-null it receives per-rank element
  /// counts.
  template <typename T>
  std::vector<T> allgatherv(std::span<const T> mine,
                            std::vector<std::size_t>* counts = nullptr) {
    static_assert(std::is_trivially_copyable_v<T>);
    publish_bytes({reinterpret_cast<const std::byte*>(mine.data()),
                   mine.size_bytes()});
    std::vector<T> out;
    if (counts) counts->assign(static_cast<std::size_t>(nranks_), 0);
    std::uint64_t total = 0;
    for (int r = 0; r < nranks_; ++r) {
      std::span<const std::byte> b = peer_bytes(r);
      CHAOS_CHECK(b.size() % sizeof(T) == 0);
      const std::size_t n = b.size() / sizeof(T);
      const std::size_t at = out.size();
      out.resize(at + n);
      if (n > 0) std::memcpy(out.data() + at, b.data(), b.size());
      if (counts) (*counts)[static_cast<std::size_t>(r)] = n;
      total += b.size();
    }
    finish_staged(model().allgather_cost(nranks_, total));
    return out;
  }

  /// Gather variable-length contributions *without* charging the cost
  /// model. For harness-level data movement whose real-algorithm cost is
  /// charged analytically elsewhere (e.g. the redundant geometry
  /// replication our deterministic partitioner drivers need, which the
  /// real parallel partitioner does not perform). Still synchronizes.
  template <typename T>
  std::vector<T> allgatherv_unmodeled(std::span<const T> mine) {
    static_assert(std::is_trivially_copyable_v<T>);
    publish_bytes({reinterpret_cast<const std::byte*>(mine.data()),
                   mine.size_bytes()});
    std::vector<T> out;
    for (int r = 0; r < nranks_; ++r) {
      std::span<const std::byte> b = peer_bytes(r);
      CHAOS_CHECK(b.size() % sizeof(T) == 0);
      const std::size_t n = b.size() / sizeof(T);
      const std::size_t at = out.size();
      out.resize(at + n);
      if (n > 0) std::memcpy(out.data() + at, b.data(), b.size());
    }
    finish_staged(0.0);
    return out;
  }

  /// Broadcast a vector from `root` to all ranks.
  template <typename T>
  std::vector<T> bcast(std::span<const T> mine, int root) {
    static_assert(std::is_trivially_copyable_v<T>);
    CHAOS_CHECK(root >= 0 && root < nranks_);
    if (rank_ == root) {
      publish_bytes({reinterpret_cast<const std::byte*>(mine.data()),
                     mine.size_bytes()});
    } else {
      publish_bytes({});
    }
    std::span<const std::byte> b = peer_bytes(root);
    CHAOS_CHECK(b.size() % sizeof(T) == 0);
    std::vector<T> out(b.size() / sizeof(T));
    if (!b.empty()) std::memcpy(out.data(), b.data(), b.size());
    finish_staged(model().bcast_cost(nranks_, b.size()));
    return out;
  }

  /// Dense all-to-all of exactly one value per peer. sendbuf.size() == P;
  /// result[r] is the value rank r sent to this rank. Implemented with real
  /// point-to-point messages (this is how CHAOS exchanges schedule sizes).
  template <typename T>
  std::vector<T> alltoall(std::span<const T> sendbuf) {
    static_assert(std::is_trivially_copyable_v<T>);
    CHAOS_CHECK(static_cast<int>(sendbuf.size()) == nranks_);
    const int tag = next_internal_tag();
    std::vector<T> out(static_cast<std::size_t>(nranks_));
    out[static_cast<std::size_t>(rank_)] =
        sendbuf[static_cast<std::size_t>(rank_)];
    for (int r = 0; r < nranks_; ++r) {
      if (r == rank_) continue;
      send_value<T>(r, tag, sendbuf[static_cast<std::size_t>(r)]);
    }
    for (int r = 0; r < nranks_; ++r) {
      if (r == rank_) continue;
      out[static_cast<std::size_t>(r)] = recv_value<T>(r, tag);
    }
    return out;
  }

  /// Dense all-to-all of one small value per peer, executed as the classic
  /// hypercube store-and-forward personalized exchange: log2(P) stages each
  /// moving P/2 values, far cheaper than P-1 individual messages when the
  /// values are tiny (e.g. the count exchanges of schedule construction).
  /// Data moves through staging; the modeled cost charges the hypercube
  /// algorithm.
  template <typename T>
  std::vector<T> alltoall_hypercube(std::span<const T> sendbuf) {
    static_assert(std::is_trivially_copyable_v<T>);
    CHAOS_CHECK(static_cast<int>(sendbuf.size()) == nranks_);
    publish_bytes({reinterpret_cast<const std::byte*>(sendbuf.data()),
                   sendbuf.size_bytes()});
    std::vector<T> out(static_cast<std::size_t>(nranks_));
    for (int r = 0; r < nranks_; ++r) {
      std::span<const std::byte> b = peer_bytes(r);
      CHAOS_ASSERT(b.size() == sizeof(T) * static_cast<std::size_t>(nranks_));
      std::memcpy(&out[static_cast<std::size_t>(r)],
                  b.data() + sizeof(T) * static_cast<std::size_t>(rank_),
                  sizeof(T));
    }
    const int steps = hypercube_steps(nranks_);
    const double per_stage =
        model().params().send_overhead + model().params().recv_overhead +
        model().params().latency +
        static_cast<double>(nranks_) / 2.0 * sizeof(T) *
            model().params().byte_time;
    finish_staged(steps * per_stage);
    return out;
  }

  /// Sparse variable all-to-all: `out[r]` is sent to rank r (empty vectors
  /// produce no message). Returns what each rank sent here. Performs a
  /// hypercube size exchange first, then only real messages.
  template <typename T>
  std::vector<std::vector<T>> alltoallv(
      const std::vector<std::vector<T>>& out) {
    static_assert(std::is_trivially_copyable_v<T>);
    CHAOS_CHECK(static_cast<int>(out.size()) == nranks_);
    std::vector<std::uint64_t> sizes(static_cast<std::size_t>(nranks_));
    for (int r = 0; r < nranks_; ++r)
      sizes[static_cast<std::size_t>(r)] =
          out[static_cast<std::size_t>(r)].size();
    std::vector<std::uint64_t> incoming =
        alltoall_hypercube<std::uint64_t>(sizes);

    const int tag = next_internal_tag();
    std::vector<std::vector<T>> in(static_cast<std::size_t>(nranks_));
    in[static_cast<std::size_t>(rank_)] = out[static_cast<std::size_t>(rank_)];
    for (int r = 0; r < nranks_; ++r) {
      if (r == rank_ || out[static_cast<std::size_t>(r)].empty()) continue;
      send<T>(r, tag, out[static_cast<std::size_t>(r)]);
    }
    for (int r = 0; r < nranks_; ++r) {
      if (r == rank_ || incoming[static_cast<std::size_t>(r)] == 0) continue;
      in[static_cast<std::size_t>(r)] = recv<T>(r, tag);
      CHAOS_ASSERT(in[static_cast<std::size_t>(r)].size() ==
                   incoming[static_cast<std::size_t>(r)]);
    }
    return in;
  }

  const CostModel& model() const;

  /// Live view of this rank's accounting (final values via Machine::stats).
  const RankStats& stats() const { return st_; }

  /// A fresh tag from a reserved space (>= 2^20), for library layers that
  /// need collision-free point-to-point exchanges. SPMD: every rank draws
  /// tags in the same order, so the values agree across ranks.
  int fresh_tag() { return (1 << 20) + user_tag_seq_++; }

 private:
  friend class Machine;
  Comm(Machine& m, int rank);

  std::vector<std::byte> recv_bytes(int src, int tag);
  bool try_recv_bytes(int src, int tag, std::vector<std::byte>& out);

  /// A popped payload as elements: the payload itself for std::byte, a
  /// typed copy otherwise.
  template <typename T>
  static std::vector<T> from_payload(std::vector<std::byte>&& bytes) {
    static_assert(std::is_trivially_copyable_v<T>);
    if constexpr (std::is_same_v<T, std::byte>) {
      return std::move(bytes);
    } else {
      CHAOS_CHECK(bytes.size() % sizeof(T) == 0,
                  "received payload size is not a multiple of element size");
      std::vector<T> out(bytes.size() / sizeof(T));
      if (!bytes.empty()) std::memcpy(out.data(), bytes.data(), bytes.size());
      return out;
    }
  }

  // Staged-collective protocol: publish own contribution, then read peers',
  // then finish (which synchronizes and charges modeled cost).
  void publish_bytes(std::span<const std::byte> bytes);
  std::span<const std::byte> peer_bytes(int r) const;
  void finish_staged(double modeled_cost);
  void charge_collective(double modeled_cost);

  int next_internal_tag();

  Machine& m_;
  int rank_;
  int nranks_;
  RankStats st_;
  int coll_seq_ = 0;  // per-rank collective sequence; identical across ranks
  int user_tag_seq_ = 0;
};

/// Owns the rank threads, mailboxes, staging area, and cost model.
class Machine {
 public:
  explicit Machine(int nranks, CostParams params = {});

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  int size() const { return nranks_; }
  const CostModel& model() const { return model_; }

  /// Run `body` on every rank; returns when all ranks finish. Rethrows the
  /// first error raised by any rank. May be called repeatedly; stats reset
  /// at each call.
  void run(const std::function<void(Comm&)>& body);

  /// Arm the arrival-order fuzzing hook on every mailbox: each pushed
  /// message's modeled arrival is delayed by a deterministic hash of
  /// (seed, src, tag) scaled into [0, spread) seconds, permuting the
  /// delivery order of concurrently in-flight messages without touching
  /// any payload. spread <= 0 disarms. Call between runs only.
  void set_delivery_permutation(std::uint64_t seed, double spread);

  /// Per-rank accounting from the most recent run.
  const RankStats& stats(int rank) const {
    CHAOS_CHECK(rank >= 0 && rank < nranks_);
    return final_stats_[static_cast<std::size_t>(rank)];
  }

  /// Paper-style aggregate metrics from the most recent run.
  double execution_time() const;      ///< max over ranks of final clock
  double mean_compute_time() const;   ///< average charged computation
  double mean_comm_time() const;      ///< average communication time
  double load_balance() const;        ///< max(comp)*n / sum(comp)

 private:
  friend class Comm;

  // Generation-counting phase barrier used by staged collectives.
  void phase_sync();
  void abort();

  int nranks_;
  CostModel model_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  std::uint64_t jitter_seed_ = 0;
  double jitter_spread_ = 0.0;

  // Staging area for collectives (one slot per rank, two-phase protocol).
  std::vector<std::vector<std::byte>> stage_;
  std::vector<double> stage_clock_;

  std::mutex sync_mu_;
  std::condition_variable sync_cv_;
  int sync_count_ = 0;
  std::uint64_t sync_generation_ = 0;

  std::atomic<bool> aborted_{false};
  std::mutex err_mu_;
  std::string first_error_;

  std::vector<RankStats> final_stats_;
};

}  // namespace chaos::sim
