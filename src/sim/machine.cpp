#include "sim/machine.hpp"

#include <algorithm>
#include <thread>

#include "util/stats.hpp"

namespace chaos::sim {

// ---- Comm ------------------------------------------------------------

Comm::Comm(Machine& m, int rank)
    : m_(m), rank_(rank), nranks_(m.size()) {}

const CostModel& Comm::model() const { return m_.model_; }

void Comm::charge_work(double work_units) {
  CHAOS_CHECK(work_units >= 0.0);
  const double dt = m_.model_.compute_time(work_units);
  st_.clock += dt;
  st_.compute_s += dt;
}

void Comm::charge_compute_seconds(double seconds) {
  CHAOS_CHECK(seconds >= 0.0);
  st_.clock += seconds;
  st_.compute_s += seconds;
}

void Comm::charge_comm_seconds(double seconds) {
  CHAOS_CHECK(seconds >= 0.0);
  st_.clock += seconds;
  st_.comm_s += seconds;
}

void Comm::send(int dst, int tag, std::vector<std::byte>&& payload) {
  CHAOS_CHECK(dst >= 0 && dst < nranks_, "send destination out of range");
  const double overhead = m_.model_.message_send_cost();
  st_.clock += overhead;
  st_.comm_s += overhead;
  Message msg;
  msg.src = rank_;
  msg.tag = tag;
  msg.arrival = st_.clock + m_.model_.transfer_time(payload.size());
  ++st_.msgs_sent;
  st_.bytes_sent += payload.size();
  msg.payload = std::move(payload);
  m_.mailboxes_[static_cast<std::size_t>(dst)]->push(std::move(msg));
}

std::vector<std::byte> Comm::recv_bytes(int src, int tag) {
  CHAOS_CHECK(src >= 0 && src < nranks_, "recv source out of range");
  Message msg = m_.mailboxes_[static_cast<std::size_t>(rank_)]->pop(
      src, tag, m_.aborted_);
  const double ready = std::max(st_.clock, msg.arrival);
  const double done = ready + m_.model_.message_recv_cost();
  st_.comm_s += done - st_.clock;
  st_.clock = done;
  return std::move(msg.payload);
}

bool Comm::try_recv_bytes(int src, int tag, std::vector<std::byte>& out) {
  CHAOS_CHECK(src >= 0 && src < nranks_, "recv source out of range");
  // Gated on this rank's virtual clock: only messages that have already
  // arrived in modeled time are consumable, so a successful probe charges
  // exactly the receive overhead and never waits on the modeled wire.
  std::optional<Message> msg =
      m_.mailboxes_[static_cast<std::size_t>(rank_)]->try_pop(src, tag,
                                                              st_.clock);
  if (!msg) return false;
  const double done = st_.clock + m_.model_.message_recv_cost();
  st_.comm_s += done - st_.clock;
  st_.clock = done;
  out = std::move(msg->payload);
  return true;
}

double Comm::arrival_time(int src, int tag) {
  CHAOS_CHECK(src >= 0 && src < nranks_, "arrival source out of range");
  return m_.mailboxes_[static_cast<std::size_t>(rank_)]->arrival_time(
      src, tag, m_.aborted_);
}

void Comm::publish_bytes(std::span<const std::byte> bytes) {
  auto& slot = m_.stage_[static_cast<std::size_t>(rank_)];
  slot.assign(bytes.begin(), bytes.end());
  m_.stage_clock_[static_cast<std::size_t>(rank_)] = st_.clock;
  m_.phase_sync();  // everyone has published
}

std::span<const std::byte> Comm::peer_bytes(int r) const {
  CHAOS_ASSERT(r >= 0 && r < nranks_);
  const auto& slot = m_.stage_[static_cast<std::size_t>(r)];
  return {slot.data(), slot.size()};
}

void Comm::finish_staged(double modeled_cost) {
  // The collective completes, for every rank, at the time the slowest rank
  // entered it plus the modeled cost of the collective algorithm.
  const double entry_max =
      *std::max_element(m_.stage_clock_.begin(), m_.stage_clock_.end());
  m_.phase_sync();  // everyone has read; staging may be reused
  const double done = entry_max + modeled_cost;
  if (done > st_.clock) {
    st_.comm_s += done - st_.clock;
    st_.clock = done;
  }
}

void Comm::charge_collective(double modeled_cost) {
  st_.clock += modeled_cost;
  st_.comm_s += modeled_cost;
}

void Comm::barrier() {
  publish_bytes({});
  finish_staged(m_.model_.barrier_cost(nranks_));
}

int Comm::next_internal_tag() {
  // Internal operations use the negative tag space so they can never match
  // user receives (user tags must be >= 0). The per-rank sequence stays in
  // lockstep because collectives are SPMD.
  CHAOS_ASSERT(coll_seq_ < (1 << 30));
  return -(++coll_seq_);
}

// ---- Machine -----------------------------------------------------------

Machine::Machine(int nranks, CostParams params)
    : nranks_(nranks), model_(params) {
  CHAOS_CHECK(nranks >= 1, "machine needs at least one rank");
  mailboxes_.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r)
    mailboxes_.push_back(std::make_unique<Mailbox>());
  stage_.resize(static_cast<std::size_t>(nranks));
  stage_clock_.resize(static_cast<std::size_t>(nranks), 0.0);
  final_stats_.resize(static_cast<std::size_t>(nranks));
}

void Machine::set_delivery_permutation(std::uint64_t seed, double spread) {
  jitter_seed_ = seed;
  jitter_spread_ = spread;
  for (auto& mb : mailboxes_) mb->set_delivery_jitter(seed, spread);
}

void Machine::phase_sync() {
  std::unique_lock<std::mutex> lk(sync_mu_);
  const std::uint64_t gen = sync_generation_;
  if (++sync_count_ == nranks_) {
    sync_count_ = 0;
    ++sync_generation_;
    sync_cv_.notify_all();
    return;
  }
  sync_cv_.wait(lk, [&] {
    return sync_generation_ != gen ||
           aborted_.load(std::memory_order_relaxed);
  });
  if (sync_generation_ == gen && aborted_.load(std::memory_order_relaxed))
    throw Aborted{};
}

void Machine::abort() {
  aborted_.store(true, std::memory_order_relaxed);
  for (auto& mb : mailboxes_) mb->notify_abort();
  sync_cv_.notify_all();
}

void Machine::run(const std::function<void(Comm&)>& body) {
  aborted_.store(false, std::memory_order_relaxed);
  first_error_.clear();
  sync_count_ = 0;
  for (auto& s : stage_) s.clear();
  std::fill(stage_clock_.begin(), stage_clock_.end(), 0.0);

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(nranks_));
  for (int r = 0; r < nranks_; ++r) {
    threads.emplace_back([this, r, &body] {
      Comm comm(*this, r);
      try {
        body(comm);
      } catch (const Aborted&) {
        // Secondary failure; the primary error is already recorded.
      } catch (const std::exception& e) {
        {
          std::lock_guard<std::mutex> lk(err_mu_);
          if (first_error_.empty())
            first_error_ = "rank " + std::to_string(r) + ": " + e.what();
        }
        abort();
      }
      final_stats_[static_cast<std::size_t>(r)] = comm.stats();
    });
  }
  for (auto& t : threads) t.join();

  // Drain mailboxes so a failed or message-leaking run cannot corrupt the
  // next one.
  bool leaked = false;
  for (auto& mb : mailboxes_)
    if (mb->pending() > 0) leaked = true;
  if (leaked && first_error_.empty())
    first_error_ = "run finished with undelivered messages";
  if (leaked) {
    for (int r = 0; r < nranks_; ++r) {
      mailboxes_[static_cast<std::size_t>(r)] = std::make_unique<Mailbox>();
      mailboxes_[static_cast<std::size_t>(r)]->set_delivery_jitter(
          jitter_seed_, jitter_spread_);
    }
  }

  if (!first_error_.empty()) throw Error(first_error_);
}

double Machine::execution_time() const {
  double mx = 0.0;
  for (const auto& s : final_stats_) mx = std::max(mx, s.clock);
  return mx;
}

double Machine::mean_compute_time() const {
  double sum = 0.0;
  for (const auto& s : final_stats_) sum += s.compute_s;
  return sum / static_cast<double>(nranks_);
}

double Machine::mean_comm_time() const {
  double sum = 0.0;
  for (const auto& s : final_stats_) sum += s.comm_s;
  return sum / static_cast<double>(nranks_);
}

double Machine::load_balance() const {
  std::vector<double> comp;
  comp.reserve(final_stats_.size());
  for (const auto& s : final_stats_) comp.push_back(s.compute_s);
  return load_balance_index(comp);
}

}  // namespace chaos::sim
