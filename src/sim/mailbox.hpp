// Per-rank mailbox: a thread-safe queue with (source, tag) matching.
//
// Receivers block until a matching message is present. Matching is by exact
// (src, tag) pair — the CHAOS runtime always knows who it is waiting for
// (schedules carry per-processor send/fetch sizes), so wildcard receives are
// unnecessary and their nondeterminism is deliberately not offered.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>

#include "sim/message.hpp"
#include "util/check.hpp"

namespace chaos::sim {

/// Thrown in secondary ranks when the machine aborts because another rank
/// raised an error; Machine::run reports the primary error instead.
class Aborted : public Error {
 public:
  Aborted() : Error("rank aborted: another rank raised an error") {}
};

class Mailbox {
 public:
  void push(Message m) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (jitter_spread_ > 0.0) {
        // Delivery-permutation hook (arrival-order fuzzing): delay this
        // message's modeled arrival by a deterministic hash of (seed, src,
        // tag). Different seeds permute the arrival order of concurrently
        // in-flight messages; data is untouched, so order-independence
        // tests can assert bitwise equality across permutations. The hash
        // depends only on the message identity, never on real-time push
        // order, so a fuzzed run is still deterministic.
        std::uint64_t h = jitter_seed_;
        h ^= static_cast<std::uint64_t>(m.src) * 0x9e3779b97f4a7c15ull;
        h ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(m.tag)) *
             0xbf58476d1ce4e5b9ull;
        h ^= h >> 31;
        h *= 0x94d049bb133111ebull;
        h ^= h >> 29;
        const double unit =
            static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);
        m.arrival += jitter_spread_ * unit;
      }
      q_.push_back(std::move(m));
    }
    cv_.notify_all();
  }

  /// Arm (or disarm, spread <= 0) the delivery-permutation hook applied by
  /// push(). Call only while no rank is communicating.
  void set_delivery_jitter(std::uint64_t seed, double spread) {
    std::lock_guard<std::mutex> lk(mu_);
    jitter_seed_ = seed;
    jitter_spread_ = spread;
  }

  /// Modeled arrival of the message pop(src, tag) would return next.
  /// Blocks physically until one is queued (throws Aborted if the machine
  /// fails), but never consumes it and never moves any clock — the comm
  /// engine orders a batch's messages by these times, so arrival-driven
  /// execution follows the modeled network rather than host timing.
  double arrival_time(int src, int tag, const std::atomic<bool>& aborted) {
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
      if (aborted.load(std::memory_order_relaxed)) throw Aborted{};
      for (const Message& m : q_)
        if (m.src == src && m.tag == tag) return m.arrival;
      cv_.wait(lk);
    }
  }

  /// Blocks until a message with exactly this (src, tag) arrives, removes it
  /// from the queue, and returns it. Throws Aborted if the machine fails.
  Message pop(int src, int tag, const std::atomic<bool>& aborted) {
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
      if (aborted.load(std::memory_order_relaxed)) throw Aborted{};
      for (auto it = q_.begin(); it != q_.end(); ++it) {
        if (it->src == src && it->tag == tag) {
          Message m = std::move(*it);
          q_.erase(it);
          return m;
        }
      }
      cv_.wait(lk);
    }
  }

  /// Non-blocking pop: removes and returns a message matching exactly
  /// (src, tag) whose modeled arrival time is not after `now`;
  /// std::nullopt otherwise. Never blocks and never throws — the comm
  /// engine uses it to make progress opportunistically between posted
  /// operations. The arrival gate keeps virtual time honest: a message
  /// that is physically queued (the sender thread ran ahead in real time)
  /// but still in transit on the modeled network is not visible yet, so a
  /// probe can never pull virtual time forward ahead of the receiver's
  /// own clock.
  std::optional<Message> try_pop(int src, int tag, double now) {
    std::lock_guard<std::mutex> lk(mu_);
    for (auto it = q_.begin(); it != q_.end(); ++it) {
      if (it->src == src && it->tag == tag) {
        if (it->arrival > now) return std::nullopt;
        Message m = std::move(*it);
        q_.erase(it);
        return m;
      }
    }
    return std::nullopt;
  }

  /// Wakes any blocked receiver so it can observe the abort flag.
  void notify_abort() { cv_.notify_all(); }

  /// Number of queued (unreceived) messages; used by tests.
  std::size_t pending() {
    std::lock_guard<std::mutex> lk(mu_);
    return q_.size();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Message> q_;
  std::uint64_t jitter_seed_ = 0;
  double jitter_spread_ = 0.0;
};

}  // namespace chaos::sim
