// Communication / computation cost model for the simulated distributed-
// memory machine.
//
// The paper's experiments ran on an Intel iPSC/860 hypercube. We reproduce
// its *cost regime* with a LogGP-style model: every message costs a fixed
// sender overhead, a network latency, and a per-byte transfer time; charged
// computation costs a fixed time per abstract "work unit" (roughly one
// floating-point operation of 1994-era sustained application throughput).
//
// Defaults are calibrated to *effective* iPSC/860 characteristics as seen
// by application codes of the era (raw hardware numbers were better, but
// NX buffering and runtime overheads dominated small transfers):
//   - effective message startup (overheads + latency) ~250-300 us,
//   - effective point-to-point bandwidth ~1.4 MB/s,
//   - sustained application compute throughput ~2 MFLOPS per node.
// The calibration anchor is the paper's own Tables 1-7.
#pragma once

#include <cstdint>

#include "util/check.hpp"

namespace chaos::sim {

/// Tunable machine parameters. All times in seconds.
struct CostParams {
  /// CPU time spent by the sender to initiate one message.
  double send_overhead = 60e-6;
  /// CPU time spent by the receiver to complete one message.
  double recv_overhead = 60e-6;
  /// Wire latency from send completion to earliest receive.
  double latency = 150e-6;
  /// Transfer time per payload byte (~1.4 MB/s effective).
  double byte_time = 0.7e-6;
  /// Seconds per abstract compute work unit (~2 MFLOPS-equivalent sustained).
  double seconds_per_work_unit = 1.0 / 2.0e6;
};

/// ceil(log2(n)) for n >= 1; the number of stages of a hypercube/recursive-
/// doubling collective on n ranks.
inline int hypercube_steps(int n) {
  CHAOS_CHECK(n >= 1);
  int steps = 0;
  int span = 1;
  while (span < n) {
    span *= 2;
    ++steps;
  }
  return steps;
}

/// Modeled-time helpers for collectives implemented via shared staging.
/// These charge what a reasonable message-passing implementation would cost
/// on the modeled network.
class CostModel {
 public:
  explicit CostModel(CostParams p = {}) : p_(p) {}

  const CostParams& params() const { return p_; }

  double message_send_cost() const { return p_.send_overhead; }
  double message_recv_cost() const { return p_.recv_overhead; }

  /// Virtual duration between a message's departure and its availability at
  /// the receiver.
  double transfer_time(std::uint64_t bytes) const {
    return p_.latency + static_cast<double>(bytes) * p_.byte_time;
  }

  /// Synchronization cost of a barrier over n ranks (hypercube exchange of
  /// empty messages).
  double barrier_cost(int nranks) const {
    return hypercube_steps(nranks) *
           (p_.send_overhead + p_.recv_overhead + p_.latency);
  }

  /// Cost of an allreduce of `bytes` payload over n ranks
  /// (recursive doubling; payload exchanged at every stage).
  double allreduce_cost(int nranks, std::uint64_t bytes) const {
    return hypercube_steps(nranks) *
           (p_.send_overhead + p_.recv_overhead + p_.latency +
            static_cast<double>(bytes) * p_.byte_time);
  }

  /// Cost of an allgather where `total_bytes` is the concatenated result
  /// size (recursive doubling: log stages, total volume moved ~= result).
  double allgather_cost(int nranks, std::uint64_t total_bytes) const {
    return hypercube_steps(nranks) *
               (p_.send_overhead + p_.recv_overhead + p_.latency) +
           static_cast<double>(total_bytes) * p_.byte_time;
  }

  /// Cost of a broadcast of `bytes` from one root to n ranks (binomial tree).
  double bcast_cost(int nranks, std::uint64_t bytes) const {
    return hypercube_steps(nranks) *
           (p_.send_overhead + p_.recv_overhead + p_.latency +
            static_cast<double>(bytes) * p_.byte_time);
  }

  double compute_time(double work_units) const {
    return work_units * p_.seconds_per_work_unit;
  }

 private:
  CostParams p_;
};

}  // namespace chaos::sim
