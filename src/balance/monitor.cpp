#include "balance/monitor.hpp"

#include "util/check.hpp"

namespace chaos::balance {

Monitor::Monitor(sim::Comm& comm, int window_steps)
    : comm_(comm), window_steps_(window_steps) {
  CHAOS_CHECK(window_steps_ >= 1, "monitor window must be >= 1 step");
  compute_base_ = comm_.stats().compute_s;
}

void Monitor::sample(StepGraph* graph, comm::Engine* engine) {
  if (graph != nullptr) {
    const StepGraph::Stats s = graph->take_stats();
    acc_.hazard_stalls += s.hazard_stalls;
    acc_.pool_busy_ns += s.pool_busy_ns;
  }
  engine_ = engine;
  ++steps_;
}

Window Monitor::close() {
  Window w;
  w.steps = steps_;

  const double compute_now = comm_.stats().compute_s;
  const double my_load = compute_now - compute_base_;
  w.load = comm_.allgather(my_load);
  w.balance = load_balance_index(w.load);

  // This rank's wire-traffic delta over the window.
  std::uint64_t my_msgs = 0, my_bytes = 0;
  if (engine_ != nullptr) {
    const comm::Engine::Traffic& t = engine_->traffic();
    // Saturating diff: a bench calling reset_traffic() mid-window would
    // otherwise underflow; treat the reset point as the new baseline.
    my_msgs = t.messages >= traffic_base_.messages
                  ? t.messages - traffic_base_.messages
                  : t.messages;
    my_bytes = t.bytes >= traffic_base_.bytes ? t.bytes - traffic_base_.bytes
                                              : t.bytes;
    const auto peers = engine_->peer_traffic();
    w.peer_bytes.assign(peers.size(), 0);
    if (peer_bytes_base_.size() != peers.size())
      peer_bytes_base_.assign(peers.size(), 0);
    for (std::size_t p = 0; p < peers.size(); ++p) {
      w.peer_bytes[p] = peers[p].bytes >= peer_bytes_base_[p]
                            ? peers[p].bytes - peer_bytes_base_[p]
                            : peers[p].bytes;
      peer_bytes_base_[p] = peers[p].bytes;
    }
    traffic_base_ = t;
  }

  // Counter sums are machine-wide so every rank decides from the same
  // numbers (one allreduce over the packed counters).
  struct Packed {
    std::uint64_t stalls, busy, msgs, bytes;
  } mine{acc_.hazard_stalls, acc_.pool_busy_ns, my_msgs, my_bytes};
  const Packed total =
      comm_.allreduce(mine, [](const Packed& a, const Packed& b) {
        return Packed{a.stalls + b.stalls, a.busy + b.busy, a.msgs + b.msgs,
                      a.bytes + b.bytes};
      });
  w.hazard_stalls = total.stalls;
  w.pool_busy_ns = total.busy;
  w.messages = total.msgs;
  w.bytes = total.bytes;

  // Open the next window.
  compute_base_ = compute_now;
  acc_ = StepGraph::Stats{};
  steps_ = 0;
  return w;
}

}  // namespace chaos::balance
