// In-memory message representation for the simulated machine.
#pragma once

#include <cstddef>
#include <vector>

namespace chaos::sim {

/// A point-to-point message in flight. `arrival` is the virtual time at
/// which the payload becomes available at the receiver (sender departure
/// time plus modeled transfer time). The payload is the sender's buffer,
/// moved in by Comm::send and moved out to the receiver by the pop: it is
/// packed once and owned by the receiver afterwards, never copied.
struct Message {
  int src = -1;
  int tag = 0;
  double arrival = 0.0;
  std::vector<std::byte> payload;
};

}  // namespace chaos::sim
