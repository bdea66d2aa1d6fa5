// A small fixed-size worker pool for intra-rank compute parallelism.
//
// The step graph uses one of these per rank to run a wave of conflict-free
// compute chunks concurrently; the rank thread waits the wave out before
// it receives again. Deliberately minimal: submit() enqueues a
// task, wait_idle() blocks until every submitted task has finished and
// rethrows the first exception any task raised. Tasks must not touch the
// sim::Comm handle — virtual-time accounting stays on the rank thread
// (see the step-graph thread-safety contract in docs/API.md).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace chaos::runtime {

class TaskPool {
 public:
  /// Spawns `threads` workers (at least 1).
  explicit TaskPool(int threads);
  ~TaskPool();
  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  int threads() const { return static_cast<int>(workers_.size()); }

  /// Enqueue one task. May be called from the owning thread only.
  void submit(std::function<void()> task);

  /// Block until every submitted task has completed. Rethrows the first
  /// exception captured from a task (subsequent exceptions are dropped).
  void wait_idle();

  /// Cumulative wall-clock nanoseconds workers spent inside tasks. Real
  /// time, not virtual: this measures pool utilization for Stats, never
  /// feeds the cost model.
  std::uint64_t busy_ns() const {
    return busy_ns_.load(std::memory_order_relaxed);
  }

 private:
  void worker_loop();

  std::mutex mu_;
  std::condition_variable work_cv_;   ///< workers wait for tasks
  std::condition_variable idle_cv_;   ///< wait_idle waits for completion
  std::deque<std::function<void()>> queue_;
  std::size_t active_ = 0;  ///< tasks dequeued but not yet finished
  bool stop_ = false;
  std::exception_ptr first_error_;
  std::atomic<std::uint64_t> busy_ns_{0};
  std::vector<std::thread> workers_;
};

}  // namespace chaos::runtime
