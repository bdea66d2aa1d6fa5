// balance::Binding — the application surface the Runtime balance service
// drives when the policy fires.
//
// A rebalance is mechanical on the runtime side (repartition, plan_remap,
// retire) but the application owns the data and the loops: which arrays
// must move, and how schedules are re-derived on the successor epoch.
// The Binding captures exactly that, once, at set_balance_policy time:
//
//   balance::Binding b;
//   b.dist = d;
//   b.manage(x);                       // Array<T>s to retarget
//   b.manage(y);
//   b.remap = [&](DistHandle from, DistHandle to) {
//     // rebind indirection arrays to the new owned sets, re-inspect, and
//     // return (old schedule, new schedule) pairs for graph retargeting
//     return std::vector<std::pair<ScheduleHandle, ScheduleHandle>>{...};
//   };
//   b.points  = [&]{ return geometry; };  // optional: enables kRebuild
//   b.weights = [&]{ return loads; };     // optional rebuild weights
//   rt.set_balance_policy(std::make_unique<balance::Policy>(cfg),
//                         std::move(b));
//
// Thereafter rt.balance_step(graph) between iterations is the entire
// application-visible control loop.
#pragma once

#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "lang/array.hpp"
#include "partition/diffusion.hpp"
#include "runtime/runtime.hpp"

namespace chaos::balance {

struct Binding {
  /// The distribution the service watches and rebalances. Updated to each
  /// successor epoch as rebalances fire (read back via
  /// Runtime::balance_dist()).
  DistHandle dist;

  /// Rebuild-strategy inputs, in owned-offset order of the *current*
  /// epoch (queried at fire time). When `points` is empty the policy's
  /// kRebuild strategy is unavailable and large drift falls back to
  /// diffusion.
  std::function<std::vector<part::Point3>()> points;
  std::function<std::vector<double>()> weights;

  /// Application re-inspection hook, called after the managed arrays have
  /// been moved onto `to`: rebind/re-assign indirection arrays for the new
  /// owned sets, inspect, and return (old, new) schedule pairs; the
  /// service retargets the step graph with each pair. May be empty when no
  /// graph schedules depend on the distribution.
  std::function<std::vector<std::pair<ScheduleHandle, ScheduleHandle>>(
      DistHandle from, DistHandle to)>
      remap;

  /// Type-erased Array<T>::retarget thunks, all run through one shared
  /// remap plan before `remap` is called (arrays first, then the graph —
  /// the retarget ordering lang/array.hpp requires).
  std::vector<std::function<void(ScheduleHandle, DistHandle)>> arrays;

  /// Register an Array<T> the service must move on every rebalance. The
  /// array must outlive the service installation.
  template <typename T>
  void manage(Array<T>& a) {
    arrays.push_back(
        [&a](ScheduleHandle plan, DistHandle to) { a.retarget(plan, to); });
  }
};

/// The diffusion strategy under exact per-element weights, shared by the
/// service and DSMC's own autonomic path: pair this rank's owned
/// `ids` with their `weights` (one each), replicate the pairs in one
/// allgatherv of 16-byte records, spread them into a dense per-element
/// vector over `map`, and run part::diffuse_partition toward
/// `target_balance`. Collective; every rank returns the same result. The
/// rank-uniform fallback (no weights) oscillates on mixed-weight
/// populations (partition/diffusion.hpp), so callers that can attribute
/// load to elements use this.
part::DiffusionResult diffuse_replicated(sim::Comm& comm,
                                         std::span<const int> map,
                                         std::span<const GlobalIndex> ids,
                                         std::span<const double> weights,
                                         std::span<const double> rank_loads,
                                         double target_balance);

}  // namespace chaos::balance
