// The Runtime balance service: glue between telemetry (balance::Monitor),
// decisions (balance::Policy), and the mechanics of a live rebalance
// (repartition -> remap managed arrays -> re-inspect -> retarget graph ->
// retire). Defined here rather than runtime.cpp so runtime.hpp only needs
// forward declarations of the balance types.
#include "balance/service.hpp"

#include <memory>
#include <utility>

#include "balance/monitor.hpp"
#include "balance/policy.hpp"
#include "partition/diffusion.hpp"
#include "runtime/step_graph.hpp"
#include "util/check.hpp"

namespace chaos {

namespace balance {

struct ServiceState {
  std::unique_ptr<Policy> policy;
  Binding binding;
  Monitor monitor;
  std::vector<Report> reports;
  std::uint64_t steps = 0;
  /// The last report awaits balance_after / realized-savings backfill
  /// from the next closed window.
  bool backfill = false;
  double fired_max_per_step = 0.0;

  ServiceState(sim::Comm& comm, std::unique_ptr<Policy> p, Binding b)
      : policy(std::move(p)),
        binding(std::move(b)),
        monitor(comm, policy->config().window_steps) {}
};

part::DiffusionResult diffuse_replicated(sim::Comm& comm,
                                         std::span<const int> map,
                                         std::span<const GlobalIndex> ids,
                                         std::span<const double> weights,
                                         std::span<const double> rank_loads,
                                         double target_balance) {
  CHAOS_CHECK(ids.size() == weights.size(),
              "diffuse_replicated: one weight per owned id");
  struct IdWeight {
    GlobalIndex id;
    double w;
  };
  std::vector<IdWeight> mine(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) mine[i] = {ids[i], weights[i]};
  std::vector<double> elem_w(map.size(), 0.0);
  for (const IdWeight& iw : comm.allgatherv<IdWeight>(mine))
    elem_w[static_cast<std::size_t>(iw.id)] = iw.w;
  return part::diffuse_partition(map, rank_loads, target_balance, elem_w);
}

}  // namespace balance

Runtime::Runtime(sim::Comm& comm) : comm_(comm) {}
Runtime::~Runtime() = default;

void Runtime::set_balance_policy(std::unique_ptr<balance::Policy> policy,
                                 balance::Binding binding) {
  if (!policy) {
    bal_.reset();
    return;
  }
  (void)dist_entry(binding.dist);  // validate now, not at the first tick
  bal_ = std::make_unique<balance::ServiceState>(comm_, std::move(policy),
                                                 std::move(binding));
}

balance::Policy* Runtime::balance_policy() {
  return bal_ ? bal_->policy.get() : nullptr;
}

DistHandle Runtime::balance_dist() const {
  CHAOS_CHECK(bal_ != nullptr, "no balance policy installed");
  return bal_->binding.dist;
}

const std::vector<balance::Report>& Runtime::balance_reports() const {
  static const std::vector<balance::Report> kEmpty;
  return bal_ ? bal_->reports : kEmpty;
}

bool Runtime::balance_step(StepGraph& graph) {
  using balance::Action;
  if (!bal_) return false;
  balance::ServiceState& st = *bal_;
  ++st.steps;
  st.monitor.sample(&graph, &engine_);
  if (!st.monitor.window_full()) return false;

  const balance::Window w = st.monitor.close();
  if (st.backfill && !st.reports.empty() && w.steps > 0) {
    balance::Report& prev = st.reports.back();
    prev.balance_after = w.balance;
    prev.realized_savings_per_step_s =
        st.fired_max_per_step - w.max_load() / static_cast<double>(w.steps);
    st.backfill = false;
  }

  Action a = st.policy->decide(w);
  // Strategy availability: a rebuild needs geometry from the app.
  if (a == Action::kRebuild && !st.binding.points) a = Action::kDiffuse;
  if (a == Action::kNone) return false;

  graph.quiesce();
  const double t0 = comm_.now();
  const DistHandle from = st.binding.dist;

  balance::Report rep;
  rep.step = st.steps;
  rep.balance_before = w.balance;
  rep.predicted_savings_per_step_s = st.policy->predicted_savings_per_step(w);

  DistHandle to;
  if (a == Action::kDiffuse) {
    const auto& pmap = dist(from).map();
    const double target = st.policy->config().target_balance;
    // Exact per-element weights whenever the app can attribute its load:
    // this rank's owned-offset weights belong to its ascending owned ids.
    part::DiffusionResult diff;
    if (st.binding.weights) {
      const std::vector<double> mine = st.binding.weights();
      std::vector<GlobalIndex> ids;
      for (std::size_t g = 0; g < pmap.size() && ids.size() < mine.size();
           ++g) {
        if (pmap[g] == comm_.rank()) ids.push_back(static_cast<GlobalIndex>(g));
      }
      diff = balance::diffuse_replicated(
          comm_, pmap, ids, std::span(mine).first(ids.size()), w.load, target);
    } else {
      diff = part::diffuse_partition(pmap, w.load, target);
    }
    if (diff.moved == 0) {
      // Nothing diffusible (e.g. the hot rank owns a single element):
      // escalate to a rebuild when the binding allows one, otherwise pass.
      if (!st.binding.points) return false;
      a = Action::kRebuild;
    } else {
      to = repartition(from, std::move(diff.map));
      rep.balance_predicted = diff.balance_predicted;
      rep.moved = diff.moved;
    }
  }
  if (a == Action::kRebuild) {
    const std::vector<part::Point3> pts = st.binding.points();
    const std::vector<double> ws =
        st.binding.weights ? st.binding.weights() : std::vector<double>{};
    to = repartition(from, st.policy->config().rebuild_kind, pts, ws);
    rep.balance_predicted = st.policy->config().target_balance;
    if (const core::OwnerDelta* d = owner_delta(to))
      rep.moved = static_cast<std::int64_t>(d->moved_count());
  }
  rep.action = a;
  rep.reason = st.policy->reason(w, a);

  // Seed-time reuse outcome on the successor (before app re-inspection
  // adds builds/reuses of its own).
  const runtime::ScheduleRegistry::Stats rs = registry_stats(to);
  rep.patched = rs.patched_schedules;
  rep.rebuilt = rs.rebuilt_schedules;
  rep.carried = rs.carried_plans;

  // Move the data: arrays first through one shared plan, then the app's
  // re-inspection hook, then the graph onto the new schedules.
  const ScheduleHandle plan = plan_remap(from, to);
  for (auto& move : st.binding.arrays) move(plan, to);
  if (st.binding.remap) {
    for (const auto& [old_h, new_h] : st.binding.remap(from, to))
      graph.retarget(old_h, new_h);
  }
  retire(from);
  st.binding.dist = to;

  rep.cost_s = comm_.now() - t0;
  st.policy->note_cost(rep.cost_s);
  st.fired_max_per_step =
      w.steps > 0 ? w.max_load() / static_cast<double>(w.steps) : 0.0;
  st.backfill = true;
  st.reports.push_back(std::move(rep));
  return true;
}

}  // namespace chaos
