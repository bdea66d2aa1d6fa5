// Set-up and step graph of the step_pipeline example: two independent
// gather/compute/scatter-add field steps over disjoint array pairs plus a
// local advance step. examples/step_pipeline.cpp runs it; chaos-verify
// (tools/chaos_verify.cpp) certifies this same declaration.
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "lang/array.hpp"
#include "runtime/runtime.hpp"
#include "runtime/step_graph.hpp"

namespace chaos::examples {

struct StepPipeline {
  static constexpr GlobalIndex kN = 4096;
  /// Ghost references per field. Wide enough windows that the transfers
  /// genuinely cost modeled wire time (the regime pipelining exists for).
  static constexpr int kRefs = 480;

  /// Declare the graph on `rt` (collective: inspects both field loops).
  explicit StepPipeline(Runtime& rt)
      : dist(rt.block(kN)),
        mine(rt.owned_globals(dist)),
        ind_a(window(1024 + 13)),
        ind_b(window(2048 + 29)),
        graph(rt) {
    const LoopHandle loop_a = rt.bind(dist, ind_a);
    const LoopHandle loop_b = rt.bind(dist, ind_b);
    const ScheduleHandle ha = rt.inspect(loop_a);
    const ScheduleHandle hb = rt.inspect(loop_b);
    la = rt.local_refs(loop_a);
    lb = rt.local_refs(loop_b);

    const auto extent = static_cast<std::size_t>(rt.local_extent(dist));
    xa.assign(extent, 1.0);
    ya.assign(extent, 0.0);
    xb.assign(extent, 2.0);
    yb.assign(extent, 0.0);

    // Declare WHAT each step touches; the runtime decides WHEN the
    // communication happens.
    sim::Comm& comm = rt.comm();
    graph.step("field_a")
        .bind(in(xa).via(ha), sum(ya).via(ha))
        .compute([this, &comm] {
          std::fill(ya.begin(), ya.end(), 0.0);
          for (GlobalIndex j : la)
            ya[static_cast<std::size_t>(j)] +=
                xa[static_cast<std::size_t>(j)];
          comm.charge_work(static_cast<double>(la.size()) * 6.0);
        });
    graph.step("field_b")
        .bind(in(xb).via(hb), sum(yb).via(hb))
        .compute([this, &comm] {
          std::fill(yb.begin(), yb.end(), 0.0);
          for (GlobalIndex j : lb)
            yb[static_cast<std::size_t>(j)] +=
                0.5 * xb[static_cast<std::size_t>(j)];
          comm.charge_work(static_cast<double>(lb.size()) * 6.0);
        });
    graph.step("advance")
        .bind(use(ya), use(yb), update(xa), update(xb))
        .compute([this, &comm] {
          for (std::size_t i = 0; i < mine.size(); ++i) {
            xa[i] = 0.5 * xa[i] + 0.25 * ya[i];
            xb[i] = 0.75 * xb[i] + 0.125 * yb[i];
          }
          comm.charge_work(static_cast<double>(mine.size()) * 2.0);
        });
  }

  /// Each rank references a strided window of remote elements.
  std::vector<GlobalIndex> window(GlobalIndex offset) const {
    std::vector<GlobalIndex> refs;
    for (int k = 0; k < kRefs; ++k)
      refs.push_back((mine.front() + offset + 2 * k) % kN);
    return refs;
  }

  DistHandle dist;
  std::vector<GlobalIndex> mine;
  lang::IndirectionArray ind_a, ind_b;
  std::span<const GlobalIndex> la, lb;
  std::vector<double> xa, ya, xb, yb;
  StepGraph graph;
};

}  // namespace chaos::examples
