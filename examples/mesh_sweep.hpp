// Set-up and step graph of the mesh_sweep example: two edge families
// accumulating per-edge fluxes into disjoint per-family node accumulators,
// then a local advance step integrating the node field.
// examples/mesh_sweep.cpp runs it; chaos-verify (tools/chaos_verify.cpp)
// certifies this same declaration.
#pragma once

#include <span>
#include <vector>

#include "lang/array.hpp"
#include "runtime/runtime.hpp"
#include "runtime/step_graph.hpp"

namespace chaos::examples {

struct MeshSweep {
  static constexpr GlobalIndex kNodes = 1024;
  static constexpr double kDt = 0.05;

  /// Scattered node ownership, as a graph partitioner would produce.
  static std::vector<int> node_map(int ranks) {
    std::vector<int> map(static_cast<std::size_t>(kNodes));
    for (GlobalIndex g = 0; g < kNodes; ++g)
      map[static_cast<std::size_t>(g)] = static_cast<int>((g * 5 + 2) % ranks);
    return map;
  }

  /// Endpoint pairs (a, b) of one edge family, one edge per owned node.
  static std::vector<GlobalIndex> family_edges(
      const std::vector<GlobalIndex>& owned, GlobalIndex mul,
      GlobalIndex add) {
    std::vector<GlobalIndex> refs;
    refs.reserve(owned.size() * 2);
    for (GlobalIndex a : owned) {
      refs.push_back(a);
      refs.push_back((a * mul + add) % kNodes);
    }
    return refs;
  }

  /// Declare the graph on `rt` (collective: inspects both edge families).
  explicit MeshSweep(Runtime& rt)
      : d(rt.irregular(node_map(rt.comm().size()))),
        u(rt, d, "u"),
        du_short(rt, d, "du_short"),
        du_long(rt, d, "du_long"),
        mesh(family_edges(u.globals(), 1, 1)),
        diag(family_edges(u.globals(), 31, 11)),
        graph(rt) {
    u.fill([](GlobalIndex g) {
      return static_cast<double>(g % 17) - 8.0;  // rough initial field
    });
    const ScheduleHandle hm = rt.inspect(d, mesh);
    const ScheduleHandle hd = rt.inspect(d, diag);
    const std::span<const GlobalIndex> lm = rt.local_refs(rt.bind(d, mesh));
    const std::span<const GlobalIndex> ld = rt.local_refs(rt.bind(d, diag));

    sim::Comm& comm = rt.comm();
    graph.step("sweep_mesh")
        .bind(in(u).via(hm), sum(du_short).via(hm))
        .compute([this, lm, &comm] { sweep(comm, lm, du_short, 0.25); });
    graph.step("sweep_diag")
        .bind(in(u).via(hd), sum(du_long).via(hd))
        .compute([this, ld, &comm] { sweep(comm, ld, du_long, 0.0625); });
    graph.step("advance")
        .bind(use(du_short), use(du_long), update(u))
        .compute([this, &comm] {
          for (GlobalIndex i = 0; i < u.owned(); ++i)
            u[i] += kDt * (du_short[i] + du_long[i]);
          comm.charge_work(static_cast<double>(u.owned()) * 2.0);
        });
  }

  /// Per-edge flux f = w*(u[b]-u[a]) accumulated du[a] += f, du[b] -= f.
  void sweep(sim::Comm& comm, std::span<const GlobalIndex> edges,
             Array<double>& du, double w) {
    for (GlobalIndex i = 0; i < du.owned(); ++i) du[i] = 0.0;
    for (std::size_t e = 0; e + 1 < edges.size(); e += 2) {
      const double flux = w * (u[edges[e + 1]] - u[edges[e]]);
      du[edges[e]] += flux;
      du[edges[e + 1]] -= flux;
    }
    comm.charge_work(static_cast<double>(edges.size()) * 3.0);
  }

  DistHandle d;
  Array<double> u, du_short, du_long;
  lang::IndirectionArray mesh, diag;
  StepGraph graph;
};

}  // namespace chaos::examples
