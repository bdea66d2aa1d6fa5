// Set-up and step graph of the spmv_adaptive example: y = A x through the
// column indirection of an adaptive sparsity pattern, then a normalize
// step writing x back, over an irregularly distributed row space.
// examples/spmv_adaptive.cpp runs it; chaos-verify
// (tools/chaos_verify.cpp) certifies this same declaration.
#pragma once

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "lang/array.hpp"
#include "runtime/runtime.hpp"
#include "runtime/step_graph.hpp"

namespace chaos::examples {

struct SpmvAdaptive {
  static constexpr GlobalIndex kRows = 768;

  // The (deterministic) adaptive sparsity pattern: row g in phase p.
  static GlobalIndex nnz(GlobalIndex g, int p) { return 3 + (g * 7 + p) % 5; }
  static GlobalIndex col(GlobalIndex g, GlobalIndex k, int p) {
    return (g * 13 + k * 17 + static_cast<GlobalIndex>(p) * 29 + 3) % kRows;
  }
  static double coeff(GlobalIndex g, GlobalIndex k) {
    return 1.0 / (1.0 + static_cast<double>((g + 2 * k) % 7));
  }

  /// Row->rank map balancing the nonzero counts (replicated computation).
  static std::vector<int> balance_by_nnz(int ranks, int phase) {
    double total = 0;
    for (GlobalIndex g = 0; g < kRows; ++g)
      total += static_cast<double>(nnz(g, phase));
    std::vector<int> map(static_cast<std::size_t>(kRows));
    double seen = 0;
    for (GlobalIndex g = 0; g < kRows; ++g) {
      map[static_cast<std::size_t>(g)] = std::min(
          ranks - 1, static_cast<int>(seen / total * ranks));
      seen += static_cast<double>(nnz(g, phase));
    }
    return map;
  }

  /// Declare the graph on `rt` (collective: inspects the column pattern).
  explicit SpmvAdaptive(Runtime& runtime)
      : rt(runtime),
        ranks(rt.comm().size()),
        d(rt.irregular(balance_by_nnz(ranks, 0))),
        x(rt, d, "x"),
        y(rt, d, "y"),
        cols_ind(build_rows()),
        h(rt.inspect(d, cols_ind)),
        lcols(rt.local_refs(rt.bind(d, cols_ind))),
        graph(rt) {
    x.fill([](GlobalIndex g) { return 1.0 + static_cast<double>(g % 5); });

    sim::Comm& comm = rt.comm();
    graph.step("spmv").bind(in(x).via(h), update(y)).compute([this, &comm] {
      for (GlobalIndex r = 0; r < y.owned(); ++r) {
        double acc = 0;
        for (GlobalIndex at = row_ptr[static_cast<std::size_t>(r)];
             at < row_ptr[static_cast<std::size_t>(r) + 1]; ++at)
          acc += coeff(y.globals()[static_cast<std::size_t>(r)],
                       at - row_ptr[static_cast<std::size_t>(r)]) *
                 x[lcols[static_cast<std::size_t>(at)]];
        y[r] = acc;
      }
      comm.charge_work(static_cast<double>(cols.size()) * 4.0);
    });
    graph.step("normalize").bind(use(y), update(x)).compute([this, &comm] {
      double sq = 0;
      for (GlobalIndex r = 0; r < y.owned(); ++r) sq += y[r] * y[r];
      const double norm = std::sqrt(comm.allreduce_sum(sq));
      for (GlobalIndex r = 0; r < x.owned(); ++r) x[r] = y[r] / norm;
    });
  }

  /// Rebuild the CSR of the owned rows for the current phase (row_ptr over
  /// the owned rows, columns concatenated); returns the columns.
  std::vector<GlobalIndex> build_rows() {
    row_ptr.assign(1, 0);
    cols.clear();
    for (GlobalIndex g : x.globals()) {
      for (GlobalIndex k = 0; k < nnz(g, phase); ++k)
        cols.push_back(col(g, k, phase));
      row_ptr.push_back(static_cast<GlobalIndex>(cols.size()));
    }
    return cols;
  }

  /// Adaptive sparsity: switch to the next pattern and re-inspect.
  void adapt_sparsity() {
    graph.quiesce();
    phase = 1;
    cols_ind.assign(build_rows());
    h = rt.inspect(d, cols_ind);  // same handle, regenerated in place
    lcols = rt.local_refs(rt.bind(d, cols_ind));
  }

  /// Repartition the rows by nonzero load and re-arm the graph onto the
  /// seeded successor epoch.
  void repartition() {
    graph.quiesce();  // hoisted gathers hold spans into x until completion
    const DistHandle d2 = rt.repartition(d, balance_by_nnz(ranks, phase));
    const ScheduleHandle plan = rt.plan_remap(d, d2);
    x.retarget(plan, d2);
    y.retarget(plan, d2);
    cols_ind.assign(build_rows());
    const ScheduleHandle h2 = rt.inspect(d2, cols_ind);
    graph.retarget(h, h2);  // quiesces, re-arms onto the successor epoch
    lcols = rt.local_refs(rt.bind(d2, cols_ind));
    rt.retire(d);
    d = d2;
    h = h2;
  }

  Runtime& rt;
  int ranks;
  DistHandle d;
  Array<double> x, y;
  int phase = 0;
  std::vector<GlobalIndex> row_ptr, cols;
  lang::IndirectionArray cols_ind;
  ScheduleHandle h;
  std::span<const GlobalIndex> lcols;
  StepGraph graph;
};

}  // namespace chaos::examples
