// Example: sparse matrix-vector product with ADAPTIVE sparsity and a
// mid-run repartition, written as a ~40-line client of the typed view API
// (ROADMAP: "new workloads as ~30-line Runtime clients").
//
// A power-iteration-style loop y = A x, x = y / ||y|| over an irregularly
// distributed row space. The column indirection array IS the sparsity
// pattern: binding `in(x).via(h)` to the spmv step makes the runtime
// gather exactly the x ghosts the pattern references. Mid-run the pattern
// changes (adaptive sparsity: re-inspect, stamp recycled) and later the
// rows are repartitioned by nonzero load (Array::retarget + graph
// retarget onto the seeded successor epoch). Both arms — pipelined and
// eager — must be bitwise identical; the example exits nonzero otherwise,
// so the ctest smoke-run doubles as the equivalence check. The set-up,
// graph declaration and adaptation steps live in spmv_adaptive.hpp, which
// chaos-verify certifies as is.
//
// Run: ./spmv_adaptive [ranks]
#include <cstdlib>
#include <iostream>
#include <vector>

#include "spmv_adaptive.hpp"
#include "util/table.hpp"

namespace {

using namespace chaos;
using examples::SpmvAdaptive;

constexpr GlobalIndex kRows = SpmvAdaptive::kRows;
constexpr int kIters = 24;

std::vector<double> run_arm(int ranks, bool pipelining) {
  std::vector<double> result(static_cast<std::size_t>(kRows), 0.0);
  sim::Machine machine(ranks);
  machine.run([&](sim::Comm& comm) {
    Runtime rt(comm);
    SpmvAdaptive s(rt);
    s.graph.set_pipelining(pipelining);

    for (int it = 0; it < kIters; ++it) {
      if (it == kIters / 3) s.adapt_sparsity();  // new pattern, re-inspect
      if (it == 2 * kIters / 3) s.repartition();  // rows by nonzero load
      s.graph.advance();
    }
    s.graph.quiesce();
    const Array<double>& x = s.x;

    // Collect the final iterate in global order (harness, untimed).
    struct IdVal {
      GlobalIndex id;
      double v;
    };
    std::vector<IdVal> mine(x.globals().size());
    for (std::size_t i = 0; i < mine.size(); ++i)
      mine[i] = {x.globals()[i], x[static_cast<GlobalIndex>(i)]};
    const std::vector<IdVal> all = comm.allgatherv<IdVal>(mine);
    if (comm.rank() == 0) {  // ranks are threads: one writer for `result`
      for (const IdVal& iv : all)
        result[static_cast<std::size_t>(iv.id)] = iv.v;
    }
  });
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const int ranks = argc > 1 ? std::atoi(argv[1]) : 8;
  const std::vector<double> eager = run_arm(ranks, false);
  const std::vector<double> pipelined = run_arm(ranks, true);

  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < eager.size(); ++i)
    if (eager[i] != pipelined[i]) ++mismatches;

  std::cout << "spmv_adaptive: " << kRows << " rows on " << ranks
            << " ranks, " << kIters << " power iterations\n"
            << "  sparsity adapted at iteration " << kIters / 3
            << " (re-inspection, stamp recycled)\n"
            << "  rows repartitioned by nonzero load at iteration "
            << 2 * kIters / 3 << " (Array::retarget + graph retarget)\n"
            << "  pipelined vs eager: "
            << (mismatches == 0 ? "BITWISE IDENTICAL" : "MISMATCH") << " ("
            << mismatches << " differing entries)\n"
            << "  ||x|| head: " << chaos::Table::num(pipelined[0], 6) << ", "
            << chaos::Table::num(pipelined[1], 6) << ", "
            << chaos::Table::num(pipelined[2], 6) << "\n";
  return mismatches == 0 ? 0 : 1;
}
