// Table 7 — Performance of compiler-generated DSMC code (paper §5.3.2).
//
// 2-D DSMC, 32x32 cells, 5000 molecules, 50 steps, P = 4..32. The manual
// version uses CHAOS light-weight migration primitives that return the new
// per-cell counts directly; the compiler-generated version lowers the MOVE
// phase to REDUCE(APPEND, ...) and must recompute the counts with an extra
// irregular loop (extra inspector + communication), plus FORALL
// copy-in/copy-out overheads in the update loops. The arms are the
// DsmcExecutor::kImperative and kCompilerGenerated shapes.
#include <iostream>

#include "apps/dsmc/parallel.hpp"
#include "bench_common.hpp"

namespace {

struct Result {
  double reduce_append, total;
};

Result run_mode(int P, bool compiler, bool quick) {
  chaos::dsmc::ParallelDsmcConfig cfg;
  cfg.params.nx = 32;
  cfg.params.ny = 32;
  cfg.params.nz = 1;
  cfg.params.n_particles = 5000;
  cfg.params.seed = 427;
  // The Table 7 template performs the heaviest per-molecule work of the
  // paper's DSMC variants (velocity/position updates inside the template).
  cfg.params.work_scale = 2.0;
  cfg.steps = quick ? 10 : 50;
  // The manual arm is the imperative shape: like the compiler-generated
  // shape it migrates inside the move step, so the per-phase rows (the
  // MOVE migration especially) are timed identically and the table
  // measures generated-code overhead, not executor-shape differences.
  cfg.executor = compiler ? chaos::dsmc::DsmcExecutor::kCompilerGenerated
                          : chaos::dsmc::DsmcExecutor::kImperative;

  chaos::sim::Machine machine(P);
  auto r = chaos::dsmc::run_parallel_dsmc(machine, cfg);
  // The paper's "Reduce append" row covers the particle-movement operation
  // including the compiler's size recomputation.
  return Result{r.phases.reduce_append + r.phases.size_recompute,
                r.execution_time};
}

}  // namespace

int main(int argc, char** argv) {
  using namespace chaos;
  using namespace chaos::bench;
  const Options opt = Options::parse(argc, argv);

  const std::vector<int> procs =
      opt.quick ? std::vector<int>{2, 4} : std::vector<int>{4, 8, 16, 32};

  std::vector<double> comp_append, comp_total, man_append, man_total;
  for (int P : procs) {
    std::cerr << "table7: P=" << P << "...\n";
    const Result comp = run_mode(P, true, opt.quick);
    const Result man = run_mode(P, false, opt.quick);
    comp_append.push_back(comp.reduce_append);
    comp_total.push_back(comp.total);
    man_append.push_back(man.reduce_append);
    man_total.push_back(man.total);
  }

  Table t("Table 7: Compiler-generated vs Manual DSMC "
          "(modeled seconds, 32x32 cells, 5K molecules, 50 steps)");
  std::vector<std::string> head{"Metric"};
  for (int P : procs) head.push_back("P=" + std::to_string(P));
  t.header(head);
  if (!opt.quick) {
    t.row(num_row("Compiler reduce-append (paper)", {2.75, 1.89, 1.79, 2.39}));
  }
  t.row(num_row("Compiler reduce-append (measured)", comp_append));
  if (!opt.quick) {
    t.row(num_row("Manual reduce-append (paper)", {1.83, 1.41, 1.49, 2.05}));
  }
  t.row(num_row("Manual reduce-append (measured)", man_append));
  if (!opt.quick) {
    t.row(num_row("Compiler total (paper)", {15.47, 8.99, 6.71, 5.30}));
  }
  t.row(num_row("Compiler total (measured)", comp_total));
  if (!opt.quick) {
    t.row(num_row("Manual total (paper)", {8.51, 4.90, 4.05, 3.75}));
  }
  t.row(num_row("Manual total (measured)", man_total));
  t.print();
  return 0;
}
