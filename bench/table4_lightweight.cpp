// Table 4 — Regular Schedules vs Light-weight Schedules (paper §4.2.2).
//
// 2-D DSMC with a deliberately balanced load (uniform particles, no
// drift-induced imbalance issue at this horizon), 48x48 and 96x96 cell
// grids, full-run execution time for 1000 steps, P = 16..128. The regular
// path re-runs the full inspector (translation, dedup hash, permutation
// placement exchange) every step; the light-weight path builds only
// destination groups + a count exchange. The two arms are the
// DsmcExecutor::kRegular and kImperative shapes: both run the eager graph
// and migrate inside the move step, so the table isolates the *schedule*
// cost difference from step-graph pipelining gains.
//
// Claim gate (T4): exits 1 unless Light-weight (measured) < Regular
// (measured) at every grid and P. The verdict goes to stderr, so stdout
// carries only the (deterministic, modeled) table and is byte-identical
// run to run.
#include <iostream>

#include "apps/dsmc/parallel.hpp"
#include "bench_common.hpp"

namespace {

double run_config(int P, int grid, chaos::dsmc::DsmcExecutor executor,
                  int real_steps, int paper_steps) {
  chaos::dsmc::ParallelDsmcConfig cfg;
  cfg.params.nx = grid;
  cfg.params.ny = grid;
  cfg.params.nz = 1;
  // ~4 particles per cell, uniform, balanced (the paper distributes load
  // evenly for this experiment).
  cfg.params.n_particles = static_cast<chaos::core::GlobalIndex>(grid) * grid * 4;
  cfg.params.flow_bias = 0.0;
  cfg.params.seed = 944;
  // The Table 4 code version is the lightest of the paper's DSMC variants
  // (see DsmcParams::work_scale).
  cfg.params.work_scale = 0.5;
  cfg.steps = real_steps;
  cfg.executor = executor;

  chaos::sim::Machine machine(P);
  auto r = chaos::dsmc::run_parallel_dsmc(machine, cfg);
  return r.execution_time * (static_cast<double>(paper_steps) / real_steps);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace chaos;
  using namespace chaos::bench;
  const Options opt = Options::parse(argc, argv);

  const std::vector<int> procs =
      opt.quick ? std::vector<int>{4, 8} : std::vector<int>{16, 32, 64, 128};
  const std::vector<int> grids = opt.quick ? std::vector<int>{12, 24}
                                           : std::vector<int>{48, 96};
  const int real_steps = opt.quick ? 10 : 40;
  const int paper_steps = 1000;

  Table t("Table 4: Regular vs Light-weight Schedules, 2-D DSMC "
          "(modeled seconds, 1000 steps)");
  std::vector<std::string> head{"Config"};
  for (int P : procs) head.push_back("P=" + std::to_string(P));
  t.header(head);

  const std::vector<std::vector<double>> paper_regular{
      {63.74, 50.50, 79.58, 95.50}, {226.89, 131.99, 125.64, 118.89}};
  const std::vector<std::vector<double>> paper_light{
      {20.14, 11.54, 7.60, 6.77}, {79.89, 40.46, 21.77, 14.23}};

  int failures = 0;
  for (std::size_t g = 0; g < grids.size(); ++g) {
    const int grid = grids[g];
    std::vector<double> regular, light;
    for (int P : procs) {
      std::cerr << "table4: grid=" << grid << " P=" << P << "...\n";
      regular.push_back(run_config(P, grid, dsmc::DsmcExecutor::kRegular,
                                   real_steps, paper_steps));
      light.push_back(run_config(P, grid, dsmc::DsmcExecutor::kImperative,
                                 real_steps, paper_steps));
    }
    const std::string label =
        std::to_string(grid) + "x" + std::to_string(grid);
    if (!opt.quick)
      t.row(num_row(label + " Regular (paper)", paper_regular[g]));
    t.row(num_row(label + " Regular (measured)", regular));
    if (!opt.quick)
      t.row(num_row(label + " Light-weight (paper)", paper_light[g]));
    t.row(num_row(label + " Light-weight (measured)", light));
    for (std::size_t i = 0; i < procs.size(); ++i) {
      if (light[i] >= regular[i]) {
        std::cerr << "GATE FAILED: " << label << " P=" << procs[i]
                  << " light-weight " << light[i]
                  << "s is not below regular " << regular[i] << "s\n";
        ++failures;
      }
    }
  }
  t.print();
  if (failures == 0)
    std::cerr << "table4: claim holds (light-weight < regular at every grid "
                 "and P)\n";
  return failures == 0 ? 0 : 1;
}
