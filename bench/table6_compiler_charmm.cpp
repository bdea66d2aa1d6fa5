// Table 6 — Hand-Coded vs Compiler-Generated CHARMM Loop (paper §5.3.1).
//
// A reduced CHARMM case (the paper used "a smaller version of the
// program"), 100 iterations, data arrays redistributed every 25 iterations
// by applying RCB and RIB alternately. Compares the hand-written CHAOS
// parallelization (CharmmShape::kMultiple) against the Fortran-90D-style
// compiler-generated shape (CharmmShape::kCompilerGenerated: the same
// graph behind chaos::Runtime's schedule registry with modification
// records, and the mechanical overheads of generated code). Columns:
// partition, remap, inspector, executor, total.
#include <iostream>

#include "apps/charmm/parallel.hpp"
#include "bench_common.hpp"

namespace {

struct Phases {
  double partition, remap, inspector, executor, total;
};

Phases run_mode(int P, bool compiler, bool quick) {
  chaos::charmm::ParallelCharmmConfig cfg;
  cfg.system = quick ? chaos::charmm::SystemParams::small(600)
                     : chaos::charmm::SystemParams{};
  if (!quick) {
    // The paper's "smaller version of the program with computational
    // characteristics resembling the real-life applications": same density
    // and cutoff, about a quarter of the atoms.
    cfg.system.n_atoms = 3400;
    cfg.system.box = 32.5;
  }
  cfg.run.steps = quick ? 8 : 100;
  cfg.run.nb_rebuild_every = 1 << 20;  // list updates come from remapping
  cfg.repartition_every = quick ? 4 : 25;
  cfg.alternate_partitioners = true;
  cfg.partitioner = chaos::core::PartitionerKind::kRcb;
  // The generated code keeps separate schedules per loop, so the hand arm
  // is the multiple-schedules shape.
  cfg.shape = compiler ? chaos::charmm::CharmmShape::kCompilerGenerated
                       : chaos::charmm::CharmmShape::kMultiple;

  chaos::sim::Machine machine(P);
  auto r = chaos::charmm::run_parallel_charmm(machine, cfg);
  Phases ph;
  ph.partition = r.phases.data_partition;
  ph.remap = r.phases.remap_preproc;
  ph.inspector = r.phases.schedule_gen + r.phases.schedule_regen;
  ph.executor = r.phases.executor;
  ph.total = r.execution_time;
  return ph;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace chaos;
  using namespace chaos::bench;
  const Options opt = Options::parse(argc, argv);

  const std::vector<int> procs =
      opt.quick ? std::vector<int>{2, 4} : std::vector<int>{32, 64};

  Table t("Table 6: Hand-Coded vs Compiler-Generated CHARMM Loop "
          "(modeled seconds, 100 iterations)");
  t.header({"Version", "P", "Partition", "Remap", "Inspector", "Executor",
            "Total"});
  const std::vector<std::vector<double>> paper_hand{
      {3.2, 8.2, 2.8, 84.6, 98.8}, {4.2, 6.7, 2.0, 62.9, 75.8}};
  const std::vector<std::vector<double>> paper_comp{
      {3.3, 8.7, 3.1, 85.0, 100.1}, {4.3, 7.1, 2.2, 63.6, 77.2}};

  for (std::size_t i = 0; i < procs.size(); ++i) {
    const int P = procs[i];
    std::cerr << "table6: P=" << P << " hand-coded...\n";
    const Phases hand = run_mode(P, false, opt.quick);
    std::cerr << "table6: P=" << P << " compiler-generated...\n";
    const Phases comp = run_mode(P, true, opt.quick);

    if (!opt.quick)
      t.row({"Hand (paper)", std::to_string(P),
             Table::num(paper_hand[i][0], 1), Table::num(paper_hand[i][1], 1),
             Table::num(paper_hand[i][2], 1), Table::num(paper_hand[i][3], 1),
             Table::num(paper_hand[i][4], 1)});
    t.row({"Hand (measured)", std::to_string(P), Table::num(hand.partition, 1),
           Table::num(hand.remap, 1), Table::num(hand.inspector, 1),
           Table::num(hand.executor, 1), Table::num(hand.total, 1)});
    if (!opt.quick)
      t.row({"Compiler (paper)", std::to_string(P),
             Table::num(paper_comp[i][0], 1), Table::num(paper_comp[i][1], 1),
             Table::num(paper_comp[i][2], 1), Table::num(paper_comp[i][3], 1),
             Table::num(paper_comp[i][4], 1)});
    t.row({"Compiler (measured)", std::to_string(P),
           Table::num(comp.partition, 1), Table::num(comp.remap, 1),
           Table::num(comp.inspector, 1), Table::num(comp.executor, 1),
           Table::num(comp.total, 1)});
  }
  t.print();
  return 0;
}
