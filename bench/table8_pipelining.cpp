// Table 8 (beyond the paper) — cross-step communication pipelining.
//
// Same CHARMM force cycle declared as a chaos::StepGraph, executed two
// ways:
//   (a) eager    post/flush/wait at every step (the reference arm, the
//                shape a hand-sequenced executor produces), and
//   (b) pipelined the runtime derives hazards from the declared accesses
//                and posts step k+1's gathers while step k's scatters are
//                still in flight wherever that is provably safe.
// The two runs are bitwise identical in results (the equivalence suite
// asserts it); only the communication timeline differs. Reported: modeled
// execution/communication seconds, the overlap counters (gather batches
// hoisted ahead of their step, batches concurrently in flight in opposite
// directions, forced hazard stalls), the sim-clock reduction, and the
// per-step message/byte attribution from the engine's per-batch traffic
// snapshots.
//
// Claim gate (the paper-claims-as-gates T8): exits nonzero unless, at every
// P, the pipelined arm's modeled execution time is no worse than the eager
// arm's and at least one gather batch was hoisted ahead of its step. The
// verdict goes to stderr, so stdout carries only the (deterministic,
// modeled) tables and repeated runs print byte-identical output.
#include <cstddef>
#include <iostream>

#include "charmm_cycle.hpp"

int main(int argc, char** argv) {
  using namespace chaos;
  using namespace chaos::bench;
  const Options opt = Options::parse(argc, argv);

  charmm::ParallelCharmmConfig cfg;
  cfg.partitioner = core::PartitionerKind::kRcb;
  cfg.run.nb_rebuild_every = 25;
  opt.apply(cfg, /*honor_shape=*/false);  // the bench sweeps both graph arms
  if (opt.quick) cfg.system = charmm::SystemParams::small(600);

  const std::vector<int> procs =
      opt.quick ? std::vector<int>{2, 4} : std::vector<int>{16, 32, 64, 128};
  const int real_steps = opt.quick ? 6 : 26;

  std::vector<double> eager_comm, eager_exec, pipe_comm, pipe_exec,
      reduction, overlaps, stalls, hoisted;
  CharmmScaled last_pipe;
  for (int P : procs) {
    std::cerr << "table8: running P=" << P << " (eager step graph)...\n";
    cfg.shape = charmm::CharmmShape::kStepGraphEager;
    auto eager = run_charmm_cycle(P, cfg, real_steps, 1000, 40);
    std::cerr << "table8: running P=" << P << " (pipelined)...\n";
    cfg.shape = charmm::CharmmShape::kStepGraph;
    auto pipe = run_charmm_cycle(P, cfg, real_steps, 1000, 40);

    eager_comm.push_back(eager.communication);
    eager_exec.push_back(eager.execution);
    pipe_comm.push_back(pipe.communication);
    pipe_exec.push_back(pipe.execution);
    reduction.push_back(
        eager.execution > 0
            ? 100.0 * (eager.execution - pipe.execution) / eager.execution
            : 0.0);
    overlaps.push_back(static_cast<double>(pipe.steps_overlapped));
    stalls.push_back(static_cast<double>(pipe.hazard_stalls));
    hoisted.push_back(static_cast<double>(pipe.pipelined_gathers));
    last_pipe = pipe;
  }

  Table t("Table 8: Cross-step pipelining on the CHARMM step graph "
          "(modeled seconds)");
  std::vector<std::string> head{"Metric"};
  for (int P : procs) head.push_back("P=" + std::to_string(P));
  t.header(head);
  t.row(num_row("Eager Comm", eager_comm, 1));
  t.row(num_row("Pipelined Comm", pipe_comm, 1));
  t.row(num_row("Eager Exec", eager_exec, 1));
  t.row(num_row("Pipelined Exec", pipe_exec, 1));
  t.row(num_row("Sim-clock reduction (%)", reduction, 2));
  t.row(num_row("Batches overlapped", overlaps, 0));
  t.row(num_row("Gathers hoisted", hoisted, 0));
  t.row(num_row("Hazard stalls", stalls, 0));
  t.print();

  Table pt("Per-step traffic attribution (largest P, pipelined, summed "
           "over ranks)");
  pt.header({"Step", "Gather msgs", "Gather KB", "Scatter msgs",
             "Scatter KB"});
  for (const auto& st : last_pipe.step_traffic) {
    pt.row({st.name, std::to_string(st.gather_msgs),
            Table::num(static_cast<double>(st.gather_bytes) / 1024.0, 1),
            std::to_string(st.write_msgs),
            Table::num(static_cast<double>(st.write_bytes) / 1024.0, 1)});
  }
  pt.print();

  int failures = 0;
  for (std::size_t i = 0; i < procs.size(); ++i) {
    if (pipe_exec[i] > eager_exec[i]) {
      std::cerr << "GATE FAILED: P=" << procs[i] << " pipelined Exec "
                << pipe_exec[i] << "s exceeds eager Exec " << eager_exec[i]
                << "s\n";
      ++failures;
    }
    if (hoisted[i] <= 0) {
      std::cerr << "GATE FAILED: P=" << procs[i]
                << " no gather batch was hoisted ahead of its step\n";
      ++failures;
    }
  }
  if (failures == 0)
    std::cerr << "table8: claim holds (pipelined Exec <= eager Exec and "
                 "gathers hoisted at every P)\n";
  return failures == 0 ? 0 : 1;
}
