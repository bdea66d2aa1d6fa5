// Example: the declarative step-graph executor (chaos::StepGraph).
//
// Two independent gather/compute/scatter-add steps over disjoint array
// pairs plus a local advance step. Declared once; the runtime derives the
// hazards from the (array, access-kind) sets and — with pipelining on —
// posts one step's gathers while the other step's scatter-adds are still
// in flight. Run both arms and print the modeled-time difference; the
// results are bitwise identical by construction, and the example exits
// nonzero unless the two arms' final fields agree bit for bit. The set-up
// and graph declaration live in step_pipeline.hpp, which chaos-verify
// certifies as is.
//
// Run: ./step_pipeline [ranks]
#include <cstdlib>
#include <iostream>
#include <vector>

#include "step_pipeline.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace chaos;

  const int ranks = argc > 1 ? std::atoi(argv[1]) : 8;
  const int iterations = 40;

  // Fills `final_x` with the final xa then xb in global order.
  auto run_arm = [&](bool pipelining, StepGraph::Stats* stats_out,
                     std::vector<double>& final_x) {
    using examples::StepPipeline;
    final_x.assign(2 * static_cast<std::size_t>(StepPipeline::kN), 0.0);
    sim::Machine machine(ranks);
    machine.run([&](sim::Comm& comm) {
      Runtime rt(comm);
      StepPipeline p(rt);
      p.graph.set_pipelining(pipelining);
      rt.run(p.graph, iterations);
      if (comm.rank() == 0 && stats_out) *stats_out = p.graph.stats();

      // Untimed harness: ranks are threads and each writes only the slots
      // of the elements it owns, so no message touches the modeled clock.
      for (std::size_t i = 0; i < p.mine.size(); ++i) {
        const auto g = static_cast<std::size_t>(p.mine[i]);
        final_x[g] = p.xa[i];
        final_x[static_cast<std::size_t>(StepPipeline::kN) + g] = p.xb[i];
      }
    });
    return machine.execution_time();
  };

  StepGraph::Stats stats;
  std::vector<double> eager_x, pipelined_x;
  const double eager = run_arm(false, nullptr, eager_x);
  const double pipelined = run_arm(true, &stats, pipelined_x);

  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < eager_x.size(); ++i)
    if (eager_x[i] != pipelined_x[i]) ++mismatches;

  std::cout << "step_pipeline: " << ranks << " ranks, " << iterations
            << " iterations, two independent field steps + advance\n\n";
  Table t("Eager vs pipelined (modeled seconds, bitwise-identical results)");
  t.header({"Arm", "Execution"});
  t.row({"eager post/flush/wait", Table::num(eager, 4)});
  t.row({"pipelined step graph", Table::num(pipelined, 4)});
  t.print();
  std::cout << "\n  gather batches hoisted ahead of their step: "
            << stats.pipelined_gathers
            << "\n  batches concurrently in flight (overlaps): "
            << stats.overlapped_posts
            << "\n  forced hazard stalls: " << stats.hazard_stalls
            << "\n  sim-clock reduction: "
            << Table::num(eager > 0 ? 100.0 * (eager - pipelined) / eager : 0,
                          2)
            << " %\n  pipelined vs eager: "
            << (mismatches == 0 ? "BITWISE IDENTICAL" : "MISMATCH") << " ("
            << mismatches << " differing entries)\n";
  return mismatches == 0 ? 0 : 1;
}
