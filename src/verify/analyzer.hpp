// chaos::verify::Analyzer — static analysis over the step-graph IR.
//
// The inspector/executor split means the "program" exists as analyzable
// data before anything runs: step access sets (lang::AccessDecl), the
// schedules they ride (core::Schedule recv/send blocks), chunk plans and
// disjointness claims, binding revision guards. The analyzer consumes a
// declared (not yet executed) StepGraph plus the registry state behind it
// and runs a rule pipeline:
//
//   read-before-gather   ERROR    a step consumes an array's ghost slots
//                                 before any step gathers them — whole-
//                                 graph RAW dataflow, including the cross-
//                                 iteration wraparound gather hoisting
//                                 exploits (iteration 1 reads value-
//                                 initialized ghosts; later iterations
//                                 read one-iteration-stale ones).
//   dead-scatter         WARNING  a scatter/scatter-add whose target no
//                                 step ever gathers or reads — written-
//                                 never-read communication.
//   redundant-gather     WARNING  the same array gathered twice through
//                        /NOTE    one schedule with no interleaving write
//                                 (provably identical delivery — hoist
//                                 one); through two schedules, a note
//                                 counts the ghost slots fetched twice
//                                 and suggests rt.merge.
//   race-certification   ERROR    re-derives the chunk conflict graph
//                        /NOTE    from the declared sets and judges every
//                                 chunk_writes_disjoint() claim: PROVEN
//                                 when the write schedules' per-peer recv
//                                 partitions are pairwise disjoint (the
//                                 property the TSan job checks
//                                 dynamically), REFUTED (error) when the
//                                 claim contradicts a declared shared
//                                 reduction, ASSUMED otherwise.
//   stale-binding        ERROR    bindings already stale (revision probe
//                        /NOTE    mismatch, invalidated schedules); raw-
//                                 container bindings with no staleness
//                                 net while an autonomic balance policy
//                                 can retarget the graph underneath them.
//
// Error rules are functions of the declarations alone — identical on
// every rank — so StepGraph strict mode can refuse to arm without
// desynchronizing the SPMD batch sequence. Schedule-shape notes (recv
// overlap counts, partition proofs) are per-rank observations.
//
// Analysis never executes or communicates: rt.verify(graph) is safe on a
// graph that will never run (the chaos-verify CLI loads every app and
// example graph exactly this way).
#pragma once

#include <vector>

#include "verify/diagnostic.hpp"

namespace chaos {
class StepGraph;
}  // namespace chaos

namespace chaos::verify {

class Analyzer {
 public:
  Analyzer() = default;

  /// Run every rule over `graph` and return the findings (order: rule
  /// declaration order above, then step order; render() sorts a report by
  /// severity). Resolves the graph first (resolve_for_analysis), so a
  /// step arming would refuse throws the same chaos::Error here.
  std::vector<Diagnostic> analyze(StepGraph& graph);
};

}  // namespace chaos::verify
