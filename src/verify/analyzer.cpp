#include "verify/analyzer.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "runtime/runtime.hpp"
#include "runtime/step_graph.hpp"

namespace chaos::verify {

// Every rule reads the steps' own declared records (Step::Access, the
// chunk declaration) — Step and StepGraph befriend the Analyzer, and Pass
// is its rule pipeline over one graph — so the analyzer judges exactly the
// declarations the graph executes. Rules are set/interval logic over those
// records, plus registry lookups through the Runtime for schedule shapes
// and validity.
class Analyzer::Pass {
 public:
  explicit Pass(StepGraph& g)
      : rt_(g.runtime()),
        steps_(g.steps_),
        arrival_driven_(g.arrival_driven_) {
    // Best-known name per container address, pooled across every step (a
    // raw vector named in one binding is recognized everywhere).
    for (const Step& s : steps_)
      for (const auto* list : {&s.gathers_, &s.writes_, &s.locals_})
        for (const Access& a : *list)
          if (!a.name.empty()) names_.emplace(a.decl.array, a.name);
  }

  void read_before_gather();
  void dead_scatter();
  void redundant_gather();
  void race_certification();
  void stale_binding();

  std::vector<Diagnostic> out;

 private:
  using Access = Step::Access;

  std::string name_of(const void* array) const {
    auto it = names_.find(array);
    return it == names_.end() ? std::string{} : it->second;
  }

  /// "'pos'" / "<unnamed @0x...>" for message bodies.
  std::string aname(const void* array) const {
    return array_subject(name_of(array), array);
  }

  void add(std::string rule, Severity sev, const Step* step,
           const void* array, std::string message, std::string hint) {
    Diagnostic d;
    d.rule = std::move(rule);
    d.severity = sev;
    if (step) d.step = step->name_;
    if (array) d.array = name_of(array);
    d.message = std::move(message);
    d.hint = std::move(hint);
    out.push_back(std::move(d));
  }

  Runtime& rt_;
  const std::deque<Step>& steps_;
  bool arrival_driven_;
  std::map<const void*, std::string> names_;
};

// ---- rule: read-before-gather ----------------------------------------
//
// Whole-graph RAW dataflow at array granularity. For every gathered array
// find its first gathering step; any earlier step declaring a local read
// of that array consumes ghost slots nothing has delivered yet. The
// cross-iteration wraparound makes this wrong in BOTH regimes: on
// iteration 1 the ghost region is value-initialized (never gathered), and
// on iteration k>1 the reader sees iteration k-1's gather — one iteration
// stale, silently, because the lowered program's trailing arm (which
// wraps into the next iteration) is happy to arm the gather after the
// reader ran.
void Analyzer::Pass::read_before_gather() {
  std::map<const void*, std::size_t> first_gather;
  for (const Step& s : steps_)
    for (const Access& a : s.gathers_) {
      auto [it, inserted] = first_gather.emplace(a.decl.array, s.idx_);
      if (!inserted) it->second = std::min(it->second, s.idx_);
    }
  for (const Step& s : steps_) {
    for (const Access& l : s.locals_) {
      if (l.decl.kind != lang::AccessKind::kLocalRead) continue;
      auto it = first_gather.find(l.decl.array);
      if (it == first_gather.end() || s.idx_ >= it->second) continue;
      const Step& gstep = steps_[it->second];
      add("read-before-gather", Severity::kError, &s, l.decl.array,
          "reads " + aname(l.decl.array) +
              " before its first gather (step '" + gstep.name_ +
              "', position " + std::to_string(gstep.idx_) +
              "): iteration 1 consumes value-initialized ghost slots, and "
              "every later iteration reads ghosts one iteration stale — "
              "the cross-iteration gather hoist arms AFTER this step ran",
          "declare this step after the gathering step, or gather " +
              aname(l.decl.array) + " in or before it");
    }
  }
}

// ---- rule: dead-scatter -----------------------------------------------
//
// A scatter/scatter-add ships ghost contributions to owners; if no step
// in the graph ever gathers or locally reads the target array, the graph
// pays the communication every iteration for values nothing declared
// consumes. Warning (not error): the array may legitimately be consumed
// imperatively after quiesce() — but then a use() declaration in a later
// step documents the dataflow and restores the hazard edges.
void Analyzer::Pass::dead_scatter() {
  // Gathered, locally read, or migrated (migrated items are read and
  // shipped).
  const auto consumed = [&](const void* array) {
    for (const Step& s : steps_)
      for (const auto* list : {&s.gathers_, &s.locals_, &s.writes_})
        for (const Access& a : *list)
          if (a.decl.array == array &&
              (a.decl.kind == lang::AccessKind::kGather ||
               a.decl.kind == lang::AccessKind::kLocalRead ||
               a.decl.kind == lang::AccessKind::kMigrate))
            return true;
    return false;
  };
  for (const Step& s : steps_) {
    for (const Access& w : s.writes_) {
      if (w.decl.kind != lang::AccessKind::kScatter &&
          w.decl.kind != lang::AccessKind::kScatterAdd)
        continue;
      if (consumed(w.decl.array)) continue;
      add("dead-scatter", Severity::kWarning, &s, w.decl.array,
          std::string(lang::to_string(w.decl.kind)) + "(" +
              aname(w.decl.array) +
              ") is written but no step gathers or reads it — the owners "
              "receive values the declared dataflow never consumes",
          "drop the write, or declare the consumer (use(...) in a later "
          "step) so the dependence is visible to the hazard analysis");
    }
  }
}

// ---- rule: redundant-gather -------------------------------------------
//
// Gather/gather on one array is never a hazard, but it can be waste. Two
// flavors:
//   - same array gathered twice through ONE schedule with no owner-value
//     modification in between: the second delivery is provably identical
//     (a gather packs owned values at post time) — warning, hoist one;
//   - through TWO schedules: the deliveries may differ in coverage, but
//     any ghost slot present in both recv sides is fetched twice — note
//     with the overlap count, suggesting a merged schedule (rt.merge,
//     the paper's schedule-merging optimization).
// Plus the iteration-axis flavor: an array gathered every advance() that
// no step ever writes delivers identical values every iteration — note.
void Analyzer::Pass::redundant_gather() {
  struct Occurrence {
    std::size_t step;
    ScheduleHandle via;
  };
  std::map<const void*, std::vector<Occurrence>> gathers;
  for (const Step& s : steps_)
    for (const Access& a : s.gathers_)
      gathers[a.decl.array].push_back({s.idx_, a.via});

  const auto written_between = [&](const void* array, std::size_t lo,
                                   std::size_t hi) {
    // Writes that land between gather lo's post and gather hi's post:
    // steps [lo, hi) — step lo's compute and post-compute writes run
    // after its own gather, step hi's run after gather hi.
    for (std::size_t i = lo; i < hi; ++i)
      for (const auto* list : {&steps_[i].locals_, &steps_[i].writes_})
        for (const Access& a : *list)
          if (lang::is_owner_write(a.decl.kind) && a.decl.touches(array))
            return true;
    return false;
  };
  const auto recv_slots = [&](ScheduleHandle h) {
    std::set<GlobalIndex> slots;
    for (const core::ScheduleBlock& b : rt_.schedule(h).recv_blocks())
      slots.insert(b.indices.begin(), b.indices.end());
    return slots;
  };

  for (const auto& [array, occ] : gathers) {
    for (std::size_t k = 0; k + 1 < occ.size(); ++k) {
      const Occurrence& g1 = occ[k];
      const Occurrence& g2 = occ[k + 1];
      if (written_between(array, g1.step, g2.step)) continue;
      const Step& s2 = steps_[g2.step];
      if (g1.via == g2.via) {
        add("redundant-gather", Severity::kWarning, &s2, array,
            "gathers " + aname(array) + " through schedule s" +
                std::to_string(g2.via.id) + " already gathered by step '" +
                steps_[g1.step].name_ +
                "' with no interleaving write — the second delivery is "
                "identical (a gather packs owned values at post time)",
            "drop this gather; the hoisting machinery already delivers "
            "the ghosts before this step");
      } else if (rt_.valid(g1.via) && rt_.valid(g2.via)) {
        const std::set<GlobalIndex> a = recv_slots(g1.via);
        const std::set<GlobalIndex> b = recv_slots(g2.via);
        std::size_t overlap = 0;
        for (GlobalIndex i : b) overlap += a.count(i);
        if (overlap > 0) {
          add("redundant-gather", Severity::kNote, &s2, array,
              "gathers " + aname(array) + " through schedule s" +
                  std::to_string(g2.via.id) + " while step '" +
                  steps_[g1.step].name_ + "' gathers it through s" +
                  std::to_string(g1.via.id) + " — " +
                  std::to_string(overlap) +
                  " ghost slot(s) on this rank are fetched twice with no "
                  "interleaving write",
              "consider one merged schedule (rt.merge) so shared ghosts "
              "ride the wire once");
        }
      }
    }
    if (!written_between(array, 0, steps_.size())) {
      const Step& s1 = steps_[occ.front().step];
      add("redundant-gather", Severity::kNote, &s1, array,
          "gathers " + aname(array) +
              " every iteration, but no step in the graph ever writes it "
              "— successive advances deliver identical ghost values",
          "if the array is constant across advances, gather it once "
          "imperatively (rt.gather) outside the iteration loop; if it is "
          "mutated imperatively between advances, ignore this");
    }
  }
}

// ---- rule: race-certification -----------------------------------------
//
// Re-derive the conflict graph the chunk planner builds (build_chunk_plan:
// chunk_writes_disjoint => empty graph, one color; otherwise complete
// graph) and judge every disjointness CLAIM instead of trusting it:
//
//   REFUTED (error)  gather-keyed chunks + a declared scatter-add write:
//                    the chunks consume per-peer reference partitions of
//                    the SAME arrays, so two peers' partitions referencing
//                    one element both accumulate into its slot — exactly
//                    the shared-reduction shape the claim asserts away.
//   PROVEN (note)    every declared write is a plain scatter riding one of
//                    the schedules keying the chunks, no opaque local
//                    writes: chunk p's communicated writes are confined to
//                    the per-peer recv partition of peer p, and the
//                    partitions are pairwise disjoint by actual slot-set
//                    intersection — the conflict graph is genuinely empty,
//                    concurrent same-color waves cannot share an output
//                    slot. This is the property the TSan CI job can only
//                    check dynamically.
//   ASSUMED (note)   anything else (fixed-count chunks, opaque local
//                    writes): the coloring rests on the claim alone;
//                    point at the dynamic certifiers.
void Analyzer::Pass::race_certification() {
  if (!arrival_driven_) return;  // the claim only licenses arrival waves
  const int me = rt_.comm().rank();
  for (const Step& s : steps_) {
    if (!s.chunk_fn_ || !s.chunk_disjoint_) continue;

    const bool gather_keyed = s.chunk_count_ == 0 && !s.gathers_.empty();
    const Access* w = nullptr;  // the step's (last) scatter-add write
    for (const Access& a : s.writes_)
      if (a.decl.kind == lang::AccessKind::kScatterAdd) w = &a;

    if (gather_keyed && w) {
      add("race-certification", Severity::kError, &s, w->decl.array,
          "chunk_writes_disjoint() is refuted by the declared access "
          "sets: the chunks are keyed by per-peer gather partitions and "
          "sum(" +
              aname(w->decl.array) +
              ") accumulates into owned slots that any two partitions "
              "referencing one element share — the conflict graph is NOT "
              "empty, and a concurrent wave would race on the "
              "accumulator",
          "restructure the reduction so each chunk owns disjoint slots, "
          "or leave the step unchunked");
      continue;
    }

    bool provable = gather_keyed;
    if (provable) {
      std::set<std::uint32_t> keying;
      for (const Access& a : s.gathers_) keying.insert(a.via.id);
      for (const Access& w : s.writes_)
        if (w.decl.kind != lang::AccessKind::kScatter ||
            !keying.count(w.via.id) || !rt_.valid(w.via))
          provable = false;
      for (const Access& l : s.locals_)
        if (l.decl.kind == lang::AccessKind::kLocalWrite) provable = false;
      if (s.writes_.empty()) provable = false;  // nothing to confine
    }

    if (provable) {
      // The set math: across every write schedule, no ghost slot may be
      // delivered by two different peers — otherwise two chunks write it.
      std::map<GlobalIndex, int> slot_peer;
      bool disjoint = true;
      std::size_t slots = 0;
      GlobalIndex clash_slot = 0;
      int clash_a = 0, clash_b = 0;
      for (const Access& w : s.writes_) {
        for (const core::ScheduleBlock& b :
             rt_.schedule(w.via).recv_blocks()) {
          const int peer = b.proc == me ? -1 : b.proc;
          for (GlobalIndex slot : b.indices) {
            auto [it, inserted] = slot_peer.emplace(slot, peer);
            if (inserted) {
              ++slots;
            } else if (it->second != peer) {
              disjoint = false;
              clash_slot = slot;
              clash_a = it->second;
              clash_b = peer;
            }
          }
        }
      }
      if (disjoint) {
        add("race-certification", Severity::kNote, &s, nullptr,
            "chunk_writes_disjoint() PROVEN: every write is a plain "
            "scatter riding a chunk-keying schedule, and its per-peer "
            "recv partitions are pairwise disjoint (" +
                std::to_string(slots) +
                " slot(s) on this rank, one owner peer each) — the "
                "re-derived conflict graph is empty, one color class, and "
                "concurrent arrival waves cannot share an output slot "
                "(statically, what the TSan job certifies dynamically)",
            "");
      } else {
        // Cannot happen for schedules of one epoch (each ghost slot has
        // one owning rank); seeing it means the step mixes epochs.
        // Warning, not error: recv blocks are per-rank observations.
        add("race-certification", Severity::kWarning, &s, nullptr,
            "chunk_writes_disjoint() is falsified on this rank: slot " +
                std::to_string(clash_slot) +
                " is delivered by peers " + std::to_string(clash_a) +
                " and " + std::to_string(clash_b) +
                " across the step's write schedules — two chunks write "
                "one element",
            "the step likely mixes schedules from different epochs; "
            "retarget them onto one epoch");
      }
    } else {
      add("race-certification", Severity::kNote, &s, nullptr,
          "chunk_writes_disjoint() ASSUMED: the chunks' writes are not "
          "visible to the declarations (" +
              std::string(s.chunk_count_ > 0 ? "fixed-count chunks"
                                             : "local writes / non-keying "
                                               "schedules") +
              "), so the empty conflict graph rests on the claim alone",
          "the TSan CI job and the delivery-permutation fuzz are the "
          "certifiers for this step; keep them covering it");
    }
  }
}

// ---- rule: stale-binding ----------------------------------------------
//
// The lifetime analysis behind check_bindings, run without arming, through
// the same predicate (Step::staleness):
//   - a guarded binding whose revision probe already disagrees with the
//     bound snapshot (Array retargeted after binding) — error now;
//   - a schedule handle the registry has invalidated — error now;
//   - with an autonomic balance policy installed, every rebalance can
//     retarget the graph underneath its bindings; raw-container bindings
//     carry no revision probe, so a binding left behind would go stale
//     UNDETECTABLY — note, pointing at chaos::Array (or .named() plus
//     manual rebinding discipline).
void Analyzer::Pass::stale_binding() {
  const bool autonomic = rt_.balance_policy() != nullptr;
  for (const Step& s : steps_) {
    for (const auto* list : {&s.gathers_, &s.writes_, &s.locals_}) {
      for (const Access& a : *list) {
        const Step::Staleness stale = Step::staleness(rt_, a);
        if (stale.retargeted) {
          add("stale-binding", Severity::kError, &s, a.decl.array,
              "bound " + aname(a.decl.array) +
                  " was retargeted onto another epoch after the binding — "
                  "driving the graph now would read/write through a stale "
                  "snapshot",
              "retarget() the graph onto the new epoch's schedules (arrays "
              "first, then the graph)");
        }
        if (stale.invalid_schedule) {
          add("stale-binding", Severity::kError, &s, a.decl.array,
              "schedule s" + std::to_string(a.via.id) +
                  " bound for " + aname(a.decl.array) +
                  " is no longer valid (retired epoch or stale derivation)",
              "call retarget() after a repartition/re-derivation");
        }
        if (lang::rides_schedule(a.decl.kind) && !a.revision && autonomic) {
          add("stale-binding", Severity::kNote, &s, a.decl.array,
              "raw-container binding " + aname(a.decl.array) +
                  " carries no retarget-revision guard while an autonomic "
                  "balance policy is installed — a balance_step rebalance "
                  "that remaps this container cannot be detected if the "
                  "binding goes stale",
              "bind a chaos::Array (guarded automatically), or keep the "
              "balance binding's remap hooks covering this container");
        }
      }
    }
  }
}

std::vector<Diagnostic> Analyzer::analyze(StepGraph& graph) {
  graph.resolve_for_analysis();
  Pass pass(graph);
  pass.read_before_gather();
  pass.dead_scatter();
  pass.redundant_gather();
  pass.race_certification();
  pass.stale_binding();
  return std::move(pass.out);
}

}  // namespace chaos::verify

namespace chaos {

std::vector<verify::Diagnostic> Runtime::verify(StepGraph& graph) {
  return verify::Analyzer().analyze(graph);
}

}  // namespace chaos
