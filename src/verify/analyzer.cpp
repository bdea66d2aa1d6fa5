#include "verify/analyzer.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "runtime/runtime.hpp"
#include "runtime/step_graph.hpp"

namespace chaos::verify {

namespace {

// The analyzer works over a plain-data snapshot of the declared graph:
// one pass of Step introspection up front, then every rule is pure
// set/interval logic over the snapshot (plus registry lookups through the
// Runtime for schedule shapes and validity).

struct Access {
  lang::AccessDecl decl;
  ScheduleHandle via{};
  std::string name;  ///< registered array name ("" for raw containers)
  bool zeroes = false;
  bool guarded = false;
  bool stale = false;
};

struct StepSnap {
  std::string name;
  std::size_t idx = 0;
  std::vector<Access> gathers;  ///< pre-compute communication
  std::vector<Access> writes;   ///< post-compute communication
  std::vector<Access> locals;   ///< use/update
  bool chunked = false;
  std::size_t fixed_chunks = 0;  ///< 0 = keyed by gather recv blocks
  bool claims_disjoint = false;
};

struct GraphSnap {
  std::vector<StepSnap> steps;
  bool arrival_driven = false;
  /// Best-known name per container address, pooled across every step
  /// (a raw vector named in one binding is recognized everywhere).
  std::map<const void*, std::string> names;

  std::string name_of(const void* array) const {
    auto it = names.find(array);
    return it == names.end() ? std::string{} : it->second;
  }
};

Access snap_access(const Step::AccessInfo& info) {
  Access a;
  a.decl = info.decl;
  a.via = info.via;
  a.name = std::string(info.name);
  a.zeroes = info.zeroes_ghosts;
  a.guarded = info.guarded;
  a.stale = info.stale;
  return a;
}

GraphSnap snapshot(StepGraph& g) {
  g.resolve_for_analysis();
  GraphSnap snap;
  snap.arrival_driven = g.arrival_driven();
  for (std::size_t i = 0; i < g.size(); ++i) {
    const Step& s = g.at(i);
    StepSnap ss;
    ss.name = s.name();
    ss.idx = i;
    for (const Step::AccessInfo& info : s.declared_gathers())
      ss.gathers.push_back(snap_access(info));
    for (const Step::AccessInfo& info : s.declared_writes())
      ss.writes.push_back(snap_access(info));
    for (const Step::AccessInfo& info : s.declared_locals())
      ss.locals.push_back(snap_access(info));
    ss.chunked = s.chunked();
    ss.fixed_chunks = s.fixed_chunk_count();
    ss.claims_disjoint = s.claims_chunk_writes_disjoint();
    for (const auto* list : {&ss.gathers, &ss.writes, &ss.locals})
      for (const Access& a : *list)
        if (!a.name.empty()) snap.names.emplace(a.decl.array, a.name);
    snap.steps.push_back(std::move(ss));
  }
  return snap;
}

Diagnostic make(std::string rule, Severity sev, const GraphSnap& g,
                const StepSnap* step, const void* array, std::string message,
                std::string hint) {
  Diagnostic d;
  d.rule = std::move(rule);
  d.severity = sev;
  if (step) d.step = step->name;
  if (array) d.array = g.name_of(array);
  d.message = std::move(message);
  d.hint = std::move(hint);
  return d;
}

/// "'pos'" / "<unnamed @0x...>" for message bodies.
std::string aname(const GraphSnap& g, const void* array) {
  return array_subject(g.name_of(array), array);
}

// ---- rule: read-before-gather ----------------------------------------
//
// Whole-graph RAW dataflow at array granularity. For every gathered array
// find its first gathering step; any earlier step declaring a local read
// of that array consumes ghost slots nothing has delivered yet. The
// cross-iteration wraparound makes this wrong in BOTH regimes: on
// iteration 1 the ghost region is value-initialized (never gathered), and
// on iteration k>1 the reader sees iteration k-1's gather — one iteration
// stale, silently, because the hoisting machinery (try_arm wraps into the
// next iteration) is happy to arm the gather after the reader ran.
void rule_read_before_gather(const GraphSnap& g,
                             std::vector<Diagnostic>& out) {
  std::map<const void*, std::size_t> first_gather;
  for (const StepSnap& s : g.steps)
    for (const Access& a : s.gathers) {
      auto [it, inserted] = first_gather.emplace(a.decl.array, s.idx);
      if (!inserted) it->second = std::min(it->second, s.idx);
    }
  for (const StepSnap& s : g.steps) {
    for (const Access& l : s.locals) {
      if (l.decl.kind != lang::AccessKind::kLocalRead) continue;
      auto it = first_gather.find(l.decl.array);
      if (it == first_gather.end() || s.idx >= it->second) continue;
      const StepSnap& gstep = g.steps[it->second];
      out.push_back(make(
          "read-before-gather", Severity::kError, g, &s, l.decl.array,
          "reads " + aname(g, l.decl.array) +
              " before its first gather (step '" + gstep.name +
              "', position " + std::to_string(gstep.idx) +
              "): iteration 1 consumes value-initialized ghost slots, and "
              "every later iteration reads ghosts one iteration stale — "
              "the cross-iteration gather hoist arms AFTER this step ran",
          "declare this step after the gathering step, or gather " +
              aname(g, l.decl.array) + " in or before it"));
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
void rule_dead_scatter(const GraphSnap& g, std::vector<Diagnostic>& out) {
  const auto consumed = [&](const void* array) {
    for (const StepSnap& s : g.steps) {
      for (const Access& a : s.gathers)
        if (a.decl.array == array) return true;
      for (const Access& l : s.locals)
        if (l.decl.kind == lang::AccessKind::kLocalRead &&
            l.decl.array == array)
          return true;
      for (const Access& w : s.writes)
        if (w.decl.kind == lang::AccessKind::kMigrate &&
            w.decl.array == array)
          return true;  // migrated items are read and shipped
    }
    return false;
  };
  for (const StepSnap& s : g.steps) {
    for (const Access& w : s.writes) {
      if (w.decl.kind != lang::AccessKind::kScatter &&
          w.decl.kind != lang::AccessKind::kScatterAdd)
        continue;
      if (consumed(w.decl.array)) continue;
      out.push_back(make(
          "dead-scatter", Severity::kWarning, g, &s, w.decl.array,
          std::string(lang::to_string(w.decl.kind)) + "(" +
              aname(g, w.decl.array) +
              ") is written but no step gathers or reads it — the owners "
              "receive values the declared dataflow never consumes",
          "drop the write, or declare the consumer (use(...) in a later "
          "step) so the dependence is visible to the hazard analysis"));
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
void rule_redundant_gather(Runtime& rt, const GraphSnap& g,
                           std::vector<Diagnostic>& out) {
  struct Occurrence {
    std::size_t step;
    ScheduleHandle via;
  };
  std::map<const void*, std::vector<Occurrence>> gathers;
  for (const StepSnap& s : g.steps)
    for (const Access& a : s.gathers)
      gathers[a.decl.array].push_back({s.idx, a.via});

  const auto written_between = [&](const void* array, std::size_t lo,
                                   std::size_t hi) {
    // Writes that land between gather lo's post and gather hi's post:
    // steps [lo, hi) — step lo's compute and post-compute writes run
    // after its own gather, step hi's run after gather hi.
    for (std::size_t i = lo; i < hi; ++i) {
      const StepSnap& s = g.steps[i];
      for (const Access& l : s.locals)
        if (lang::is_owner_write(l.decl.kind) && l.decl.touches(array))
          return true;
      for (const Access& w : s.writes)
        if (lang::is_owner_write(w.decl.kind) && w.decl.touches(array))
          return true;
    }
    return false;
  };
  const auto written_anywhere = [&](const void* array) {
    for (const StepSnap& s : g.steps) {
      for (const Access& l : s.locals)
        if (lang::is_owner_write(l.decl.kind) && l.decl.touches(array))
          return true;
      for (const Access& w : s.writes)
        if (lang::is_owner_write(w.decl.kind) && w.decl.touches(array))
          return true;
    }
    return false;
  };
  const auto recv_slots = [&](ScheduleHandle h) {
    std::set<GlobalIndex> slots;
    for (const core::ScheduleBlock& b : rt.schedule(h).recv_blocks())
      slots.insert(b.indices.begin(), b.indices.end());
    return slots;
  };

  for (const auto& [array, occ] : gathers) {
    for (std::size_t k = 0; k + 1 < occ.size(); ++k) {
      const Occurrence& g1 = occ[k];
      const Occurrence& g2 = occ[k + 1];
      if (written_between(array, g1.step, g2.step)) continue;
      const StepSnap& s2 = g.steps[g2.step];
      if (g1.via == g2.via) {
        out.push_back(make(
            "redundant-gather", Severity::kWarning, g, &s2, array,
            "gathers " + aname(g, array) + " through schedule s" +
                std::to_string(g2.via.id) + " already gathered by step '" +
                g.steps[g1.step].name +
                "' with no interleaving write — the second delivery is "
                "identical (a gather packs owned values at post time)",
            "drop this gather; the hoisting machinery already delivers "
            "the ghosts before this step"));
      } else if (rt.valid(g1.via) && rt.valid(g2.via)) {
        const std::set<GlobalIndex> a = recv_slots(g1.via);
        const std::set<GlobalIndex> b = recv_slots(g2.via);
        std::size_t overlap = 0;
        for (GlobalIndex i : b) overlap += a.count(i);
        if (overlap > 0) {
          out.push_back(make(
              "redundant-gather", Severity::kNote, g, &s2, array,
              "gathers " + aname(g, array) + " through schedule s" +
                  std::to_string(g2.via.id) + " while step '" +
                  g.steps[g1.step].name + "' gathers it through s" +
                  std::to_string(g1.via.id) + " — " +
                  std::to_string(overlap) +
                  " ghost slot(s) on this rank are fetched twice with no "
                  "interleaving write",
              "consider one merged schedule (rt.merge) so shared ghosts "
              "ride the wire once"));
        }
      }
    }
    if (!written_anywhere(array)) {
      const StepSnap& s1 = g.steps[occ.front().step];
      out.push_back(make(
          "redundant-gather", Severity::kNote, g, &s1, array,
          "gathers " + aname(g, array) +
              " every iteration, but no step in the graph ever writes it "
              "— successive advances deliver identical ghost values",
          "if the array is constant across advances, gather it once "
          "imperatively (rt.gather) outside the iteration loop; if it is "
          "mutated imperatively between advances, ignore this"));
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
void rule_race_certification(Runtime& rt, const GraphSnap& g,
                             std::vector<Diagnostic>& out) {
  if (!g.arrival_driven) return;  // the claim only licenses arrival waves
  const int me = rt.comm().rank();
  for (const StepSnap& s : g.steps) {
    if (!s.chunked || !s.claims_disjoint) continue;

    const bool gather_keyed = s.fixed_chunks == 0 && !s.gathers.empty();
    bool has_scatter_add = false;
    for (const Access& w : s.writes)
      if (w.decl.kind == lang::AccessKind::kScatterAdd)
        has_scatter_add = true;

    if (gather_keyed && has_scatter_add) {
      const Access* w = nullptr;
      for (const Access& a : s.writes)
        if (a.decl.kind == lang::AccessKind::kScatterAdd) w = &a;
      out.push_back(make(
          "race-certification", Severity::kError, g, &s, w->decl.array,
          "chunk_writes_disjoint() is refuted by the declared access "
          "sets: the chunks are keyed by per-peer gather partitions and "
          "sum(" +
              aname(g, w->decl.array) +
              ") accumulates into owned slots that any two partitions "
              "referencing one element share — the conflict graph is NOT "
              "empty, and a concurrent wave would race on the "
              "accumulator",
          "drop chunk_writes_disjoint() (conflicted chunks fire one at a "
          "time in canonical order, bitwise identical to the serial "
          "arm), or restructure the reduction so each chunk owns "
          "disjoint slots"));
      continue;
    }

    bool provable = gather_keyed;
    if (provable) {
      std::set<std::uint32_t> keying;
      for (const Access& a : s.gathers) keying.insert(a.via.id);
      for (const Access& w : s.writes)
        if (w.decl.kind != lang::AccessKind::kScatter ||
            !keying.count(w.via.id) || !rt.valid(w.via))
          provable = false;
      for (const Access& l : s.locals)
        if (l.decl.kind == lang::AccessKind::kLocalWrite) provable = false;
      if (s.writes.empty()) provable = false;  // nothing to confine
    }

    if (provable) {
      // The set math: across every write schedule, no ghost slot may be
      // delivered by two different peers — otherwise two chunks write it.
      std::map<GlobalIndex, int> slot_peer;
      bool disjoint = true;
      std::size_t slots = 0;
      GlobalIndex clash_slot = 0;
      int clash_a = 0, clash_b = 0;
      for (const Access& w : s.writes) {
        for (const core::ScheduleBlock& b :
             rt.schedule(w.via).recv_blocks()) {
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
        out.push_back(make(
            "race-certification", Severity::kNote, g, &s, nullptr,
            "chunk_writes_disjoint() PROVEN: every write is a plain "
            "scatter riding a chunk-keying schedule, and its per-peer "
            "recv partitions are pairwise disjoint (" +
                std::to_string(slots) +
                " slot(s) on this rank, one owner peer each) — the "
                "re-derived conflict graph is empty, one color class, and "
                "concurrent arrival waves cannot share an output slot "
                "(statically, what the TSan job certifies dynamically)",
            ""));
      } else {
        // Cannot happen for schedules of one epoch (each ghost slot has
        // one owning rank); seeing it means the step mixes epochs.
        // Warning, not error: recv blocks are per-rank observations.
        out.push_back(make(
            "race-certification", Severity::kWarning, g, &s, nullptr,
            "chunk_writes_disjoint() is falsified on this rank: slot " +
                std::to_string(clash_slot) +
                " is delivered by peers " + std::to_string(clash_a) +
                " and " + std::to_string(clash_b) +
                " across the step's write schedules — two chunks write "
                "one element",
            "the step likely mixes schedules from different epochs; "
            "retarget them onto one epoch"));
      }
    } else {
      out.push_back(make(
          "race-certification", Severity::kNote, g, &s, nullptr,
          "chunk_writes_disjoint() ASSUMED: the chunks' writes are not "
          "visible to the declarations (" +
              std::string(s.fixed_chunks > 0 ? "fixed-count chunks"
                                             : "local writes / non-keying "
                                               "schedules") +
              "), so the empty conflict graph rests on the claim alone",
          "the TSan CI job and the delivery-permutation fuzz are the "
          "certifiers for this step; keep them covering it"));
    }
  }
}

// ---- rule: stale-binding ----------------------------------------------
//
// The lifetime analysis behind check_bindings, run without arming:
//   - a guarded binding whose revision probe already disagrees with the
//     bound snapshot (Array retargeted after binding) — error now;
//   - a schedule handle the registry has invalidated — error now;
//   - with an autonomic balance policy installed, every rebalance can
//     retarget the graph underneath its bindings; raw-container bindings
//     carry no revision probe, so a binding left behind would go stale
//     UNDETECTABLY — note, pointing at chaos::Array (or .named() plus
//     manual rebinding discipline).
void rule_stale_binding(Runtime& rt, const GraphSnap& g,
                        std::vector<Diagnostic>& out) {
  const bool autonomic = rt.balance_policy() != nullptr;
  for (const StepSnap& s : g.steps) {
    const auto check = [&](const Access& a, bool comm) {
      if (a.guarded && a.stale) {
        out.push_back(make(
            "stale-binding", Severity::kError, g, &s, a.decl.array,
            "bound " + aname(g, a.decl.array) +
                " was retargeted onto another epoch after the binding — "
                "driving the graph now would read/write through a stale "
                "snapshot",
            "retarget() the graph onto the new epoch's schedules (arrays "
            "first, then the graph)"));
      }
      if (comm && a.decl.kind != lang::AccessKind::kMigrate &&
          !rt.valid(a.via)) {
        out.push_back(make(
            "stale-binding", Severity::kError, g, &s, a.decl.array,
            "schedule s" + std::to_string(a.via.id) +
                " bound for " + aname(g, a.decl.array) +
                " is no longer valid (retired epoch or stale derivation)",
            "call retarget() after a repartition/re-derivation"));
      }
      if (comm && a.decl.kind != lang::AccessKind::kMigrate &&
          !a.guarded && autonomic) {
        out.push_back(make(
            "stale-binding", Severity::kNote, g, &s, a.decl.array,
            "raw-container binding " + aname(g, a.decl.array) +
                " carries no retarget-revision guard while an autonomic "
                "balance policy is installed — a balance_step rebalance "
                "that remaps this container cannot be detected if the "
                "binding goes stale",
            "bind a chaos::Array (guarded automatically), or keep the "
            "balance binding's remap hooks covering this container"));
      }
    };
    for (const Access& a : s.gathers) check(a, /*comm=*/true);
    for (const Access& a : s.writes) check(a, /*comm=*/true);
    for (const Access& a : s.locals) check(a, /*comm=*/false);
  }
}

}  // namespace

std::vector<Diagnostic> Analyzer::analyze(StepGraph& graph) {
  Runtime& rt = graph.runtime();
  const GraphSnap snap = snapshot(graph);
  std::vector<Diagnostic> out;
  rule_read_before_gather(snap, out);
  rule_dead_scatter(snap, out);
  rule_redundant_gather(rt, snap, out);
  rule_race_certification(rt, snap, out);
  rule_stale_binding(rt, snap, out);
  return out;
}

}  // namespace chaos::verify

namespace chaos {

std::vector<verify::Diagnostic> Runtime::verify(StepGraph& graph) {
  return verify::Analyzer().analyze(graph);
}

}  // namespace chaos
