// Table 9 (beyond the paper) — schedule compilation: segment copies
// instead of indexed loops.
//
// The paper's executor walks every schedule element-at-a-time. This bench
// measures what lowering each schedule into a compile::SchedulePlan
// (memcpy for contiguous runs, strided block copies, index lists for the
// residue) buys across four reference-pattern families spanning the
// regularity spectrum (bench/patterns.hpp), in three arms per pattern:
//
//   interpreted   the schedule's verbatim plan (its index lists as
//                 written, at the element-loop charge) — the reference arm
//   compiled      the default executor path (compile on first execute)
//   + remap       rt.remap_ghost_locality() first, creating recv-side runs
//                 the reference pattern did not leave by accident
//
// Every arm is proven bitwise identical to the interpreted arm on all
// three directions (gather / scatter / scatter_add) before it is timed.
// A repartition phase then moves the reserved probe elements: the main
// loop's compiled plan is carried across the epoch (send side verbatim,
// recv side re-lowered) while the probe loop's schedule is rebuilt and its
// plan recompiled on next use — the registry counters prove both paths ran.
//
// Cost regime: unlike tables 1-8 this runs on a modern-node calibration
// (~1 GB/s links, microsecond overheads) rather than the iPSC/860. On the
// 1994 machine the wire dominated per-event time 10:1 and no pack
// optimization could show; on today's ratios the per-element CPU work this
// pass removes IS the bottleneck — which is why schedule compilation pays
// now and did not then. One event = gather + scatter_add, the CHARMM force
// cycle's communication shape.
#include <cstring>
#include <iostream>

#include "bench_common.hpp"
#include "patterns.hpp"
#include "runtime/runtime.hpp"

namespace {

using namespace chaos;
using namespace chaos::bench;

sim::CostParams modern_node() {
  sim::CostParams p;
  p.send_overhead = 1e-6;
  p.recv_overhead = 1e-6;
  p.latency = 5e-6;
  p.byte_time = 1e-9;  // ~1 GB/s
  return p;
}

struct PatternResult {
  double runs_per_element = 0;  ///< run coverage of the compiled plans
  double interp_ms = 0;         ///< ms per event, interpreted
  double compiled_ms = 0;       ///< ms per event, compiled
  double remap_ms = 0;          ///< ms per event, compiled after remap
  double bytes_mb = 0;          ///< payload moved over the whole run
  bool identical = true;        ///< compiled == interpreted, bitwise
  runtime::ScheduleRegistry::Stats epoch1;  ///< pre-repartition epoch
  runtime::ScheduleRegistry::Stats epoch2;  ///< successor epoch
};

PatternResult run_pattern(Pattern pat, bool quick) {
  const int P = quick ? 4 : 8;
  const GlobalIndex n = quick ? 4096 : 32768;
  const std::size_t m = quick ? 2048 : 12288;
  const int events = quick ? 8 : 40;

  PatternResult res;
  sim::Machine machine(P, modern_node());
  machine.run([&](sim::Comm& comm) {
    Runtime rt(comm);
    const DistHandle d = rt.block(n);

    const std::vector<GlobalIndex> refs =
        pattern_refs(pat, comm.rank(), comm.size(), n, m, 20260808);
    std::vector<GlobalIndex> probe_refs;
    for (GlobalIndex g = n - kReservedTop; g < n; ++g) probe_refs.push_back(g);
    lang::IndirectionArray ind(refs), probe(probe_refs);
    const ScheduleHandle h = rt.inspect(d, ind);
    const ScheduleHandle hp = rt.inspect(d, probe);

    const auto extent = static_cast<std::size_t>(rt.local_extent(d));
    const auto owned = static_cast<std::size_t>(rt.owned_count(d));
    std::vector<double> base(extent);
    for (std::size_t i = 0; i < extent; ++i)
      base[i] = 0.25 * static_cast<double>(i + 1) +
                3.0 * static_cast<double>(comm.rank());

    // The interpreted arm: the same executor call posted through a
    // verbatim plan of the loop's current schedule.
    auto interp = [&](int dir, std::vector<double>& a) {
      const core::Schedule& sched = rt.schedule(h);
      const compile::SchedulePlan plan = compile::SchedulePlan::verbatim(sched);
      comm::Engine& eng = rt.engine();
      const std::span<double> s{a};
      eng.wait(dir == 0   ? eng.post_gather<double>(sched, s, plan)
               : dir == 1 ? eng.post_scatter<double>(sched, s, plan)
                          : eng.post_scatter_add<double>(sched, s, plan));
    };

    // Bitwise identity of the compiled path, all three directions. Ghost
    // slots are seeded with rank-distinct values so scatter/scatter_add
    // move data the interpreted arm must reproduce exactly.
    auto verify = [&]() {
      bool same = true;
      for (int dir = 0; dir < 3; ++dir) {
        std::vector<double> a = base, b = base;
        for (std::size_t i = owned; i < extent; ++i)
          a[i] = b[i] = -1.5 * static_cast<double>(i) - comm.rank();
        interp(dir, a);
        if (dir == 0) rt.gather<double>(h, b);
        if (dir == 1) rt.scatter<double>(h, b);
        if (dir == 2) rt.scatter_add<double>(h, b);
        same = same && std::memcmp(a.data(), b.data(),
                                   extent * sizeof(double)) == 0;
      }
      return comm.allreduce_min(same ? 1 : 0) == 1;
    };

    // One timed event = gather + scatter_add (the force-cycle shape).
    auto time_events = [&](std::vector<double>& arr, bool interpreted) {
      const double t0 = comm.now();
      for (int e = 0; e < events; ++e) {
        if (interpreted) {
          interp(0, arr);
          interp(2, arr);
          continue;
        }
        rt.gather<double>(h, std::span<double>{arr});
        rt.scatter_add<double>(h, std::span<double>{arr});
      }
      return comm.allreduce_max((comm.now() - t0) * 1000.0 /
                                static_cast<double>(events));
    };

    bool ok = verify();
    std::vector<double> work = base;
    const double interp_ms = time_events(work, true);
    work = base;
    rt.gather<double>(h, std::span<double>{work});  // compile off the clock
    const double compiled_ms = time_events(work, false);

    // Locality remap: renumber the ghost region so recv blocks become wire
    // order, then re-verify identity on the rewritten schedule and re-time.
    rt.remap_ghost_locality(d);
    ok = ok && verify();
    work = base;
    rt.gather<double>(h, std::span<double>{work});
    const double remap_ms = time_events(work, false);

    // Compile the probe loop's plan too (executing it once), so the
    // repartition below has a compiled plan to invalidate and recompile.
    work = base;
    rt.gather<double>(hp, std::span<double>{work});

    const runtime::ScheduleRegistry::Stats s1 = rt.registry_stats(d);

    // Repartition: rotate only the reserved probe elements (the globally-
    // highest band) to new owners. Every other element keeps its owner AND
    // its local offset, so the pattern loop is home-stable machine-wide —
    // its schedule is patched and its compiled plan carried; the probe
    // loop's schedule is rebuilt and its plan recompiled on the execute
    // below.
    std::vector<int> map2(rt.dist(d).map().begin(), rt.dist(d).map().end());
    for (GlobalIndex g = n - kReservedTop; g < n; ++g)
      map2[static_cast<std::size_t>(g)] =
          (map2[static_cast<std::size_t>(g)] + 1) % comm.size();
    const DistHandle d2 = rt.repartition(d, map2);
    const ScheduleHandle h2 = rt.inspect(d2, ind);
    const ScheduleHandle hp2 = rt.inspect(d2, probe);
    std::vector<double> work2(static_cast<std::size_t>(rt.local_extent(d2)),
                              1.0);
    rt.gather<double>(h2, std::span<double>{work2});
    rt.gather<double>(hp2, std::span<double>{work2});

    if (comm.rank() == 0) {
      const runtime::ScheduleRegistry::Stats s2 = rt.registry_stats(d2);
      res.identical = ok;
      res.interp_ms = interp_ms;
      res.compiled_ms = compiled_ms;
      res.remap_ms = remap_ms;
      res.epoch1 = s1;
      res.epoch2 = s2;
      const double total = static_cast<double>(
          s1.run_elements + s1.residue_elements);
      res.runs_per_element =
          total > 0 ? static_cast<double>(s1.run_elements) / total : 0;
    }
  });

  std::uint64_t bytes = 0;
  for (int r = 0; r < P; ++r) bytes += machine.stats(r).bytes_sent;
  res.bytes_mb = static_cast<double>(bytes) / (1024.0 * 1024.0);
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace chaos;
  using namespace chaos::bench;
  const Options opt = Options::parse(argc, argv);

  std::vector<Pattern> patterns;
  if (opt.pattern) {
    patterns.push_back(*opt.pattern);
  } else {
    patterns = {Pattern::kSorted, Pattern::kBanded, Pattern::kRandom,
                Pattern::kHypergraph};
  }

  Table table("Table 9: compiled schedule execution (modern-node calibration)");
  std::vector<std::string> header{"pattern",     "runs/elem", "bytes MB",
                                  "interp ms",   "compiled ms", "remap ms",
                                  "speedup",     "remap speedup", "identical"};
  table.header(header);

  bool all_identical = true;
  std::uint64_t compiled_plans = 0, runs_detected = 0, residue_elements = 0,
                carried = 0, recompiles = 0;
  for (Pattern pat : patterns) {
    std::cerr << "table9: running pattern " << pattern_name(pat) << "...\n";
    const PatternResult r = run_pattern(pat, opt.quick);
    all_identical = all_identical && r.identical;
    compiled_plans += r.epoch1.compiled_plans + r.epoch2.compiled_plans;
    runs_detected += r.epoch1.runs_detected + r.epoch2.runs_detected;
    residue_elements +=
        r.epoch1.residue_elements + r.epoch2.residue_elements;
    carried += r.epoch2.carried_compiled_plans;
    recompiles += r.epoch2.recompiles_after_repartition;
    table.row({pattern_name(pat), Table::num(r.runs_per_element),
               Table::num(r.bytes_mb), Table::num(r.interp_ms, 3),
               Table::num(r.compiled_ms, 3), Table::num(r.remap_ms, 3),
               Table::num(r.interp_ms / r.compiled_ms),
               Table::num(r.interp_ms / r.remap_ms),
               r.identical ? "yes" : "NO"});
  }
  table.print();

  std::cout << "\ncompile counters summed over patterns and epochs:\n"
            << "  compiled_plans               " << compiled_plans << "\n"
            << "  runs_detected                " << runs_detected << "\n"
            << "  residue_elements             " << residue_elements << "\n"
            << "  carried_compiled_plans       " << carried << "\n"
            << "  recompiles_after_repartition " << recompiles << "\n";

  if (!all_identical) {
    std::cout << "FAIL: compiled execution diverged from interpreted\n";
    return 1;
  }
  if (opt.quick) {
    // Smoke contract: the compiled machinery must actually have run.
    if (compiled_plans == 0 || runs_detected == 0 || residue_elements == 0 ||
        carried == 0 || recompiles == 0) {
      std::cout << "FAIL: compile counters unexpectedly zero\n";
      return 1;
    }
    std::cout << "quick smoke: compile counters all non-zero\n";
  }
  return 0;
}
