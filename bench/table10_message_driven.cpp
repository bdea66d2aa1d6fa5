// Table 10 (beyond the paper) — message-driven step execution.
//
// A synthetic halo cycle with injected per-rank compute skew: every
// iteration one rank (rotating: iter % P) pays `--skew` times the local
// compute, so its gather replies leave late and everyone else's halo step
// would stall waiting for that one peer. Three arms of the same declared
// step graph:
//   (a) eager     post/flush/wait at every step (the bitwise oracle),
//   (b) static    cross-step pipelining, whole-batch gather waits,
//   (c) arrival   partition-granular: the halo compute is chunked by the
//                 gather schedule's recv peers; the rank receives its
//                 gather messages in modeled-arrival order and fires every
//                 chunk whose peer has landed by its clock as one wave.
//                 The chunks write disjoint slots (one conflict class —
//                 provably order-independent, so the results stay bitwise
//                 identical to (a)).
// Reported: modeled ms per iteration per arm, the stall reduction, and
// the arrival counters (chunks fired early, clock advances to the next
// arrival, conflict classes). Firing depends on the modeled clock alone,
// so stdout is byte-identical run to run; host-time pool busy-time is in
// the --json records only.
//
// The harness exits nonzero unless (gate a) the arrival arm is bitwise
// identical to the eager arm, (gate b) chunks actually fired while their
// gather batch was still outstanding, and (gate c) the arrival arm beats
// static pipelining on the skewed configuration. A second table runs the
// CHARMM and DSMC drivers with their arrival executor shapes: DSMC's
// disjoint-write chunks must stay bitwise identical to its serial step
// graph; CHARMM's conflicted non-bonded chunks fire in canonical order,
// and because the chunked sum runs in a different order than kStepGraph's
// unchunked loop, its forces are checked against kStepGraph to a relative
// bound.
#include <cmath>
#include <cstdint>
#include <iostream>
#include <vector>

#include "apps/charmm/parallel.hpp"
#include "apps/dsmc/parallel.hpp"
#include "bench_common.hpp"
#include "lang/array.hpp"
#include "runtime/runtime.hpp"
#include "runtime/step_graph.hpp"
#include "sim/machine.hpp"

namespace {

using namespace chaos;
using namespace chaos::bench;
using core::GlobalIndex;

enum class Arm { kEager, kStatic, kArrival };

const char* arm_name(Arm a) {
  switch (a) {
    case Arm::kEager: return "eager";
    case Arm::kStatic: return "static";
    case Arm::kArrival: return "arrival";
  }
  return "?";
}

struct ArmResult {
  std::vector<double> x;  ///< final owned values in global-id order
  double execution = 0;
  double comm = 0;
  std::uint64_t chunks_fired_early = 0;
  std::uint64_t arrival_wakeups = 0;
  std::uint64_t color_classes = 0;
  std::uint64_t pool_busy_ns = 0;
};

struct Workload {
  int ranks = 8;
  GlobalIndex n = 512;
  int iters = 30;
  int ghosts_per_peer = 8;   ///< refs into each other rank's slice
  double local_work = 2000;  ///< per-rank local-step work units
  double halo_work = 100;    ///< per-element halo compute work units
  double skew = 4.0;         ///< slow rank's local-step multiplier
};

/// One run of the skewed halo cycle under the given arm.
ArmResult run_arm(const Workload& w, Arm arm) {
  ArmResult out;
  sim::Machine m(w.ranks);
  m.run([&](sim::Comm& c) {
    Runtime rt(c);
    const DistHandle d = rt.block(w.n);
    const std::vector<GlobalIndex> globals = rt.owned_globals(d);
    const GlobalIndex nper = w.n / w.ranks;

    // Halo references: a few elements of every other rank's slice, so the
    // gather has one recv block per peer and the chunked halo step splits
    // P ways.
    std::vector<GlobalIndex> refs;
    for (int p = 0; p < w.ranks; ++p) {
      if (p == c.rank()) continue;
      for (int k = 0; k < w.ghosts_per_peer; ++k)
        refs.push_back(static_cast<GlobalIndex>(p) * nper +
                       (static_cast<GlobalIndex>(7 * k + c.rank()) % nper));
    }
    lang::IndirectionArray ind(refs);
    const LoopHandle loop = rt.bind(d, ind);
    const ScheduleHandle h = rt.inspect(loop);
    const std::span<const GlobalIndex> lrefs = rt.local_refs(loop);

    const auto extent = static_cast<std::size_t>(rt.local_extent(d));
    std::vector<double> x(extent, 0.0), y(extent, 0.0);
    for (std::size_t i = 0; i < globals.size(); ++i)
      x[i] = 1.0 + 0.25 * static_cast<double>(globals[i]);

    // Ghost slot -> owning peer, to key each localized ref to its chunk.
    std::vector<int> slot_peer(extent, -1);
    const int me = c.rank();
    for (const core::ScheduleBlock& b : rt.schedule(h).recv_blocks()) {
      if (b.proc == me) continue;
      for (GlobalIndex idx : b.indices)
        slot_peer[static_cast<std::size_t>(idx)] = b.proc;
    }

    int iter = 0;
    StepGraph g(rt);
    g.set_pipelining(arm != Arm::kEager);
    if (arm == Arm::kArrival) g.set_arrival_driven(true);

    // Local step: advance owned x from last iteration's y; the rotating
    // slow rank pays `skew` times the work, so its halo replies (packed
    // from the freshly-written x at gather post) leave late.
    g.step("local")
        .bind(use(y), update(x))
        .compute([&] {
          for (std::size_t i = 0; i < globals.size(); ++i)
            x[i] = 0.5 * x[i] + 0.25 * y[i] + 0.125;
          const bool slow = c.rank() == iter % w.ranks;
          c.charge_work(w.local_work * (slow ? w.skew : 1.0));
          ++iter;
        });

    // Halo step: gather x ghosts, then one chunk per source peer (plus
    // the local chunk) writes its own slots of y — disjoint by
    // construction, so any chunk order is bitwise identical.
    Step& halo = g.step("halo").bind(in(x).via(h), update(y));
    const auto halo_slot = [&](std::size_t s) {
      y[s] = std::sqrt(x[s] * x[s] + 1.0) + 0.0625 * x[s];
    };
    halo.compute_chunks([&](ChunkContext& ctx) {
      const int peer = ctx.chunk().peer;
      double work = 0.0;
      if (peer < 0) {
        for (std::size_t i = 0; i < globals.size(); ++i) halo_slot(i);
        work = static_cast<double>(globals.size()) * w.halo_work;
      } else {
        for (GlobalIndex j : lrefs) {
          const auto s = static_cast<std::size_t>(j);
          if (slot_peer[s] == peer) {
            halo_slot(s);
            work += w.halo_work;
          }
        }
      }
      ctx.charge(work);
    });
    halo.chunk_writes_disjoint();

    rt.run(g, w.iters);

    // Collect owned x in global-id order (bitwise gate input).
    struct IdVal {
      GlobalIndex id;
      double v;
    };
    std::vector<IdVal> mine(globals.size());
    for (std::size_t i = 0; i < globals.size(); ++i)
      mine[i] = IdVal{globals[i], x[i]};
    std::vector<IdVal> all = c.allgatherv<IdVal>(mine);
    const StepGraph::Stats& gs = g.stats();
    const auto total = [&](std::uint64_t v) {
      return static_cast<std::uint64_t>(
          c.allreduce_sum(static_cast<long long>(v)));
    };
    const std::uint64_t fired = total(gs.chunks_fired_early);
    const std::uint64_t wake = total(gs.arrival_wakeups);
    const std::uint64_t colors = total(gs.color_classes);
    const std::uint64_t busy = total(gs.pool_busy_ns);
    if (c.rank() == 0) {
      out.x.assign(static_cast<std::size_t>(w.n), 0.0);
      for (const IdVal& iv : all) out.x[static_cast<std::size_t>(iv.id)] = iv.v;
      out.chunks_fired_early = fired;
      out.arrival_wakeups = wake;
      out.color_classes = colors;
      out.pool_busy_ns = busy;
    }
  });
  out.execution = m.execution_time();
  out.comm = m.mean_comm_time();
  return out;
}

bool bitwise_equal(const std::vector<double>& a,
                   const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i] != b[i]) return false;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = Options::parse(argc, argv);

  Workload w;
  w.skew = opt.skew;
  if (opt.quick) {
    w.ranks = 4;
    w.n = 128;
    w.iters = 10;
  }

  std::cerr << "table10: skewed halo cycle, P=" << w.ranks << " N=" << w.n
            << " iters=" << w.iters << " skew=" << w.skew << "\n";
  const ArmResult eager = run_arm(w, Arm::kEager);
  const ArmResult stat = run_arm(w, Arm::kStatic);
  const ArmResult arrival = run_arm(w, Arm::kArrival);

  const auto ms_per_iter = [&](const ArmResult& r) {
    return 1000.0 * r.execution / static_cast<double>(w.iters);
  };
  const double stall_reduction =
      stat.comm > 0 ? 100.0 * (stat.comm - arrival.comm) / stat.comm : 0.0;

  Table t("Table 10: Message-driven execution under rotating compute skew "
          "(modeled ms / iteration)");
  t.header({"Arm", "ms/iter", "Comm s", "Fired early", "Wakeups",
            "Colors"});
  for (const auto* r : {&eager, &stat, &arrival}) {
    const Arm a = r == &eager   ? Arm::kEager
                  : r == &stat ? Arm::kStatic
                               : Arm::kArrival;
    t.row({arm_name(a), Table::num(ms_per_iter(*r), 3),
           Table::num(r->comm, 3), std::to_string(r->chunks_fired_early),
           std::to_string(r->arrival_wakeups),
           std::to_string(r->color_classes)});
  }
  t.print();
  std::cout << "Stall reduction (arrival vs static comm time): "
            << Table::num(stall_reduction, 2) << "%\n";

  for (const auto* r : {&eager, &stat, &arrival}) {
    const Arm a = r == &eager   ? Arm::kEager
                  : r == &stat ? Arm::kStatic
                               : Arm::kArrival;
    emit_json(opt.json, "table10_message_driven", arm_name(a),
              ms_per_iter(*r),
              {{"execution_s", r->execution},
               {"comm_s", r->comm},
               {"chunks_fired_early",
                static_cast<double>(r->chunks_fired_early)},
               {"arrival_wakeups", static_cast<double>(r->arrival_wakeups)},
               {"color_classes", static_cast<double>(r->color_classes)},
               {"pool_busy_ns", static_cast<double>(r->pool_busy_ns)},
               {"skew", w.skew}});
  }

  // ---- application arms: DSMC (bitwise) and CHARMM (relative bound) ----
  const int app_ranks = opt.quick ? 4 : 8;

  dsmc::ParallelDsmcConfig dc;
  dc.params.n_particles = opt.quick ? 2000 : 8000;
  dc.steps = opt.quick ? 6 : 15;
  dc.collect_state = true;
  sim::Machine dm_serial(app_ranks), dm_arrival(app_ranks);
  dc.executor = dsmc::DsmcExecutor::kStepGraph;
  const dsmc::ParallelDsmcResult dr_serial = run_parallel_dsmc(dm_serial, dc);
  dc.executor = dsmc::DsmcExecutor::kStepGraphArrival;
  const dsmc::ParallelDsmcResult dr_arrival =
      run_parallel_dsmc(dm_arrival, dc);
  bool dsmc_bitwise = dr_serial.collisions == dr_arrival.collisions &&
                      dr_serial.particles.size() == dr_arrival.particles.size();
  if (dsmc_bitwise) {
    for (std::size_t i = 0; i < dr_serial.particles.size(); ++i) {
      const auto& a = dr_serial.particles[i];
      const auto& b = dr_arrival.particles[i];
      if (a.id != b.id || a.x != b.x || a.y != b.y || a.z != b.z ||
          a.vx != b.vx || a.vy != b.vy || a.vz != b.vz) {
        dsmc_bitwise = false;
        break;
      }
    }
  }

  charmm::ParallelCharmmConfig cc;
  cc.system = charmm::SystemParams::small(opt.quick ? 400 : 800);
  cc.run.steps = opt.quick ? 4 : 8;
  cc.collect_state = true;
  sim::Machine cm_graph(app_ranks), cm_arrival(app_ranks);
  cc.shape = charmm::CharmmShape::kStepGraph;
  const charmm::ParallelCharmmResult cr_graph =
      run_parallel_charmm(cm_graph, cc);
  cc.shape = charmm::CharmmShape::kStepGraphArrival;
  const charmm::ParallelCharmmResult cr_arrival =
      run_parallel_charmm(cm_arrival, cc);
  // The CHARMM arrival arm sums the non-bonded forces chunk by chunk
  // (local pairs, then each peer's, in canonical order) where kStepGraph
  // sums in pair-list order: check the deviation against a bound far
  // below any physical signal.
  double max_rel = 0.0;
  for (std::size_t i = 0; i < cr_graph.force.size(); ++i) {
    for (int a = 0; a < 3; ++a) {
      const double g = cr_graph.force[i][a];
      const double v = cr_arrival.force[i][a];
      const double mag = std::max(std::abs(g), std::abs(v));
      if (mag > 1e-9) max_rel = std::max(max_rel, std::abs(g - v) / mag);
    }
  }
  const bool charmm_within = max_rel < 1e-6;

  Table at("Application arrival arms");
  at.header({"App", "Serial exec s", "Arrival exec s", "Fired early",
             "Equivalence"});
  at.row({"DSMC", Table::num(dr_serial.execution_time, 2),
          Table::num(dr_arrival.execution_time, 2), "-",
          dsmc_bitwise ? "bitwise" : "MISMATCH"});
  at.row({"CHARMM", Table::num(cr_graph.execution_time, 2),
          Table::num(cr_arrival.execution_time, 2),
          std::to_string(cr_arrival.chunks_fired_early),
          charmm_within ? ("rel<=" + Table::num(max_rel, 10)) : "EXCEEDED"});
  at.print();

  emit_json(opt.json, "table10_message_driven", "dsmc_arrival",
            1000.0 * dr_arrival.execution_time / dc.steps,
            {{"bitwise", dsmc_bitwise ? 1.0 : 0.0}});
  emit_json(opt.json, "table10_message_driven", "charmm_arrival",
            1000.0 * cr_arrival.execution_time / cc.run.steps,
            {{"chunks_fired_early",
              static_cast<double>(cr_arrival.chunks_fired_early)},
             {"max_rel_deviation", max_rel}});

  // ---- gates ----------------------------------------------------------
  int failures = 0;
  if (!bitwise_equal(arrival.x, eager.x)) {
    std::cerr << "GATE FAILED: arrival arm is not bitwise identical to the "
                 "eager arm\n";
    ++failures;
  }
  if (!bitwise_equal(stat.x, eager.x)) {
    std::cerr << "GATE FAILED: static pipelined arm is not bitwise "
                 "identical to the eager arm\n";
    ++failures;
  }
  if (arrival.chunks_fired_early == 0) {
    std::cerr << "GATE FAILED: no chunk fired before its gather batch "
                 "completed\n";
    ++failures;
  }
  if (arrival.execution >= stat.execution) {
    std::cerr << "GATE FAILED: arrival arm (" << arrival.execution
              << "s) does not beat static pipelining (" << stat.execution
              << "s) on the skewed configuration\n";
    ++failures;
  }
  if (!dsmc_bitwise) {
    std::cerr << "GATE FAILED: DSMC arrival executor diverged from the "
                 "serial step graph\n";
    ++failures;
  }
  if (!charmm_within) {
    std::cerr << "GATE FAILED: CHARMM arrival arm deviation " << max_rel
              << " exceeds the relative bound\n";
    ++failures;
  }
  if (failures == 0)
    std::cout << "table10: all gates passed (bitwise oracle, early fires, "
                 "skewed win)\n";
  return failures == 0 ? 0 : 1;
}
