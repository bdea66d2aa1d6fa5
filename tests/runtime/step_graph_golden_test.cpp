// Golden oracle for the step-graph executor: every shipped graph driven
// through one fixed sequence — advance(true) a few times, advance(false),
// quiesce, a repartition (plus retarget where the graph binds schedules),
// then advance again — with the observable outcome pinned as literal
// values: the StepGraph::Stats counters (all but pool_busy_ns, which is
// host time), each step's gather/write traffic, and each rank's final
// modeled clock and message/byte counts. The numbers are the engine batch
// sequence seen from outside, so any change to when the graph posts, waits
// or hoists a batch shows up here as a diff.
//
// The three graph examples are built through their own set-up headers and
// driven directly, so every counter of every rank is pinned. The CHARMM and
// DSMC graphs live inside their drivers, which run this sequence themselves
// (repartition_every / remap_every); there the pins are what the drivers
// report: CHARMM's pipelining and arrival counters and per-step traffic,
// DSMC's rank-0 graph counters (all but pool_busy_ns), and for both apps
// every rank's clock and wire counts. The CHARMM Table 3
// shapes (merged, multiple, engine) and the compiler-generated arm also pin
// the run's message totals and a bitwise hash of the collected positions
// and forces. DSMC's blocking-move shapes (imperative, regular-schedule,
// compiler-generated) pin the collision count, clocks and wire counts but
// not the graph counters. Clocks are printed as hexadecimal floats, so the
// comparison is bitwise.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "apps/charmm/parallel.hpp"
#include "apps/dsmc/parallel.hpp"
#include "examples/mesh_sweep.hpp"
#include "examples/spmv_adaptive.hpp"
#include "examples/step_pipeline.hpp"
#include "runtime/runtime.hpp"
#include "runtime/step_graph.hpp"

namespace chaos {
namespace {

constexpr int kRanks = 4;

std::string hexf(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

/// Every rank's final modeled clock and wire counters.
std::string describe_machine(const sim::Machine& m) {
  std::ostringstream os;
  for (int r = 0; r < m.size(); ++r) {
    const sim::RankStats& st = m.stats(r);
    os << "rank " << r << " clock " << hexf(st.clock) << " msgs "
       << st.msgs_sent << " bytes " << st.bytes_sent << " coalesced "
       << st.coalesced_msgs_sent << '/' << st.coalesced_segments << '/'
       << st.coalesced_bytes_sent << '\n';
  }
  return os.str();
}

/// The graph counters of describe_graph, without a trailing newline.
std::string describe_stats(const StepGraph::Stats& s) {
  std::ostringstream os;
  os << "iterations " << s.iterations << " gathers " << s.gather_batches
     << " writes " << s.write_batches << " pipelined " << s.pipelined_gathers
     << " overlapped " << s.overlapped_posts << " stalls " << s.hazard_stalls
     << " retargets " << s.retargets << " quiesces " << s.quiesces
     << " early " << s.chunks_fired_early << " wakeups " << s.arrival_wakeups
     << " colors " << s.color_classes;
  return os.str();
}

/// One rank's graph counters (all but pool_busy_ns and programs_lowered)
/// and per-step traffic.
std::string describe_graph(int rank, const StepGraph& g) {
  std::ostringstream os;
  os << "rank " << rank << ' ' << describe_stats(g.stats()) << '\n';
  for (std::size_t i = 0; i < g.size(); ++i) {
    const Step& st = g.at(i);
    os << "  " << st.name() << " gather " << st.gather_traffic().messages
       << '/' << st.gather_traffic().bytes << " write "
       << st.write_traffic().messages << '/' << st.write_traffic().bytes
       << '\n';
  }
  return os.str();
}

/// A repartition onto a successor epoch with the same owner map: new
/// schedule handles (so the graph must retarget and re-arm) over an
/// unchanged layout, which keeps the local references an example's compute
/// captured meaningful.
DistHandle same_map_successor(Runtime& rt, DistHandle d) {
  return rt.repartition(d, rt.dist(d).map());
}

/// advance(true) x3, advance(false), quiesce — the first half of the
/// sequence, before the repartition.
void drive_first_half(StepGraph& g) {
  for (int i = 0; i < 3; ++i) g.advance(true);
  g.advance(false);
  g.quiesce();
}

/// advance(true) x2 after the retarget, then a quiesce that drains the
/// hoisted next-iteration gathers.
void drive_second_half(StepGraph& g) {
  g.advance(true);
  g.advance(true);
  g.quiesce();
}

/// Drive an example built through its header on every rank; `repartition`
/// moves it onto a successor epoch between the two halves.
template <typename Example, typename Repartition>
std::string run_example(Repartition repartition) {
  sim::Machine m(kRanks);
  std::vector<std::string> per_rank(kRanks);
  m.run([&](sim::Comm& comm) {
    Runtime rt(comm);
    Example ex(rt);
    drive_first_half(ex.graph);
    repartition(rt, ex);
    drive_second_half(ex.graph);
    per_rank[static_cast<std::size_t>(comm.rank())] =
        describe_graph(comm.rank(), ex.graph);
  });
  return std::accumulate(per_rank.begin(), per_rank.end(), std::string{}) +
         describe_machine(m);
}

/// FNV-1a over the bytes of every coordinate: a bitwise fingerprint of
/// the collected state.
std::string hash_state(const std::vector<part::Point3>& v) {
  std::uint64_t h = 14695981039346656037ull;
  for (const part::Point3& p : v) {
    for (const double c : {p.x, p.y, p.z}) {
      unsigned char bytes[sizeof c];
      std::memcpy(bytes, &c, sizeof c);
      for (const unsigned char b : bytes) {
        h ^= b;
        h *= 1099511628211ull;
      }
    }
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

/// `collect_state` additionally pins the result's message totals and a
/// bitwise hash of the final positions and forces (the collection is an
/// allgather after the run, so it also moves the clocks).
std::string run_charmm(charmm::CharmmShape shape, bool collect_state = false) {
  charmm::ParallelCharmmConfig cfg;
  cfg.system = charmm::SystemParams::small(300);
  cfg.run.steps = 6;
  cfg.run.nb_rebuild_every = 100;
  cfg.repartition_every = 4;  // steps 0-3, repartition + retarget, 4-5
  cfg.shape = shape;
  cfg.collect_state = collect_state;
  sim::Machine m(kRanks);
  const charmm::ParallelCharmmResult r = charmm::run_parallel_charmm(m, cfg);
  std::ostringstream os;
  os << "pipelined " << r.pipelined_gathers << " overlapped "
     << r.steps_overlapped << " stalls " << r.hazard_stalls << " early "
     << r.chunks_fired_early << " wakeups " << r.arrival_wakeups
     << " colors " << r.color_classes << '\n';
  for (const auto& st : r.step_traffic)
    os << "  " << st.name << " gather " << st.gather_msgs << '/'
       << st.gather_bytes << " write " << st.write_msgs << '/'
       << st.write_bytes << '\n';
  if (collect_state)
    os << "msgs " << r.msgs_sent << " coalesced " << r.coalesced_msgs << '/'
       << r.coalesced_segments << " pos " << hash_state(r.pos) << " force "
       << hash_state(r.force) << '\n';
  return os.str() + describe_machine(m);
}

/// Collisions and every rank's clock and wire counts; `pin_graph` adds
/// rank 0's graph counters.
std::string run_dsmc(dsmc::DsmcExecutor executor, bool pin_graph = true) {
  dsmc::ParallelDsmcConfig cfg;
  cfg.params.nx = 8;
  cfg.params.ny = 8;
  cfg.params.n_particles = 400;
  cfg.steps = 6;
  cfg.remap_every = 4;  // steps 0-4, quiesce + remap, step 5
  cfg.executor = executor;
  sim::Machine m(kRanks);
  const dsmc::ParallelDsmcResult r = dsmc::run_parallel_dsmc(m, cfg);
  std::string out =
      "collisions " + std::to_string(r.collisions) + '\n' + describe_machine(m);
  if (pin_graph)
    out += "graph " + describe_stats(r.graph) + " lowered " +
           std::to_string(r.graph.programs_lowered) + '\n';
  return out;
}

TEST(StepGraphGolden, CharmmPipelined) {
  EXPECT_EQ(run_charmm(charmm::CharmmShape::kStepGraph),
            R"(pipelined 6 overlapped 6 stalls 12 early 0 wakeups 0 colors 0
  bonded gather 72/14976 write 72/14976
  nonbonded gather 72/88512 write 72/88512
  integrate gather 0/0 write 0/0
rank 0 clock 0x1.cc6bf2c7e1e3dp-2 msgs 114 bytes 63256 coalesced 0/0/0
rank 1 clock 0x1.cc6bf2c7e1e3dp-2 msgs 113 bytes 81344 coalesced 0/0/0
rank 2 clock 0x1.cc6bf2c7e1e3dp-2 msgs 110 bytes 77296 coalesced 0/0/0
rank 3 clock 0x1.cc6bf2c7e1e3dp-2 msgs 103 bytes 62976 coalesced 0/0/0
)");
}

TEST(StepGraphGolden, CharmmEager) {
  EXPECT_EQ(run_charmm(charmm::CharmmShape::kStepGraphEager),
            R"(pipelined 0 overlapped 0 stalls 0 early 0 wakeups 0 colors 0
  bonded gather 72/14976 write 72/14976
  nonbonded gather 72/88512 write 72/88512
  integrate gather 0/0 write 0/0
rank 0 clock 0x1.d8d12cde5e26cp-2 msgs 114 bytes 63256 coalesced 0/0/0
rank 1 clock 0x1.d8d12cde5e26cp-2 msgs 113 bytes 81344 coalesced 0/0/0
rank 2 clock 0x1.d8d12cde5e26cp-2 msgs 110 bytes 77296 coalesced 0/0/0
rank 3 clock 0x1.d8d12cde5e26cp-2 msgs 103 bytes 62976 coalesced 0/0/0
)");
}

// The Table 3 shapes and the compiler-generated arm report no graph
// counters or per-step traffic; their pins are the wire totals, the final
// state's bits and every rank's clock and wire counts.
TEST(StepGraphGolden, CharmmMerged) {
  EXPECT_EQ(run_charmm(charmm::CharmmShape::kMerged, /*collect_state=*/true),
            R"(pipelined 0 overlapped 0 stalls 0 early 0 wakeups 0 colors 0
msgs 320 coalesced 0/0 pos 5824e0d94cb47d5a force d37310297bb83fd2
rank 0 clock 0x1.cd0a940838eb3p-2 msgs 84 bytes 57992 coalesced 0/0/0
rank 1 clock 0x1.cd0a940838eb3p-2 msgs 83 bytes 78168 coalesced 0/0/0
rank 2 clock 0x1.cd0a940838eb3p-2 msgs 80 bytes 73968 coalesced 0/0/0
rank 3 clock 0x1.cd0a940838eb3p-2 msgs 73 bytes 58376 coalesced 0/0/0
)");
}

TEST(StepGraphGolden, CharmmMultiple) {
  EXPECT_EQ(run_charmm(charmm::CharmmShape::kMultiple, /*collect_state=*/true),
            R"(pipelined 0 overlapped 0 stalls 0 early 0 wakeups 0 colors 0
msgs 464 coalesced 0/0 pos 5824e0d94cb47d5a force 96f1e7afc4fa4560
rank 0 clock 0x1.d41ff8f44bcf6p-2 msgs 120 bytes 61192 coalesced 0/0/0
rank 1 clock 0x1.d41ff8f44bcf6p-2 msgs 119 bytes 80840 coalesced 0/0/0
rank 2 clock 0x1.d41ff8f44bcf6p-2 msgs 116 bytes 76400 coalesced 0/0/0
rank 3 clock 0x1.d41ff8f44bcf6p-2 msgs 109 bytes 61608 coalesced 0/0/0
)");
}

TEST(StepGraphGolden, CharmmEngine) {
  EXPECT_EQ(run_charmm(charmm::CharmmShape::kEngine, /*collect_state=*/true),
            R"(pipelined 0 overlapped 0 stalls 0 early 0 wakeups 0 colors 0
msgs 320 coalesced 144/288 pos 5824e0d94cb47d5a force d37310297bb83fd2
rank 0 clock 0x1.cd9a0cb6a072dp-2 msgs 84 bytes 61192 coalesced 36/72/50208
rank 1 clock 0x1.cd9a0cb6a072dp-2 msgs 83 bytes 80840 coalesced 36/72/48144
rank 2 clock 0x1.cd9a0cb6a072dp-2 msgs 80 bytes 76400 coalesced 36/72/45408
rank 3 clock 0x1.cd9a0cb6a072dp-2 msgs 73 bytes 61608 coalesced 36/72/50016
)");
}

TEST(StepGraphGolden, CharmmCompilerGenerated) {
  EXPECT_EQ(run_charmm(charmm::CharmmShape::kCompilerGenerated,
                       /*collect_state=*/true),
            R"(pipelined 0 overlapped 0 stalls 0 early 0 wakeups 0 colors 0
msgs 464 coalesced 0/0 pos 5824e0d94cb47d5a force 96f1e7afc4fa4560
rank 0 clock 0x1.eaecb8478b809p-2 msgs 120 bytes 61192 coalesced 0/0/0
rank 1 clock 0x1.eaecb8478b809p-2 msgs 119 bytes 80840 coalesced 0/0/0
rank 2 clock 0x1.eaecb8478b809p-2 msgs 116 bytes 76400 coalesced 0/0/0
rank 3 clock 0x1.eaecb8478b809p-2 msgs 109 bytes 61608 coalesced 0/0/0
)");
}

TEST(StepGraphGolden, DsmcPipelined) {
  EXPECT_EQ(run_dsmc(dsmc::DsmcExecutor::kStepGraph),
            R"(collisions 666
rank 0 clock 0x1.d5bf345dd59d5p-5 msgs 12 bytes 5264 coalesced 0/0/0
rank 1 clock 0x1.d5bf345dd59d5p-5 msgs 11 bytes 6720 coalesced 0/0/0
rank 2 clock 0x1.d5bf345dd59d5p-5 msgs 12 bytes 8960 coalesced 0/0/0
rank 3 clock 0x1.d5bf345dd59d5p-5 msgs 13 bytes 6720 coalesced 0/0/0
graph iterations 6 gathers 0 writes 6 pipelined 0 overlapped 0 stalls 4 retargets 0 quiesces 2 early 0 wakeups 0 colors 0 lowered 4
)");
}

TEST(StepGraphGolden, DsmcArrival) {
  EXPECT_EQ(run_dsmc(dsmc::DsmcExecutor::kStepGraphArrival),
            R"(collisions 666
rank 0 clock 0x1.8f3882278d0cbp-5 msgs 12 bytes 5264 coalesced 0/0/0
rank 1 clock 0x1.8f3882278d0cbp-5 msgs 11 bytes 6720 coalesced 0/0/0
rank 2 clock 0x1.8f3882278d0cbp-5 msgs 12 bytes 8960 coalesced 0/0/0
rank 3 clock 0x1.8f3882278d0cbp-5 msgs 13 bytes 6720 coalesced 0/0/0
graph iterations 6 gathers 0 writes 6 pipelined 0 overlapped 0 stalls 4 retargets 0 quiesces 2 early 0 wakeups 0 colors 1 lowered 4
)");
}

// The blocking-move shapes: the MOVE phase migrates inside its own
// compute (light-weight, regular-schedule and compiler-generated), so
// the pins are the physics and the wire; the graph counters are left
// out.
TEST(StepGraphGolden, DsmcImperative) {
  EXPECT_EQ(run_dsmc(dsmc::DsmcExecutor::kImperative, /*pin_graph=*/false),
            R"(collisions 666
rank 0 clock 0x1.d5bf345dd59d5p-5 msgs 12 bytes 5264 coalesced 0/0/0
rank 1 clock 0x1.d5bf345dd59d5p-5 msgs 11 bytes 6720 coalesced 0/0/0
rank 2 clock 0x1.d5bf345dd59d5p-5 msgs 12 bytes 8960 coalesced 0/0/0
rank 3 clock 0x1.d5bf345dd59d5p-5 msgs 13 bytes 6720 coalesced 0/0/0
)");
}

TEST(StepGraphGolden, DsmcRegular) {
  EXPECT_EQ(run_dsmc(dsmc::DsmcExecutor::kRegular, /*pin_graph=*/false),
            R"(collisions 666
rank 0 clock 0x1.88bb5ab4817cep-4 msgs 83 bytes 9976 coalesced 0/0/0
rank 1 clock 0x1.88bb5ab4817cep-4 msgs 80 bytes 11432 coalesced 0/0/0
rank 2 clock 0x1.88bb5ab4817cep-4 msgs 82 bytes 14120 coalesced 0/0/0
rank 3 clock 0x1.88bb5ab4817cep-4 msgs 85 bytes 11704 coalesced 0/0/0
)");
}

TEST(StepGraphGolden, DsmcCompilerGenerated) {
  EXPECT_EQ(run_dsmc(dsmc::DsmcExecutor::kCompilerGenerated,
                     /*pin_graph=*/false),
            R"(collisions 666
rank 0 clock 0x1.55e74299d883bp-4 msgs 36 bytes 6144 coalesced 0/0/0
rank 1 clock 0x1.55e74299d883bp-4 msgs 33 bytes 7600 coalesced 0/0/0
rank 2 clock 0x1.55e74299d883bp-4 msgs 34 bytes 9824 coalesced 0/0/0
rank 3 clock 0x1.55e74299d883bp-4 msgs 37 bytes 7584 coalesced 0/0/0
)");
}

TEST(StepGraphGolden, StepPipelineExample) {
  const std::string got = run_example<examples::StepPipeline>(
      [](Runtime& rt, examples::StepPipeline& ex) {
        // The constructor's schedules, looked up again from the registry.
        const ScheduleHandle ha = rt.inspect(ex.dist, ex.ind_a);
        const ScheduleHandle hb = rt.inspect(ex.dist, ex.ind_b);
        const DistHandle d2 = same_map_successor(rt, ex.dist);
        ex.graph.retarget(ha, rt.inspect(d2, ex.ind_a));
        ex.graph.retarget(hb, rt.inspect(d2, ex.ind_b));
        ex.la = rt.local_refs(rt.bind(d2, ex.ind_a));
        ex.lb = rt.local_refs(rt.bind(d2, ex.ind_b));
        // Nothing captured the old epoch: retiring it makes an advance over
        // a binding the retarget missed refuse instead of running.
        rt.retire(ex.dist);
        ex.dist = d2;
      });
  EXPECT_EQ(got,
            R"(rank 0 iterations 6 gathers 14 writes 12 pipelined 7 overlapped 6 stalls 12 retargets 2 quiesces 4 early 0 wakeups 0 colors 0
  field_a gather 7/26880 write 6/23040
  field_b gather 7/26880 write 6/23040
  advance gather 0/0 write 0/0
rank 1 iterations 6 gathers 14 writes 12 pipelined 7 overlapped 6 stalls 12 retargets 2 quiesces 4 early 0 wakeups 0 colors 0
  field_a gather 7/26880 write 6/23040
  field_b gather 7/26880 write 6/23040
  advance gather 0/0 write 0/0
rank 2 iterations 6 gathers 14 writes 12 pipelined 7 overlapped 6 stalls 12 retargets 2 quiesces 4 early 0 wakeups 0 colors 0
  field_a gather 7/26880 write 6/23040
  field_b gather 7/26880 write 6/23040
  advance gather 0/0 write 0/0
rank 3 iterations 6 gathers 14 writes 12 pipelined 7 overlapped 6 stalls 12 retargets 2 quiesces 4 early 0 wakeups 0 colors 0
  field_a gather 7/26880 write 6/23040
  field_b gather 7/26880 write 6/23040
  advance gather 0/0 write 0/0
rank 0 clock 0x1.8debcb9595273p-4 msgs 28 bytes 107520 coalesced 0/0/0
rank 1 clock 0x1.8debcb9595273p-4 msgs 28 bytes 107520 coalesced 0/0/0
rank 2 clock 0x1.8debcb9595273p-4 msgs 28 bytes 107520 coalesced 0/0/0
rank 3 clock 0x1.8debcb9595273p-4 msgs 28 bytes 107520 coalesced 0/0/0
)");
}

TEST(StepGraphGolden, SpmvAdaptiveExample) {
  // The example's own adaptation path: re-inspect on a new sparsity
  // pattern, then repartition the rows by load and retarget.
  const std::string got = run_example<examples::SpmvAdaptive>(
      [](Runtime&, examples::SpmvAdaptive& ex) {
        ex.adapt_sparsity();
        ex.repartition();
      });
  EXPECT_EQ(got,
            R"(rank 0 iterations 6 gathers 7 writes 0 pipelined 0 overlapped 0 stalls 0 retargets 1 quiesces 5 early 0 wakeups 0 colors 0
  spmv gather 21/28136 write 0/0
  normalize gather 0/0 write 0/0
rank 1 iterations 6 gathers 7 writes 0 pipelined 0 overlapped 0 stalls 0 retargets 1 quiesces 5 early 0 wakeups 0 colors 0
  spmv gather 21/28256 write 0/0
  normalize gather 0/0 write 0/0
rank 2 iterations 6 gathers 7 writes 0 pipelined 0 overlapped 0 stalls 0 retargets 1 quiesces 5 early 0 wakeups 0 colors 0
  spmv gather 21/28248 write 0/0
  normalize gather 0/0 write 0/0
rank 3 iterations 6 gathers 7 writes 0 pipelined 0 overlapped 0 stalls 0 retargets 1 quiesces 5 early 0 wakeups 0 colors 0
  spmv gather 21/28144 write 0/0
  normalize gather 0/0 write 0/0
rank 0 clock 0x1.14746e66e5e82p-4 msgs 36 bytes 44304 coalesced 0/0/0
rank 1 clock 0x1.1461233086b09p-4 msgs 33 bytes 44408 coalesced 0/0/0
rank 2 clock 0x1.14736f63652a3p-4 msgs 36 bytes 44488 coalesced 0/0/0
rank 3 clock 0x1.14e2958beddf7p-4 msgs 33 bytes 44256 coalesced 0/0/0
)");
}

TEST(StepGraphGolden, MeshSweepExample) {
  const std::string got = run_example<examples::MeshSweep>(
      [](Runtime& rt, examples::MeshSweep& ex) {
        const ScheduleHandle hm = rt.inspect(ex.d, ex.mesh);
        const ScheduleHandle hd = rt.inspect(ex.d, ex.diag);
        const DistHandle d2 = same_map_successor(rt, ex.d);
        const ScheduleHandle plan = rt.plan_remap(ex.d, d2);
        for (Array<double>* a : {&ex.u, &ex.du_short, &ex.du_long})
          a->retarget(plan, d2);
        ex.graph.retarget(hm, rt.inspect(d2, ex.mesh));
        ex.graph.retarget(hd, rt.inspect(d2, ex.diag));
      });
  EXPECT_EQ(got,
            R"(rank 0 iterations 6 gathers 14 writes 12 pipelined 7 overlapped 6 stalls 12 retargets 2 quiesces 4 early 0 wakeups 0 colors 0
  sweep_mesh gather 7/14336 write 6/12288
  sweep_diag gather 7/14336 write 6/12288
  advance gather 0/0 write 0/0
rank 1 iterations 6 gathers 14 writes 12 pipelined 7 overlapped 6 stalls 12 retargets 2 quiesces 4 early 0 wakeups 0 colors 0
  sweep_mesh gather 7/14336 write 6/12288
  sweep_diag gather 7/14336 write 6/12288
  advance gather 0/0 write 0/0
rank 2 iterations 6 gathers 14 writes 12 pipelined 7 overlapped 6 stalls 12 retargets 2 quiesces 4 early 0 wakeups 0 colors 0
  sweep_mesh gather 7/14336 write 6/12288
  sweep_diag gather 7/14336 write 6/12288
  advance gather 0/0 write 0/0
rank 3 iterations 6 gathers 14 writes 12 pipelined 7 overlapped 6 stalls 12 retargets 2 quiesces 4 early 0 wakeups 0 colors 0
  sweep_mesh gather 7/14336 write 6/12288
  sweep_diag gather 7/14336 write 6/12288
  advance gather 0/0 write 0/0
rank 0 clock 0x1.f6d513c32b635p-5 msgs 28 bytes 57344 coalesced 0/0/0
rank 1 clock 0x1.f67ee25e2e895p-5 msgs 28 bytes 57344 coalesced 0/0/0
rank 2 clock 0x1.f6d513c32b635p-5 msgs 28 bytes 57344 coalesced 0/0/0
rank 3 clock 0x1.f676b4924363fp-5 msgs 28 bytes 57344 coalesced 0/0/0
)");
}

}  // namespace
}  // namespace chaos
