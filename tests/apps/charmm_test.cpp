// Mini-CHARMM tests: system generation, neighbor lists, sequential
// dynamics sanity, and — the load-bearing one — parallel-vs-sequential
// agreement across processor counts, schedule modes, and the
// compiler-generated path.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <set>

#include "apps/charmm/forces.hpp"
#include "apps/charmm/neighbor.hpp"
#include "apps/charmm/parallel.hpp"
#include "apps/charmm/sequential.hpp"
#include "apps/charmm/system.hpp"

namespace chaos::charmm {
namespace {

TEST(System, GenerationIsDeterministic) {
  auto a = MolecularSystem::generate(SystemParams::small(120));
  auto b = MolecularSystem::generate(SystemParams::small(120));
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.pos[i].x, b.pos[i].x);
    EXPECT_EQ(a.vel[i].y, b.vel[i].y);
  }
  EXPECT_EQ(a.bonds, b.bonds);
}

TEST(System, AtomsInsideBox) {
  auto s = MolecularSystem::generate(SystemParams::small(300));
  EXPECT_EQ(s.size(), 300u);
  for (const auto& p : s.pos) {
    for (int a = 0; a < 3; ++a) {
      EXPECT_GE(p[a], 0.0);
      EXPECT_LT(p[a], s.params.box);
    }
  }
}

TEST(System, BondsConnectDistinctValidAtoms) {
  auto s = MolecularSystem::generate(SystemParams::small(200));
  EXPECT_FALSE(s.bonds.empty());
  for (const auto& [i, j] : s.bonds) {
    EXPECT_GE(i, 0);
    EXPECT_LT(j, static_cast<GlobalIndex>(s.size()));
    EXPECT_LT(i, j);
  }
}

TEST(System, FullSizeSystemHasPaperDimensions) {
  SystemParams p;  // defaults = the paper's benchmark case
  EXPECT_EQ(p.n_atoms, 14026u);
  EXPECT_EQ(p.cutoff, 14.0);
}

TEST(Neighbor, ListMatchesBruteForce) {
  auto s = MolecularSystem::generate(SystemParams::small(150));
  std::vector<GlobalIndex> rows(s.size());
  std::iota(rows.begin(), rows.end(), GlobalIndex{0});
  auto list = build_nonbonded_list(s.pos, rows, s.params.cutoff,
                                   s.params.box, nullptr, s.bonds);

  // Brute force half-list with minimum image and bonded exclusions.
  auto dist2 = [&](GlobalIndex i, GlobalIndex j) {
    part::Vec3 d = min_image(s.pos[static_cast<size_t>(i)],
                             s.pos[static_cast<size_t>(j)], s.params.box);
    return d.dot(d);
  };
  std::set<std::pair<GlobalIndex, GlobalIndex>> bonded(s.bonds.begin(),
                                                       s.bonds.end());
  const double cut2 = s.params.cutoff * s.params.cutoff;
  for (std::size_t r = 0; r < rows.size(); ++r) {
    std::set<GlobalIndex> expect;
    for (GlobalIndex j = rows[r] + 1;
         j < static_cast<GlobalIndex>(s.size()); ++j)
      if (dist2(rows[r], j) <= cut2 && !bonded.count({rows[r], j}))
        expect.insert(j);
    std::set<GlobalIndex> got(list.jnb.begin() + list.inblo[r],
                              list.jnb.begin() + list.inblo[r + 1]);
    EXPECT_EQ(got, expect) << "row " << r;
  }
}

TEST(Neighbor, SubsetRowsOnlyCoverRequestedAtoms) {
  auto s = MolecularSystem::generate(SystemParams::small(100));
  std::vector<GlobalIndex> rows{5, 17, 60};
  auto list = build_nonbonded_list(s.pos, rows, s.params.cutoff,
                                   s.params.box);
  EXPECT_EQ(list.rows(), 3u);
}

TEST(Neighbor, StatsCountCandidates) {
  auto s = MolecularSystem::generate(SystemParams::small(100));
  std::vector<GlobalIndex> rows(s.size());
  std::iota(rows.begin(), rows.end(), GlobalIndex{0});
  NeighborBuildStats stats;
  auto list =
      build_nonbonded_list(s.pos, rows, s.params.cutoff, s.params.box, &stats);
  EXPECT_GE(stats.candidates_examined, list.pairs());
  EXPECT_EQ(stats.pairs_kept, list.pairs());
}

TEST(Forces, NonbondedZeroBeyondCutoff) {
  part::Point3 a{0, 0, 0}, b{6.0, 0, 0};
  auto f = nonbonded_force(a, b, 5.0, 100.0);
  EXPECT_EQ(f.x, 0.0);
  EXPECT_EQ(f.y, 0.0);
}

TEST(Forces, NonbondedRepulsiveAtContact) {
  part::Point3 a{0, 0, 0}, b{1.0, 0, 0};
  auto f = nonbonded_force(a, b, 5.0, 100.0);
  EXPECT_LT(f.x, 0.0);  // force on a points away from b (negative x)
}

TEST(Forces, BondRestoresEquilibrium) {
  part::Point3 a{0, 0, 0};
  // Stretched bond pulls atoms together; compressed pushes apart.
  auto stretched = bond_force(a, part::Point3{2.0, 0, 0}, 100.0, 1.0);
  EXPECT_GT(stretched.x, 0.0);
  auto compressed = bond_force(a, part::Point3{0.5, 0, 0}, 100.0, 1.0);
  EXPECT_LT(compressed.x, 0.0);
}

TEST(Forces, NewtonThirdLawByConstruction) {
  part::Point3 a{1, 2, 3}, b{2.5, 2, 3};
  auto fab = nonbonded_force(a, b, 5.0, 50.0);
  auto fba = nonbonded_force(b, a, 5.0, 50.0);
  EXPECT_NEAR(fab.x, -fba.x, 1e-14);
  EXPECT_NEAR(fab.y, -fba.y, 1e-14);
}

TEST(Sequential, RunsAndConservesAtomCount) {
  auto s = MolecularSystem::generate(SystemParams::small(200));
  SequentialRunConfig cfg;
  cfg.steps = 6;
  cfg.nb_rebuild_every = 3;
  auto r = run_sequential_charmm(s, cfg);
  EXPECT_EQ(r.pos.size(), s.size());
  EXPECT_EQ(r.nb_rebuilds, 2);  // initial + one periodic rebuild
  EXPECT_GT(r.work_units, 0.0);
  for (const auto& p : r.pos)
    for (int a = 0; a < 3; ++a) {
      EXPECT_GE(p[a], 0.0);
      EXPECT_LT(p[a], s.params.box);
    }
}

TEST(Sequential, TotalForceNearZero) {
  // Newton's third law: all forces are internal, so they sum to ~0.
  auto s = MolecularSystem::generate(SystemParams::small(150));
  SequentialRunConfig cfg;
  cfg.steps = 1;
  auto r = run_sequential_charmm(s, cfg);
  part::Vec3 total{};
  for (const auto& f : r.force) total = total + f;
  EXPECT_NEAR(total.x, 0.0, 1e-8);
  EXPECT_NEAR(total.y, 0.0, 1e-8);
  EXPECT_NEAR(total.z, 0.0, 1e-8);
}

// ---- Parallel vs sequential ------------------------------------------------

class CharmmParallelSweep : public ::testing::TestWithParam<int> {};

TEST_P(CharmmParallelSweep, MatchesSequentialReference) {
  const int P = GetParam();
  const auto sys_params = SystemParams::small(240);

  SequentialRunConfig run;
  run.steps = 5;
  run.nb_rebuild_every = 3;

  auto seq = run_sequential_charmm(MolecularSystem::generate(sys_params), run);

  ParallelCharmmConfig cfg;
  cfg.system = sys_params;
  cfg.run = run;
  // The historical eager reference shape, whose accumulation order tracks
  // the sequential loop nest to last-bit scale. The step-graph shapes have
  // their own agreement tests (CharmmStepGraph suite) — their pipelined
  // scatter delivery reassociates float adds, which neighbor-list rebuilds
  // amplify into genuine (physically equivalent) trajectory divergence.
  cfg.shape = CharmmShape::kMerged;
  cfg.collect_state = true;
  sim::Machine m(P);
  auto par = run_parallel_charmm(m, cfg);

  ASSERT_EQ(par.pos.size(), seq.pos.size());
  for (std::size_t i = 0; i < seq.pos.size(); ++i) {
    for (int a = 0; a < 3; ++a) {
      EXPECT_NEAR(par.pos[i][a], seq.pos[i][a], 1e-8)
          << "atom " << i << " axis " << a;
      EXPECT_NEAR(par.force[i][a], seq.force[i][a], 1e-7)
          << "atom " << i << " axis " << a;
    }
  }
  EXPECT_EQ(par.phases.nb_rebuilds, seq.nb_rebuilds);
}

INSTANTIATE_TEST_SUITE_P(Procs, CharmmParallelSweep,
                         ::testing::Values(1, 2, 4, 7));

TEST(CharmmParallel, MultipleSchedulesModeAlsoCorrect) {
  const auto sys_params = SystemParams::small(200);
  SequentialRunConfig run;
  run.steps = 4;
  run.nb_rebuild_every = 2;
  auto seq = run_sequential_charmm(MolecularSystem::generate(sys_params), run);

  ParallelCharmmConfig cfg;
  cfg.system = sys_params;
  cfg.run = run;
  cfg.shape = CharmmShape::kMultiple;
  cfg.collect_state = true;
  sim::Machine m(4);
  auto par = run_parallel_charmm(m, cfg);
  for (std::size_t i = 0; i < seq.pos.size(); ++i)
    for (int a = 0; a < 3; ++a)
      EXPECT_NEAR(par.pos[i][a], seq.pos[i][a], 1e-8);
}

TEST(CharmmParallel, EngineCoalescedModeAlsoCorrect) {
  const auto sys_params = SystemParams::small(200);
  SequentialRunConfig run;
  run.steps = 4;
  run.nb_rebuild_every = 2;
  auto seq = run_sequential_charmm(MolecularSystem::generate(sys_params), run);

  ParallelCharmmConfig cfg;
  cfg.system = sys_params;
  cfg.run = run;
  cfg.shape = CharmmShape::kEngine;
  cfg.collect_state = true;
  sim::Machine m(4);
  auto par = run_parallel_charmm(m, cfg);
  for (std::size_t i = 0; i < seq.pos.size(); ++i)
    for (int a = 0; a < 3; ++a)
      EXPECT_NEAR(par.pos[i][a], seq.pos[i][a], 1e-8);
}

TEST(CharmmParallel, EngineCoalescingSendsFewerMessagesThanMultiple) {
  // The acceptance property of the comm engine: N independent schedules
  // posted into one batch leave as at most one message per peer per flush,
  // where the blocking multiple-schedules executor sends one per schedule.
  ParallelCharmmConfig cfg;
  cfg.system = SystemParams::small(300);
  cfg.run.steps = 4;
  cfg.run.nb_rebuild_every = 10;

  sim::Machine m1(4), m2(4);
  cfg.shape = CharmmShape::kMultiple;
  auto multiple = run_parallel_charmm(m1, cfg);
  cfg.shape = CharmmShape::kEngine;
  auto engine = run_parallel_charmm(m2, cfg);

  EXPECT_LT(engine.msgs_sent, multiple.msgs_sent);
  // Executor flushes pack both loops' segments: strictly more logical
  // segments than physical messages proves real coalescing happened.
  EXPECT_GT(engine.coalesced_segments, engine.coalesced_msgs);
  EXPECT_LE(engine.communication_time, multiple.communication_time);
}

TEST(CharmmParallel, CompilerGeneratedPathAlsoCorrect) {
  const auto sys_params = SystemParams::small(200);
  SequentialRunConfig run;
  run.steps = 4;
  run.nb_rebuild_every = 2;
  auto seq = run_sequential_charmm(MolecularSystem::generate(sys_params), run);

  ParallelCharmmConfig cfg;
  cfg.system = sys_params;
  cfg.run = run;
  cfg.shape = CharmmShape::kCompilerGenerated;
  cfg.collect_state = true;
  sim::Machine m(4);
  auto par = run_parallel_charmm(m, cfg);
  for (std::size_t i = 0; i < seq.pos.size(); ++i)
    for (int a = 0; a < 3; ++a)
      EXPECT_NEAR(par.pos[i][a], seq.pos[i][a], 1e-8);
}

TEST(CharmmParallel, RepartitioningPreservesCorrectness) {
  const auto sys_params = SystemParams::small(200);
  SequentialRunConfig run;
  run.steps = 6;
  run.nb_rebuild_every = 3;
  auto seq = run_sequential_charmm(MolecularSystem::generate(sys_params), run);

  ParallelCharmmConfig cfg;
  cfg.system = sys_params;
  cfg.run = run;
  cfg.repartition_every = 2;
  cfg.alternate_partitioners = true;
  cfg.shape = CharmmShape::kMerged;  // see MatchesSequentialReference
  cfg.collect_state = true;
  sim::Machine m(3);
  auto par = run_parallel_charmm(m, cfg);
  for (std::size_t i = 0; i < seq.pos.size(); ++i)
    for (int a = 0; a < 3; ++a)
      EXPECT_NEAR(par.pos[i][a], seq.pos[i][a], 1e-8);
}

TEST(CharmmParallel, PhaseTimesArePopulated) {
  ParallelCharmmConfig cfg;
  cfg.system = SystemParams::small(150);
  cfg.run.steps = 3;
  cfg.run.nb_rebuild_every = 2;
  sim::Machine m(2);
  auto r = run_parallel_charmm(m, cfg);
  EXPECT_GT(r.phases.data_partition, 0.0);
  EXPECT_GT(r.phases.nb_list, 0.0);
  EXPECT_GT(r.phases.schedule_gen, 0.0);
  EXPECT_GT(r.phases.schedule_regen, 0.0);  // one rebuild at step 2
  EXPECT_GT(r.phases.executor, 0.0);
  EXPECT_GT(r.execution_time, 0.0);
  EXPECT_GE(r.load_balance, 1.0);
}

TEST(CharmmParallel, MergedSchedulesReduceCommunication) {
  // Table 3's mechanism, in miniature.
  ParallelCharmmConfig cfg;
  cfg.system = SystemParams::small(300);
  cfg.run.steps = 4;
  cfg.run.nb_rebuild_every = 10;

  sim::Machine m1(4), m2(4);
  cfg.shape = CharmmShape::kMerged;
  auto merged = run_parallel_charmm(m1, cfg);
  cfg.shape = CharmmShape::kMultiple;
  auto multiple = run_parallel_charmm(m2, cfg);
  EXPECT_LT(merged.communication_time, multiple.communication_time);
}

// ---- Step-graph executor ---------------------------------------------------

TEST(CharmmStepGraph, PipelinedBitwiseEqualsEagerIncludingRepartition) {
  // The acceptance property of the declarative executor: the pipelined
  // step-graph run must be BITWISE identical to the same graph executed
  // eagerly (post/flush/wait at every step) — including across mid-run
  // repartitions that land while the pipeline is hot.
  ParallelCharmmConfig cfg;
  cfg.system = SystemParams::small(240);
  cfg.run.steps = 7;
  cfg.run.nb_rebuild_every = 3;
  cfg.repartition_every = 3;
  cfg.alternate_partitioners = true;
  cfg.collect_state = true;

  sim::Machine m1(4), m2(4);
  cfg.shape = CharmmShape::kStepGraph;
  auto pipelined = run_parallel_charmm(m1, cfg);
  cfg.shape = CharmmShape::kStepGraphEager;
  auto eager = run_parallel_charmm(m2, cfg);

  ASSERT_EQ(pipelined.pos.size(), eager.pos.size());
  for (std::size_t i = 0; i < eager.pos.size(); ++i) {
    for (int a = 0; a < 3; ++a) {
      EXPECT_EQ(pipelined.pos[i][a], eager.pos[i][a]) << "atom " << i;
      EXPECT_EQ(pipelined.force[i][a], eager.force[i][a]) << "atom " << i;
    }
  }
  // The pipelined arm must actually have pipelined: non-bonded gathers
  // posted while bonded scatters were in flight, and hazard stalls where
  // the dependence analysis required delivery.
  EXPECT_GT(pipelined.steps_overlapped, 0u);
  EXPECT_GT(pipelined.pipelined_gathers, 0u);
  EXPECT_GT(pipelined.hazard_stalls, 0u);
  EXPECT_EQ(eager.steps_overlapped, 0u);
  EXPECT_EQ(eager.pipelined_gathers, 0u);
}

TEST(CharmmStepGraph, MatchesSequentialTightlyWithoutListRebuilds) {
  // With no mid-run neighbor-list rebuild there is no amplification
  // channel: the graph's only deviation from the sequential reference is
  // float reassociation from its per-step scatter delivery, which stays at
  // last-bits scale over a short run.
  const auto sys_params = SystemParams::small(200);
  SequentialRunConfig run;
  run.steps = 4;
  run.nb_rebuild_every = 10;  // > steps: no rebuild inside the run
  auto seq = run_sequential_charmm(MolecularSystem::generate(sys_params), run);

  ParallelCharmmConfig cfg;
  cfg.system = sys_params;
  cfg.run = run;
  ASSERT_EQ(cfg.shape, CharmmShape::kStepGraph);  // primary by default
  cfg.collect_state = true;
  sim::Machine m(4);
  auto par = run_parallel_charmm(m, cfg);
  for (std::size_t i = 0; i < seq.pos.size(); ++i)
    for (int a = 0; a < 3; ++a)
      EXPECT_NEAR(par.pos[i][a], seq.pos[i][a], 1e-7);
}

TEST(CharmmStepGraph, TracksSequentialPhysicsAcrossListRebuilds) {
  // Across rebuilds a last-bit position difference can flip a near-cutoff
  // pair in or out of the regenerated list, after which the (chaotic)
  // trajectories legitimately diverge — so this run is held to a physics
  // tolerance, not an arithmetic one. Schedule bugs produce O(1) errors
  // and still fail it; the arithmetic-level guarantee for the graph is the
  // bitwise pipelined-vs-eager test above.
  const auto sys_params = SystemParams::small(200);
  SequentialRunConfig run;
  run.steps = 4;
  run.nb_rebuild_every = 2;
  auto seq = run_sequential_charmm(MolecularSystem::generate(sys_params), run);

  ParallelCharmmConfig cfg;
  cfg.system = sys_params;
  cfg.run = run;
  cfg.collect_state = true;
  sim::Machine m(4);
  auto par = run_parallel_charmm(m, cfg);
  for (std::size_t i = 0; i < seq.pos.size(); ++i)
    for (int a = 0; a < 3; ++a)
      EXPECT_NEAR(par.pos[i][a], seq.pos[i][a], 5e-3);
  EXPECT_EQ(par.phases.nb_rebuilds, seq.nb_rebuilds);
}

TEST(CharmmStepGraph, ReportsPerStepTraffic) {
  ParallelCharmmConfig cfg;
  cfg.system = SystemParams::small(240);
  cfg.run.steps = 4;
  cfg.run.nb_rebuild_every = 10;
  cfg.shape = CharmmShape::kStepGraph;
  sim::Machine m(4);
  auto r = run_parallel_charmm(m, cfg);

  ASSERT_EQ(r.step_traffic.size(), 3u);
  EXPECT_EQ(r.step_traffic[0].name, "bonded");
  EXPECT_EQ(r.step_traffic[1].name, "nonbonded");
  EXPECT_EQ(r.step_traffic[2].name, "integrate");
  // Both force steps move ghost traffic in both directions; the local
  // integrate step moves none.
  EXPECT_GT(r.step_traffic[0].gather_msgs, 0u);
  EXPECT_GT(r.step_traffic[0].write_msgs, 0u);
  EXPECT_GT(r.step_traffic[1].gather_bytes, 0u);
  EXPECT_EQ(r.step_traffic[2].gather_msgs, 0u);
  EXPECT_EQ(r.step_traffic[2].write_msgs, 0u);
}

TEST(CharmmStepGraph, PipeliningDoesNotSlowTheRunDown) {
  ParallelCharmmConfig cfg;
  cfg.system = SystemParams::small(300);
  cfg.run.steps = 6;
  cfg.run.nb_rebuild_every = 10;

  sim::Machine m1(4), m2(4);
  cfg.shape = CharmmShape::kStepGraph;
  auto pipelined = run_parallel_charmm(m1, cfg);
  cfg.shape = CharmmShape::kStepGraphEager;
  auto eager = run_parallel_charmm(m2, cfg);
  EXPECT_LE(pipelined.execution_time, eager.execution_time);
}

}  // namespace
}  // namespace chaos::charmm
