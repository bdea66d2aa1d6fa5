// Mini-DSMC tests: physics invariants, the determinism contract, and exact
// parallel-vs-sequential agreement across processor counts, migration
// modes, remapping partitioners, and the compiler-generated path.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "apps/dsmc/parallel.hpp"
#include "apps/dsmc/sequential.hpp"
#include "support/seeds.hpp"

namespace chaos::dsmc {
namespace {

DsmcParams small_params() {
  DsmcParams p;
  p.nx = 8;
  p.ny = 8;
  p.nz = 1;
  p.n_particles = 400;
  p.seed = 11;
  return p;
}

TEST(Dsmc, CellOfMapsPositionsToGrid) {
  DsmcParams p = small_params();
  Particle q;
  q.x = 0.5;
  q.y = 0.5;
  EXPECT_EQ(cell_of(p, q), 0);
  q.x = 7.9;
  q.y = 7.9;
  EXPECT_EQ(cell_of(p, q), 63);
  q.x = 3.2;
  q.y = 1.7;
  EXPECT_EQ(cell_of(p, q), 3 + 8 * 1);
}

TEST(Dsmc, ChainPositionRoundTrips) {
  DsmcParams p;
  p.nx = 6;
  p.ny = 4;
  p.nz = 3;
  for (GlobalIndex c = 0; c < p.n_cells(); ++c)
    EXPECT_EQ(cell_at_chain_position(p, chain_position(p, c)), c);
  // Chain order is x-slowest: consecutive chain positions within one slab
  // share the same x index.
  const GlobalIndex c0 = cell_at_chain_position(p, 0);
  const GlobalIndex c1 = cell_at_chain_position(p, 1);
  EXPECT_EQ(c0 % p.nx, c1 % p.nx);
}

TEST(Dsmc, GenerationDeterministicAndInBounds) {
  DsmcParams p = small_params();
  auto a = generate_particles(p);
  auto b = generate_particles(p);
  ASSERT_EQ(a.size(), 400u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].x, b[i].x);
    EXPECT_EQ(a[i].vy, b[i].vy);
    EXPECT_GE(a[i].x, 0.0);
    EXPECT_LT(a[i].x, p.nx);
    EXPECT_GE(a[i].y, 0.0);
    EXPECT_LT(a[i].y, p.ny);
  }
}

TEST(Dsmc, FlowBiasShiftsMeanVelocity) {
  DsmcParams p = small_params();
  p.n_particles = 20000;
  auto parts = generate_particles(p);
  double mean_vx = 0;
  for (const auto& q : parts) mean_vx += q.vx;
  mean_vx /= static_cast<double>(parts.size());
  EXPECT_NEAR(mean_vx, p.flow_bias * p.drift, 0.02);
}

TEST(Dsmc, NonuniformInitRampsDensity) {
  DsmcParams p = small_params();
  p.nonuniform_init = true;
  p.n_particles = 20000;
  auto parts = generate_particles(p);
  int left = 0;
  for (const auto& q : parts)
    if (q.x < p.nx / 2.0) ++left;
  EXPECT_GT(left, 12000);  // most particles start in the left half
}

TEST(Dsmc, AdvanceWrapsPeriodically) {
  DsmcParams p = small_params();
  Particle q;
  q.x = 7.8;
  q.vx = 0.5;
  advance(p, q, 1.0);
  EXPECT_NEAR(q.x, 0.3, 1e-12);
  q.x = 0.1;
  q.vx = -0.5;
  advance(p, q, 1.0);
  EXPECT_NEAR(q.x, 7.6, 1e-12);
}

TEST(Dsmc, CollisionsConserveMomentumAndEnergy) {
  DsmcParams p = small_params();
  auto parts = generate_particles(p);
  std::vector<Particle*> bucket;
  for (std::size_t i = 0; i < 10; ++i) bucket.push_back(&parts[i]);
  auto momentum = [&] {
    part::Vec3 m{};
    double e = 0;
    for (auto* q : bucket) {
      m.x += q->vx;
      m.y += q->vy;
      m.z += q->vz;
      e += q->vx * q->vx + q->vy * q->vy + q->vz * q->vz;
    }
    return std::pair<part::Vec3, double>(m, e);
  };
  auto [m0, e0] = momentum();
  const int done = collide_cell(p, 3, 0, bucket);
  EXPECT_GT(done, 0);
  auto [m1, e1] = momentum();
  EXPECT_NEAR(m0.x, m1.x, 1e-10);
  EXPECT_NEAR(m0.y, m1.y, 1e-10);
  EXPECT_NEAR(m0.z, m1.z, 1e-10);
  EXPECT_NEAR(e0, e1, 1e-9);
}

TEST(Dsmc, SequentialConservesParticles) {
  DsmcParams p = small_params();
  auto r = run_sequential_dsmc(p, 10);
  EXPECT_EQ(r.particles.size(), 400u);
  EXPECT_GT(r.collisions, 0);
  std::set<GlobalIndex> ids;
  for (const auto& q : r.particles) ids.insert(q.id);
  EXPECT_EQ(ids.size(), 400u);
}

// ---- Parallel agreement ----------------------------------------------------

void expect_exact_match(const std::vector<Particle>& par,
                        const std::vector<Particle>& seq) {
  ASSERT_EQ(par.size(), seq.size());
  for (std::size_t i = 0; i < seq.size(); ++i) {
    EXPECT_EQ(par[i].id, seq[i].id);
    EXPECT_EQ(par[i].x, seq[i].x) << "particle " << i;
    EXPECT_EQ(par[i].y, seq[i].y) << "particle " << i;
    EXPECT_EQ(par[i].vx, seq[i].vx) << "particle " << i;
    EXPECT_EQ(par[i].vy, seq[i].vy) << "particle " << i;
  }
}

class DsmcParallelSweep : public ::testing::TestWithParam<int> {};

TEST_P(DsmcParallelSweep, LightweightMatchesSequentialExactly) {
  const int P = GetParam();
  DsmcParams p = small_params();
  auto seq = run_sequential_dsmc(p, 8);

  ParallelDsmcConfig cfg;
  cfg.params = p;
  cfg.steps = 8;
  cfg.collect_state = true;
  sim::Machine m(P);
  auto par = run_parallel_dsmc(m, cfg);
  expect_exact_match(par.particles, seq.particles);
  EXPECT_EQ(par.collisions, seq.collisions);
}

INSTANTIATE_TEST_SUITE_P(Procs, DsmcParallelSweep,
                         ::testing::Values(1, 2, 4, 6));

TEST(DsmcParallel, RegularScheduleModeMatchesExactly) {
  DsmcParams p = small_params();
  auto seq = run_sequential_dsmc(p, 6);
  ParallelDsmcConfig cfg;
  cfg.params = p;
  cfg.steps = 6;
  cfg.executor = DsmcExecutor::kRegular;
  cfg.collect_state = true;
  sim::Machine m(4);
  auto par = run_parallel_dsmc(m, cfg);
  expect_exact_match(par.particles, seq.particles);
}

TEST(DsmcParallel, CompilerGeneratedModeMatchesExactly) {
  DsmcParams p = small_params();
  auto seq = run_sequential_dsmc(p, 6);
  ParallelDsmcConfig cfg;
  cfg.params = p;
  cfg.steps = 6;
  cfg.executor = DsmcExecutor::kCompilerGenerated;
  cfg.collect_state = true;
  sim::Machine m(4);
  auto par = run_parallel_dsmc(m, cfg);
  expect_exact_match(par.particles, seq.particles);
  EXPECT_GT(par.phases.size_recompute, 0.0);
}

TEST(DsmcParallel, RemappingModesMatchExactly) {
  DsmcParams p = small_params();
  p.nonuniform_init = true;
  auto seq = run_sequential_dsmc(p, 9);
  for (auto kind : {core::PartitionerKind::kChain, core::PartitionerKind::kRcb,
                    core::PartitionerKind::kRib}) {
    ParallelDsmcConfig cfg;
    cfg.params = p;
    cfg.steps = 9;
    cfg.remap_every = 3;
    cfg.remap_partitioner = kind;
    cfg.collect_state = true;
    sim::Machine m(4);
    auto par = run_parallel_dsmc(m, cfg);
    expect_exact_match(par.particles, seq.particles);
    EXPECT_GT(par.phases.remap, 0.0);
  }
}

TEST(DsmcParallel, RemapOverlapSafeWithEpochRetiringModes) {
  // The remap phase posts the particle migration through the comm engine
  // and rebuilds the cell ownership structures while the transfer is in
  // flight. In the compiler-generated and regular-migration shapes that
  // rebuild retires a distribution epoch and constructs a new one
  // (collective) mid-flight — exactly the interaction that must not
  // deadlock, reorder arrivals, or touch freed buffers.
  DsmcParams p = small_params();
  p.nonuniform_init = true;
  auto seq = run_sequential_dsmc(p, 9);

  ParallelDsmcConfig compiler;
  compiler.params = p;
  compiler.steps = 9;
  compiler.remap_every = 3;
  compiler.executor = DsmcExecutor::kCompilerGenerated;
  compiler.collect_state = true;
  sim::Machine m1(4);
  auto par_compiler = run_parallel_dsmc(m1, compiler);
  expect_exact_match(par_compiler.particles, seq.particles);

  ParallelDsmcConfig regular;
  regular.params = p;
  regular.steps = 9;
  regular.remap_every = 3;
  regular.executor = DsmcExecutor::kRegular;
  regular.collect_state = true;
  sim::Machine m2(4);
  auto par_regular = run_parallel_dsmc(m2, regular);
  expect_exact_match(par_regular.particles, seq.particles);
}

TEST(DsmcParallel, LightweightCheaperThanRegular) {
  // Table 4's mechanism: the regular-schedule path must cost substantially
  // more virtual time for the same physical result. Like the paper, the
  // load is deliberately balanced (no drift) so per-step waits do not mask
  // the preprocessing gap.
  DsmcParams p = small_params();
  p.n_particles = 4000;
  p.flow_bias = 0.0;
  ParallelDsmcConfig cfg;
  cfg.params = p;
  cfg.steps = 10;
  // The light-weight arm is the imperative shape, like the table4 bench:
  // both arms migrate eagerly inside the move step, which isolates the
  // schedule cost difference from step-graph pipelining gains.
  sim::Machine m1(4), m2(4);
  cfg.executor = DsmcExecutor::kImperative;
  auto light = run_parallel_dsmc(m1, cfg);
  cfg.executor = DsmcExecutor::kRegular;
  auto regular = run_parallel_dsmc(m2, cfg);
  // The regular path pays extra charged computation (hashing, placement
  // bookkeeping) and extra communication (placement exchanges) per step;
  // end-to-end it must be measurably slower. (Per-phase maxima can be
  // masked by rendezvous waits at this small scale, so assert on the
  // aggregate metrics.)
  EXPECT_LT(light.computation_time, regular.computation_time);
  EXPECT_LT(light.communication_time * 1.2, regular.communication_time);
  EXPECT_LT(light.execution_time * 1.03, regular.execution_time);
}

TEST(DsmcParallel, RemappingImprovesImbalancedRun) {
  // Table 5's mechanism: with a drifting density blob, periodic remapping
  // must beat the static partition on execution time.
  DsmcParams p;
  p.nx = 24;
  p.ny = 8;
  p.nz = 1;
  p.n_particles = 6000;
  p.nonuniform_init = true;
  p.seed = 5;

  ParallelDsmcConfig cfg;
  cfg.params = p;
  cfg.steps = 40;

  sim::Machine m1(8), m2(8);
  cfg.remap_every = 0;  // static
  auto stat = run_parallel_dsmc(m1, cfg);
  cfg.remap_every = 10;
  cfg.remap_partitioner = core::PartitionerKind::kChain;
  auto remap = run_parallel_dsmc(m2, cfg);
  EXPECT_LT(remap.execution_time, stat.execution_time);
  EXPECT_LT(remap.load_balance, stat.load_balance);
}

TEST(DsmcStepGraph, PipelinedEagerAndImperativeAllMatchExactly) {
  // The move/remap cycle declared as a step graph (the default executor)
  // must be bitwise identical to the eager graph arm AND to the
  // imperative shape's blocking move — including remaps landing while the
  // declared migration is still in flight.
  DsmcParams p = small_params();
  p.nonuniform_init = true;
  auto seq = run_sequential_dsmc(p, 9);

  ParallelDsmcConfig cfg;
  cfg.params = p;
  cfg.steps = 9;
  cfg.remap_every = 3;
  cfg.collect_state = true;

  ASSERT_EQ(cfg.executor, DsmcExecutor::kStepGraph);  // primary by default
  sim::Machine m1(4);
  auto graph = run_parallel_dsmc(m1, cfg);
  expect_exact_match(graph.particles, seq.particles);

  cfg.executor = DsmcExecutor::kStepGraphEager;
  sim::Machine m2(4);
  auto eager = run_parallel_dsmc(m2, cfg);
  expect_exact_match(eager.particles, graph.particles);
  EXPECT_EQ(eager.collisions, graph.collisions);

  cfg.executor = DsmcExecutor::kImperative;
  sim::Machine m3(4);
  auto imperative = run_parallel_dsmc(m3, cfg);
  expect_exact_match(imperative.particles, graph.particles);
  EXPECT_EQ(imperative.collisions, graph.collisions);
}

// ---- Birth/death (dynamic index spaces) ------------------------------------

DsmcParams birth_death_params() {
  DsmcParams p = small_params();
  p.births_per_step = 25;
  p.death_rate = 0.08;
  return p;
}

TEST(DsmcBirthDeath, SequentialConservationMatchesClosedFormModel) {
  // The id universe is a pure function of (seed, step): newborns get
  // n_particles + step*births_per_step + i and absorption is decided by
  // the absorbed() hash alone. Replay that model independently and demand
  // the sequential driver's survivor id set equals it exactly.
  DsmcParams p = birth_death_params();
  const int steps = 10;
  auto r = run_sequential_dsmc(p, steps);

  std::set<GlobalIndex> model;
  for (GlobalIndex id = 0; id < p.n_particles; ++id) model.insert(id);
  for (int step = 0; step < steps; ++step) {
    for (auto it = model.begin(); it != model.end();)
      it = absorbed(p, *it, step) ? model.erase(it) : std::next(it);
    for (GlobalIndex i = 0; i < p.births_per_step; ++i)
      model.insert(p.n_particles + step * p.births_per_step + i);
  }

  ASSERT_EQ(r.particles.size(), model.size());
  std::set<GlobalIndex> got;
  for (const auto& q : r.particles) got.insert(q.id);
  EXPECT_EQ(got, model);
  // Deaths actually happened and births actually happened: the population
  // is neither the initial count nor initial + all births.
  EXPECT_NE(model.size(), static_cast<std::size_t>(p.n_particles));
  EXPECT_LT(model.size(),
            static_cast<std::size_t>(p.n_particles +
                                     steps * p.births_per_step));
}

TEST(DsmcBirthDeath, AllExecutorsMatchSequentialWithRemapExactly) {
  // True particle birth/death through every executor arm — including the
  // pipelined step graph whose migration is in flight when newborns enter
  // and absorbed particles leave — stays bitwise identical to the
  // sequential driver, across periodic remaps of a drifting density.
  DsmcParams p = birth_death_params();
  p.nonuniform_init = true;
  auto seq = run_sequential_dsmc(p, 9);

  ParallelDsmcConfig cfg;
  cfg.params = p;
  cfg.steps = 9;
  cfg.remap_every = 3;
  cfg.collect_state = true;

  ParallelDsmcResult pipelined;
  for (const DsmcExecutor executor :
       {DsmcExecutor::kStepGraph, DsmcExecutor::kStepGraphEager,
        DsmcExecutor::kStepGraphArrival, DsmcExecutor::kImperative,
        DsmcExecutor::kRegular, DsmcExecutor::kCompilerGenerated}) {
    cfg.executor = executor;
    sim::Machine m(4);
    auto par = run_parallel_dsmc(m, cfg);
    expect_exact_match(par.particles, seq.particles);
    EXPECT_EQ(par.collisions, seq.collisions);
    if (executor == DsmcExecutor::kStepGraph) pipelined = std::move(par);
  }
}

TEST(DsmcBirthDeath, ParallelSweepMatchesAcrossProcessorCounts) {
  DsmcParams p = birth_death_params();
  auto seq = run_sequential_dsmc(p, 8);
  for (const int P : {1, 2, 4, 6}) {
    ParallelDsmcConfig cfg;
    cfg.params = p;
    cfg.steps = 8;
    cfg.collect_state = true;
    sim::Machine m(P);
    auto par = run_parallel_dsmc(m, cfg);
    expect_exact_match(par.particles, seq.particles);
    EXPECT_EQ(par.collisions, seq.collisions);
  }
}

TEST(DsmcBirthDeath, PeakBytesStayBelowFixedCapacityOverAllocation) {
  // The point of dynamic index spaces for DSMC: storage tracks the LIVE
  // population. The pre-dynamic shape had to provision one slot for every
  // particle ever alive (initial + steps * births); with real deletion the
  // summed per-rank peaks must come in clearly under that bound.
  DsmcParams p = birth_death_params();
  p.death_rate = 0.15;  // strong absorption: live population shrinks fast
  const int steps = 12;
  ParallelDsmcConfig cfg;
  cfg.params = p;
  cfg.steps = steps;
  sim::Machine m(4);
  auto par = run_parallel_dsmc(m, cfg);

  const std::size_t ever_alive = static_cast<std::size_t>(
      p.n_particles + steps * p.births_per_step);
  const std::size_t fixed_capacity = ever_alive * sizeof(Particle);
  EXPECT_GT(par.peak_particle_bytes, 0u);
  EXPECT_LT(par.peak_particle_bytes, fixed_capacity);
}

TEST(DsmcBirthDeath, DeliveryPermutationFuzzStaysConservativeAndBitwise) {
  // Adversarial message timing: migrate batches carrying newborn particles
  // (and missing absorbed ones) are delivered in seeded-random permuted
  // order with jittered latencies. Every permutation must conserve the
  // model id universe and agree bitwise with the unperturbed oracle.
  DsmcParams p = birth_death_params();
  p.nonuniform_init = true;

  ParallelDsmcConfig cfg;
  cfg.params = p;
  cfg.steps = 8;
  cfg.remap_every = 4;
  cfg.collect_state = true;

  sim::Machine oracle_m(4);
  const auto oracle = run_parallel_dsmc(oracle_m, cfg);
  std::set<GlobalIndex> oracle_ids;
  for (const auto& q : oracle.particles) oracle_ids.insert(q.id);

  const std::uint64_t nseeds =
      chaos::testing_support::seed_count(10, "CHAOS_DSMC_FUZZ_SEEDS");
  for (std::uint64_t seed = 1; seed <= nseeds; ++seed) {
    SCOPED_TRACE("perm seed=" + std::to_string(seed));
    sim::Machine m(4);
    m.set_delivery_permutation(seed, 1e-3 * (1.0 + static_cast<double>(seed % 7)));
    auto par = run_parallel_dsmc(m, cfg);
    std::set<GlobalIndex> ids;
    for (const auto& q : par.particles) ids.insert(q.id);
    ASSERT_EQ(ids, oracle_ids);  // conservation: nothing lost or duplicated
    expect_exact_match(par.particles, oracle.particles);
    EXPECT_EQ(par.collisions, oracle.collisions);
    if (::testing::Test::HasFailure()) break;
  }
}

TEST(DsmcBirthDeath, AutonomicRebalancesMatchSequentialExactly) {
  // Policy-driven rebalances land between a move pass (which carries the
  // stayers' owned-cell slots) and the next collide: every executor arm
  // must drop those slots with the retired cell numbering and stay bitwise
  // identical to the sequential driver through diffusions and rebuilds.
  DsmcParams p = birth_death_params();
  p.nonuniform_init = true;
  const int steps = 24;
  auto seq = run_sequential_dsmc(p, steps);

  ParallelDsmcConfig cfg;
  cfg.params = p;
  cfg.steps = steps;
  cfg.collect_state = true;
  cfg.autonomic = true;
  cfg.policy.window_steps = 2;
  cfg.policy.trigger_balance = 1.0;
  cfg.policy.rebuild_balance = 1.05;
  cfg.policy.payoff_horizon_steps = 1e9;
  cfg.remap_partitioner = core::PartitionerKind::kRcb;

  for (const int P : {3, 4}) {
    for (const DsmcExecutor executor :
         {DsmcExecutor::kStepGraph, DsmcExecutor::kStepGraphEager,
          DsmcExecutor::kStepGraphArrival, DsmcExecutor::kImperative}) {
      SCOPED_TRACE("P=" + std::to_string(P) + " executor=" +
                   std::to_string(static_cast<int>(executor)));
      cfg.executor = executor;
      sim::Machine m(P);
      auto par = run_parallel_dsmc(m, cfg);
      EXPECT_GE(par.diffusions, 1);
      EXPECT_GE(par.rebuilds, 1);
      expect_exact_match(par.particles, seq.particles);
      EXPECT_EQ(par.collisions, seq.collisions);
    }
  }
}

TEST(DsmcParallel, VirtualTimesDeterministic) {
  DsmcParams p = small_params();
  ParallelDsmcConfig cfg;
  cfg.params = p;
  cfg.steps = 5;
  double first = -1;
  for (int trial = 0; trial < 3; ++trial) {
    sim::Machine m(4);
    auto r = run_parallel_dsmc(m, cfg);
    if (trial == 0)
      first = r.execution_time;
    else
      EXPECT_EQ(r.execution_time, first);
  }
}

}  // namespace
}  // namespace chaos::dsmc
