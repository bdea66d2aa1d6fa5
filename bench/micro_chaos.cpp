// Wall-clock microbenchmarks (google-benchmark) of the CHAOS++ primitives
// themselves: inspector hashing (cold, warm, and a cache-missing adaptive
// re-hash), schedule generation, cross-epoch seeding, residue lowering,
// transport, the engine's post/flush/wait path per word, light-weight
// schedules, the partitioners, the two CHARMM host kernels (non-bonded
// row, cell-list build) and the two DSMC per-step passes (cell-ordered
// collide, fused move). These measure
// the real implementation on the host, complementing the modeled-time
// table harnesses.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <numeric>

#include "apps/charmm/forces.hpp"
#include "apps/charmm/neighbor.hpp"
#include "apps/dsmc/parallel.hpp"
#include "compile/schedule_plan.hpp"
#include "core/chaos.hpp"
#include "util/rng.hpp"

namespace {

using namespace chaos;
using core::GlobalIndex;

std::vector<int> random_map(GlobalIndex n, int nparts, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<int> map(static_cast<size_t>(n));
  for (auto& p : map)
    p = static_cast<int>(rng.below(static_cast<std::uint64_t>(nparts)));
  return map;
}

void BM_HashColdInsert(benchmark::State& state) {
  const GlobalIndex n = state.range(0);
  sim::Machine machine(1);
  for (auto _ : state) {
    machine.run([&](sim::Comm& comm) {
      std::vector<int> map(static_cast<size_t>(n), 0);
      auto table = core::TranslationTable::from_full_map(comm, map);
      core::IndexHashTable hash(n);
      std::vector<GlobalIndex> ind(static_cast<size_t>(n));
      std::iota(ind.begin(), ind.end(), GlobalIndex{0});
      hash.hash(comm, table, ind);
      benchmark::DoNotOptimize(ind.data());
    });
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_HashColdInsert)->Arg(10000)->Arg(100000);

void BM_HashWarmRehash(benchmark::State& state) {
  // The adaptive-problem fast path: re-hashing an unchanged indirection
  // array (hits only, no translation).
  const GlobalIndex n = state.range(0);
  sim::Machine machine(1);
  machine.run([&](sim::Comm& comm) {
    std::vector<int> map(static_cast<size_t>(n), 0);
    auto table = core::TranslationTable::from_full_map(comm, map);
    core::IndexHashTable hash(n);
    std::vector<GlobalIndex> ind(static_cast<size_t>(n));
    std::iota(ind.begin(), ind.end(), GlobalIndex{0});
    hash.hash(comm, table, ind);
    for (auto _ : state) {
      std::vector<GlobalIndex> again(static_cast<size_t>(n));
      std::iota(again.begin(), again.end(), GlobalIndex{0});
      const core::Stamp s = hash.hash(comm, table, again);
      hash.clear_stamp(s);
      benchmark::DoNotOptimize(again.data());
    }
  });
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_HashWarmRehash)->Arg(10000)->Arg(100000);

void BM_HashRehashRandom(benchmark::State& state) {
  // The adaptive re-inspection: 250k random references over 524288
  // elements are inspected, range(0) percent of the slots are redrawn, and
  // the whole re-inspection is timed on one path: range(1) == 0 is the full
  // path (clear the loop's stamp, copy the new globals, re-hash every
  // reference), 1 the slot path (IndexHashTable::rehash over the changed
  // slots). Each iteration starts from a freshly inspected table, so both
  // paths see the same table. Unlike BM_HashWarmRehash's iota references,
  // these miss the cache on every probe. The crossover between the two
  // paths sets lang::IndirectionArray::kMaxDeltaShare.
  const GlobalIndex n = 524288;
  const std::size_t nrefs = 250000;
  const auto changed = nrefs * static_cast<std::size_t>(state.range(0)) / 100;
  const bool slot_path = state.range(1) != 0;
  sim::Machine machine(1);
  machine.run([&](sim::Comm& comm) {
    std::vector<int> map(static_cast<size_t>(n), 0);
    auto table = core::TranslationTable::from_full_map(comm, map);
    Rng rng(31);
    std::vector<GlobalIndex> initial(nrefs);
    for (auto& g : initial)
      g = static_cast<GlobalIndex>(rng.below(static_cast<std::uint64_t>(n)));
    std::vector<std::uint32_t> order(nrefs);
    std::iota(order.begin(), order.end(), std::uint32_t{0});
    std::vector<std::uint32_t> slots(changed);
    std::vector<GlobalIndex> old_values(changed);
    for (auto _ : state) {
      state.PauseTiming();
      core::IndexHashTable hash(n);
      std::vector<GlobalIndex> local = initial;
      const core::Stamp stamp = hash.hash(comm, table, local);
      for (std::size_t k = 0; k < changed; ++k)
        std::swap(order[k], order[k + rng.below(nrefs - k)]);
      std::copy_n(order.begin(), changed, slots.begin());
      std::sort(slots.begin(), slots.end());
      std::vector<GlobalIndex> globals = initial;
      for (std::size_t k = 0; k < changed; ++k) {
        old_values[k] = globals[slots[k]];
        globals[slots[k]] =
            static_cast<GlobalIndex>(rng.below(static_cast<std::uint64_t>(n)));
      }
      state.ResumeTiming();
      if (!slot_path ||
          !hash.rehash(comm, table, stamp, local, slots, old_values, globals)) {
        hash.clear_stamp(stamp);
        local.assign(globals.begin(), globals.end());
        benchmark::DoNotOptimize(hash.hash(comm, table, local));
      }
      benchmark::DoNotOptimize(local.data());
      benchmark::ClobberMemory();
    }
  });
  state.SetItemsProcessed(state.iterations() * static_cast<long>(nrefs));
}
BENCHMARK(BM_HashRehashRandom)
    ->ArgsProduct({{1, 10, 25, 50}, {0, 1}})
    ->ArgNames({"pct", "slot"})
    ->Unit(benchmark::kMillisecond);

void BM_SeedFrom(benchmark::State& state) {
  // Cross-epoch reuse after a repartition that moves each rank's top 5% of
  // elements to the next rank: owner delta, translation-table patch and
  // registry seeding of one inspected loop over 262144 elements. Timed per
  // repartition, slowest rank. Arg 0: 125k random references per rank,
  // inspected once. Arg 1: 250k, then 10% of the slots redrawn and
  // re-inspected through the slot-level record before the repartition —
  // the re-inspected (non-pristine) epoch sweep_adaptive seeds from.
  const GlobalIndex n = 262144;
  const bool reinspect = state.range(0) != 0;
  const std::size_t nrefs = reinspect ? 250000 : 125000;
  const int P = 4;
  sim::Machine machine(P);
  for (auto _ : state) {
    double seconds = 0;
    machine.run([&](sim::Comm& comm) {
      Runtime rt(comm);
      const DistHandle d = rt.block(n);
      Rng rng(41 + static_cast<std::uint64_t>(comm.rank()));
      const auto draw = [&] {
        return static_cast<GlobalIndex>(
            rng.below(static_cast<std::uint64_t>(n)));
      };
      std::vector<GlobalIndex> refs(nrefs);
      for (auto& g : refs) g = draw();
      lang::IndirectionArray ind(refs);
      (void)rt.inspect(d, ind);
      if (reinspect) {
        for (std::size_t k = 0; k < nrefs / 10; ++k)
          refs[static_cast<std::size_t>(rng.below(nrefs))] = draw();
        ind.assign(std::move(refs));
        (void)rt.inspect(d, ind);
      }
      std::vector<int> map = rt.dist(d).map();
      const GlobalIndex per = n / P;
      for (GlobalIndex g = 0; g < n; ++g)
        if (g % per >= per - per / 20)
          map[static_cast<size_t>(g)] = (map[static_cast<size_t>(g)] + 1) % P;
      comm.barrier();
      const auto t0 = std::chrono::steady_clock::now();
      benchmark::DoNotOptimize(rt.repartition(d, std::move(map)));
      const double dt = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
      const double slowest = comm.allreduce_max(dt);
      if (comm.rank() == 0) seconds = slowest;
    });
    state.SetIterationTime(seconds);
  }
}
BENCHMARK(BM_SeedFrom)
    ->Arg(0)
    ->Arg(1)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

void BM_LowerResidue(benchmark::State& state) {
  // Lowering a residue-only schedule: 150k random indices, no run long
  // enough for a segment op.
  const std::size_t len = 150000;
  Rng rng(51);
  std::vector<GlobalIndex> idx(len);
  for (auto& i : idx) i = static_cast<GlobalIndex>(rng.below(1u << 20));
  std::vector<core::ScheduleBlock> send;
  send.push_back(core::ScheduleBlock{1, std::move(idx)});
  const core::Schedule sched(std::move(send), {});
  for (auto _ : state) {
    const compile::SchedulePlan plan = compile::SchedulePlan::compile(sched);
    benchmark::DoNotOptimize(plan.stats().residue_elements);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(len));
}
BENCHMARK(BM_LowerResidue)->Unit(benchmark::kMillisecond);

void BM_ScheduleBuildAndGather(benchmark::State& state) {
  const GlobalIndex n = state.range(0);
  const int P = 4;
  sim::Machine machine(P);
  for (auto _ : state) {
    machine.run([&](sim::Comm& comm) {
      auto map = random_map(n, P, 11);
      auto table = core::TranslationTable::from_full_map(comm, map);
      core::IndexHashTable hash(table.owned_count(comm.rank()));
      Rng rng(static_cast<std::uint64_t>(comm.rank()) + 3);
      std::vector<GlobalIndex> ind(static_cast<size_t>(n / P));
      for (auto& g : ind)
        g = static_cast<GlobalIndex>(rng.below(static_cast<std::uint64_t>(n)));
      const core::Stamp s = hash.hash(comm, table, ind);
      core::Schedule sched =
          core::build_schedule(comm, hash, core::StampExpr::only(s));
      std::vector<double> data(static_cast<size_t>(hash.local_extent()), 1.0);
      const compile::SchedulePlan plan = compile::SchedulePlan::verbatim(sched);
      comm::Engine engine(comm);
      engine.wait(engine.post_gather<double>(sched, std::span<double>{data},
                                             plan));
      benchmark::DoNotOptimize(data.data());
    });
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ScheduleBuildAndGather)->Arg(40000);

void BM_EnginePostWait(benchmark::State& state) {
  // The engine's host cost per word: post_gather + post_scatter_add into
  // one batch, flush, wait. 4 ranks, 2^18 doubles each way machine-wide,
  // spread evenly over every rank pair, through a run-only plan (Arg 0:
  // contiguous send blocks, compiled) or a residue-only plan (Arg 1:
  // shuffled send blocks, verbatim). Manual time is the slowest rank's
  // mean post-to-wait span over kRounds rounds after one warm-up round;
  // bytes count both directions machine-wide.
  constexpr int kRounds = 8;
  const int P = 4;
  const GlobalIndex words = GlobalIndex{1} << 18;
  const GlobalIndex per_link = words / (P * (P - 1));
  const bool residue = state.range(0) != 0;
  sim::Machine machine(P);
  for (auto _ : state) {
    double seconds = 0.0;
    machine.run([&](sim::Comm& comm) {
      const GlobalIndex owned = per_link * (P - 1);
      Rng rng(static_cast<std::uint64_t>(comm.rank()) + 29);
      std::vector<core::ScheduleBlock> send, recv;
      GlobalIndex k = 0;
      for (int q = 0; q < P; ++q) {
        if (q == comm.rank()) continue;
        std::vector<GlobalIndex> out(static_cast<std::size_t>(per_link));
        std::vector<GlobalIndex> in(out.size());
        for (GlobalIndex j = 0; j < per_link; ++j) {
          out[static_cast<std::size_t>(j)] = k * per_link + j;
          in[static_cast<std::size_t>(j)] = owned + k * per_link + j;
        }
        if (residue)
          for (std::size_t j = out.size(); j > 1; --j)
            std::swap(out[j - 1], out[rng.below(j)]);
        send.push_back(core::ScheduleBlock{q, std::move(out)});
        recv.push_back(core::ScheduleBlock{q, std::move(in)});
        ++k;
      }
      const core::Schedule sched(std::move(send), std::move(recv));
      const compile::SchedulePlan plan =
          residue ? compile::SchedulePlan::verbatim(sched)
                  : compile::SchedulePlan::compile(sched);
      std::vector<double> data(static_cast<std::size_t>(2 * owned), 1.0);
      comm::Engine engine(comm);
      const auto round = [&] {
        const comm::CommHandle g =
            engine.post_gather<double>(sched, std::span<double>{data}, plan);
        const comm::CommHandle s = engine.post_scatter_add<double>(
            sched, std::span<double>{data}, plan);
        engine.flush();
        engine.wait(g);
        engine.wait(s);
      };
      round();
      comm.barrier();
      const auto t0 = std::chrono::steady_clock::now();
      for (int r = 0; r < kRounds; ++r) round();
      const double dt = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
      benchmark::DoNotOptimize(data.data());
      benchmark::ClobberMemory();
      const double slowest = comm.allreduce_max(dt);
      if (comm.rank() == 0) seconds = slowest / kRounds;
    });
    state.SetIterationTime(seconds);
  }
  state.SetBytesProcessed(state.iterations() * 2 * per_link * P * (P - 1) *
                          static_cast<std::int64_t>(sizeof(double)));
}
BENCHMARK(BM_EnginePostWait)
    ->Arg(0)
    ->Arg(1)
    ->UseManualTime()
    ->Unit(benchmark::kMicrosecond);

void BM_LightweightMigration(benchmark::State& state) {
  const GlobalIndex n = state.range(0);
  const int P = 4;
  sim::Machine machine(P);
  for (auto _ : state) {
    machine.run([&](sim::Comm& comm) {
      Rng rng(static_cast<std::uint64_t>(comm.rank()) + 7);
      std::vector<double> items(static_cast<size_t>(n / P));
      std::vector<int> dest(items.size());
      for (auto& d : dest) d = static_cast<int>(rng.below(P));
      auto sched = core::LightweightSchedule::build(comm, dest);
      std::vector<double> out;
      core::scatter_append<double>(comm, sched, items, out);
      benchmark::DoNotOptimize(out.data());
    });
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_LightweightMigration)->Arg(40000);

void BM_RcbPartition(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(5);
  std::vector<part::Point3> pts(n);
  for (auto& p : pts) p = {rng.uniform(), rng.uniform(), rng.uniform()};
  std::vector<double> w(n, 1.0);
  for (auto _ : state) {
    auto a = part::recursive_coordinate_bisection(pts, w, 64);
    benchmark::DoNotOptimize(a.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(n));
}
BENCHMARK(BM_RcbPartition)->Arg(100000);

void BM_ChainPartition(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(6);
  std::vector<double> w(n);
  for (auto& x : w) x = rng.uniform(0.5, 1.5);
  for (auto _ : state) {
    auto b = part::chain_partition(w, 64);
    benchmark::DoNotOptimize(b.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(n));
}
BENCHMARK(BM_ChainPartition)->Arg(100000);

void BM_TranslationLookupDistributed(benchmark::State& state) {
  const GlobalIndex n = 100000;
  const int P = 4;
  sim::Machine machine(P);
  for (auto _ : state) {
    machine.run([&](sim::Comm& comm) {
      auto map = random_map(n, P, 21);
      part::BlockLayout pages(n, P);
      std::vector<int> slice(
          map.begin() + pages.first(comm.rank()),
          map.begin() + pages.first(comm.rank()) + pages.size_of(comm.rank()));
      auto table = core::TranslationTable::build_distributed(comm, slice);
      Rng rng(static_cast<std::uint64_t>(comm.rank()));
      std::vector<GlobalIndex> queries(5000);
      for (auto& q : queries)
        q = static_cast<GlobalIndex>(rng.below(static_cast<std::uint64_t>(n)));
      auto homes = table.lookup(comm, queries);
      benchmark::DoNotOptimize(homes.data());
    });
  }
  state.SetItemsProcessed(state.iterations() * 5000 * P);
}
BENCHMARK(BM_TranslationLookupDistributed);

/// The paper-size CHARMM system (14026 atoms) with every atom a list row.
struct CharmmFixture {
  charmm::MolecularSystem sys =
      charmm::MolecularSystem::generate(charmm::SystemParams{});
  std::vector<GlobalIndex> rows = [this] {
    std::vector<GlobalIndex> r(sys.size());
    std::iota(r.begin(), r.end(), GlobalIndex{0});
    return r;
  }();
};

void BM_CharmmNonbondedRow(benchmark::State& state) {
  // The non-bonded force loop over the full half list, row by row; arg 0
  // is the portable scalar body, arg 1 the AVX2 body. per_pair is the host
  // time per pair.
  const CharmmFixture f;
  const bool avx2 = state.range(0) == 1;
  if (avx2 && !charmm::host_has_avx2()) {
    state.SkipWithError("this CPU has no AVX2");
    return;
  }
  const auto body =
      avx2 ? &charmm::nonbonded_row_avx2 : &charmm::nonbonded_row_scalar;
  const charmm::NonbondedList list = charmm::build_nonbonded_list(
      f.sys.pos, f.rows, f.sys.params.cutoff, f.sys.params.box, nullptr,
      f.sys.bonds);
  std::vector<part::Vec3> acc(f.sys.size());
  for (auto _ : state) {
    for (std::size_t r = 0; r < list.rows(); ++r)
      body(f.sys.pos.data(), acc.data(), r, list.jnb.data() + list.inblo[r],
           static_cast<std::size_t>(list.inblo[r + 1] - list.inblo[r]),
           f.sys.params.cutoff, f.sys.params.box);
    benchmark::DoNotOptimize(acc.data());
    benchmark::ClobberMemory();
  }
  state.counters["per_pair"] = benchmark::Counter(
      static_cast<double>(list.pairs()),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK(BM_CharmmNonbondedRow)
    ->ArgName("avx2")
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

void BM_CharmmNeighborBuild(benchmark::State& state) {
  // The cell-list build of the full half list with bonded exclusions.
  // per_candidate is the host time per candidate pair examined.
  const CharmmFixture f;
  charmm::NeighborBuildStats stats;
  for (auto _ : state) {
    const charmm::NonbondedList list = charmm::build_nonbonded_list(
        f.sys.pos, f.rows, f.sys.params.cutoff, f.sys.params.box, &stats,
        f.sys.bonds);
    benchmark::DoNotOptimize(list.jnb.data());
  }
  state.counters["per_candidate"] = benchmark::Counter(
      static_cast<double>(stats.candidates_examined),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK(BM_CharmmNeighborBuild)->Unit(benchmark::kMillisecond);

/// Rank 0 of 4 in the DSMC benchmark workload, at steady state: ~65k
/// particles at the workload's density (16 a cell, the density ramp, 1%
/// deaths, a quarter of its 2621 births a step) on a 64x64 grid this rank
/// owns whole, so every particle stays and the move pass carries every
/// resident's cell slot, as it does for the ~95% that stay in a real run.
struct DsmcFixture {
  dsmc::DsmcParams p = [] {
    dsmc::DsmcParams q;
    q.nx = q.ny = 64;
    q.n_particles = 65536;
    q.nonuniform_init = true;
    q.flow_bias = 0.8;
    q.drift = 0.5;
    q.births_per_step = 4 * q.n_particles / 100;
    q.death_rate = 0.01;
    return q;
  }();
  std::vector<int> cell_map = std::vector<int>(
      static_cast<std::size_t>(p.n_cells()), 0);
  std::vector<std::int32_t> cell_slot = [this] {
    std::vector<std::int32_t> s(static_cast<std::size_t>(p.n_cells()));
    std::iota(s.begin(), s.end(), 0);
    return s;
  }();
  std::vector<dsmc::Particle> parts = dsmc::generate_particles(p);
  std::vector<dsmc::Particle> spare;
  std::vector<int> dest;
  dsmc::CellOrder order;
  int step = 0;

  /// Sort, then gather and collide cell by cell (slot s is cell s).
  void collide() {
    order.sort(p, cell_slot, cell_slot.size(), parts, spare);
    for (std::size_t s = 0; s < cell_slot.size(); ++s)
      benchmark::DoNotOptimize(dsmc::collide_cell(
          p, static_cast<GlobalIndex>(s), step, order.gather(s, parts, spare)));
    parts.swap(spare);
  }
  void move() {
    dsmc::move_pass(p, step++, cell_map, cell_slot, 0, 4, parts, dest, order);
  }
};

void BM_DsmcCollidePhase(benchmark::State& state) {
  // One rank's collide phase: locate the particles without a carried slot
  // (here the newborns), counting-sort by (cell, id), then gather and
  // collide cell by cell. The untimed move pass between iterations evolves
  // the state as a run does. per_particle is the host time per particle.
  DsmcFixture f;
  double particles = 0;
  for (auto _ : state) {
    state.PauseTiming();
    f.move();
    state.ResumeTiming();
    particles += static_cast<double>(f.parts.size());
    f.collide();
    benchmark::DoNotOptimize(f.parts.data());
    benchmark::ClobberMemory();
  }
  state.counters["per_particle"] = benchmark::Counter(
      particles, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_DsmcCollidePhase)->Unit(benchmark::kMillisecond);

void BM_DsmcMovePass(benchmark::State& state) {
  // One rank's fused move pass over the cell-ordered array the collide
  // phase leaves: advance, absorb with in-place compaction, newborns,
  // destination ranks and carried cell slots. The untimed collide between
  // iterations evolves the state as a run does. per_particle is the host
  // time per particle moved.
  DsmcFixture f;
  double particles = 0;
  for (auto _ : state) {
    state.PauseTiming();
    f.collide();
    state.ResumeTiming();
    particles += static_cast<double>(f.parts.size());
    f.move();
    benchmark::DoNotOptimize(f.parts.data());
    benchmark::DoNotOptimize(f.dest.data());
    benchmark::ClobberMemory();
  }
  state.counters["per_particle"] = benchmark::Counter(
      particles, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_DsmcMovePass)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
