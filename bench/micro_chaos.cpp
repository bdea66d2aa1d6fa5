// Wall-clock microbenchmarks (google-benchmark) of the CHAOS++ primitives
// themselves: inspector hashing (cold, warm, and a cache-missing adaptive
// re-hash), schedule generation, cross-epoch seeding, residue lowering,
// transport, light-weight schedules, the partitioners, and the two CHARMM
// host kernels (non-bonded row, cell-list build). These measure
// the real implementation on the host, complementing the modeled-time
// table harnesses.
#include <benchmark/benchmark.h>

#include <chrono>
#include <numeric>

#include "apps/charmm/forces.hpp"
#include "apps/charmm/neighbor.hpp"
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
  // elements, 10% of them replaced, re-hashed. Unlike BM_HashWarmRehash's
  // iota references, these miss the cache on every probe.
  const GlobalIndex n = 524288;
  const std::size_t nrefs = 250000;
  sim::Machine machine(1);
  machine.run([&](sim::Comm& comm) {
    std::vector<int> map(static_cast<size_t>(n), 0);
    auto table = core::TranslationTable::from_full_map(comm, map);
    core::IndexHashTable hash(n);
    Rng rng(31);
    std::vector<GlobalIndex> refs(nrefs);
    for (auto& g : refs)
      g = static_cast<GlobalIndex>(rng.below(static_cast<std::uint64_t>(n)));
    std::vector<GlobalIndex> again = refs;
    hash.hash(comm, table, again);
    for (auto _ : state) {
      state.PauseTiming();
      again = refs;
      for (std::size_t k = 0; k < nrefs / 10; ++k)
        again[rng.below(nrefs)] =
            static_cast<GlobalIndex>(rng.below(static_cast<std::uint64_t>(n)));
      state.ResumeTiming();
      const core::Stamp s = hash.hash(comm, table, again);
      benchmark::DoNotOptimize(again.data());
      state.PauseTiming();
      hash.clear_stamp(s);
      state.ResumeTiming();
    }
  });
  state.SetItemsProcessed(state.iterations() * static_cast<long>(nrefs));
}
BENCHMARK(BM_HashRehashRandom)->Unit(benchmark::kMillisecond);

void BM_SeedFrom(benchmark::State& state) {
  // Cross-epoch reuse after a repartition that moves each rank's top 5% of
  // elements to the next rank: owner delta, translation-table patch and
  // registry seeding of one inspected loop (125k random references per
  // rank over 262144 elements). Timed per repartition, slowest rank.
  const GlobalIndex n = 262144;
  const std::size_t nrefs = 125000;
  const int P = 4;
  sim::Machine machine(P);
  for (auto _ : state) {
    double seconds = 0;
    machine.run([&](sim::Comm& comm) {
      Runtime rt(comm);
      const DistHandle d = rt.block(n);
      Rng rng(41 + static_cast<std::uint64_t>(comm.rank()));
      std::vector<GlobalIndex> refs(nrefs);
      for (auto& g : refs)
        g = static_cast<GlobalIndex>(rng.below(static_cast<std::uint64_t>(n)));
      const lang::IndirectionArray ind(std::move(refs));
      (void)rt.inspect(d, ind);
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
BENCHMARK(BM_SeedFrom)->UseManualTime()->Unit(benchmark::kMillisecond);

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
      core::gather<double>(comm, sched, data);
      benchmark::DoNotOptimize(data.data());
    });
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ScheduleBuildAndGather)->Arg(40000);

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

}  // namespace

BENCHMARK_MAIN();
