// Schedule compilation: run detection units + randomized bitwise
// equivalence of plan execution against the reference executor.
//
// Executing a plan (compile/schedule_plan.hpp) claims to reproduce the
// element-at-a-time executor's byte stream, placement order, and combining
// order exactly. The headline tests here are that property, randomized
// against the oracle in tests/support/reference_executor.hpp:
//   - Runtime-built schedules: every executed direction (gather / scatter
//     / scatter_add) through the Runtime's compiled plans must leave
//     element-for-element the arrays the oracle leaves on the same
//     schedule, for replicated AND paged translation, including the
//     degenerate schedules (empty, singleton, all-residue) where the
//     lowering has no runs to find;
//   - hand-built schedules (several blocks per peer, self blocks, empty
//     and singleton blocks): compiled AND verbatim plans must match the
//     oracle bitwise in all three directions, and the verbatim plan must
//     also advance modeled time by exactly the oracle's amount.
//
// Also covered deterministically:
//   - the lowering itself: maximal-run detection, short runs and
//     zero-stride repeats falling to the (merged) residue, hull bounds
//   - the three executor kernels against hand-walked expectations
//   - carry_patched reusing send-side plans verbatim across a repartition
//   - remap_ghost_locality: the permuted ghost region still localizes and
//     gathers the right global elements, and matches the oracle
//   - the registry counters (compiled_plans, carried_compiled_plans,
//     recompiles_after_repartition) proving both cross-epoch paths ran
//
// Seed count and base are env-overridable so the CI stress label can run
// extra random seeds: CHAOS_COMPILE_SEEDS=10 CHAOS_COMPILE_SEED_BASE=7000
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "compile/schedule_plan.hpp"
#include "runtime/runtime.hpp"
#include "support/equivalence.hpp"
#include "support/reference_executor.hpp"
#include "support/reference_lowering.hpp"
#include "support/seeds.hpp"
#include "util/rng.hpp"

namespace chaos {
namespace {

using core::GlobalIndex;
using core::Schedule;
using core::ScheduleBlock;
using sim::Comm;
using sim::Machine;
namespace ts = testing_support;

using testing_support::env_seed_u64;
using testing_support::seed_count;

Schedule one_send_block(std::vector<GlobalIndex> idx) {
  std::vector<ScheduleBlock> send;
  send.push_back(ScheduleBlock{1, std::move(idx)});
  return Schedule(std::move(send), {});
}

// ---- lowering units --------------------------------------------------------

TEST(ScheduleCompile, ContiguousRunLowersToOneMemcpyOp) {
  const compile::SchedulePlan plan =
      compile::SchedulePlan::compile(one_send_block({3, 4, 5, 6, 7, 8}));
  ASSERT_EQ(plan.send().size(), 1u);
  const compile::BlockPlan& b = plan.send()[0];
  ASSERT_EQ(b.ops.size(), 1u);
  EXPECT_EQ(b.ops[0].start, 3);
  EXPECT_EQ(b.ops[0].len, 6);
  EXPECT_EQ(b.ops[0].stride, 1);
  EXPECT_TRUE(b.residue.empty());
  EXPECT_EQ(b.lo, 3);
  EXPECT_EQ(b.hi, 8);
  EXPECT_EQ(plan.stats().run_ops, 1u);
  EXPECT_EQ(plan.stats().run_elements, 6u);
  EXPECT_EQ(plan.stats().residue_elements, 0u);
}

TEST(ScheduleCompile, StridedRunsIncludingDescending) {
  const compile::SchedulePlan up =
      compile::SchedulePlan::compile(one_send_block({0, 3, 6, 9, 12}));
  ASSERT_EQ(up.send()[0].ops.size(), 1u);
  EXPECT_EQ(up.send()[0].ops[0].stride, 3);
  EXPECT_EQ(up.send()[0].ops[0].len, 5);

  const compile::SchedulePlan down =
      compile::SchedulePlan::compile(one_send_block({20, 19, 18, 17, 16}));
  ASSERT_EQ(down.send()[0].ops.size(), 1u);
  EXPECT_EQ(down.send()[0].ops[0].start, 20);
  EXPECT_EQ(down.send()[0].ops[0].stride, -1);
  EXPECT_EQ(down.send()[0].lo, 16);
  EXPECT_EQ(down.send()[0].hi, 20);
}

TEST(ScheduleCompile, ShortRunsAndRepeatsMergeIntoOneResidueOp) {
  // {5,6,7} is below min_run, 42 is isolated, 9,9 is a zero-stride repeat
  // no block copy can express; only {100,104,108,112} survives as a run.
  // Everything before it must land in ONE merged residue op, in wire order.
  const compile::SchedulePlan plan = compile::SchedulePlan::compile(
      one_send_block({5, 6, 7, 42, 9, 9, 100, 104, 108, 112}));
  const compile::BlockPlan& b = plan.send()[0];
  ASSERT_EQ(b.ops.size(), 2u);
  EXPECT_EQ(b.ops[0].stride, 0);
  EXPECT_EQ(b.ops[0].start, 0);
  EXPECT_EQ(b.ops[0].len, 6);
  EXPECT_EQ(b.residue, (std::vector<GlobalIndex>{5, 6, 7, 42, 9, 9}));
  EXPECT_EQ(b.ops[1].stride, 4);
  EXPECT_EQ(b.ops[1].start, 100);
  EXPECT_EQ(b.ops[1].len, 4);
  EXPECT_EQ(plan.stats().residue_elements, 6u);
  EXPECT_EQ(plan.stats().run_elements, 4u);
}

TEST(ScheduleCompile, MinRunOptionMovesTheRunThreshold) {
  compile::Options opt;
  opt.min_run = 3;
  const compile::SchedulePlan plan =
      compile::SchedulePlan::compile(one_send_block({5, 6, 7, 42}), opt);
  const compile::BlockPlan& b = plan.send()[0];
  ASSERT_EQ(b.ops.size(), 2u);
  EXPECT_EQ(b.ops[0].stride, 1);  // len 3 is a run at min_run = 3
  EXPECT_EQ(b.ops[0].len, 3);
  EXPECT_EQ(b.ops[1].stride, 0);
}

TEST(ScheduleCompile, EmptyAndSingletonBlocks) {
  const compile::SchedulePlan empty =
      compile::SchedulePlan::compile(Schedule{});
  EXPECT_TRUE(empty.send().empty());
  EXPECT_TRUE(empty.recv().empty());
  EXPECT_EQ(empty.stats().total_elements, 0u);

  const compile::SchedulePlan blocks = compile::SchedulePlan::compile(
      Schedule(std::vector<ScheduleBlock>{ScheduleBlock{0, {}},
                                          ScheduleBlock{1, {7}}},
               {}));
  EXPECT_TRUE(blocks.send()[0].ops.empty());
  EXPECT_EQ(blocks.send()[0].count, 0);
  ASSERT_EQ(blocks.send()[1].ops.size(), 1u);
  EXPECT_EQ(blocks.send()[1].ops[0].stride, 0);  // singleton -> residue
  EXPECT_EQ(blocks.send()[1].count, 1);
}

/// A random index list mixing the patterns the lowering must tell apart:
/// random-stride runs (ascending and descending) between residue, zero-
/// stride repeats, and a run of exactly min_run - 1 or min_run at the end.
std::vector<GlobalIndex> random_lowering_input(Rng& rng,
                                               GlobalIndex min_run) {
  std::vector<GlobalIndex> idx;
  const int pieces = static_cast<int>(rng.range(0, 12));
  for (int p = 0; p < pieces; ++p) {
    switch (rng.below(3)) {
      case 0: {  // run, any nonzero stride
        GlobalIndex d = rng.range(-6, 5);
        if (d >= 0) ++d;
        const GlobalIndex start = rng.range(0, 400);
        for (GlobalIndex k = 0, len = rng.range(1, 12); k < len; ++k)
          idx.push_back(start + k * d);
        break;
      }
      case 1: {  // zero-stride repeat
        const GlobalIndex v = rng.range(0, 400);
        for (GlobalIndex k = 0, len = rng.range(2, 5); k < len; ++k)
          idx.push_back(v);
        break;
      }
      default:  // residue
        for (GlobalIndex k = 0, len = rng.range(1, 6); k < len; ++k)
          idx.push_back(rng.range(0, 400));
    }
  }
  if (rng.below(2) == 0) {  // boundary-length run at the end of the list
    const GlobalIndex len = min_run - static_cast<GlobalIndex>(rng.below(2));
    const GlobalIndex d = rng.below(2) == 0 ? 1 : -3;
    const GlobalIndex start = 500 + rng.range(0, 100);
    for (GlobalIndex k = 0; k < len; ++k) idx.push_back(start + k * d);
  }
  return idx;
}

TEST(ScheduleCompile, RandomizedLoweringMatchesPerElementOracle) {
  const std::uint64_t seeds = seed_count(200, "CHAOS_COMPILE_SEEDS");
  for (std::uint64_t s = 1; s <= seeds; ++s) {
    SCOPED_TRACE("seed=" + std::to_string(s));
    Rng rng(s);
    compile::Options opt;
    opt.min_run = rng.range(2, 8);
    // Blocks to a few peers, so consecutive same-peer blocks fuse; some
    // blocks continue the previous block's tail run across the boundary.
    std::vector<ScheduleBlock> send, recv;
    for (auto* side : {&send, &recv}) {
      for (int b = 0, nb = static_cast<int>(rng.range(0, 6)); b < nb; ++b) {
        ScheduleBlock blk{static_cast<int>(rng.below(3)),
                          random_lowering_input(rng, opt.min_run)};
        if (!side->empty() && rng.below(3) == 0 &&
            side->back().indices.size() >= 2) {
          const std::vector<GlobalIndex>& prev = side->back().indices;
          const GlobalIndex d = prev.back() - prev[prev.size() - 2];
          blk.proc = side->back().proc;
          blk.indices.insert(blk.indices.begin(),
                             {prev.back() + d, prev.back() + 2 * d});
        }
        side->push_back(std::move(blk));
      }
    }
    const Schedule sched(send, recv);
    const compile::SchedulePlan plan = compile::SchedulePlan::compile(sched, opt);

    compile::SchedulePlan::Stats want;
    ts::reference_accumulate(send, opt, want);
    ts::reference_accumulate(recv, opt, want);
    const compile::SchedulePlan::Stats& got = plan.stats();
    EXPECT_EQ(got.run_ops, want.run_ops);
    EXPECT_EQ(got.run_elements, want.run_elements);
    EXPECT_EQ(got.residue_elements, want.residue_elements);
    EXPECT_EQ(got.total_elements, want.total_elements);
    EXPECT_EQ(got.cross_block_runs, want.cross_block_runs);

    for (const bool is_send : {true, false}) {
      const std::vector<ScheduleBlock>& blocks = is_send ? send : recv;
      const std::vector<compile::BlockPlan>& plans =
          is_send ? plan.send() : plan.recv();
      ASSERT_EQ(plans.size(), blocks.size());
      for (std::size_t i = 0; i < blocks.size(); ++i) {
        SCOPED_TRACE(std::string(is_send ? "send" : "recv") + " block " +
                     std::to_string(i));
        const compile::BlockPlan ref = ts::reference_lower_block(blocks[i], opt);
        const compile::BlockPlan& b = plans[i];
        EXPECT_EQ(b.proc, ref.proc);
        EXPECT_EQ(b.count, ref.count);
        EXPECT_EQ(b.lo, ref.lo);
        EXPECT_EQ(b.hi, ref.hi);
        EXPECT_EQ(b.residue, ref.residue);
        ASSERT_EQ(b.ops.size(), ref.ops.size());
        for (std::size_t k = 0; k < b.ops.size(); ++k) {
          EXPECT_EQ(b.ops[k].start, ref.ops[k].start) << "op " << k;
          EXPECT_EQ(b.ops[k].len, ref.ops[k].len) << "op " << k;
          EXPECT_EQ(b.ops[k].stride, ref.ops[k].stride) << "op " << k;
        }
      }
    }
    if (::testing::Test::HasFailure()) return;
  }
}

// ---- kernel units ----------------------------------------------------------

TEST(ScheduleCompile, KernelsMatchHandWalkedInterpretation) {
  const std::vector<GlobalIndex> idx{4, 5, 6, 7, 30, 2, 11, 9, 7, 5, 3};
  const compile::SchedulePlan plan = compile::SchedulePlan::compile(
      one_send_block(std::vector<GlobalIndex>(idx)));
  const compile::BlockPlan& b = plan.send()[0];
  ASSERT_EQ(b.count, static_cast<GlobalIndex>(idx.size()));

  std::vector<double> src(32);
  for (std::size_t i = 0; i < src.size(); ++i)
    src[i] = 1.5 * static_cast<double>(i) + 2.0;

  // pack == src read at idx, in wire order.
  std::vector<double> wire(idx.size());
  compile::pack_block<double>(b, std::span<const double>{src}, wire.data());
  for (std::size_t k = 0; k < idx.size(); ++k)
    EXPECT_EQ(wire[k], src[static_cast<std::size_t>(idx[k])]) << "k=" << k;

  // place == replacement at idx; later wire entries win on duplicates
  // (interpreted order), e.g. idx 7 appears twice.
  std::vector<double> dst(32, -1.0);
  compile::place_block<double>(b, std::as_bytes(std::span<const double>{wire}),
                               std::span<double>{dst});
  std::vector<double> expect_place(32, -1.0);
  for (std::size_t k = 0; k < idx.size(); ++k)
    expect_place[static_cast<std::size_t>(idx[k])] = wire[k];
  EXPECT_TRUE(ts::spans_equal(dst, expect_place, "place_block"));

  // combine == accumulate at idx, in wire order.
  std::vector<double> acc(32, 0.5);
  compile::combine_block<double>(
      b, std::as_bytes(std::span<const double>{wire}), std::span<double>{acc},
      [](double own, double in) { return own + in; });
  std::vector<double> expect_acc(32, 0.5);
  for (std::size_t k = 0; k < idx.size(); ++k)
    expect_acc[static_cast<std::size_t>(idx[k])] += wire[k];
  EXPECT_TRUE(ts::spans_equal(acc, expect_acc, "combine_block"));
}

TEST(ScheduleCompile, CarryPatchedReusesSendSideVerbatim) {
  std::vector<ScheduleBlock> send{ScheduleBlock{1, {2, 3, 4, 5, 9}}};
  std::vector<ScheduleBlock> recv{ScheduleBlock{1, {10, 11, 12, 13}}};
  const Schedule prior_sched(send, recv);
  const compile::SchedulePlan prior = compile::SchedulePlan::compile(prior_sched);

  // A patch rewrites recv-side ghost slots; the send side stays verbatim.
  std::vector<ScheduleBlock> patched_recv{ScheduleBlock{1, {20, 14, 21, 15}}};
  const Schedule patched(send, patched_recv);
  const compile::SchedulePlan carried =
      compile::SchedulePlan::carry_patched(prior, patched);

  ASSERT_EQ(carried.send().size(), prior.send().size());
  EXPECT_EQ(carried.send()[0].ops.size(), prior.send()[0].ops.size());
  EXPECT_EQ(carried.send()[0].residue, prior.send()[0].residue);
  ASSERT_EQ(carried.recv().size(), 1u);
  EXPECT_EQ(carried.recv()[0].count, 4);
  EXPECT_EQ(carried.recv()[0].lo, 14);
  EXPECT_EQ(carried.recv()[0].hi, 21);
}

// ---- randomized compiled-vs-oracle equivalence -----------------------------

/// Reference stream styles the scenario draws from — degenerate shapes
/// (empty, singleton) are explicit cases, not left to chance.
std::vector<GlobalIndex> draw_refs(int style, GlobalIndex n, Rng& rng) {
  std::vector<GlobalIndex> refs;
  switch (style % 4) {
    case 0:  // unstructured: mostly residue
      for (std::size_t j = 0; j < 48; ++j)
        refs.push_back(static_cast<GlobalIndex>(rng.below(
            static_cast<std::uint64_t>(n))));
      break;
    case 1:  // empty reference stream -> empty schedule
      break;
    case 2:  // singleton
      refs.push_back(static_cast<GlobalIndex>(rng.below(
          static_cast<std::uint64_t>(n))));
      break;
    case 3: {  // sorted window -> runs for the lowering to find
      const GlobalIndex len = std::min<GlobalIndex>(n, 32);
      const GlobalIndex start = static_cast<GlobalIndex>(rng.below(
          static_cast<std::uint64_t>(n - len + 1)));
      for (GlobalIndex k = 0; k < len; ++k) refs.push_back(start + k);
      break;
    }
  }
  return refs;
}

/// Execute one direction (0 gather, 1 scatter, 2 scatter_add) of `h`
/// through the oracle, on the Runtime's current schedule for `h`.
template <typename T>
void oracle_exec(Comm& comm, const Runtime& rt, ScheduleHandle h, int dir,
                 std::vector<T>& data) {
  const Schedule& sched = rt.schedule(h);
  const std::span<T> s{data};
  if (dir == 0) ts::reference_gather<T>(comm, sched, s);
  if (dir == 1) ts::reference_scatter<T>(comm, sched, s);
  if (dir == 2) ts::reference_scatter_add<T>(comm, sched, s);
}

/// One randomized scenario: an irregular distribution and reference
/// streams on a Runtime, every direction executed through its compiled
/// plans and through the oracle and compared element-for-element, then one
/// repartition round to drive the carried/recompiled plans.
void run_compiled_equivalence_scenario(std::uint64_t seed, bool paged) {
  Rng shape_rng(seed);
  const int P = 2 + static_cast<int>(shape_rng.below(3));
  const GlobalIndex n = 40 + static_cast<GlobalIndex>(shape_rng.below(160));
  const int nloops = 1 + static_cast<int>(shape_rng.below(3));

  Machine m(P);
  m.run([&](Comm& comm) {
    Runtime rt(comm);

    Rng map_rng(seed * 1000003 + 17);
    std::vector<int> map(static_cast<std::size_t>(n));
    for (int& p : map) p = static_cast<int>(map_rng.below(P));
    const DistHandle d = paged ? rt.irregular_paged(map) : rt.irregular(map);

    // Machine-wide style decisions from a rank-identical rng; per-rank
    // reference content from a rank-salted one (cross_epoch idiom).
    Rng global_rng(seed * 31 + 7);
    Rng ref_rng(seed * 7919 + 101 +
                static_cast<std::uint64_t>(comm.rank()) * 65537);

    std::vector<lang::IndirectionArray> inds;
    inds.reserve(static_cast<std::size_t>(nloops));
    std::vector<ScheduleHandle> hs;
    for (int l = 0; l < nloops; ++l) {
      const int style = static_cast<int>(global_rng.below(4));
      inds.emplace_back(draw_refs(style, n, ref_rng));
      hs.push_back(rt.inspect(d, inds.back()));
    }
    if (nloops >= 2) {  // derived schedules take the entry-cache plan path
      hs.push_back(rt.merge({hs[0], hs[1]}));
      hs.push_back(rt.incremental(hs[1], hs[0]));
    }

    const auto extent = static_cast<std::size_t>(rt.local_extent(d));

    // Integer-valued payloads so combining order cannot hide behind FP
    // noise; ghosts pre-seeded rank-distinct so scatter directions move
    // data the oracle must reproduce exactly.
    std::vector<double> base(extent);
    for (std::size_t i = 0; i < base.size(); ++i)
      base[i] = static_cast<double>(3 * i + 17) +
                1024.0 * static_cast<double>(comm.rank());

    for (std::size_t s = 0; s < hs.size(); ++s) {
      for (int dir = 0; dir < 3; ++dir) {
        std::vector<double> a = base, b = base;
        if (dir == 0) rt.gather<double>(hs[s], std::span<double>{a});
        if (dir == 1) rt.scatter<double>(hs[s], std::span<double>{a});
        if (dir == 2) rt.scatter_add<double>(hs[s], std::span<double>{a});
        oracle_exec(comm, rt, hs[s], dir, b);
        EXPECT_TRUE(ts::spans_equal(
            a, b,
            "schedule " + std::to_string(s) + " dir " + std::to_string(dir)));
      }
      // One non-8-byte payload per schedule: element size reaches the
      // kernels' memcpy arithmetic.
      std::vector<int> ai(extent), bi(extent);
      for (std::size_t i = 0; i < extent; ++i)
        ai[i] = bi[i] = static_cast<int>(7 * i) + comm.rank();
      rt.gather<int>(hs[s], std::span<int>{ai});
      oracle_exec(comm, rt, hs[s], 0, bi);
      EXPECT_TRUE(ts::spans_equal(ai, bi,
                                  "int gather, schedule " + std::to_string(s)));
    }

    // Repartition round: move to a new map, then the loops re-inspect and
    // execute again — their plans are carried (patched schedules) or
    // recompiled (rebuilt ones) and must still match the oracle bitwise.
    std::vector<int> map2 = map;
    for (int& p : map2)
      if (global_rng.below(4) == 0) p = static_cast<int>(global_rng.below(P));
    const DistHandle d2 = rt.repartition(d, map2);
    std::vector<ScheduleHandle> hs2;
    for (int l = 0; l < nloops; ++l)
      hs2.push_back(rt.inspect(d2, inds[static_cast<std::size_t>(l)]));
    const auto extent2 = static_cast<std::size_t>(rt.local_extent(d2));
    std::vector<double> base2(extent2);
    for (std::size_t i = 0; i < base2.size(); ++i)
      base2[i] = static_cast<double>(5 * i + 3) +
                 512.0 * static_cast<double>(comm.rank());
    for (std::size_t s = 0; s < hs2.size(); ++s) {
      std::vector<double> a = base2, b = base2;
      rt.gather<double>(hs2[s], std::span<double>{a});
      oracle_exec(comm, rt, hs2[s], 0, b);
      rt.scatter_add<double>(hs2[s], std::span<double>{a});
      oracle_exec(comm, rt, hs2[s], 2, b);
      EXPECT_TRUE(ts::spans_equal(
          a, b, "post-repartition schedule " + std::to_string(s)));
    }
  });
}

TEST(ScheduleCompile, RandomizedEquivalenceReplicated) {
  const std::uint64_t seeds = seed_count(5, "CHAOS_COMPILE_SEEDS");
  const std::uint64_t base = env_seed_u64("CHAOS_COMPILE_SEED_BASE", 1);
  for (std::uint64_t s = 0; s < seeds; ++s) {
    SCOPED_TRACE("seed " + std::to_string(base + s));
    run_compiled_equivalence_scenario(base + s, /*paged=*/false);
  }
}

TEST(ScheduleCompile, RandomizedEquivalencePaged) {
  const std::uint64_t seeds = seed_count(3, "CHAOS_COMPILE_SEEDS");
  const std::uint64_t base = env_seed_u64("CHAOS_COMPILE_SEED_BASE", 1);
  for (std::uint64_t s = 0; s < seeds; ++s) {
    SCOPED_TRACE("seed " + std::to_string(base + s));
    run_compiled_equivalence_scenario(base + s, /*paged=*/true);
  }
}

// ---- locality remap --------------------------------------------------------

/// After remap_ghost_locality the ghost region is renumbered, so results
/// are checked two ways: against the oracle run on the rewritten schedule,
/// and against ground truth through the loop's re-localized references
/// (data[local_ref[j]] must hold the value of global element refs[j],
/// whatever slot that now is).
TEST(ScheduleCompile, RandomizedLocalityRemapEquivalence) {
  const std::uint64_t seeds = seed_count(3, "CHAOS_COMPILE_SEEDS");
  const std::uint64_t base = env_seed_u64("CHAOS_COMPILE_SEED_BASE", 1);
  for (std::uint64_t s = 0; s < seeds; ++s) {
    const std::uint64_t seed = base + s;
    SCOPED_TRACE("seed " + std::to_string(seed));
    const int P = 3;
    const GlobalIndex n = 96;
    Machine m(P);
    m.run([&](Comm& comm) {
      Runtime rt(comm);
      const DistHandle d = rt.block(n);

      Rng ref_rng(seed * 7919 + 211 +
                  static_cast<std::uint64_t>(comm.rank()) * 65537);
      std::vector<GlobalIndex> refs = draw_refs(0, n, ref_rng);
      lang::IndirectionArray ind(refs);
      const LoopHandle loop = rt.bind(d, ind);
      const ScheduleHandle h = rt.inspect(loop);

      auto filled = [&] {
        std::vector<double> a(static_cast<std::size_t>(rt.local_extent(d)),
                              -9.0);
        const std::vector<GlobalIndex> own = rt.owned_globals(d);
        for (std::size_t i = 0; i < own.size(); ++i)
          a[i] = static_cast<double>(3 * own[i] + 17);
        return a;
      };

      // Compile, then remap: the pass must invalidate the cached plan and
      // the rewritten schedule must re-verify.
      std::vector<double> warm = filled();
      rt.gather<double>(h, std::span<double>{warm});
      rt.remap_ghost_locality(d);

      std::vector<double> a = filled();
      std::vector<double> b = filled();
      rt.gather<double>(h, std::span<double>{a});
      oracle_exec(comm, rt, h, 0, b);
      EXPECT_TRUE(ts::spans_equal(a, b, "post-remap gather"));
      rt.scatter_add<double>(h, std::span<double>{a});
      oracle_exec(comm, rt, h, 2, b);
      EXPECT_TRUE(ts::spans_equal(a, b, "post-remap scatter_add"));

      // Ground truth through the re-localized references.
      std::vector<double> g = filled();
      rt.gather<double>(h, std::span<double>{g});
      const std::span<const GlobalIndex> lrefs = rt.local_refs(loop);
      ASSERT_EQ(lrefs.size(), refs.size());
      for (std::size_t j = 0; j < refs.size(); ++j)
        EXPECT_EQ(g[static_cast<std::size_t>(lrefs[j])],
                  static_cast<double>(3 * refs[j] + 17))
            << "ref " << j;
    });
  }
}

// ---- hand-built schedules: compiled, verbatim and the oracle ---------------

/// Machine-wide description of a hand-built schedule: an ordered list of
/// links (src rank -> dst rank, one block each). A rank's send blocks are
/// its outgoing links in list order, its recv blocks its incoming ones, so
/// same-peer blocks pair up in order; they may interleave with other peers
/// or sit consecutively (which the lowering fuses into wire groups).
struct HandLink {
  int src = 0, dst = 0;
  std::vector<GlobalIndex> send;  ///< owned offsets on src
  std::vector<GlobalIndex> recv;  ///< ghost slots on dst
};

struct HandShape {
  int P = 2;
  std::vector<GlobalIndex> owned, extent;  ///< per rank
  std::vector<HandLink> links;             ///< at most one self link a rank
};

HandShape draw_hand_shape(std::uint64_t seed) {
  Rng rng(seed * 2654435761u + 9);
  HandShape h;
  h.P = 2 + static_cast<int>(rng.below(3));
  for (int r = 0; r < h.P; ++r)
    h.owned.push_back(6 + static_cast<GlobalIndex>(rng.below(12)));
  std::vector<bool> has_self(static_cast<std::size_t>(h.P), false);
  const int nlinks = 2 + static_cast<int>(rng.below(
                             static_cast<std::uint64_t>(3 * h.P)));
  for (int l = 0; l < nlinks; ++l) {
    HandLink k;
    k.src = static_cast<int>(rng.below(static_cast<std::uint64_t>(h.P)));
    k.dst = static_cast<int>(rng.below(static_cast<std::uint64_t>(h.P)));
    if (k.src == k.dst) {
      if (has_self[static_cast<std::size_t>(k.src)]) continue;
      has_self[static_cast<std::size_t>(k.src)] = true;
    }
    const auto own = static_cast<std::uint64_t>(h.owned[
        static_cast<std::size_t>(k.src)]);
    switch (rng.below(5)) {
      case 0:  // empty block
        break;
      case 1:  // singleton
        k.send.push_back(static_cast<GlobalIndex>(rng.below(own)));
        break;
      case 2: {  // contiguous window: a run for the lowering
        const GlobalIndex len = 1 + static_cast<GlobalIndex>(rng.below(own));
        const auto start = static_cast<GlobalIndex>(
            rng.below(own - static_cast<std::uint64_t>(len) + 1));
        for (GlobalIndex j = 0; j < len; ++j) k.send.push_back(start + j);
        break;
      }
      case 3:  // descending stride 2
        for (GlobalIndex j = static_cast<GlobalIndex>(own) - 1; j >= 0; j -= 2)
          k.send.push_back(j);
        break;
      default:  // irregular, repeats allowed
        for (std::uint64_t j = 1 + rng.below(8); j > 0; --j)
          k.send.push_back(static_cast<GlobalIndex>(rng.below(own)));
    }
    h.links.push_back(std::move(k));
  }
  // Ghost slots per destination: a fresh slot per incoming element, in
  // order or shuffled, so recv blocks land as runs or as residue.
  h.extent = h.owned;
  for (int r = 0; r < h.P; ++r) {
    std::vector<GlobalIndex> slots;
    for (const HandLink& k : h.links)
      if (k.dst == r)
        for (std::size_t j = 0; j < k.send.size(); ++j)
          slots.push_back(h.extent[static_cast<std::size_t>(r)]++);
    if (rng.below(2) == 0)
      for (std::size_t j = slots.size(); j > 1; --j)
        std::swap(slots[j - 1], slots[rng.below(j)]);
    std::size_t at = 0;
    for (HandLink& k : h.links)
      if (k.dst == r)
        for (std::size_t j = 0; j < k.send.size(); ++j)
          k.recv.push_back(slots[at++]);
  }
  return h;
}

/// Rank `me`'s schedule over the shape (self links dropped for scatters,
/// which do not support self blocks).
Schedule hand_schedule(const HandShape& h, int me, bool with_self) {
  std::vector<ScheduleBlock> send, recv;
  for (const HandLink& k : h.links) {
    if (k.src == k.dst && !with_self) continue;
    if (k.src == me) send.push_back({k.dst, k.send});
    if (k.dst == me) recv.push_back({k.src, k.recv});
  }
  return Schedule(std::move(send), std::move(recv));
}

enum class Exec { kOracle, kVerbatim, kCompiled };

/// Per rank: the arrays left by transport, gather, scatter and
/// scatter_add (concatenated), and comm.now() after each.
struct HandRun {
  std::vector<std::vector<double>> data;
  std::vector<std::vector<double>> clock;
};

HandRun run_hand_shape(const HandShape& h, Exec exec) {
  HandRun out;
  out.data.resize(static_cast<std::size_t>(h.P));
  out.clock.resize(static_cast<std::size_t>(h.P));
  Machine m(h.P);
  m.run([&](Comm& comm) {
    const int me = comm.rank();
    const auto r = static_cast<std::size_t>(me);
    const Schedule fwd = hand_schedule(h, me, /*with_self=*/true);
    const Schedule rev = hand_schedule(h, me, /*with_self=*/false);
    const auto extent = static_cast<std::size_t>(h.extent[r]);
    const auto owned = static_cast<std::size_t>(h.owned[r]);
    std::vector<double> base(extent);
    for (std::size_t i = 0; i < extent; ++i)
      base[i] = static_cast<double>(3 * i + 17) + 1024.0 * me;

    // dir: 0 transport (owned region -> fresh array), 1 gather, 2 scatter,
    // 3 scatter_add.
    for (int dir = 0; dir < 4; ++dir) {
      const Schedule& sched = dir < 2 ? fwd : rev;
      std::vector<double> data = base;
      std::vector<double> dst(extent, -5.0);
      const std::span<const double> src{base.data(), owned};
      const std::span<double> d{data};
      if (exec == Exec::kOracle) {
        if (dir == 0) ts::reference_transport<double>(comm, sched, src, dst);
        if (dir == 1) ts::reference_gather<double>(comm, sched, d);
        if (dir == 2) ts::reference_scatter<double>(comm, sched, d);
        if (dir == 3) ts::reference_scatter_add<double>(comm, sched, d);
      } else {
        const compile::SchedulePlan plan =
            exec == Exec::kVerbatim ? compile::SchedulePlan::verbatim(sched)
                                    : compile::SchedulePlan::compile(sched);
        comm::Engine engine(comm);
        engine.wait(
            dir == 0   ? engine.post_transport<double>(sched, src, dst, plan)
            : dir == 1 ? engine.post_gather<double>(sched, d, plan)
            : dir == 2 ? engine.post_scatter<double>(sched, d, plan)
                       : engine.post_scatter_add<double>(sched, d, plan));
      }
      const std::vector<double>& result = dir == 0 ? dst : data;
      out.data[r].insert(out.data[r].end(), result.begin(), result.end());
      out.clock[r].push_back(comm.now());
    }
  });
  return out;
}

TEST(ScheduleCompile, RandomizedHandBuiltSchedulesMatchTheOracle) {
  const std::uint64_t seeds = seed_count(12, "CHAOS_COMPILE_SEEDS");
  const std::uint64_t base = env_seed_u64("CHAOS_COMPILE_SEED_BASE", 1);
  bool saw_group = false, saw_self = false;
  for (std::uint64_t s = 0; s < seeds; ++s) {
    SCOPED_TRACE("seed " + std::to_string(base + s));
    const HandShape shape = draw_hand_shape(base + s);
    for (int r = 0; r < shape.P; ++r) {
      const compile::SchedulePlan p =
          compile::SchedulePlan::compile(hand_schedule(shape, r, true));
      saw_group = saw_group || !p.send_groups().empty();
      for (const HandLink& k : shape.links)
        saw_self = saw_self || (k.src == k.dst && !k.send.empty());
    }
    const HandRun oracle = run_hand_shape(shape, Exec::kOracle);
    const HandRun verbatim = run_hand_shape(shape, Exec::kVerbatim);
    const HandRun compiled = run_hand_shape(shape, Exec::kCompiled);
    for (int r = 0; r < shape.P; ++r) {
      const auto i = static_cast<std::size_t>(r);
      const std::string rank = "rank " + std::to_string(r);
      EXPECT_TRUE(ts::spans_equal(verbatim.data[i], oracle.data[i],
                                  "verbatim data, " + rank));
      EXPECT_TRUE(ts::spans_equal(compiled.data[i], oracle.data[i],
                                  "compiled data, " + rank));
      // Same charges, same messages, same order: the same modeled clock,
      // to the bit, after every direction.
      EXPECT_TRUE(ts::spans_equal(verbatim.clock[i], oracle.clock[i],
                                  "verbatim clock, " + rank));
    }
  }
  // The sweep must actually reach the shapes it exists for.
  EXPECT_TRUE(saw_group);
  EXPECT_TRUE(saw_self);
}

// ---- mixed element types coalesced into one batch --------------------------

/// A 1-byte and a 12-byte trivially copyable element. Coalesced behind
/// doubles and int32s, their segments, and every segment after them, start
/// at wire offsets misaligned for the element type.
struct Byte1 {
  std::uint8_t v = 0;
  friend bool operator==(const Byte1&, const Byte1&) = default;
};
struct Rec12 {
  std::int32_t id = 0;
  float w = 0.0f;
  std::int32_t tag = 0;
  friend bool operator==(const Rec12&, const Rec12&) = default;
};
static_assert(sizeof(Byte1) == 1 && sizeof(Rec12) == 12);
std::ostream& operator<<(std::ostream& os, const Byte1& b) {
  return os << static_cast<int>(b.v);
}
std::ostream& operator<<(std::ostream& os, const Rec12& r) {
  return os << "{" << r.id << ", " << r.w << ", " << r.tag << "}";
}

/// Per rank: the arrays one mixed batch leaves behind.
struct MixedRun {
  std::vector<double> d;
  std::vector<std::int32_t> i;
  std::vector<Byte1> b;
  std::vector<Rec12> r;
  std::vector<float> f;         ///< scatter_add target
  std::vector<Rec12> migrated;  ///< post_migrate output
};

/// Gathers of double, int32, Byte1 and Rec12 over the shape's forward
/// schedule, a scatter_add<float> over its reverse and a migrate of
/// Rec12 items: the oracle runs them one at a time, the engine posts all
/// six into ONE batch, so each peer gets a single mixed-type message.
std::vector<MixedRun> run_mixed_batch(const HandShape& h, Exec exec,
                                      std::uint64_t seed) {
  std::vector<MixedRun> out(static_cast<std::size_t>(h.P));
  Machine m(h.P);
  m.run([&](Comm& comm) {
    const int me = comm.rank();
    const Schedule fwd = hand_schedule(h, me, /*with_self=*/true);
    const Schedule rev = hand_schedule(h, me, /*with_self=*/false);
    const auto extent =
        static_cast<std::size_t>(h.extent[static_cast<std::size_t>(me)]);
    MixedRun& o = out[static_cast<std::size_t>(me)];
    for (std::size_t k = 0; k < extent; ++k) {
      const auto v = static_cast<std::int32_t>(k) + 1000 * me;
      o.d.push_back(3.0 * v + 0.125);
      o.i.push_back(-7 * v);
      o.b.push_back(Byte1{static_cast<std::uint8_t>(31 * v + 5)});
      o.r.push_back(Rec12{v, 0.5f * static_cast<float>(v), ~v});
      o.f.push_back(0.1f * static_cast<float>(v) + 0.3f);
    }
    Rng rng(seed * 7919 + static_cast<std::uint64_t>(me));
    std::vector<Rec12> items;
    std::vector<int> dest;
    for (std::uint64_t n = rng.below(24); n > 0; --n) {
      const auto id = static_cast<std::int32_t>(items.size()) + 100 * me;
      items.push_back(Rec12{id, 1.5f * static_cast<float>(id), -id});
      dest.push_back(static_cast<int>(
          rng.below(static_cast<std::uint64_t>(h.P))));
    }
    const core::LightweightSchedule lw =
        core::LightweightSchedule::build(comm, dest);

    if (exec == Exec::kOracle) {
      ts::reference_gather<double>(comm, fwd, o.d);
      ts::reference_gather<std::int32_t>(comm, fwd, o.i);
      ts::reference_gather<Byte1>(comm, fwd, o.b);
      ts::reference_gather<Rec12>(comm, fwd, o.r);
      ts::reference_scatter_add<float>(comm, rev, o.f);
      core::scatter_append<Rec12>(comm, lw, items, o.migrated);
      return;
    }
    const auto lower = [&](const Schedule& sched) {
      return exec == Exec::kVerbatim ? compile::SchedulePlan::verbatim(sched)
                                     : compile::SchedulePlan::compile(sched);
    };
    const compile::SchedulePlan fplan = lower(fwd), rplan = lower(rev);
    comm::Engine engine(comm);
    engine.post_gather<double>(fwd, o.d, fplan);
    engine.post_gather<std::int32_t>(fwd, o.i, fplan);
    engine.post_gather<Byte1>(fwd, o.b, fplan);
    engine.post_gather<Rec12>(fwd, o.r, fplan);
    engine.post_scatter_add<float>(rev, o.f, rplan);
    engine.post_migrate<Rec12>(lw, items, o.migrated);
    engine.wait_all();
  });
  return out;
}

TEST(ScheduleCompile, MixedTypeBatchWithMisalignedSegmentsMatchesTheOracle) {
  const std::uint64_t seeds = seed_count(12, "CHAOS_COMPILE_SEEDS");
  const std::uint64_t base = env_seed_u64("CHAOS_COMPILE_SEED_BASE", 1);
  bool saw_misaligned = false;
  for (std::uint64_t s = 0; s < seeds; ++s) {
    SCOPED_TRACE("seed " + std::to_string(base + s));
    const HandShape shape = draw_hand_shape(base + s);
    // Each peer's message holds n elements per gather (8+4+1 bytes before
    // the Rec12 segment), so the Rec12, float and migrate segments start
    // misaligned for their 4-byte types whenever n % 4 != 0.
    std::map<std::pair<int, int>, std::size_t> n;
    for (const HandLink& k : shape.links)
      if (k.src != k.dst) n[{k.src, k.dst}] += k.send.size();
    for (const auto& [link, count] : n)
      saw_misaligned = saw_misaligned || count % 4 != 0;

    const auto oracle = run_mixed_batch(shape, Exec::kOracle, base + s);
    for (Exec exec : {Exec::kVerbatim, Exec::kCompiled}) {
      const auto got = run_mixed_batch(shape, exec, base + s);
      for (int r = 0; r < shape.P; ++r) {
        const auto i = static_cast<std::size_t>(r);
        const std::string at = std::string(exec == Exec::kVerbatim
                                               ? "verbatim"
                                               : "compiled") +
                               ", rank " + std::to_string(r);
        EXPECT_TRUE(ts::spans_equal(got[i].d, oracle[i].d, "double " + at));
        EXPECT_TRUE(ts::spans_equal(got[i].i, oracle[i].i, "int32 " + at));
        EXPECT_TRUE(ts::spans_equal(got[i].b, oracle[i].b, "Byte1 " + at));
        EXPECT_TRUE(ts::spans_equal(got[i].r, oracle[i].r, "Rec12 " + at));
        EXPECT_TRUE(ts::spans_equal(got[i].f, oracle[i].f, "float " + at));
        EXPECT_TRUE(ts::spans_equal(got[i].migrated, oracle[i].migrated,
                                    "migrate " + at));
      }
    }
  }
  EXPECT_TRUE(saw_misaligned);
}

// ---- cross-epoch counters --------------------------------------------------

/// A home-stable pattern loop and a probe loop over elements the
/// repartition moves: after the epoch switch the pattern plan must be
/// carried (send side verbatim) and the probe plan recompiled — the
/// registry counters distinguish the two paths. The moved elements are the
/// globally-HIGHEST band: under the ascending-global-order offset
/// convention, moving them appends slots at the gaining rank and truncates
/// the losing rank's tail, so every other element keeps owner and offset
/// (home_stable) — moving a low band would shift offsets machine-wide and
/// force a rebuild of every schedule.
TEST(ScheduleCompile, CrossEpochCarryAndRecompileCounters) {
  const int P = 4;
  const GlobalIndex n = 128;
  const GlobalIndex moved = 16;  // the band [n - 16, n), owned by rank 3
  Machine m(P);
  m.run([&](Comm& comm) {
    Runtime rt(comm);
    const DistHandle d = rt.block(n);

    std::vector<GlobalIndex> pattern_refs, probe_refs;
    for (GlobalIndex g = 16; g < 96; ++g) pattern_refs.push_back(g);
    for (GlobalIndex g = n - moved; g < n; ++g) probe_refs.push_back(g);
    lang::IndirectionArray pattern(pattern_refs), probe(probe_refs);
    const ScheduleHandle h = rt.inspect(d, pattern);
    const ScheduleHandle hp = rt.inspect(d, probe);

    std::vector<double> a(static_cast<std::size_t>(rt.local_extent(d)), 1.0);
    rt.gather<double>(h, std::span<double>{a});   // compiles the pattern plan
    rt.gather<double>(hp, std::span<double>{a});  // compiles the probe plan
    const runtime::ScheduleRegistry::Stats s1 = rt.registry_stats(d);
    EXPECT_GE(s1.compiled_plans, 2u);
    EXPECT_GT(s1.runs_detected, 0u);

    std::vector<int> map2(rt.dist(d).map().begin(), rt.dist(d).map().end());
    for (GlobalIndex g = n - moved; g < n; ++g)
      map2[static_cast<std::size_t>(g)] =
          (map2[static_cast<std::size_t>(g)] + 1) % comm.size();
    const DistHandle d2 = rt.repartition(d, map2);
    const ScheduleHandle h2 = rt.inspect(d2, pattern);
    const ScheduleHandle hp2 = rt.inspect(d2, probe);
    std::vector<double> a2(static_cast<std::size_t>(rt.local_extent(d2)), 1.0);
    rt.gather<double>(h2, std::span<double>{a2});
    rt.gather<double>(hp2, std::span<double>{a2});

    if (comm.rank() == 0) {
      const runtime::ScheduleRegistry::Stats s2 = rt.registry_stats(d2);
      EXPECT_GE(s2.carried_compiled_plans, 1u) << "pattern plan not carried";
      EXPECT_GE(s2.recompiles_after_repartition, 1u)
          << "probe plan not recompiled";
    }
  });
}


// ---- cross-block wire grouping ---------------------------------------------

TEST(ScheduleCompile, WireGroupsFuseConsecutiveSamePeerBlocks) {
  // Hand-built multi-block-per-peer schedule: two consecutive blocks to
  // peer 1 whose runs continue across the boundary, then one block to
  // peer 2. Built schedules emit one block per peer (groups stay empty);
  // this is the shape wire grouping exists for.
  std::vector<ScheduleBlock> send;
  send.push_back(ScheduleBlock{1, {0, 1, 2, 3, 4, 5}});
  send.push_back(ScheduleBlock{1, {6, 7, 8, 9}});
  send.push_back(ScheduleBlock{2, {20, 22, 24, 26}});
  const compile::SchedulePlan plan =
      compile::SchedulePlan::compile(Schedule(std::move(send), {}));

  ASSERT_EQ(plan.send_groups().size(), 2u);  // covers all blocks, in order
  const compile::WireGroup& g0 = plan.send_groups()[0];
  EXPECT_EQ(g0.proc, 1);
  EXPECT_EQ(g0.first, 0u);
  EXPECT_EQ(g0.nblocks, 2u);
  // The boundary pair merged: one segment op spanning 0..9.
  ASSERT_EQ(g0.fused.ops.size(), 1u);
  EXPECT_EQ(g0.fused.ops[0].start, 0);
  EXPECT_EQ(g0.fused.ops[0].len, 10);
  EXPECT_EQ(g0.fused.ops[0].stride, 1);
  EXPECT_EQ(g0.fused.count, 10);
  EXPECT_EQ(plan.stats().cross_block_runs, 1u);

  const compile::WireGroup& g1 = plan.send_groups()[1];
  EXPECT_EQ(g1.proc, 2);
  EXPECT_EQ(g1.first, 2u);
  EXPECT_EQ(g1.nblocks, 1u);

  // No multi-block peer on the recv side: its group list stays empty.
  EXPECT_TRUE(plan.recv_groups().empty());

  // The registry stat: an external compile folds the fusion count into
  // the epoch's counters (what registry_stats() reports to the benches).
  runtime::ScheduleRegistry reg;
  reg.note_external_compile(plan.stats());
  EXPECT_EQ(reg.stats().cross_block_runs, 1u);
}

TEST(ScheduleCompile, SingleBlockPerPeerKeepsGroupListsEmpty) {
  std::vector<ScheduleBlock> send;
  send.push_back(ScheduleBlock{1, {0, 1, 2, 3, 4}});
  send.push_back(ScheduleBlock{2, {10, 11, 12, 13}});
  const compile::SchedulePlan plan =
      compile::SchedulePlan::compile(Schedule(std::move(send), {}));
  EXPECT_TRUE(plan.send_groups().empty());
  EXPECT_EQ(plan.stats().cross_block_runs, 0u);
}

TEST(ScheduleCompile, FusedGroupPackIsBitwiseEqualToPerBlockPacks) {
  // A fuller shape: strided boundary continuation, residue-to-residue
  // concatenation, and a trailing irregular block — the fused plan must
  // reproduce the concatenated per-block wire stream byte for byte.
  std::vector<ScheduleBlock> send;
  send.push_back(ScheduleBlock{3, {0, 2, 4, 6}});       // stride-2 run
  send.push_back(ScheduleBlock{3, {8, 10, 12, 14}});    // continues it
  send.push_back(ScheduleBlock{3, {31, 7, 19, 3}});     // irregular
  send.push_back(ScheduleBlock{3, {23, 5, 29, 11}});    // irregular again
  const Schedule sched(std::move(send), {});
  const compile::SchedulePlan plan = compile::SchedulePlan::compile(sched);

  ASSERT_EQ(plan.send_groups().size(), 1u);
  const compile::WireGroup& g = plan.send_groups()[0];
  EXPECT_EQ(g.nblocks, 4u);
  EXPECT_GE(plan.stats().cross_block_runs, 1u);

  std::vector<double> src(40);
  for (std::size_t i = 0; i < src.size(); ++i)
    src[i] = 1.0 + 0.5 * static_cast<double>(i);

  std::vector<double> fused(static_cast<std::size_t>(g.fused.count), 0.0);
  compile::pack_block<double>(g.fused, src, fused.data());

  std::vector<double> per_block;
  for (std::size_t b = g.first; b < g.first + g.nblocks; ++b) {
    const compile::BlockPlan& bp = plan.send()[b];
    std::vector<double> out(static_cast<std::size_t>(bp.count), 0.0);
    compile::pack_block<double>(bp, src, out.data());
    per_block.insert(per_block.end(), out.begin(), out.end());
  }
  ASSERT_EQ(fused.size(), per_block.size());
  for (std::size_t i = 0; i < fused.size(); ++i)
    EXPECT_EQ(fused[i], per_block[i]) << "wire position " << i;
}

}  // namespace
}  // namespace chaos
