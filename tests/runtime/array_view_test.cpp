// Typed array views: chaos::Array<T>, the in/out/sum/use/update/migrate
// vocabulary, inference of step access sets from bindings, chaos::forall,
// and the retarget guards — with the access-inference edge cases: one
// array bound in() and sum() in one step, two views over one array via
// different indirections, a migrate whose destinations do not match its
// items, and a stale Array binding after retarget().
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "lang/array.hpp"
#include "runtime/runtime.hpp"
#include "runtime/step_graph.hpp"
#include "support/equivalence.hpp"

namespace chaos {
namespace {

using core::GlobalIndex;
using sim::Comm;
using sim::Machine;
using testing_support::spans_equal;

constexpr int kRanks = 4;
constexpr GlobalIndex kN = 48;

std::vector<GlobalIndex> make_refs(int rank, int salt, int count = 8) {
  std::vector<GlobalIndex> refs;
  for (int k = 0; k < count; ++k)
    refs.push_back((static_cast<GlobalIndex>(rank) * (kN / kRanks) +
                    3 * k + salt + 5) %
                   kN);
  return refs;
}

struct IdVal {
  GlobalIndex id;
  double v;
};

std::vector<double> collect(Comm& c, std::span<const GlobalIndex> globals,
                            std::span<const double> vals) {
  std::vector<IdVal> mine(globals.size());
  for (std::size_t i = 0; i < globals.size(); ++i)
    mine[i] = IdVal{globals[i], vals[i]};
  std::vector<IdVal> all = c.allgatherv<IdVal>(mine);
  std::vector<double> out(static_cast<std::size_t>(kN), 0.0);
  for (const IdVal& iv : all) out[static_cast<std::size_t>(iv.id)] = iv.v;
  return out;
}

// ---- Array<T> basics -------------------------------------------------------

TEST(TypedArray, SizesFillsAndGuardsFollowTheDistribution) {
  Machine m(kRanks);
  m.run([&](Comm& c) {
    Runtime rt(c);
    const DistHandle d = rt.block(kN);
    Array<double> x(rt, d, "x");
    EXPECT_EQ(x.owned(), rt.owned_count(d));
    EXPECT_EQ(x.name(), "x");
    EXPECT_TRUE(x.dist() == d);

    x.fill([](GlobalIndex g) { return 2.0 * static_cast<double>(g); });
    const std::vector<GlobalIndex>& globals = x.globals();
    for (std::size_t i = 0; i < globals.size(); ++i)
      EXPECT_EQ(x[static_cast<GlobalIndex>(i)],
                2.0 * static_cast<double>(globals[i]));

    x.ensure_extent(x.owned() + 3);
    EXPECT_EQ(static_cast<GlobalIndex>(x.local().size()), x.owned() + 3);
    EXPECT_THROW(x.ensure_extent(x.owned() - 1), Error);
    EXPECT_THROW(x[x.owned() + 3], Error);
  });
}

// ---- forall on views -------------------------------------------------------

TEST(TypedForall, MatchesHandSequencedGatherBodyScatterAdd) {
  // forall(rt, d, ind, in(y), sum(x)) must produce exactly what the same
  // loop produces hand-sequenced on raw vectors: inspect, rt.gather, zero
  // the ghost accumulators, the body, rt.scatter_add.
  std::vector<double> via_forall, via_hand;
  for (int arm = 0; arm < 2; ++arm) {
    Machine m(kRanks);
    m.run([&](Comm& c) {
      Runtime rt(c);
      const DistHandle d = rt.block(kN);
      lang::IndirectionArray ind(make_refs(c.rank(), 7));

      if (arm == 0) {
        Array<double> y(rt, d, "y"), x(rt, d, "x");
        y.fill([](GlobalIndex g) { return 1.0 + static_cast<double>(g); });
        forall(rt, d, ind, in(y), sum(x))
            .run([&](std::span<const GlobalIndex> lrefs) {
              for (GlobalIndex j : lrefs) x[j] += 2.0 * y[j];
            });
        auto out = collect(c, x.globals(), x.owned_region());
        if (c.rank() == 0) via_forall = out;
      } else {
        const LoopHandle loop = rt.bind(d, ind);
        const ScheduleHandle h = rt.inspect(loop);
        const auto extent = static_cast<std::size_t>(rt.extent(h));
        const std::vector<GlobalIndex> globals = rt.owned_globals(d);
        std::vector<double> y(extent, 0.0), x(extent, 0.0);
        for (std::size_t i = 0; i < globals.size(); ++i)
          y[i] = 1.0 + static_cast<double>(globals[i]);
        rt.gather<double>(h, std::span<double>{y});
        for (GlobalIndex j : rt.local_refs(loop))
          x[static_cast<std::size_t>(j)] +=
              2.0 * y[static_cast<std::size_t>(j)];
        rt.scatter_add<double>(h, std::span<double>{x});
        auto out = collect(c, globals, {x.data(), globals.size()});
        if (c.rank() == 0) via_hand = out;
      }
    });
  }
  EXPECT_TRUE(spans_equal(via_forall, via_hand, "forall vs hand-sequenced"));
}

TEST(TypedForall, ForallReduceSumRidesTheViews) {
  Machine m(kRanks);
  m.run([&](Comm& c) {
    Runtime rt(c);
    const DistHandle d = rt.block(kN);
    lang::IndirectionArray ind(make_refs(c.rank(), 3));
    Array<double> data(rt, d, "data"), acc(rt, d, "acc");
    data.fill([](GlobalIndex g) { return 0.5 * static_cast<double>(g); });

    forall_reduce_sum(rt, d, ind, data, acc,
                      [&](std::span<const GlobalIndex> lrefs) {
                        for (GlobalIndex j : lrefs) acc[j] += data[j] + 1.0;
                      });

    // Every reference contributed exactly once machine-wide.
    std::vector<GlobalIndex> refs = make_refs(c.rank(), 3);
    auto all_refs = c.allgatherv<GlobalIndex>(refs);
    std::vector<double> expect(static_cast<std::size_t>(kN), 0.0);
    for (GlobalIndex g : all_refs)
      expect[static_cast<std::size_t>(g)] +=
          0.5 * static_cast<double>(g) + 1.0;
    auto got = collect(c, acc.globals(), acc.owned_region());
    if (c.rank() == 0) {
      EXPECT_TRUE(spans_equal(got, expect, "acc"));
    }
  });
}

TEST(TypedForall, RejectsGatherPlusSelfZeroingSumOfOneArray) {
  // Same guard as Step::resolve: sum(Array) zeroes the ghost region after
  // the gather delivered — in(u) + sum(u) in one forall would silently
  // wipe the gathered ghosts before the body reads them.
  Machine m(kRanks);
  m.run([&](Comm& c) {
    Runtime rt(c);
    const DistHandle d = rt.block(kN);
    lang::IndirectionArray ind(make_refs(c.rank(), 5));
    Array<double> u(rt, d, "u");
    try {
      forall(rt, d, ind, in(u), sum(u)).run([](auto) {});
      FAIL() << "in(u) + sum(u) in one forall must refuse";
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("'u'"), std::string::npos) << what;
      EXPECT_NE(what.find("self-zeroing"), std::string::npos) << what;
    }
  });
}

TEST(TypedForall, RejectsMigrateViews) {
  Machine m(1);
  m.run([&](Comm& c) {
    Runtime rt(c);
    const DistHandle d = rt.block(8);
    lang::IndirectionArray ind(std::vector<GlobalIndex>{0, 1});
    std::vector<double> items, arrived;
    std::vector<int> dest;
    EXPECT_THROW(
        forall(rt, d, ind, migrate(items).to(dest).into(arrived)),
        Error);
  });
}

// ---- edge case: in() and sum() over ONE array in one step ------------------

struct EdgeResult {
  std::vector<double> x, y;
  StepGraph::Stats stats;
};

/// One array bound both in() (gather its ghosts) and sum() (scatter-add
/// its ghost contributions) in a single step, through two different
/// indirections — the symmetric-update shape. Second step consumes owned
/// x so the scatter has a dependent.
EdgeResult run_in_and_sum_same_array(bool pipelining, int iters) {
  EdgeResult out;
  Machine m(kRanks);
  m.run([&](Comm& c) {
    Runtime rt(c);
    const DistHandle d = rt.block(kN);
    const std::vector<GlobalIndex> globals = rt.owned_globals(d);

    lang::IndirectionArray ind_r(make_refs(c.rank(), 2, 6));
    lang::IndirectionArray ind_w(make_refs(c.rank(), 21, 6));
    const LoopHandle loop_r = rt.bind(d, ind_r);
    const LoopHandle loop_w = rt.bind(d, ind_w);
    const ScheduleHandle hr = rt.inspect(loop_r);
    const ScheduleHandle hw = rt.inspect(loop_w);
    const std::span<const GlobalIndex> lrefs_r = rt.local_refs(loop_r);
    const std::span<const GlobalIndex> lrefs_w = rt.local_refs(loop_w);

    const auto extent = static_cast<std::size_t>(rt.local_extent(d));
    std::vector<double> x(extent, 0.0), y(globals.size(), 0.0);
    for (std::size_t i = 0; i < globals.size(); ++i)
      x[i] = 1.0 + 0.25 * static_cast<double>(globals[i]);

    StepGraph g(rt);
    g.set_pipelining(pipelining);
    g.step("symmetric")
        .bind(in(x).via(hr), sum(x).via(hw))
        .compute([&] {
          // Ghost slots of x reached through ind_w accumulate fresh
          // contributions (zeroed by the sum prepare only for Array-backed
          // views; raw vectors leave ghost zeroing to the compute).
          for (GlobalIndex j : lrefs_w) {
            if (j >= static_cast<GlobalIndex>(globals.size()))
              x[static_cast<std::size_t>(j)] = 0.0;
          }
          for (std::size_t k = 0; k < lrefs_w.size(); ++k) {
            const double pulled =
                x[static_cast<std::size_t>(lrefs_r[k % lrefs_r.size()])];
            x[static_cast<std::size_t>(lrefs_w[k])] += 0.125 * pulled + 0.5;
          }
        });
    g.step("consume").bind(use(x), update(y)).compute([&] {
      for (std::size_t i = 0; i < globals.size(); ++i)
        y[i] = 0.5 * y[i] + x[i];
    });

    rt.run(g, iters);
    // collect() is collective; only rank 0 stores into the shared result.
    std::vector<double> xs = collect(c, globals, {x.data(), globals.size()});
    std::vector<double> ys = collect(c, globals, {y.data(), globals.size()});
    if (c.rank() == 0) {
      out.x = std::move(xs);
      out.y = std::move(ys);
      out.stats = g.stats();
    }
  });
  return out;
}

TEST(ViewInference, InAndSumOfOneArrayInOneStepStaysBitwise) {
  const auto pipelined = run_in_and_sum_same_array(true, 5);
  const auto eager = run_in_and_sum_same_array(false, 5);
  EXPECT_TRUE(spans_equal(pipelined.x, eager.x, "x (pipelined vs eager)"));
  EXPECT_TRUE(spans_equal(pipelined.y, eager.y, "y (pipelined vs eager)"));
  // RAW through x: its own outstanding scatter-add blocks the gather from
  // hoisting into the next iteration.
  EXPECT_EQ(pipelined.stats.pipelined_gathers, 0u);
}

// ---- edge case: two views over one array via different indirections --------

EdgeResult run_two_views_one_array(bool pipelining, int iters) {
  EdgeResult out;
  Machine m(kRanks);
  m.run([&](Comm& c) {
    Runtime rt(c);
    const DistHandle d = rt.block(kN);
    const std::vector<GlobalIndex> globals = rt.owned_globals(d);

    lang::IndirectionArray ind1(make_refs(c.rank(), 4, 6));
    lang::IndirectionArray ind2(make_refs(c.rank(), 31, 6));
    const LoopHandle loop1 = rt.bind(d, ind1);
    const LoopHandle loop2 = rt.bind(d, ind2);
    const ScheduleHandle h1 = rt.inspect(loop1);
    const ScheduleHandle h2 = rt.inspect(loop2);
    const std::span<const GlobalIndex> lrefs1 = rt.local_refs(loop1);
    const std::span<const GlobalIndex> lrefs2 = rt.local_refs(loop2);

    const auto extent = static_cast<std::size_t>(rt.local_extent(d));
    std::vector<double> x(extent, 0.0), y(globals.size(), 0.0);
    for (std::size_t i = 0; i < globals.size(); ++i)
      x[i] = 3.0 + static_cast<double>(globals[i]);

    StepGraph g(rt);
    g.set_pipelining(pipelining);
    // Gather/gather over one array is benign (both deliver the same owned
    // values): the engine coalesces the two schedules' segments.
    g.step("dual_gather")
        .bind(in(x).via(h1), in(x).via(h2), update(y))
        .compute([&] {
          for (std::size_t k = 0; k < lrefs1.size(); ++k)
            y[k % y.size()] += x[static_cast<std::size_t>(lrefs1[k])] +
                               0.5 * x[static_cast<std::size_t>(lrefs2[k])];
        });
    g.step("advance").bind(use(y), update(x)).compute([&] {
      for (std::size_t i = 0; i < globals.size(); ++i)
        x[i] = 0.75 * x[i] + 0.125 * y[i];
    });

    rt.run(g, iters);
    // collect() is collective; only rank 0 stores into the shared result.
    std::vector<double> xs = collect(c, globals, {x.data(), globals.size()});
    std::vector<double> ys = collect(c, globals, {y.data(), globals.size()});
    if (c.rank() == 0) {
      out.x = std::move(xs);
      out.y = std::move(ys);
      out.stats = g.stats();
    }
  });
  return out;
}

TEST(ViewInference, TwoViewsOverOneArrayViaDifferentIndirections) {
  const auto pipelined = run_two_views_one_array(true, 4);
  const auto eager = run_two_views_one_array(false, 4);
  EXPECT_TRUE(spans_equal(pipelined.x, eager.x, "x (pipelined vs eager)"));
  EXPECT_TRUE(spans_equal(pipelined.y, eager.y, "y (pipelined vs eager)"));
  // One gather batch per execution: both schedules' segments coalesce.
  EXPECT_EQ(pipelined.stats.gather_batches, eager.stats.gather_batches);
}

// ---- the migrate() view ----------------------------------------------------

struct MigrateResult {
  std::vector<double> items;  ///< every rank's final items, rank-major
  StepGraph::Stats stats;
};

/// A particle-style cycle: "update" touches the items, "move" computes a
/// destination per item and migrates them, swapping the arrivals in when
/// the motion completes (the DSMC collide/move shape).
MigrateResult run_migrate_cycle(bool pipelining, int iters) {
  MigrateResult out;
  Machine m(kRanks);
  m.run([&](Comm& c) {
    Runtime rt(c);
    std::vector<double> items, arrived;
    std::vector<int> dest;
    for (int k = 0; k < 6; ++k)
      items.push_back(10.0 * c.rank() + k + 0.25);

    StepGraph g(rt);
    g.set_pipelining(pipelining);
    const auto touch = [&] {
      for (double& v : items) v = 0.5 * v + 1.0;
    };
    const auto route = [&] {
      dest.resize(items.size());
      for (std::size_t i = 0; i < items.size(); ++i)
        dest[i] = static_cast<int>(static_cast<long long>(items[i] * 7.0) %
                                   kRanks);
      arrived.clear();
    };
    const auto swap_in = [&] { items.swap(arrived); };
    g.step("update").bind(update(items)).compute(touch);
    g.step("move")
        .bind(update(items), update(dest))
        .compute(route)
        .bind(migrate(items).to(dest).into(arrived))
        .then(swap_in);
    rt.run(g, iters);

    std::vector<double> all = c.allgatherv<double>(items);
    if (c.rank() == 0) {
      out.items = std::move(all);
      out.stats = g.stats();
    }
  });
  return out;
}

TEST(ViewInference, MigrateViewPipelinedMatchesEager) {
  const auto pipelined = run_migrate_cycle(true, 5);
  const auto eager = run_migrate_cycle(false, 5);
  EXPECT_TRUE(
      spans_equal(pipelined.items, eager.items, "items (pipelined vs eager)"));
  // One migration batch per execution in both arms.
  EXPECT_EQ(pipelined.stats.write_batches, eager.stats.write_batches);
}

TEST(ViewInference, MigrateWithMismatchedDestinationsIsRejected) {
  // migrate(items).to(dest) needs one destination rank per item; the
  // mismatch surfaces when the migration posts, naming the rule.
  Machine m(2);
  m.run([&](Comm& c) {
    Runtime rt(c);
    std::vector<double> items{1.0, 2.0, 3.0};
    std::vector<double> arrived;
    std::vector<int> dest{0, 1};

    StepGraph g(rt);
    g.step("move")
        .bind(migrate(items).to(dest).into(arrived))
        .compute([] {});
    try {
      g.advance();
      FAIL() << "a migrate with fewer destinations than items must refuse";
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("one destination rank per item"), std::string::npos)
          << what;
    }
  });
}

TEST(ViewInference, SelfZeroingAccumulatorGatheredInSameStepIsRejected) {
  // sum(Array) zeroes the ghost region before the compute; gathering the
  // SAME Array in the same step would wipe the just-delivered ghosts.
  // The graph must refuse rather than silently zero the gather (the raw
  // std::vector flavor, where the compute owns ghost zeroing, remains
  // the supported way to express the symmetric-update shape).
  Machine m(kRanks);
  m.run([&](Comm& c) {
    Runtime rt(c);
    const DistHandle d = rt.block(kN);
    lang::IndirectionArray ind1(make_refs(c.rank(), 2, 6));
    lang::IndirectionArray ind2(make_refs(c.rank(), 21, 6));
    const ScheduleHandle h1 = rt.inspect(rt.bind(d, ind1));
    const ScheduleHandle h2 = rt.inspect(rt.bind(d, ind2));
    Array<double> x(rt, d, "x");

    StepGraph g(rt);
    g.step("symmetric").bind(in(x).via(h1), sum(x).via(h2)).compute([] {});
    try {
      g.advance();
      FAIL() << "self-zeroing accumulator + gather of one array must refuse";
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("symmetric"), std::string::npos) << what;
      EXPECT_NE(what.find("'x'"), std::string::npos) << what;
      EXPECT_NE(what.find("self-zeroing"), std::string::npos) << what;
    }
  });
}

TEST(ViewInference, GatherAndSumOfOneArrayAcrossStepsWorksOnArrays) {
  // The supported split of the same shape: gather in one step, accumulate
  // in the next — RAW/WAR hazards serialize it, bitwise vs eager.
  std::vector<std::vector<double>> arms;
  for (const bool pipelining : {true, false}) {
    Machine m(kRanks);
    m.run([&](Comm& c) {
      Runtime rt(c);
      const DistHandle d = rt.block(kN);
      lang::IndirectionArray ind1(make_refs(c.rank(), 2, 6));
      lang::IndirectionArray ind2(make_refs(c.rank(), 21, 6));
      const ScheduleHandle h1 = rt.inspect(rt.bind(d, ind1));
      const ScheduleHandle h2 = rt.inspect(rt.bind(d, ind2));
      const std::span<const GlobalIndex> l1 =
          rt.local_refs(rt.bind(d, ind1));
      const std::span<const GlobalIndex> l2 =
          rt.local_refs(rt.bind(d, ind2));
      Array<double> x(rt, d, "x");
      std::vector<double> pulled(l1.size(), 0.0);
      x.fill([](GlobalIndex g) { return 1.0 + 0.5 * static_cast<double>(g); });

      StepGraph g(rt);
      g.set_pipelining(pipelining);
      g.step("pull").bind(in(x).via(h1), update(pulled)).compute([&] {
        for (std::size_t k = 0; k < l1.size(); ++k)
          pulled[k] = 0.25 * x[l1[k]];
      });
      g.step("push").bind(use(pulled), sum(x).via(h2)).compute([&] {
        for (std::size_t k = 0; k < l2.size(); ++k) x[l2[k]] += pulled[k];
      });
      rt.run(g, 4);

      auto out = collect(c, x.globals(), x.owned_region());
      if (c.rank() == 0) arms.push_back(out);
    });
  }
  ASSERT_EQ(arms.size(), 2u);
  EXPECT_TRUE(spans_equal(arms[0], arms[1], "x (pipelined vs eager)"));
}

// ---- edge case: stale Array<T> binding after retarget() --------------------

TEST(TypedArray, StaleBindingAfterRetargetIsRejectedThenReArms) {
  Machine m(kRanks);
  m.run([&](Comm& c) {
    Runtime rt(c);
    std::vector<int> map(static_cast<std::size_t>(kN));
    for (GlobalIndex i = 0; i < kN; ++i)
      map[static_cast<std::size_t>(i)] = static_cast<int>(i) % kRanks;
    DistHandle d = rt.irregular(map);

    lang::IndirectionArray ind(make_refs(c.rank(), 9));
    ScheduleHandle h = rt.inspect(rt.bind(d, ind));

    Array<double> x(rt, d, "x");
    x.fill([](GlobalIndex g) { return static_cast<double>(g) + 0.5; });

    StepGraph g(rt);
    g.step("pull").bind(in(x).via(h)).compute([] {});
    g.advance();
    g.quiesce();

    // Repartition and retarget the ARRAY but not the graph: the binding
    // is stale and advance() must say so, naming the array.
    std::vector<int> map2(static_cast<std::size_t>(kN));
    for (GlobalIndex i = 0; i < kN; ++i)
      map2[static_cast<std::size_t>(i)] =
          static_cast<int>(i / 3 + 1) % kRanks;
    const DistHandle d2 = rt.repartition(d, map2);
    const ScheduleHandle remap = rt.plan_remap(d, d2);
    x.retarget(remap, d2);
    const ScheduleHandle h2 = rt.inspect(rt.bind(d2, ind));

    try {
      g.advance();
      FAIL() << "stale Array binding must be rejected";
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("'x'"), std::string::npos) << what;
      EXPECT_NE(what.find("retarget"), std::string::npos) << what;
    }

    // Graph retarget accepts the array's new binding revision and the
    // cycle resumes on the successor epoch.
    g.retarget(h, h2);
    rt.retire(d);
    EXPECT_NO_THROW(g.advance());
    g.quiesce();

    // Owned data survived the retarget remap.
    auto got = collect(c, x.globals(), x.owned_region());
    if (c.rank() == 0) {
      for (GlobalIndex i = 0; i < kN; ++i)
        EXPECT_EQ(got[static_cast<std::size_t>(i)],
                  static_cast<double>(i) + 0.5);
    }
  });
}

TEST(TypedArray, RetargetRejectsAMismatchedPlan) {
  Machine m(2);
  m.run([&](Comm& c) {
    Runtime rt(c);
    const DistHandle d = rt.block(16);
    Array<double> x(rt, d, "x");
    // A plan towards one epoch, a retarget claim onto another with a
    // different ownership split: the size check after the (collective)
    // remap catches the drift on every rank.
    const DistHandle cyc = rt.cyclic(16);
    const DistHandle skewed = rt.irregular(std::vector<int>(16, 0));
    const ScheduleHandle plan = rt.plan_remap(d, cyc);
    EXPECT_THROW(x.retarget(plan, skewed), Error);
    EXPECT_THROW(x.retarget(plan, DistHandle{}), Error);
  });
}

}  // namespace
}  // namespace chaos
