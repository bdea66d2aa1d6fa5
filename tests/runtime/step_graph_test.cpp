// chaos::StepGraph tests: the dependence edge cases of the declarative
// executor, each proven bitwise-equivalent to the eager post/flush/wait
// path — same-array gather-after-scatter (RAW), scatter-after-gather
// (WAR), disjoint arrays pipelining freely, a repartition landing
// mid-pipeline (seeded successor epoch, retarget re-arm), migrate steps,
// per-step traffic attribution, and the stale-binding guard.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

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

/// Deterministic per-rank reference stream: `count` globals fanning out
/// from this rank's slice with stride, so every rank has off-rank refs.
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

/// Gather one distributed array's owned values into global-id order on
/// every rank (test-support collective).
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

// ---- two disjoint array pairs: free pipelining -----------------------------

struct PairCycleResult {
  std::vector<double> xa, ya, xb, yb;
  StepGraph::Stats stats;
  comm::Engine::Traffic step_a_gather, step_a_write, step_b_gather;
};

/// Two independent gather/compute/scatter-add steps over disjoint array
/// pairs (xa,ya) and (xb,yb), plus a local advance step — the shape whose
/// communication the pipelined graph may fully overlap.
PairCycleResult run_pair_cycle(bool pipelining, int iters) {
  PairCycleResult out;
  Machine m(kRanks);
  m.run([&](Comm& c) {
    Runtime rt(c);
    const DistHandle d = rt.block(kN);
    const std::vector<GlobalIndex> globals = rt.owned_globals(d);

    lang::IndirectionArray ind_a(make_refs(c.rank(), 0));
    lang::IndirectionArray ind_b(make_refs(c.rank(), 11));
    const LoopHandle loop_a = rt.bind(d, ind_a);
    const LoopHandle loop_b = rt.bind(d, ind_b);
    const ScheduleHandle ha = rt.inspect(loop_a);
    const ScheduleHandle hb = rt.inspect(loop_b);
    const std::span<const GlobalIndex> lrefs_a = rt.local_refs(loop_a);
    const std::span<const GlobalIndex> lrefs_b = rt.local_refs(loop_b);

    const auto extent = static_cast<std::size_t>(rt.local_extent(d));
    std::vector<double> xa(extent, 0.0), ya(extent, 0.0);
    std::vector<double> xb(extent, 0.0), yb(extent, 0.0);
    for (std::size_t i = 0; i < globals.size(); ++i) {
      xa[i] = 1.0 + static_cast<double>(globals[i]);
      xb[i] = 2.0 + 0.5 * static_cast<double>(globals[i]);
    }

    StepGraph g(rt);
    g.set_pipelining(pipelining);
    g.step("a")
        .bind(in(xa).via(ha))
        .compute([&] {
          std::fill(ya.begin(), ya.end(), 0.0);
          for (GlobalIndex j : lrefs_a)
            ya[static_cast<std::size_t>(j)] +=
                xa[static_cast<std::size_t>(j)] + 1.0;
        })
        .bind(sum(ya).via(ha));
    g.step("b")
        .bind(in(xb).via(hb))
        .compute([&] {
          std::fill(yb.begin(), yb.end(), 0.0);
          for (GlobalIndex j : lrefs_b)
            yb[static_cast<std::size_t>(j)] +=
                0.5 * xb[static_cast<std::size_t>(j)];
        })
        .bind(sum(yb).via(hb));
    g.step("advance")
        .bind(use(ya), use(yb), update(xa), update(xb))
        .compute([&] {
          for (std::size_t i = 0; i < globals.size(); ++i) {
            xa[i] = 0.5 * xa[i] + 0.25 * ya[i] + 0.125;
            xb[i] = 0.75 * xb[i] + 0.125 * yb[i] + 0.0625;
          }
        });

    rt.run(g, iters);

    // collect() is collective (every rank calls it), but only rank 0 may
    // write the shared result struct — the rank threads run concurrently.
    std::vector<double> xa_all = collect(c, globals, {xa.data(), globals.size()});
    std::vector<double> ya_all = collect(c, globals, {ya.data(), globals.size()});
    std::vector<double> xb_all = collect(c, globals, {xb.data(), globals.size()});
    std::vector<double> yb_all = collect(c, globals, {yb.data(), globals.size()});
    if (c.rank() == 0) {
      out.xa = std::move(xa_all);
      out.ya = std::move(ya_all);
      out.xb = std::move(xb_all);
      out.yb = std::move(yb_all);
      out.stats = g.stats();
      out.step_a_gather = g.at(0).gather_traffic();
      out.step_a_write = g.at(0).write_traffic();
      out.step_b_gather = g.at(1).gather_traffic();
    }
  });
  return out;
}

TEST(StepGraph, DisjointArraysPipelineFreelyAndBitwiseMatchEager) {
  const auto pipelined = run_pair_cycle(/*pipelining=*/true, 5);
  const auto eager = run_pair_cycle(/*pipelining=*/false, 5);

  EXPECT_TRUE(spans_equal(pipelined.xa, eager.xa, "xa"));
  EXPECT_TRUE(spans_equal(pipelined.ya, eager.ya, "ya"));
  EXPECT_TRUE(spans_equal(pipelined.xb, eager.xb, "xb"));
  EXPECT_TRUE(spans_equal(pipelined.yb, eager.yb, "yb"));

  // The pipelined arm overlapped: step b's gathers (and the next
  // iteration's) hoisted ahead of their step, and scatter batches posted
  // while another step's gathers were outstanding.
  EXPECT_GT(pipelined.stats.pipelined_gathers, 0u);
  EXPECT_GT(pipelined.stats.overlapped_posts, 0u);
  EXPECT_EQ(eager.stats.pipelined_gathers, 0u);
  EXPECT_EQ(eager.stats.overlapped_posts, 0u);
  // The advance step's reads of ya/yb force the scatters to deliver first.
  EXPECT_GT(pipelined.stats.hazard_stalls, 0u);
}

TEST(StepGraph, AttributesTrafficToIndividualSteps) {
  const auto r = run_pair_cycle(/*pipelining=*/true, 3);
  EXPECT_GT(r.step_a_gather.messages, 0u);
  EXPECT_GT(r.step_a_gather.bytes, 0u);
  EXPECT_GT(r.step_a_write.messages, 0u);
  EXPECT_GT(r.step_b_gather.messages, 0u);
  // Different schedules, different ghost sets: the attribution is
  // per-step, not a copy of the engine total.
  EXPECT_NE(r.step_a_gather.bytes, r.step_b_gather.bytes);
}

// ---- same-array RAW: gather-after-scatter ----------------------------------

struct SameArrayResult {
  std::vector<double> x, y;
  StepGraph::Stats stats;
};

/// Step 1 scatters x (replacement writes of its ghost slots), step 2
/// gathers x — a RAW dependence through the same array that must
/// serialize: the gather may not pack owned x until the scatter delivered.
SameArrayResult run_raw_cycle(bool pipelining, int iters) {
  SameArrayResult out;
  Machine m(kRanks);
  m.run([&](Comm& c) {
    Runtime rt(c);
    const DistHandle d = rt.block(kN);
    const std::vector<GlobalIndex> globals = rt.owned_globals(d);

    lang::IndirectionArray ind1(make_refs(c.rank(), 3, 6));
    lang::IndirectionArray ind2(make_refs(c.rank(), 17, 6));
    const LoopHandle loop1 = rt.bind(d, ind1);
    const LoopHandle loop2 = rt.bind(d, ind2);
    const ScheduleHandle h1 = rt.inspect(loop1);
    const ScheduleHandle h2 = rt.inspect(loop2);
    const std::span<const GlobalIndex> lrefs1 = rt.local_refs(loop1);
    const std::span<const GlobalIndex> lrefs2 = rt.local_refs(loop2);

    const auto extent = static_cast<std::size_t>(rt.local_extent(d));
    std::vector<double> x(extent, 0.0), y(extent, 0.0);
    for (std::size_t i = 0; i < globals.size(); ++i)
      x[i] = 3.0 + static_cast<double>(globals[i]);

    StepGraph g(rt);
    g.set_pipelining(pipelining);
    g.step("write_x")
        .compute([&] {
          for (GlobalIndex j : lrefs1)
            x[static_cast<std::size_t>(j)] =
                0.75 * x[static_cast<std::size_t>(j)] + 2.0;
        })
        .bind(chaos::out(x).via(h1));
    g.step("read_x")
        .bind(in(x).via(h2), update(y))
        .compute([&] {
          for (GlobalIndex j : lrefs2)
            y[static_cast<std::size_t>(j % static_cast<GlobalIndex>(
                                               globals.size()))] +=
                0.5 * x[static_cast<std::size_t>(j)];
        });

    rt.run(g, iters);

    std::vector<double> x_all = collect(c, globals, {x.data(), globals.size()});
    std::vector<double> y_all = collect(c, globals, {y.data(), globals.size()});
    if (c.rank() == 0) {
      out.x = std::move(x_all);
      out.y = std::move(y_all);
      out.stats = g.stats();
    }
  });
  return out;
}

TEST(StepGraph, GatherAfterScatterSameArraySerializesBitwise) {
  const auto pipelined = run_raw_cycle(/*pipelining=*/true, 5);
  const auto eager = run_raw_cycle(/*pipelining=*/false, 5);
  EXPECT_TRUE(spans_equal(pipelined.x, eager.x, "x"));
  EXPECT_TRUE(spans_equal(pipelined.y, eager.y, "y"));
  // RAW through x: the gather is never hoisted (the intervening scatter
  // blocks the arm), and posting it forces the scatter to deliver first.
  EXPECT_EQ(pipelined.stats.pipelined_gathers, 0u);
  EXPECT_GT(pipelined.stats.hazard_stalls, 0u);
}

// ---- same-array WAR: scatter-after-gather ----------------------------------

/// Step 1 gathers x, step 2 scatters x. Within an iteration the step
/// order resolves it; the cross-iteration arm of step 1's gather must not
/// hoist above step 2's outstanding scatter.
SameArrayResult run_war_cycle(bool pipelining, int iters) {
  SameArrayResult out;
  Machine m(kRanks);
  m.run([&](Comm& c) {
    Runtime rt(c);
    const DistHandle d = rt.block(kN);
    const std::vector<GlobalIndex> globals = rt.owned_globals(d);

    lang::IndirectionArray ind1(make_refs(c.rank(), 7, 6));
    lang::IndirectionArray ind2(make_refs(c.rank(), 23, 6));
    const LoopHandle loop1 = rt.bind(d, ind1);
    const LoopHandle loop2 = rt.bind(d, ind2);
    const ScheduleHandle h1 = rt.inspect(loop1);
    const ScheduleHandle h2 = rt.inspect(loop2);
    const std::span<const GlobalIndex> lrefs1 = rt.local_refs(loop1);
    const std::span<const GlobalIndex> lrefs2 = rt.local_refs(loop2);

    const auto extent = static_cast<std::size_t>(rt.local_extent(d));
    std::vector<double> x(extent, 0.0), y(extent, 0.0);
    for (std::size_t i = 0; i < globals.size(); ++i)
      x[i] = 1.5 * static_cast<double>(globals[i]) + 1.0;

    StepGraph g(rt);
    g.set_pipelining(pipelining);
    g.step("read_x")
        .bind(in(x).via(h1), update(y))
        .compute([&] {
          for (GlobalIndex j : lrefs1)
            y[static_cast<std::size_t>(j % static_cast<GlobalIndex>(
                                               globals.size()))] +=
                0.25 * x[static_cast<std::size_t>(j)];
        });
    g.step("write_x")
        .compute([&] {
          for (GlobalIndex j : lrefs2)
            x[static_cast<std::size_t>(j)] =
                0.5 * x[static_cast<std::size_t>(j)] + 1.0;
        })
        .bind(chaos::out(x).via(h2));

    rt.run(g, iters);

    std::vector<double> x_all = collect(c, globals, {x.data(), globals.size()});
    std::vector<double> y_all = collect(c, globals, {y.data(), globals.size()});
    if (c.rank() == 0) {
      out.x = std::move(x_all);
      out.y = std::move(y_all);
      out.stats = g.stats();
    }
  });
  return out;
}

TEST(StepGraph, ScatterAfterGatherSameArraySerializesBitwise) {
  const auto pipelined = run_war_cycle(/*pipelining=*/true, 5);
  const auto eager = run_war_cycle(/*pipelining=*/false, 5);
  EXPECT_TRUE(spans_equal(pipelined.x, eager.x, "x"));
  EXPECT_TRUE(spans_equal(pipelined.y, eager.y, "y"));
  EXPECT_EQ(pipelined.stats.pipelined_gathers, 0u);
}

// ---- reader in the hoist window --------------------------------------------

/// A step that only READS an array (use(), no gather of its own) must
/// still block hoisting a later step's gather of that array across it:
/// the hoisted gather's early FIFO delivery would hand the reader ghost
/// values one owned-write fresher than the eager schedule provides.
SameArrayResult run_reader_window_cycle(bool pipelining, int iters) {
  SameArrayResult out;
  Machine m(kRanks);
  m.run([&](Comm& c) {
    Runtime rt(c);
    const DistHandle d = rt.block(kN);
    const std::vector<GlobalIndex> globals = rt.owned_globals(d);

    lang::IndirectionArray ind_x(make_refs(c.rank(), 5, 6));
    lang::IndirectionArray ind_b(make_refs(c.rank(), 19, 6));
    const LoopHandle loop_x = rt.bind(d, ind_x);
    const LoopHandle loop_b = rt.bind(d, ind_b);
    const ScheduleHandle hx = rt.inspect(loop_x);
    const ScheduleHandle hb = rt.inspect(loop_b);
    const std::span<const GlobalIndex> lrefs_x = rt.local_refs(loop_x);
    const std::span<const GlobalIndex> lrefs_b = rt.local_refs(loop_b);

    const auto extent = static_cast<std::size_t>(rt.local_extent(d));
    std::vector<double> x(extent, 0.0), b(extent, 0.0);
    std::vector<double> acc(globals.size(), 0.0);
    for (std::size_t i = 0; i < globals.size(); ++i)
      x[i] = static_cast<double>(globals[i]);

    StepGraph g(rt);
    g.set_pipelining(pipelining);
    // Delivers x's ghosts before anything reads them (a reader ahead of
    // every gather of x is a read-before-gather error the graph refuses).
    g.step("pull").bind(in(x).via(hx)).compute([] {});
    // Writes owned x: the values a hoisted refresh-gather would pack.
    g.step("bump").bind(update(x)).compute([&] {
      for (std::size_t i = 0; i < globals.size(); ++i) x[i] += 1.0;
    });
    // Unrelated scatter whose hazard wait drains the batch FIFO — the
    // channel through which a hoisted gather would deliver early.
    g.step("side")
        .compute([&] {
          std::fill(b.begin(), b.end(), 0.0);
          for (GlobalIndex j : lrefs_b)
            b[static_cast<std::size_t>(j)] += 1.0;
        })
        .bind(sum(b).via(hb));
    // Reads x's GHOST slots — under the eager schedule these are the ones
    // "pull" delivered this iteration (pre-bump values).
    g.step("readghost").bind(use(b), use(x), update(acc)).compute([&] {
      for (std::size_t i = 0; i < lrefs_x.size(); ++i)
        acc[i % acc.size()] += x[static_cast<std::size_t>(lrefs_x[i])];
    });
    // The refresh: gathers post-bump ghosts for the next iteration.
    g.step("refresh").bind(in(x).via(hx)).compute([] {});

    rt.run(g, iters);

    std::vector<double> x_all = collect(c, globals, {x.data(), globals.size()});
    std::vector<double> y_all = collect(c, globals, {acc.data(), globals.size()});
    if (c.rank() == 0) {
      out.x = std::move(x_all);
      out.y = std::move(y_all);
      out.stats = g.stats();
    }
  });
  return out;
}

TEST(StepGraph, ReaderInHoistWindowBlocksEarlyGatherDelivery) {
  const auto pipelined = run_reader_window_cycle(/*pipelining=*/true, 3);
  const auto eager = run_reader_window_cycle(/*pipelining=*/false, 3);
  EXPECT_TRUE(spans_equal(pipelined.x, eager.x, "x"));
  EXPECT_TRUE(spans_equal(pipelined.y, eager.y, "acc"));
}

// ---- verification before arming -------------------------------------------

// No setter turns verification on: every graph runs the analyzer before it
// first arms. A step that reads x before any step gathers it is a
// read-before-gather error, so the first advance() throws on every rank
// alike, before any compute runs or any batch is posted — no rank is left
// waiting on a peer.
TEST(StepGraph, GraphWithoutSetterRefusesErrorFinding) {
  std::vector<std::string> errors(kRanks);
  Machine m(kRanks);
  m.run([&](Comm& c) {
    Runtime rt(c);
    const DistHandle d = rt.block(kN);
    lang::IndirectionArray ind(make_refs(c.rank(), 3));
    const ScheduleHandle h = rt.inspect(d, ind);
    const auto extent = static_cast<std::size_t>(rt.local_extent(d));
    std::vector<double> x(extent, 1.0), y(extent, 0.0);

    int ran = 0;
    StepGraph g(rt);
    // Named arrays keep the (per-rank) addresses out of the message.
    g.step("early")
        .bind(use(x).named("x"), update(y).named("y"))
        .compute([&] { ++ran; });
    g.step("late").bind(in(x).via(h).named("x")).compute([&] { ++ran; });
    const std::uint64_t sent = c.stats().msgs_sent;
    try {
      g.advance();
    } catch (const Error& e) {
      errors[static_cast<std::size_t>(c.rank())] = e.what();
    }
    EXPECT_EQ(ran, 0);
    EXPECT_EQ(g.stats().gather_batches, 0u);
    EXPECT_EQ(c.stats().msgs_sent, sent);
  });
  for (const std::string& e : errors) {
    EXPECT_NE(e.find("refused to arm"), std::string::npos) << e;
    EXPECT_NE(e.find("read-before-gather"), std::string::npos) << e;
    EXPECT_EQ(e, errors[0]);
  }
}

// ---- repartition landing mid-pipeline --------------------------------------

struct RepartResult {
  std::vector<double> x, y;
};

/// Run the (x,y) gather/scatter-add cycle over an irregular epoch, then —
/// with the pipeline hot (hoisted gathers and trailing scatters in
/// flight) — repartition to a successor epoch, retarget the graph, remap
/// the arrays, and keep advancing. `reuse` selects the PR-3 seeded
/// successor path vs a cold rebuild (both must agree bitwise).
RepartResult run_repart_cycle(bool pipelining, bool reuse, int iters) {
  RepartResult out;
  Machine m(kRanks);
  m.run([&](Comm& c) {
    Runtime rt(c);
    rt.set_cross_epoch_reuse(reuse);
    std::vector<int> map(static_cast<std::size_t>(kN));
    for (GlobalIndex i = 0; i < kN; ++i)
      map[static_cast<std::size_t>(i)] = static_cast<int>(i) % kRanks;
    DistHandle d = rt.adopt(lang::Distribution::irregular(c, map));
    std::vector<GlobalIndex> globals = rt.owned_globals(d);

    lang::IndirectionArray ind(make_refs(c.rank(), 9));
    ScheduleHandle h = rt.inspect(rt.bind(d, ind));
    std::span<const GlobalIndex> lrefs = rt.local_refs(rt.bind(d, ind));

    auto extent = static_cast<std::size_t>(rt.local_extent(d));
    std::vector<double> x(extent, 0.0), y(extent, 0.0);
    for (std::size_t i = 0; i < globals.size(); ++i)
      x[i] = 4.0 + static_cast<double>(globals[i]);

    StepGraph g(rt);
    g.set_pipelining(pipelining);
    g.step("force")
        .bind(in(x).via(h))
        .compute([&] {
          std::fill(y.begin(), y.end(), 0.0);
          for (GlobalIndex j : lrefs)
            y[static_cast<std::size_t>(j)] +=
                0.5 * x[static_cast<std::size_t>(j)] + 1.0;
        })
        .bind(sum(y).via(h));
    g.step("advance").bind(use(y), update(x)).compute([&] {
      for (std::size_t i = 0; i < globals.size(); ++i)
        x[i] = 0.5 * x[i] + 0.25 * y[i];
    });

    for (int it = 0; it < iters; ++it) {
      if (it == iters / 2) {
        // Mid-pipeline repartition: the previous advance left hoisted
        // gathers (pipelined arm) in flight. Build the successor epoch
        // while they fly; retarget() quiesces before any array is read.
        std::vector<int> map2(static_cast<std::size_t>(kN));
        for (GlobalIndex i = 0; i < kN; ++i)
          map2[static_cast<std::size_t>(i)] =
              static_cast<int>((i / 3 + 1)) % kRanks;
        const DistHandle d2 = rt.repartition(d, map2);
        const ScheduleHandle remap = rt.plan_remap(d, d2);
        const ScheduleHandle h2 = rt.inspect(rt.bind(d2, ind));
        g.retarget(h, h2);  // quiesces the hot pipeline, swaps bindings

        std::vector<double> x2 = rt.remap<double>(
            remap, std::span<const double>{x.data(), globals.size()});
        const std::span<const GlobalIndex> lrefs2 =
            rt.local_refs(rt.bind(d2, ind));
        rt.retire(d);
        d = d2;
        globals = rt.owned_globals(d);
        extent = static_cast<std::size_t>(rt.local_extent(d));
        x.assign(extent, 0.0);
        std::copy(x2.begin(), x2.end(), x.begin());
        y.assign(extent, 0.0);
        h = h2;
        lrefs = lrefs2;
      }
      g.advance();
    }
    g.quiesce();

    std::vector<double> x_all = collect(c, globals, {x.data(), globals.size()});
    std::vector<double> y_all = collect(c, globals, {y.data(), globals.size()});
    if (c.rank() == 0) {
      out.x = std::move(x_all);
      out.y = std::move(y_all);
    }
  });
  return out;
}

TEST(StepGraph, RepartitionMidPipelineStaysBitwiseEquivalent) {
  const auto pipelined = run_repart_cycle(true, /*reuse=*/true, 6);
  const auto eager = run_repart_cycle(false, /*reuse=*/true, 6);
  EXPECT_TRUE(spans_equal(pipelined.x, eager.x, "x (pipelined vs eager)"));
  EXPECT_TRUE(spans_equal(pipelined.y, eager.y, "y (pipelined vs eager)"));

  // The seeded successor epoch behaves exactly like a cold rebuild under
  // the graph too (the PR-3 guarantee carried onto the new executor).
  const auto cold = run_repart_cycle(true, /*reuse=*/false, 6);
  EXPECT_TRUE(spans_equal(pipelined.x, cold.x, "x (seeded vs cold)"));
  EXPECT_TRUE(spans_equal(pipelined.y, cold.y, "y (seeded vs cold)"));
}

// ---- migrate steps ---------------------------------------------------------

struct Item {
  GlobalIndex id;
  double v;
};

TEST(StepGraph, MigrateStepMovesItemsAndRunsFinalizer) {
  // A declared migration: items round-robin to the next rank each
  // iteration; the finalizer swaps the arrival buffer in when the motion
  // completes (deferred, under pipelining, to the next dependent step).
  for (const bool pipelining : {true, false}) {
    std::vector<GlobalIndex> ids_seen;
    Machine m(kRanks);
    m.run([&](Comm& c) {
      Runtime rt(c);
      std::vector<Item> items;
      for (int k = 0; k < 5; ++k)
        items.push_back(Item{static_cast<GlobalIndex>(c.rank() * 100 + k),
                             static_cast<double>(k)});
      std::vector<int> dest;
      std::vector<Item> arrived;

      StepGraph g(rt);
      g.set_pipelining(pipelining);
      g.step("tally").bind(update(items)).compute([&] {
        for (Item& q : items) q.v += 1.0;
      });
      g.step("move")
          .bind(update(items), update(dest))
          .compute([&] {
            dest.resize(items.size());
            for (std::size_t i = 0; i < items.size(); ++i)
              dest[i] = (c.rank() + 1 + static_cast<int>(i)) % c.size();
            arrived.clear();
          })
          .bind(migrate(items).to(dest).into(arrived))
          .then([&] {
            items = std::move(arrived);
            arrived = std::vector<Item>{};
          });

      rt.run(g, 4);

      // Conservation: every item exists exactly once machine-wide, and
      // each was tallied once per iteration.
      std::vector<Item> all = c.allgatherv<Item>(items);
      if (c.rank() == 0) {
        std::sort(all.begin(), all.end(),
                  [](const Item& a, const Item& b) { return a.id < b.id; });
        for (const Item& q : all) {
          ids_seen.push_back(q.id);
          EXPECT_DOUBLE_EQ(q.v,
                           static_cast<double>(q.id % 100) + 4.0);
        }
      }
    });
    ASSERT_EQ(ids_seen.size(), static_cast<std::size_t>(kRanks * 5));
    for (int r = 0; r < kRanks; ++r)
      for (int k = 0; k < 5; ++k)
        EXPECT_EQ(ids_seen[static_cast<std::size_t>(r * 5 + k)],
                  static_cast<GlobalIndex>(r * 100 + k));
  }
}

// ---- guards ----------------------------------------------------------------

TEST(StepGraph, AdvanceRejectsStaleBindingsAfterRepartition) {
  Machine m(1);
  m.run([&](Comm& c) {
    Runtime rt(c);
    const DistHandle d = rt.block(8);
    lang::IndirectionArray ind(std::vector<GlobalIndex>{0, 3, 7});
    const ScheduleHandle h = rt.inspect(rt.bind(d, ind));
    std::vector<double> x(static_cast<std::size_t>(rt.local_extent(d)), 1.0);

    StepGraph g(rt);
    g.step("s").bind(in(x).via(h)).compute([] {});
    g.advance();
    g.quiesce();

    const DistHandle d2 = rt.repartition(d, std::vector<int>(8, 0));
    (void)d2;
    rt.retire(d);
    EXPECT_THROW(g.advance(), Error);  // must retarget, not limp on
  });
}

// ---- arrival-driven chunked execution --------------------------------------

/// Which executor drives the chunked halo step: eager post/flush/wait,
/// static pipelining (gathers hoisted, chunks serial), or arrival-driven.
enum class HaloArm { kEager, kStatic, kArrival };

struct ChunkedResult {
  std::vector<double> x, y;
  /// Summed over ranks (rank-0 slot after an allreduce).
  std::uint64_t chunks_fired_early = 0;
  std::uint64_t color_classes = 0;
  /// Rank 0's chunk peers in firing order, over every iteration.
  std::vector<int> fire_order;
};

/// The table10 workload at test size: a local step with a rotating slow
/// rank (so gather replies leave late and arrival order varies), then a
/// chunked halo step keyed by the gather schedule's recv peers. Each chunk
/// writes only the y slots its peer owns; `claim` declares that with
/// chunk_writes_disjoint(). With `perm_spread > 0` the mailbox
/// delivery-permutation hook additionally shuffles modeled arrival times
/// per (src, tag).
ChunkedResult run_chunked_halo(HaloArm arm, int iters, bool claim = true,
                               std::uint64_t perm_seed = 0,
                               double perm_spread = 0.0) {
  ChunkedResult out;
  Machine m(kRanks);
  m.set_delivery_permutation(perm_seed, perm_spread);
  m.run([&](Comm& c) {
    Runtime rt(c);
    const DistHandle d = rt.block(kN);
    const std::vector<GlobalIndex> globals = rt.owned_globals(d);
    const GlobalIndex nper = kN / kRanks;

    // References into every other rank's slice: one recv block per peer,
    // so the chunk plan splits kRanks ways (local + kRanks-1 peers).
    std::vector<GlobalIndex> refs;
    for (int p = 0; p < kRanks; ++p) {
      if (p == c.rank()) continue;
      for (int k = 0; k < 4; ++k)
        refs.push_back(static_cast<GlobalIndex>(p) * nper +
                       (static_cast<GlobalIndex>(3 * k + c.rank()) % nper));
    }
    lang::IndirectionArray ind(refs);
    const LoopHandle loop = rt.bind(d, ind);
    const ScheduleHandle h = rt.inspect(loop);
    const std::span<const GlobalIndex> lrefs = rt.local_refs(loop);

    const auto extent = static_cast<std::size_t>(rt.local_extent(d));
    std::vector<double> x(extent, 0.0), y(extent, 0.0);
    for (std::size_t i = 0; i < globals.size(); ++i)
      x[i] = 1.0 + 0.5 * static_cast<double>(globals[i]);

    // Ghost slot -> owning peer: keys each localized ref to its chunk.
    std::vector<int> slot_peer(extent, -1);
    for (const core::ScheduleBlock& b : rt.schedule(h).recv_blocks()) {
      if (b.proc == c.rank()) continue;
      for (GlobalIndex idx : b.indices)
        slot_peer[static_cast<std::size_t>(idx)] = b.proc;
    }

    int iter = 0;
    std::vector<int> fired_peers;
    StepGraph g(rt);
    g.set_pipelining(arm != HaloArm::kEager);
    g.set_arrival_driven(arm == HaloArm::kArrival);

    g.step("local").bind(use(y), update(x)).compute([&] {
      for (std::size_t i = 0; i < globals.size(); ++i)
        x[i] = 0.5 * x[i] + 0.25 * y[i] + 0.125;
      c.charge_work(500.0 * (c.rank() == iter % kRanks ? 5.0 : 1.0));
      ++iter;
    });

    Step& halo = g.step("halo").bind(in(x).via(h), update(y));
    halo.compute_chunks([&](ChunkContext& ctx) {
      const int peer = ctx.chunk().peer;
      // Serial arms only: arrival waves run on the pool's worker threads.
      if (arm != HaloArm::kArrival) fired_peers.push_back(peer);
      if (peer < 0) {
        for (std::size_t i = 0; i < globals.size(); ++i)
          y[i] = std::sqrt(x[i] * x[i] + 1.0) + 0.0625 * x[i];
      } else {
        for (GlobalIndex j : lrefs) {
          const auto s = static_cast<std::size_t>(j);
          if (slot_peer[s] == peer)
            y[s] = std::sqrt(x[s] * x[s] + 1.0) + 0.0625 * x[s];
        }
      }
      ctx.charge(40.0);
    });
    if (claim) halo.chunk_writes_disjoint();

    rt.run(g, iters);

    const StepGraph::Stats& gs = g.stats();
    const auto fired = static_cast<std::uint64_t>(c.allreduce_sum(
        static_cast<long long>(gs.chunks_fired_early)));
    const auto colors = static_cast<std::uint64_t>(
        c.allreduce_sum(static_cast<long long>(gs.color_classes)));
    std::vector<double> x_all = collect(c, globals, {x.data(), globals.size()});
    std::vector<double> y_all = collect(c, globals, {y.data(), globals.size()});
    if (c.rank() == 0) {
      out.x = std::move(x_all);
      out.y = std::move(y_all);
      out.chunks_fired_early = fired;
      out.color_classes = colors;
      out.fire_order = std::move(fired_peers);
    }
  });
  return out;
}

TEST(StepGraphArrival, OrderIndependentChunksBitwiseMatchEagerUnderFuzzing) {
  // The order-independent contract, fuzzed: disjoint-write chunks must be
  // bitwise identical to the eager serial arm under EVERY arrival order.
  // The delivery-permutation hook reshuffles modeled arrival times per
  // (src, tag) for each seed — 100+ distinct arrival orders on top of the
  // rotating-skew baseline.
  const auto eager = run_chunked_halo(HaloArm::kEager, 6);
  std::uint64_t fired_total = 0;
  for (std::uint64_t seed = 1; seed <= 104; ++seed) {
    const double spread = 1e-3 * static_cast<double>(1 + seed % 7);
    const auto fuzzed =
        run_chunked_halo(HaloArm::kArrival, 6, true, seed, spread);
    ASSERT_TRUE(spans_equal(fuzzed.x, eager.x,
                            "x (seed " + std::to_string(seed) + ")"));
    ASSERT_TRUE(spans_equal(fuzzed.y, eager.y,
                            "y (seed " + std::to_string(seed) + ")"));
    fired_total += fuzzed.chunks_fired_early;
  }
  // Across the sweep, chunks really did fire before their gather batch
  // completed — the fuzz is exercising the arrival path, not a fallback.
  EXPECT_GT(fired_total, 0u);
}

TEST(StepGraphArrival, DisjointChunksColorAsOneClass) {
  const auto r = run_chunked_halo(HaloArm::kArrival, 4);
  // Disjoint writes -> empty conflict graph -> exactly one color class
  // per rank's single chunked step plan.
  EXPECT_EQ(r.color_classes, static_cast<std::uint64_t>(kRanks));
}

TEST(StepGraphArrival, UnclaimedChunksAreRefusedBeforeAnyPost) {
  // Arrival waves run concurrently, so a chunked step without
  // chunk_writes_disjoint() is refused when the first advance lowers the
  // iteration. The verdict depends only on the declarations: every rank
  // throws the same error, naming the step, before posting anything, so no
  // rank is left waiting on a peer.
  std::vector<std::string> errors(kRanks);
  Machine m(kRanks);
  m.run([&](Comm& c) {
    Runtime rt(c);
    const DistHandle d = rt.block(kN);
    lang::IndirectionArray ind(make_refs(c.rank(), 7, 16));
    const ScheduleHandle h = rt.inspect(d, ind);
    std::vector<double> x(static_cast<std::size_t>(rt.local_extent(d)), 1.0);
    StepGraph g(rt);
    g.set_arrival_driven(true);
    g.step("halo").bind(in(x).via(h)).compute_chunks([](ChunkContext&) {});
    const std::uint64_t sent = c.stats().msgs_sent;
    try {
      g.advance();
    } catch (const Error& e) {
      errors[static_cast<std::size_t>(c.rank())] = e.what();
    }
    EXPECT_EQ(g.stats().gather_batches, 0u);
    EXPECT_EQ(c.stats().msgs_sent, sent);
  });
  for (const std::string& e : errors) {
    EXPECT_NE(e.find("step 'halo'"), std::string::npos) << e;
    EXPECT_NE(e.find("chunk_writes_disjoint()"), std::string::npos) << e;
    EXPECT_EQ(e, errors[0]);
  }
}

TEST(StepGraphArrival, UnclaimedChunksRunSeriallyUnderStaticPipelining) {
  // Without the claim, the static arm still hoists the gathers but runs
  // the chunks one at a time in canonical order (local, then ascending
  // peer) — bitwise identical to the eager arm.
  const auto eager = run_chunked_halo(HaloArm::kEager, 6, false);
  const auto piped = run_chunked_halo(HaloArm::kStatic, 6, false);
  ASSERT_TRUE(spans_equal(piped.x, eager.x, "x"));
  ASSERT_TRUE(spans_equal(piped.y, eager.y, "y"));
  std::vector<int> canonical;
  for (int it = 0; it < 6; ++it)
    for (int p = -1; p < kRanks; ++p)
      if (p != 0) canonical.push_back(p);  // rank 0 gathers from 1..3
  EXPECT_EQ(piped.fire_order, canonical);
  EXPECT_EQ(eager.fire_order, canonical);
  // One conflict class per chunk: kRanks chunks on each of kRanks ranks.
  EXPECT_EQ(piped.color_classes,
            static_cast<std::uint64_t>(kRanks * kRanks));
}

TEST(StepGraphArrival, FixedCountChunksRunConcurrentWavesBitwise) {
  // compute_chunks(n, fn): chunks over owned index ranges, no comm key.
  // Declared disjoint, they run as one concurrent wave on the worker pool
  // under the arrival arm — the threaded path must stay bitwise identical
  // to the serial canonical order.
  const auto run = [&](bool arrival) {
    std::vector<double> out;
    Machine m(kRanks);
    m.run([&](Comm& c) {
      Runtime rt(c);
      const DistHandle d = rt.block(kN);
      const std::vector<GlobalIndex> globals = rt.owned_globals(d);
      std::vector<double> x(globals.size());
      for (std::size_t i = 0; i < x.size(); ++i)
        x[i] = 0.5 + static_cast<double>(globals[i]);

      StepGraph g(rt);
      g.set_pipelining(arrival);
      g.set_arrival_driven(arrival);
      Step& s = g.step("sweep").bind(update(x));
      s.compute_chunks(4, [&](ChunkContext& ctx) {
        const std::size_t n = x.size();
        const std::size_t lo = n * ctx.chunk().index / ctx.chunk().count;
        const std::size_t hi =
            n * (ctx.chunk().index + 1) / ctx.chunk().count;
        for (std::size_t i = lo; i < hi; ++i)
          x[i] = std::sqrt(x[i]) + 0.25 * x[i];
        ctx.charge(static_cast<double>(hi - lo));
      });
      s.chunk_writes_disjoint();

      rt.run(g, 5);
      std::vector<double> all = collect(c, globals, {x.data(), globals.size()});
      if (c.rank() == 0) out = std::move(all);
    });
    return out;
  };
  EXPECT_TRUE(spans_equal(run(true), run(false), "x (threaded vs serial)"));
}

TEST(StepGraphArrival, RetargetRebuildsChunkPlanOnSuccessorEpoch) {
  // A repartition changes the gather schedule's recv peers, so the cached
  // chunk plan (peer list, coloring) must be invalidated by retarget()
  // and rebuilt against the successor epoch. Bitwise equality with the
  // eager arm across the swap proves the rebuilt plan keys chunks to the
  // right peers.
  const auto run = [&](bool arrival) {
    RepartResult out;
    Machine m(kRanks);
    m.run([&](Comm& c) {
      Runtime rt(c);
      std::vector<int> map(static_cast<std::size_t>(kN));
      for (GlobalIndex i = 0; i < kN; ++i)
        map[static_cast<std::size_t>(i)] = static_cast<int>(i) % kRanks;
      DistHandle d = rt.adopt(lang::Distribution::irregular(c, map));
      std::vector<GlobalIndex> globals = rt.owned_globals(d);

      lang::IndirectionArray ind(make_refs(c.rank(), 13));
      ScheduleHandle h = rt.inspect(rt.bind(d, ind));
      std::span<const GlobalIndex> lrefs = rt.local_refs(rt.bind(d, ind));

      auto extent = static_cast<std::size_t>(rt.local_extent(d));
      std::vector<double> x(extent, 0.0), y(extent, 0.0);
      for (std::size_t i = 0; i < globals.size(); ++i)
        x[i] = 2.0 + static_cast<double>(globals[i]);

      std::vector<int> slot_peer(extent, -1);
      const auto rebuild_slot_peer = [&] {
        slot_peer.assign(static_cast<std::size_t>(rt.local_extent(d)), -1);
        for (const core::ScheduleBlock& b : rt.schedule(h).recv_blocks()) {
          if (b.proc == c.rank()) continue;
          for (GlobalIndex idx : b.indices)
            slot_peer[static_cast<std::size_t>(idx)] = b.proc;
        }
      };
      rebuild_slot_peer();

      StepGraph g(rt);
      g.set_pipelining(arrival);
      g.set_arrival_driven(arrival);
      Step& halo = g.step("halo").bind(in(x).via(h), update(y));
      halo.compute_chunks([&](ChunkContext& ctx) {
        const int peer = ctx.chunk().peer;
        if (peer < 0) {
          for (std::size_t i = 0; i < globals.size(); ++i)
            y[i] = 0.5 * x[i] + 1.0;
        } else {
          for (GlobalIndex j : lrefs) {
            const auto s = static_cast<std::size_t>(j);
            if (slot_peer[s] == peer) y[s] = 0.5 * x[s] + 1.0;
          }
        }
        ctx.charge(20.0);
      });
      halo.chunk_writes_disjoint();
      g.step("advance").bind(use(y), update(x)).compute([&] {
        for (std::size_t i = 0; i < globals.size(); ++i)
          x[i] = 0.75 * x[i] + 0.25 * y[i];
      });

      for (int it = 0; it < 6; ++it) {
        if (it == 3) {
          std::vector<int> map2(static_cast<std::size_t>(kN));
          for (GlobalIndex i = 0; i < kN; ++i)
            map2[static_cast<std::size_t>(i)] =
                static_cast<int>(i / 3 + 1) % kRanks;
          const DistHandle d2 = rt.repartition(d, map2);
          const ScheduleHandle remap = rt.plan_remap(d, d2);
          const ScheduleHandle h2 = rt.inspect(rt.bind(d2, ind));
          g.retarget(h, h2);

          std::vector<double> x2 = rt.remap<double>(
              remap, std::span<const double>{x.data(), globals.size()});
          const std::span<const GlobalIndex> lrefs2 =
              rt.local_refs(rt.bind(d2, ind));
          rt.retire(d);
          d = d2;
          h = h2;
          lrefs = lrefs2;
          globals = rt.owned_globals(d);
          extent = static_cast<std::size_t>(rt.local_extent(d));
          x.assign(extent, 0.0);
          std::copy(x2.begin(), x2.end(), x.begin());
          y.assign(extent, 0.0);
          rebuild_slot_peer();
        }
        g.advance();
      }
      g.quiesce();

      std::vector<double> x_all =
          collect(c, globals, {x.data(), globals.size()});
      std::vector<double> y_all =
          collect(c, globals, {y.data(), globals.size()});
      if (c.rank() == 0) {
        out.x = std::move(x_all);
        out.y = std::move(y_all);
      }
    });
    return out;
  };
  const auto arrival = run(true);
  const auto eager = run(false);
  EXPECT_TRUE(spans_equal(arrival.x, eager.x, "x (across retarget)"));
  EXPECT_TRUE(spans_equal(arrival.y, eager.y, "y (across retarget)"));
}

// A gather hoisted while another step's write batch is still outstanding
// is the other half of overlapped_posts (no shipped graph produces it: the
// CHARMM and example graphs wait every write before their next-iteration
// arm). Scatter-add of y, then a gather of x: per iteration the y scatter
// posts with x's gathers armed (1), and the end-of-iteration hoist of x's
// gathers posts over the outstanding y batch (1, except on the last
// iteration, which does not arm); each later y compute stalls on its own
// previous batch.
TEST(StepGraph, GatherHoistedOverOutstandingScatterCountsAsOverlap) {
  Machine m(kRanks);
  m.run([&](Comm& c) {
    Runtime rt(c);
    const DistHandle d = rt.block(kN);
    lang::IndirectionArray ind(make_refs(c.rank(), 3));
    const ScheduleHandle h = rt.inspect(d, ind);
    const auto extent = static_cast<std::size_t>(rt.local_extent(d));
    std::vector<double> x(extent, 1.0), y(extent, 0.0);

    StepGraph g(rt);
    g.step("scatter_y").bind(sum(y).via(h)).compute([] {});
    g.step("gather_x").bind(in(x).via(h)).compute([] {});
    rt.run(g, 3);
    EXPECT_EQ(g.stats().overlapped_posts, 5u);
    EXPECT_EQ(g.stats().pipelined_gathers, 3u);
    EXPECT_EQ(g.stats().hazard_stalls, 2u);
  });
}

// A lowered program bakes in whether a step is chunked, so a chunk
// declaration after the first advance would be silently ignored; it is
// refused like a late bind().
TEST(StepGraph, LateChunkDeclarationThrows) {
  Machine m(kRanks);
  m.run([&](Comm& c) {
    Runtime rt(c);
    const DistHandle d = rt.block(kN);
    lang::IndirectionArray ind(make_refs(c.rank(), 3));
    const ScheduleHandle h = rt.inspect(d, ind);
    const auto extent = static_cast<std::size_t>(rt.local_extent(d));
    std::vector<double> x(extent, 1.0);

    StepGraph g(rt);
    Step& s = g.step("gather_x").bind(in(x).via(h)).compute([] {});
    rt.run(g, 1);
    const auto chunk = [](ChunkContext&) {};
    EXPECT_THROW(s.compute_chunks(chunk), Error);
    EXPECT_THROW(s.compute_chunks(2, chunk), Error);
    EXPECT_THROW(s.chunk_writes_disjoint(), Error);
    EXPECT_THROW(s.bind(use(x)), Error);
    // Nothing reached the step: it still runs unchunked.
    rt.run(g, 1);
    EXPECT_EQ(g.stats().color_classes, 0u);
  });
}

// ---- lowering: one op program per input, not per advance ------------------

// The CHARMM cycle's declared shape (src/apps/charmm/parallel.cpp,
// declare_graph): bonded and non-bonded steps gathering one position array
// through two schedules and scatter-adding two force arrays (the arrival
// arm scatters the non-bonded one), then an integrate step reading the
// forces and updating positions and velocities.
// Lowering is keyed by (modes, entry state, arm_next_iteration), so after
// the first few iterations no advance() lowers a new program — across a
// quiesce and a retarget too — and Runtime::compact() releases the
// programs, which the next advance rebuilds.
TEST(StepGraphLowering, CharmmShapeLowersOncePerInput) {
  for (const int mode : {0, 1, 2}) {  // pipelined, eager, arrival
    SCOPED_TRACE(mode);
    Machine m(kRanks);
    m.run([&](Comm& c) {
      Runtime rt(c);
      const DistHandle d = rt.block(kN);
      lang::IndirectionArray bonds(make_refs(c.rank(), 0));
      lang::IndirectionArray pairs(make_refs(c.rank(), 7, 16));
      const ScheduleHandle hb = rt.inspect(d, bonds);
      const ScheduleHandle hn = rt.inspect(d, pairs);
      const auto extent = static_cast<std::size_t>(rt.local_extent(d));
      std::vector<double> pos(extent, 1.0), vel(extent, 0.0);
      std::vector<double> force(extent, 0.0), force_bond(extent, 0.0);

      StepGraph g(rt);
      g.set_pipelining(mode != 1);
      g.set_arrival_driven(mode == 2);
      g.step("bonded")
          .bind(in(pos).via(hb), sum(force_bond).via(hb))
          .compute([] {});
      // The arrival arm chunks the non-bonded step, so its ghost writes
      // become a plain scatter through the chunk-keying schedule: each
      // chunk writes only its own peer's recv partition, and the analyzer
      // proves the disjointness claim (a sum() there would refute it).
      Step& nonbonded =
          g.step("nonbonded").bind(in(pos).via(hn)).compute([] {});
      if (mode == 2)
        nonbonded.bind(out(force).via(hn))
            .compute_chunks([](ChunkContext&) {})
            .chunk_writes_disjoint();
      else
        nonbonded.bind(sum(force).via(hn));
      g.step("integrate")
          .bind(use(force), use(force_bond), update(pos), update(vel))
          .compute([] {});

      for (int i = 0; i < 3; ++i) g.advance();
      const std::uint64_t warm = g.stats().programs_lowered;
      EXPECT_GE(warm, 1u);
      EXPECT_LE(warm, 3u);
      for (int i = 0; i < 20; ++i) g.advance();
      EXPECT_EQ(g.stats().programs_lowered, warm);

      // The final iteration (no trailing hoist) lowers at most one more
      // program; after a quiesce or a retarget the graph re-enters from the
      // idle state, whose program is already memoized.
      g.advance(false);
      const std::uint64_t with_final = g.stats().programs_lowered;
      EXPECT_LE(with_final, warm + 1);
      g.quiesce();
      for (int i = 0; i < 5; ++i) g.advance();
      g.retarget(hn, hn);
      for (int i = 0; i < 5; ++i) g.advance();
      g.quiesce();
      EXPECT_EQ(g.stats().programs_lowered, with_final);
      EXPECT_EQ(g.stats().iterations, 34u);

      // compact() drops the programs; the next advance lowers again.
      (void)rt.compact();
      EXPECT_EQ(g.footprint_bytes(), 0u);
      rt.run(g, 1);
      EXPECT_EQ(g.stats().programs_lowered, with_final + 1);
      EXPECT_GT(g.footprint_bytes(), 0u);
    });
  }
}

TEST(CommEngineTraffic, ResetAndPerBatchSnapshots) {
  Machine m(2);
  m.run([&](Comm& c) {
    comm::Engine eng(c);
    // Two batches with different payload sizes.
    std::vector<int> dest1{1 - c.rank()};
    std::vector<double> items1{1.0};
    std::vector<double> out1;
    auto h1 = eng.post_migrate<double>(
        core::LightweightSchedule::build(c, dest1), items1, out1);
    eng.flush();
    std::vector<int> dest2{1 - c.rank(), 1 - c.rank(), 1 - c.rank()};
    std::vector<double> items2{1.0, 2.0, 3.0};
    std::vector<double> out2;
    auto h2 = eng.post_migrate<double>(
        core::LightweightSchedule::build(c, dest2), items2, out2);
    eng.flush();
    eng.wait_all();

    const auto t1 = eng.batch_traffic(h1);
    const auto t2 = eng.batch_traffic(h2);
    EXPECT_EQ(t1.messages, 1u);
    EXPECT_EQ(t1.bytes, sizeof(double));
    EXPECT_EQ(t2.messages, 1u);
    EXPECT_EQ(t2.bytes, 3 * sizeof(double));
    // The cumulative counter is the sum of the batches; reset zeroes it
    // without touching the per-batch snapshots.
    EXPECT_EQ(eng.traffic().messages, 2u);
    EXPECT_EQ(eng.traffic().bytes, 4 * sizeof(double));
    eng.reset_traffic();
    EXPECT_EQ(eng.traffic().messages, 0u);
    EXPECT_EQ(eng.batch_traffic(h2).bytes, 3 * sizeof(double));
  });
}

}  // namespace
}  // namespace chaos
