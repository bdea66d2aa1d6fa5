// chaos::verify tests: every analyzer rule exercised with a flagged graph
// AND a clean graph, the refuse-to-arm contract every graph keeps, and the
// shipped-graphs-clean sweep (every step graph the apps declare must come
// back with zero errors and zero warnings — the same gate the
// chaos-verify CLI enforces in CI).
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "apps/charmm/parallel.hpp"
#include "apps/dsmc/parallel.hpp"
#include "balance/policy.hpp"
#include "balance/service.hpp"
#include "lang/array.hpp"
#include "runtime/runtime.hpp"
#include "runtime/step_graph.hpp"
#include "verify/diagnostic.hpp"

namespace chaos {
namespace {

using core::GlobalIndex;
using sim::Comm;
using sim::Machine;
using verify::Diagnostic;
using verify::Severity;

constexpr int kRanks = 4;
constexpr GlobalIndex kN = 48;

using Diags = std::vector<Diagnostic>;

std::size_t count_rule(const Diags& ds, std::string_view rule,
                       Severity sev) {
  std::size_t n = 0;
  for (const Diagnostic& d : ds)
    if (d.rule == rule && d.severity == sev) ++n;
  return n;
}

/// First finding of `rule` at `sev`, or nullptr.
const Diagnostic* find_rule(const Diags& ds, std::string_view rule,
                            Severity sev) {
  for (const Diagnostic& d : ds)
    if (d.rule == rule && d.severity == sev) return &d;
  return nullptr;
}

/// Per-rank reference stream with off-rank refs (one block per peer).
std::vector<GlobalIndex> make_refs(int rank, int salt) {
  const GlobalIndex nper = kN / kRanks;
  std::vector<GlobalIndex> refs;
  for (int p = 0; p < kRanks; ++p) {
    if (p == rank) continue;
    for (int k = 0; k < 3; ++k)
      refs.push_back(static_cast<GlobalIndex>(p) * nper +
                     (static_cast<GlobalIndex>(2 * k + salt) % nper));
  }
  return refs;
}

/// Runs `declare` against a fresh runtime + graph and returns the
/// analyzer's findings (identical on every rank for declaration-level
/// rules; the EXPECTs in the callers run on all ranks).
Diags analyze(const std::function<void(Runtime&, StepGraph&, Comm&)>& declare) {
  Diags out;
  Machine m(kRanks);
  m.run([&](Comm& c) {
    Runtime rt(c);
    StepGraph g(rt);
    declare(rt, g, c);
    Diags ds = rt.verify(g);
    if (c.rank() == 0) out = std::move(ds);
  });
  return out;
}

// ---- rule: read-before-gather ----------------------------------------------

TEST(VerifyAnalyzer, ReadBeforeGatherFlagged) {
  const Diags ds = analyze([](Runtime& rt, StepGraph& g, Comm& c) {
    const DistHandle d = rt.block(kN);
    lang::IndirectionArray ind(make_refs(c.rank(), 0));
    const ScheduleHandle h = rt.inspect(rt.bind(d, ind));
    static thread_local std::vector<double> x, y;
    x.assign(static_cast<std::size_t>(rt.local_extent(d)), 0.0);
    y.assign(x.size(), 0.0);
    // 'early' consumes x's ghosts before 'late' gathers them: iteration 1
    // reads value-initialized slots, k>1 reads one-iteration-stale ones.
    g.step("early").bind(use(x), update(y)).compute([] {});
    g.step("late").bind(in(x).via(h)).compute([] {});
  });
  const Diagnostic* e =
      find_rule(ds, "read-before-gather", Severity::kError);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->step, "early");
  EXPECT_NE(e->message.find("before its first gather"), std::string::npos);
}

TEST(VerifyAnalyzer, ReadBeforeGatherCleanWhenGatherComesFirst) {
  const Diags ds = analyze([](Runtime& rt, StepGraph& g, Comm& c) {
    const DistHandle d = rt.block(kN);
    lang::IndirectionArray ind(make_refs(c.rank(), 0));
    const ScheduleHandle h = rt.inspect(rt.bind(d, ind));
    static thread_local std::vector<double> x, y;
    x.assign(static_cast<std::size_t>(rt.local_extent(d)), 0.0);
    y.assign(x.size(), 0.0);
    g.step("gatherer").bind(in(x).via(h)).compute([] {});
    g.step("consumer").bind(use(x), update(y)).compute([] {});
  });
  EXPECT_EQ(count_rule(ds, "read-before-gather", Severity::kError), 0u);
}

// ---- rule: dead-scatter ----------------------------------------------------

TEST(VerifyAnalyzer, DeadScatterFlagged) {
  const Diags ds = analyze([](Runtime& rt, StepGraph& g, Comm& c) {
    const DistHandle d = rt.block(kN);
    lang::IndirectionArray ind(make_refs(c.rank(), 0));
    const ScheduleHandle h = rt.inspect(rt.bind(d, ind));
    static thread_local std::vector<double> x, y;
    x.assign(static_cast<std::size_t>(rt.local_extent(d)), 0.0);
    y.assign(x.size(), 0.0);
    // y's contributions ship to owners every iteration; nothing declared
    // ever consumes them.
    g.step("produce").bind(in(x).via(h), sum(y).via(h)).compute([] {});
  });
  const Diagnostic* w = find_rule(ds, "dead-scatter", Severity::kWarning);
  ASSERT_NE(w, nullptr);
  EXPECT_EQ(w->step, "produce");
}

TEST(VerifyAnalyzer, DeadScatterCleanWithDeclaredConsumer) {
  const Diags ds = analyze([](Runtime& rt, StepGraph& g, Comm& c) {
    const DistHandle d = rt.block(kN);
    lang::IndirectionArray ind(make_refs(c.rank(), 0));
    const ScheduleHandle h = rt.inspect(rt.bind(d, ind));
    static thread_local std::vector<double> x, y;
    x.assign(static_cast<std::size_t>(rt.local_extent(d)), 0.0);
    y.assign(x.size(), 0.0);
    g.step("produce").bind(in(x).via(h), sum(y).via(h)).compute([] {});
    g.step("consume").bind(use(y), update(x)).compute([] {});
  });
  EXPECT_EQ(count_rule(ds, "dead-scatter", Severity::kWarning), 0u);
}

// ---- rule: redundant-gather ------------------------------------------------

TEST(VerifyAnalyzer, RedundantGatherSameScheduleFlagged) {
  const Diags ds = analyze([](Runtime& rt, StepGraph& g, Comm& c) {
    const DistHandle d = rt.block(kN);
    lang::IndirectionArray ind(make_refs(c.rank(), 0));
    const ScheduleHandle h = rt.inspect(rt.bind(d, ind));
    static thread_local std::vector<double> x, ya, yb;
    x.assign(static_cast<std::size_t>(rt.local_extent(d)), 0.0);
    ya.assign(x.size(), 0.0);
    yb.assign(x.size(), 0.0);
    // Same array, same schedule, nothing writes x between the posts: the
    // second delivery is provably identical.
    g.step("first").bind(in(x).via(h), sum(ya).via(h)).compute([] {});
    g.step("second").bind(in(x).via(h), sum(yb).via(h)).compute([] {});
    g.step("consume").bind(use(ya), use(yb), update(x)).compute([] {});
  });
  const Diagnostic* w =
      find_rule(ds, "redundant-gather", Severity::kWarning);
  ASSERT_NE(w, nullptr);
  EXPECT_EQ(w->step, "second");
}

TEST(VerifyAnalyzer, RedundantGatherCleanWithInterleavingWrite) {
  const Diags ds = analyze([](Runtime& rt, StepGraph& g, Comm& c) {
    const DistHandle d = rt.block(kN);
    lang::IndirectionArray ind(make_refs(c.rank(), 0));
    const ScheduleHandle h = rt.inspect(rt.bind(d, ind));
    static thread_local std::vector<double> x, ya, yb;
    x.assign(static_cast<std::size_t>(rt.local_extent(d)), 0.0);
    ya.assign(x.size(), 0.0);
    yb.assign(x.size(), 0.0);
    // The mutate step rewrites x's owned values between the two gathers,
    // so the second delivery is genuinely fresh.
    g.step("first").bind(in(x).via(h), sum(ya).via(h)).compute([] {});
    g.step("mutate").bind(use(ya), update(x)).compute([] {});
    g.step("second").bind(in(x).via(h), sum(yb).via(h)).compute([] {});
    g.step("consume").bind(use(yb)).compute([] {});
  });
  EXPECT_EQ(count_rule(ds, "redundant-gather", Severity::kWarning), 0u);
  EXPECT_EQ(count_rule(ds, "redundant-gather", Severity::kNote), 0u);
}

TEST(VerifyAnalyzer, RedundantGatherCrossScheduleOverlapNoted) {
  const Diags ds = analyze([](Runtime& rt, StepGraph& g, Comm& c) {
    const DistHandle d = rt.block(kN);
    // Two schedules over the SAME reference stream: every ghost slot is
    // fetched twice.
    lang::IndirectionArray ind_a(make_refs(c.rank(), 0));
    lang::IndirectionArray ind_b(make_refs(c.rank(), 0));
    const ScheduleHandle ha = rt.inspect(rt.bind(d, ind_a));
    const ScheduleHandle hb = rt.inspect(rt.bind(d, ind_b));
    static thread_local std::vector<double> x, ya, yb;
    x.assign(static_cast<std::size_t>(rt.local_extent(d)), 0.0);
    ya.assign(x.size(), 0.0);
    yb.assign(x.size(), 0.0);
    g.step("first").bind(in(x).via(ha), sum(ya).via(ha)).compute([] {});
    g.step("second").bind(in(x).via(hb), sum(yb).via(hb)).compute([] {});
    g.step("consume").bind(use(ya), use(yb), update(x)).compute([] {});
  });
  const Diagnostic* note =
      find_rule(ds, "redundant-gather", Severity::kNote);
  ASSERT_NE(note, nullptr);
  EXPECT_NE(note->message.find("fetched twice"), std::string::npos);
  EXPECT_NE(note->hint.find("rt.merge"), std::string::npos);
}

// ---- rule: race-certification ----------------------------------------------

TEST(VerifyAnalyzer, RaceCertificationRefutesClaimOverSharedReduction) {
  const Diags ds = analyze([](Runtime& rt, StepGraph& g, Comm& c) {
    const DistHandle d = rt.block(kN);
    lang::IndirectionArray ind(make_refs(c.rank(), 0));
    const ScheduleHandle h = rt.inspect(rt.bind(d, ind));
    static thread_local std::vector<double> x, y;
    x.assign(static_cast<std::size_t>(rt.local_extent(d)), 0.0);
    y.assign(x.size(), 0.0);
    g.set_arrival_driven(true);
    // Gather-keyed chunks all accumulating into one shared accumulator:
    // the disjointness claim is provably wrong.
    g.step("halo")
        .bind(in(x).via(h))
        .compute_chunks([](ChunkContext&) {})
        .bind(sum(y).via(h))
        .chunk_writes_disjoint();
    g.step("consume").bind(use(y), update(x)).compute([] {});
  });
  const Diagnostic* e =
      find_rule(ds, "race-certification", Severity::kError);
  ASSERT_NE(e, nullptr);
  EXPECT_NE(e->message.find("refuted"), std::string::npos);
}

TEST(VerifyAnalyzer, RaceCertificationProvesDisjointScatterPartitions) {
  const Diags ds = analyze([](Runtime& rt, StepGraph& g, Comm& c) {
    const DistHandle d = rt.block(kN);
    lang::IndirectionArray ind(make_refs(c.rank(), 0));
    const ScheduleHandle h = rt.inspect(rt.bind(d, ind));
    static thread_local std::vector<double> x, y;
    x.assign(static_cast<std::size_t>(rt.local_extent(d)), 0.0);
    y.assign(x.size(), 0.0);
    g.set_arrival_driven(true);
    // Every write is a plain scatter riding the chunk-keying schedule:
    // chunk p writes only peer p's recv partition, partitions pairwise
    // disjoint — the claim is PROVABLE from the schedule shape alone.
    // This is the property the TSan CI job can only certify dynamically.
    g.step("halo")
        .bind(in(x).via(h))
        .compute_chunks([](ChunkContext&) {})
        .bind(out(y).via(h))
        .chunk_writes_disjoint();
    g.step("consume").bind(use(y), update(x)).compute([] {});
  });
  const Diagnostic* note =
      find_rule(ds, "race-certification", Severity::kNote);
  ASSERT_NE(note, nullptr);
  EXPECT_NE(note->message.find("PROVEN"), std::string::npos);
  EXPECT_EQ(count_rule(ds, "race-certification", Severity::kError), 0u);
  EXPECT_EQ(count_rule(ds, "race-certification", Severity::kWarning), 0u);
}

TEST(VerifyAnalyzer, RaceCertificationAssumedForOpaqueFixedCountChunks) {
  const Diags ds = analyze([](Runtime& rt, StepGraph& g, Comm&) {
    const DistHandle d = rt.block(kN);
    static thread_local std::vector<double> x, y;
    x.assign(static_cast<std::size_t>(rt.local_extent(d)), 0.0);
    y.assign(x.size(), 0.0);
    g.set_arrival_driven(true);
    // Fixed-count chunks writing locally: nothing in the declarations
    // shows WHICH slots each chunk writes — the claim stands unproven.
    g.step("cells")
        .bind(use(x))
        .compute_chunks(4, [](ChunkContext&) {})
        .bind(update(y))
        .chunk_writes_disjoint();
  });
  const Diagnostic* note =
      find_rule(ds, "race-certification", Severity::kNote);
  ASSERT_NE(note, nullptr);
  EXPECT_NE(note->message.find("ASSUMED"), std::string::npos);
}

TEST(VerifyAnalyzer, RaceCertificationSilentWithoutArrivalIntent) {
  const Diags ds = analyze([](Runtime& rt, StepGraph& g, Comm&) {
    const DistHandle d = rt.block(kN);
    static thread_local std::vector<double> x, y;
    x.assign(static_cast<std::size_t>(rt.local_extent(d)), 0.0);
    y.assign(x.size(), 0.0);
    // No set_arrival_driven: the claim licenses nothing, so there is
    // nothing to certify.
    g.step("cells")
        .bind(use(x))
        .compute_chunks(4, [](ChunkContext&) {})
        .bind(update(y))
        .chunk_writes_disjoint();
  });
  EXPECT_EQ(count_rule(ds, "race-certification", Severity::kNote), 0u);
  EXPECT_EQ(count_rule(ds, "race-certification", Severity::kError), 0u);
}

// ---- rule: stale-binding ---------------------------------------------------

TEST(VerifyAnalyzer, StaleBindingErrorsOnRetargetedArray) {
  Machine m(kRanks);
  m.run([&](Comm& c) {
    Runtime rt(c);
    DistHandle d = rt.block(kN);
    lang::IndirectionArray ind(make_refs(c.rank(), 0));
    const ScheduleHandle h = rt.inspect(d, ind);
    Array<double> x(rt, d, "x"), y(rt, d, "y");

    StepGraph g(rt);
    g.step("s").bind(in(x).via(h), update(y)).compute([] {});

    // Retarget x onto a successor epoch WITHOUT retargeting the graph:
    // the binding's revision guard goes stale.
    const DistHandle d2 = rt.repartition(d, std::vector<int>(
        static_cast<std::size_t>(kN), 0));
    const ScheduleHandle plan = rt.plan_remap(d, d2);
    x.retarget(plan, d2);

    const Diags ds = rt.verify(g);  // reports, does not throw
    const Diagnostic* e = find_rule(ds, "stale-binding", Severity::kError);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->array, "x");
    EXPECT_NE(e->message.find("retargeted"), std::string::npos);
  });
}

TEST(VerifyAnalyzer, StaleBindingErrorsOnRetiredSchedule) {
  Machine m(kRanks);
  m.run([&](Comm& c) {
    Runtime rt(c);
    const DistHandle d = rt.block(kN);
    lang::IndirectionArray ind(make_refs(c.rank(), 0));
    const ScheduleHandle h = rt.inspect(rt.bind(d, ind));
    std::vector<double> x(static_cast<std::size_t>(rt.local_extent(d)), 0.0);

    StepGraph g(rt);
    g.step("s").bind(in(x).via(h)).compute([] {});

    const DistHandle d2 = rt.repartition(d, std::vector<int>(
        static_cast<std::size_t>(kN), 0));
    (void)d2;
    rt.retire(d);  // h's epoch is gone

    const Diags ds = rt.verify(g);
    const Diagnostic* e = find_rule(ds, "stale-binding", Severity::kError);
    ASSERT_NE(e, nullptr);
    EXPECT_NE(e->message.find("no longer valid"), std::string::npos);
  });
}

TEST(VerifyAnalyzer, StaleBindingNotesUnguardedRawUnderAutonomicPolicy) {
  Machine m(kRanks);
  m.run([&](Comm& c) {
    Runtime rt(c);
    const DistHandle d = rt.block(kN);
    lang::IndirectionArray ind(make_refs(c.rank(), 0));
    const ScheduleHandle h = rt.inspect(rt.bind(d, ind));
    std::vector<double> x(static_cast<std::size_t>(rt.local_extent(d)), 0.0);
    std::vector<double> y(x.size(), 0.0);

    balance::Binding b;
    b.dist = d;
    rt.set_balance_policy(
        std::make_unique<balance::Policy>(balance::PolicyConfig{}),
        std::move(b));

    StepGraph g(rt);
    g.step("s").bind(in(x).via(h), sum(y).via(h)).compute([] {});
    g.step("c").bind(use(y), update(x)).compute([] {});

    const Diags ds = rt.verify(g);
    // Raw std::vector bindings carry no revision probe: a rebalance that
    // remaps them could leave the graph stale undetectably.
    EXPECT_GE(count_rule(ds, "stale-binding", Severity::kNote), 1u);
    EXPECT_EQ(count_rule(ds, "stale-binding", Severity::kError), 0u);
  });
}

// ---- refuse to arm ---------------------------------------------------------

TEST(VerifyStrict, StrictGraphRefusesToArmOnErrorFindings) {
  Machine m(kRanks);
  m.run([&](Comm& c) {
    Runtime rt(c);
    const DistHandle d = rt.block(kN);
    lang::IndirectionArray ind(make_refs(c.rank(), 0));
    const ScheduleHandle h = rt.inspect(rt.bind(d, ind));
    std::vector<double> x(static_cast<std::size_t>(rt.local_extent(d)), 0.0);
    std::vector<double> y(x.size(), 0.0);

    StepGraph g(rt);
    g.step("early").bind(use(x), update(y)).compute([] {});
    g.step("late").bind(in(x).via(h)).compute([] {});

    try {
      g.advance();
      FAIL() << "strict graph armed over an error finding";
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("refused to arm"), std::string::npos);
      EXPECT_NE(what.find("read-before-gather"), std::string::npos);
    }
    // The findings stay readable after the refusal.
    EXPECT_TRUE(verify::has_errors(g.last_verification()));
  });
}

TEST(VerifyStrict, StrictGraphArmsWhenCleanAndKeepsReport) {
  Machine m(kRanks);
  m.run([&](Comm& c) {
    Runtime rt(c);
    const DistHandle d = rt.block(kN);
    lang::IndirectionArray ind(make_refs(c.rank(), 0));
    const LoopHandle loop = rt.bind(d, ind);
    const ScheduleHandle h = rt.inspect(loop);
    const std::span<const GlobalIndex> lrefs = rt.local_refs(loop);
    std::vector<double> x(static_cast<std::size_t>(rt.local_extent(d)), 1.0);
    std::vector<double> y(x.size(), 0.0);

    int ran = 0;
    StepGraph g(rt);
    g.step("halo").bind(in(x).via(h)).compute([&] {
      for (GlobalIndex j : lrefs) y[static_cast<std::size_t>(j)] = 1.0;
      ++ran;
    });
    g.step("advance").bind(use(y), update(x)).compute([&] { ++ran; });

    g.advance();
    g.quiesce();
    EXPECT_EQ(ran, 2);
    EXPECT_FALSE(verify::has_errors(g.last_verification()));
  });
}

// ---- diagnostics surface ---------------------------------------------------

TEST(VerifyDiagnostics, RenderNamesSubjectsAndSortsBySeverity) {
  Diagnostic note{"race-certification", Severity::kNote, "halo", "",
                  "claim proven", ""};
  Diagnostic err{"read-before-gather", Severity::kError, "early", "pos",
                 "reads before gather", "reorder the steps"};
  const std::string one = verify::render(err);
  EXPECT_NE(one.find("error[read-before-gather]"), std::string::npos);
  EXPECT_NE(one.find("step 'early'"), std::string::npos);
  EXPECT_NE(one.find("'pos'"), std::string::npos);
  EXPECT_NE(one.find("hint: reorder"), std::string::npos);

  const Diags ds{note, err};
  const std::string all = verify::render(ds);
  EXPECT_LT(all.find("error["), all.find("note["));
  EXPECT_TRUE(verify::has_errors(ds));
  EXPECT_EQ(verify::count(ds, Severity::kNote), 1u);
}

TEST(VerifyDiagnostics, StepGraphAtNamesTheDeclaredSteps) {
  Machine m(1);
  m.run([&](Comm& c) {
    Runtime rt(c);
    std::vector<double> x(8, 0.0), y(8, 0.0);
    StepGraph g(rt);
    g.step("alpha").bind(use(x)).compute([] {});
    g.step("beta").bind(use(y)).compute([] {});
    EXPECT_EQ(&g.at(1), &g.at(1));
    try {
      (void)g.at(2);
      FAIL() << "at(2) out of range must throw";
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("alpha"), std::string::npos);
      EXPECT_NE(what.find("beta"), std::string::npos);
    }
  });
}

// ---- shipped graphs stay clean ---------------------------------------------

charmm::ParallelCharmmConfig charmm_cfg(charmm::CharmmShape shape) {
  charmm::ParallelCharmmConfig cfg;
  cfg.system = charmm::SystemParams::small(300);
  cfg.shape = shape;
  cfg.verify_graph = true;
  return cfg;
}

dsmc::ParallelDsmcConfig dsmc_cfg(dsmc::DsmcExecutor executor) {
  dsmc::ParallelDsmcConfig cfg;
  cfg.params.nx = 8;
  cfg.params.ny = 8;
  cfg.params.n_particles = 400;
  cfg.executor = executor;
  cfg.verify_graph = true;
  return cfg;
}

void expect_certified(const Diags& ds, const std::string& label) {
  EXPECT_EQ(verify::count(ds, Severity::kError), 0u)
      << label << ":\n" << verify::render(ds);
  EXPECT_EQ(verify::count(ds, Severity::kWarning), 0u)
      << label << ":\n" << verify::render(ds);
}

/// redundant-gather notes counting ghost slots fetched twice through two
/// schedules (the overlap a merged schedule would remove).
std::size_t overlap_notes(const Diags& ds) {
  std::size_t n = 0;
  for (const Diagnostic& d : ds)
    if (d.rule == "redundant-gather" && d.severity == Severity::kNote &&
        d.message.find("fetched twice") != std::string::npos)
      ++n;
  return n;
}

// Every CharmmShape is a declared graph. The analyzer explains Table 3:
// the multiple and engine shapes (and the compiler-generated code, which
// keeps multiple's separate schedules) gather positions through the
// bonded and non-bonded schedules, whose shared ghost slots ride the wire
// twice; the merged shape's one schedule fetches each ghost once.
TEST(VerifyShippedGraphs, EveryCharmmGraphIsCertified) {
  using charmm::CharmmShape;
  for (const CharmmShape shape :
       {CharmmShape::kStepGraph, CharmmShape::kStepGraphEager,
        CharmmShape::kMerged, CharmmShape::kMultiple, CharmmShape::kEngine,
        CharmmShape::kCompilerGenerated}) {
    Machine machine(kRanks);
    const auto res = charmm::run_parallel_charmm(machine, charmm_cfg(shape));
    const std::string label =
        "charmm shape=" + std::to_string(static_cast<int>(shape));
    expect_certified(res.verify_diagnostics, label);
    const std::size_t overlaps = overlap_notes(res.verify_diagnostics);
    if (shape == CharmmShape::kMerged) {
      EXPECT_EQ(overlaps, 0u) << label;
    }
    if (shape == CharmmShape::kMultiple || shape == CharmmShape::kEngine ||
        shape == CharmmShape::kCompilerGenerated) {
      EXPECT_GT(overlaps, 0u) << label << ":\n"
                              << verify::render(res.verify_diagnostics);
    }
  }
}

TEST(VerifyShippedGraphs, EveryDsmcGraphIsCertified) {
  using dsmc::DsmcExecutor;
  for (const DsmcExecutor ex :
       {DsmcExecutor::kStepGraph, DsmcExecutor::kStepGraphEager,
        DsmcExecutor::kStepGraphArrival, DsmcExecutor::kImperative,
        DsmcExecutor::kRegular, DsmcExecutor::kCompilerGenerated}) {
    Machine machine(kRanks);
    const auto res = dsmc::run_parallel_dsmc(machine, dsmc_cfg(ex));
    expect_certified(res.verify_diagnostics,
                     "dsmc executor=" + std::to_string(static_cast<int>(ex)));
  }
}

}  // namespace
}  // namespace chaos
