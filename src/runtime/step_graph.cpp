#include "runtime/step_graph.hpp"

#include <algorithm>

#include "verify/analyzer.hpp"

namespace chaos {

namespace {

void add_traffic(comm::Engine::Traffic& acc,
                 const comm::Engine::Traffic& t) {
  acc.messages += t.messages;
  acc.bytes += t.bytes;
}

}  // namespace

StepGraph::~StepGraph() { rt_.unregister_graph(this); }

Step& StepGraph::step(std::string name) {
  steps_.emplace_back(Step::Key{}, std::move(name), steps_.size());
  return steps_.back();
}

void Step::require_open(const char* call) const {
  CHAOS_CHECK(!resolved_, "step '" + name_ + "': " + call +
                              " after the graph started executing — "
                              "declare every access before the first "
                              "advance");
}

void Step::bind_view(views::Binding b) {
  require_open("bind()");
  const char* label = lang::to_string(b.decl.kind);
  switch (b.decl.kind) {
    case lang::AccessKind::kGather:
    case lang::AccessKind::kScatter:
    case lang::AccessKind::kScatterAdd: {
      CHAOS_CHECK(b.has_via,
                  "step '" + name_ + "': " + label + "(" +
                      (b.name.empty() ? "..." : b.name) +
                      ") needs .via(schedule) when bound to a step (only "
                      "forall may omit it)");
      Access a;
      a.decl = b.decl;
      a.via = b.via;
      a.prepare = std::move(b.prepare);
      a.post = std::move(b.post);
      a.name = std::move(b.name);
      a.revision = std::move(b.revision);
      a.expected_revision = a.revision ? a.revision() : 0;
      a.zeroes_ghosts = b.zeroes_ghosts;
      if (b.decl.kind == lang::AccessKind::kGather)
        gathers_.push_back(std::move(a));
      else
        writes_.push_back(std::move(a));
      break;
    }
    case lang::AccessKind::kMigrate: {
      Access a;
      a.decl = b.decl;
      a.post = std::move(b.post);
      a.name = std::move(b.name);
      writes_.push_back(std::move(a));
      break;
    }
    case lang::AccessKind::kLocalRead:
    case lang::AccessKind::kLocalWrite: {
      Access l;
      l.decl = b.decl;
      l.name = std::move(b.name);
      l.revision = std::move(b.revision);
      l.expected_revision = l.revision ? l.revision() : 0;
      locals_.push_back(std::move(l));
      break;
    }
  }
}

void Step::resolve() {
  if (resolved_) return;
  resolved_ = true;
  // A self-managing accumulator (sum over an Array) zeroes the ghost
  // region just before the compute — gathering the SAME array in the same
  // step would have those ghost slots hold gathered values and zeroed
  // accumulation at once, and the zeroing would win. Refuse rather than
  // silently wipe the gather; use the raw-vector convention (the compute
  // owns ghost zeroing) or split the accesses across steps.
  for (const Access& w : writes_) {
    if (!w.zeroes_ghosts) continue;
    for (const Access& g : gathers_) {
      if (g.decl.array == w.decl.array) {
        throw Error(
            "step '" + name_ + "': array '" +
            (w.name.empty() ? "<unnamed>" : w.name) +
            "' is gathered (in/reads) and bound as a self-zeroing "
            "accumulator (sum/writes_add) in the same step — its ghost "
            "slots cannot hold both the gathered values and the zeroed "
            "accumulation. Use a raw std::vector binding (the compute "
            "owns ghost zeroing) or separate steps");
      }
    }
  }
}

Step* StepGraph::find(std::string_view name) {
  for (Step& s : steps_)
    if (s.name_ == name) return &s;
  return nullptr;
}

Step& StepGraph::at(std::size_t i) {
  if (i >= steps_.size()) {
    std::string names;
    for (const Step& s : steps_) {
      if (!names.empty()) names += ", ";
      names += "'" + s.name_ + "'";
    }
    throw Error("step graph: index " + std::to_string(i) +
                " is out of range — the graph declares " +
                std::to_string(steps_.size()) + " step(s)" +
                (names.empty() ? "" : ": " + names));
  }
  return steps_[i];
}

Step::Staleness Step::staleness(const Runtime& rt, const Access& a) {
  return {.retargeted = a.revision && a.revision() != a.expected_revision,
          .invalid_schedule =
              lang::rides_schedule(a.decl.kind) && !rt.valid(a.via)};
}

void StepGraph::check_bindings() const {
  // Every refusal names its subjects — step AND array — through the same
  // formatting the static analyzer uses (verify::subject), never a bare
  // index or an anonymous "a schedule".
  for (const Step& s : steps_) {
    for (const auto* list : {&s.gathers_, &s.writes_, &s.locals_}) {
      for (const Step::Access& a : *list) {
        const Step::Staleness st = Step::staleness(rt_, a);
        CHAOS_CHECK(!st.retargeted,
                    "step graph: " +
                        verify::subject(s.name_, a.name, a.decl.array) +
                        " was retargeted onto another epoch after the "
                        "binding — retarget() the graph onto the new epoch's "
                        "schedules (arrays first, then the graph)");
        CHAOS_CHECK(!st.invalid_schedule,
                    "step graph: " +
                        verify::subject(s.name_, a.name, a.decl.array) +
                        ": schedule s" + std::to_string(a.via.id) +
                        " is no longer valid (retired epoch or stale "
                        "derivation) — call retarget() after a repartition/"
                        "re-derivation");
      }
    }
  }
}

// ---- lowering: hazard table -> op program -----------------------------

void StepGraph::build_hazards() {
  const std::size_t n = steps_.size();
  // Whether access `a` touches an array step `t` gathers — or, with
  // `observed`, anything t's compute or its write packing can observe:
  // the gathered arrays it reads, its declared local effects, and the
  // arrays its own write accesses pack from.
  const auto touches = [](const Step::Access& a, const Step& t,
                          bool observed) {
    for (const Step::Access& g : t.gathers_)
      if (a.decl.touches(g.decl.array)) return true;
    if (!observed) return false;
    for (const Step::Access& l : t.locals_)
      if (a.decl.touches(l.decl.array)) return true;
    for (const Step::Access& w : t.writes_)
      if (a.decl.touches(w.decl.array) ||
          (w.decl.array2 && a.decl.touches(w.decl.array2)))
        return true;
    return false;
  };
  hazards_.assign(n * n, 0);
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t t = 0; t < n; ++t) {
      std::uint8_t& h = hazards_[u * n + t];
      // A gather may not be hoisted across a step that touches its array
      // in any way EXCEPT through that step's own gather of the same array
      // (two gathers deliver identical owned values, the engine-coalescing
      // case). Writers are the obvious hazard; plain readers (use/update,
      // or the ghost region a scatter packs) matter too — the hoisted
      // gather's early FIFO delivery would hand them ghost values one
      // write fresher than the eager schedule does.
      for (const Step::Access& l : steps_[u].locals_)
        if (touches(l, steps_[t], false)) h |= kBlocksHoist;
      for (const Step::Access& w : steps_[u].writes_) {
        if (touches(w, steps_[t], false)) h |= kBlocksHoist | kRaw;
        if (touches(w, steps_[t], true)) h |= kWar;
      }
    }
  }
}

StepGraph::Program StepGraph::lower(bool arm_next) const {
  const std::size_t n = steps_.size();
  Program p{.pipelining = pipelining_,
            .arrival = arrival_driven_,
            .arm_next = arm_next,
            .entry = live_};
  // The in-flight state, evolved op by op exactly as the interpreter will.
  std::vector<char> armed(n, 0);
  for (std::uint32_t s : live_.armed) armed[s] = 1;
  std::vector<std::uint32_t>& fifo = p.exit.writes;
  fifo = live_.writes;
  const auto hazard = [&](std::size_t u, std::size_t t, Hazard h) {
    return (hazards_[u * n + t] & h) != 0;
  };
  const auto emit = [&](Op::Kind kind, std::size_t s) -> Op& {
    return p.ops.emplace_back(
        Op{.kind = kind, .step = static_cast<std::uint32_t>(s)});
  };
  const auto post_gathers = [&](std::size_t s, bool early) {
    Op& op = emit(Op::Kind::kPostGathers, s);
    op.early = early;
    op.overlapped = !fifo.empty();
    armed[s] = 1;
  };
  const auto wait_gathers = [&](std::size_t s) {
    emit(Op::Kind::kWaitGathers, s);
    armed[s] = 0;
  };
  // Outstanding write batches step s's `h` side depends on complete first,
  // in FIFO post order, so owner-side combines land in the same order the
  // eager executor produces.
  const auto wait_conflicting_writes = [&](std::size_t s, Hazard h) {
    for (std::size_t i = 0; i < fifo.size();) {
      if (!hazard(fifo[i], s, h)) {
        ++i;
        continue;
      }
      emit(Op::Kind::kWaitWrites, fifo[i]).stall = true;
      fifo.erase(fifo.begin() + static_cast<std::ptrdiff_t>(i));
    }
  };
  // Post gathers for every armable step at execution position `pos` (the
  // next compute to run; n = end of iteration). Scan each step's next
  // execution in order, wrapping into the next iteration, and stop at the
  // first step whose gathers cannot post yet, so the batch sequence stays
  // canonical.
  const auto arm = [&](std::size_t pos) {
    for (std::size_t t = pos; t < pos + n; ++t) {
      const std::size_t s = t % n;
      if (steps_[s].gathers_.empty() || armed[s]) continue;
      // A step whose compute runs between here and s's execution must not
      // touch any array s gathers, other than gathering it itself (the
      // hoisted gather packs owned values at post and delivers ghosts
      // early; both directions are observable to intervening writers AND
      // readers).
      bool ok = true;
      for (std::size_t u = pos; u < t && ok; ++u)
        ok = !hazard(u % n, s, kBlocksHoist);
      // An outstanding write batch on a gathered array is a RAW hazard;
      // defer the arm rather than stall (the forced post at s's own turn
      // waits it out if it is still pending then).
      for (std::size_t i = 0; i < fifo.size() && ok; ++i)
        ok = !hazard(fifo[i], s, kRaw);
      if (!ok) break;
      post_gathers(s, /*early=*/t > pos);
    }
  };

  for (std::size_t k = 0; k < n; ++k) {
    if (pipelining_) arm(k);
    const Step& s = steps_[k];
    const bool gathers = !s.gathers_.empty();
    if (gathers && !armed[k]) {
      // The eager position: clear RAW hazards, then post.
      wait_conflicting_writes(k, kRaw);
      post_gathers(k, /*early=*/false);
    }
    // Arrival-driven chunked steps skip the whole-batch wait: their chunks
    // fire as partitions land, and the batch settles after them. Arrival
    // waves run concurrently, so they need the explicit disjointness claim;
    // refuse here, before the advance posts anything (the verdict depends
    // only on the declarations, so every rank refuses alike).
    const bool arrival = arrival_driven_ && s.chunk_fn_;
    CHAOS_CHECK(!arrival || s.chunk_disjoint_,
                "step '" + s.name_ +
                    "': arrival-driven execution fires chunks as concurrent "
                    "waves, but the step does not declare "
                    "chunk_writes_disjoint() — restructure the reduction so "
                    "each chunk owns disjoint slots, leave the step "
                    "unchunked, or run it without set_arrival_driven()");
    if (gathers && !arrival) wait_gathers(k);
    // WAR/WAW: outstanding write batches on anything the compute or this
    // step's write packing touches must deliver first.
    wait_conflicting_writes(k, kWar);
    emit(Op::Kind::kRun, k).arrival = arrival;
    if (gathers && arrival) wait_gathers(k);
    // A later step's gather batch already outstanding at this scatter post
    // is the pipelining the eager executor cannot produce: step k's
    // scatters and step k+1's gathers concurrently in flight.
    Op& post = emit(Op::Kind::kPostWrites, k);
    if (s.writes_.empty()) continue;
    post.overlapped = std::find(armed.begin(), armed.end(), 1) != armed.end();
    fifo.push_back(static_cast<std::uint32_t>(k));
    if (!pipelining_) {
      emit(Op::Kind::kWaitWrites, k);
      fifo.pop_back();
    }
  }
  if (pipelining_ && arm_next) arm(n);
  for (std::size_t s = 0; s < n; ++s)
    if (armed[s]) p.exit.armed.push_back(static_cast<std::uint32_t>(s));
  return p;
}

const StepGraph::Program& StepGraph::program(bool arm_next) {
  // Steps may still be appended between advances; the table is a function
  // of the declarations, so a new step means a new table and new programs.
  if (hazards_.size() != steps_.size() * steps_.size()) {
    build_hazards();
    programs_.clear();
  }
  for (const Program& p : programs_)
    if (p.pipelining == pipelining_ && p.arrival == arrival_driven_ &&
        p.arm_next == arm_next && p.entry == live_)
      return p;
  programs_.push_back(lower(arm_next));
  ++stats_.programs_lowered;
  return programs_.back();
}

// ---- interpreter ops -------------------------------------------------

void StepGraph::post_gathers(Step& s) {
  for (Step::Access& g : s.gathers_)
    if (g.prepare) g.prepare(rt_, g.via);
  s.gather_handles_.clear();
  for (Step::Access& g : s.gathers_)
    s.gather_handles_.push_back(g.post(rt_, g.via));
  rt_.comm_flush();
  add_traffic(s.gather_traffic_,
              rt_.engine().batch_traffic(s.gather_handles_.front()));
}

void StepGraph::post_writes(Step& s) {
  if (s.writes_.empty()) {
    if (s.finalize_) s.finalize_();
    return;
  }
  s.write_handles_.clear();
  for (Step::Access& w : s.writes_)
    s.write_handles_.push_back(w.post(rt_, w.via));
  rt_.comm_flush();
  add_traffic(s.write_traffic_,
              rt_.engine().batch_traffic(s.write_handles_.front()));
}

void StepGraph::wait_gathers(Step& s) {
  for (comm::CommHandle h : s.gather_handles_) rt_.comm_wait(h);
  s.gather_handles_.clear();
}

void StepGraph::wait_writes(Step& s) {
  for (comm::CommHandle h : s.write_handles_) rt_.comm_wait(h);
  s.write_handles_.clear();
  if (s.finalize_) s.finalize_();
}

void StepGraph::run(Step& s, bool arrival) {
  for (Step::Access& w : s.writes_)
    if (w.prepare) w.prepare(rt_, w.via);
  if (s.compute_) s.compute_();
  if (!s.chunk_fn_) return;
  build_chunk_plan(s);
  if (arrival) {
    run_chunks_arrival(s);
    return;
  }
  // The serial arm: every chunk as a one-chunk wave, in canonical order.
  for (std::size_t i = 0; i < s.chunk_peers_.size(); ++i)
    run_wave(s, std::span<const std::size_t>(&i, 1));
}

// ---- chunked (partition-granular) execution ---------------------------

void StepGraph::build_chunk_plan(Step& s) {
  if (s.chunk_plan_valid_) return;
  s.chunk_peers_.clear();
  if (s.chunk_count_ > 0) {
    s.chunk_peers_.assign(s.chunk_count_, -1);
  } else {
    CHAOS_CHECK(!s.gathers_.empty(),
                "step '" + s.name_ +
                    "': compute_chunks without gathers needs an explicit "
                    "chunk count — use compute_chunks(n, fn)");
    // One chunk per remote peer the gathers receive from, keyed off the
    // schedules' recv blocks, plus the local chunk (owned data and
    // self-block ghosts) in front.
    const int me = rt_.comm().rank();
    s.chunk_peers_.push_back(-1);
    std::vector<int> peers;
    for (const Step::Access& g : s.gathers_)
      for (const core::ScheduleBlock& b : rt_.schedule(g.via).recv_blocks())
        if (b.proc != me) peers.push_back(b.proc);
    std::sort(peers.begin(), peers.end());
    peers.erase(std::unique(peers.begin(), peers.end()), peers.end());
    s.chunk_peers_.insert(s.chunk_peers_.end(), peers.begin(), peers.end());
  }
  // Conflict classes from the declared access sets: chunk_writes_disjoint()
  // means no two chunks share an output element, so every chunk is in one
  // class; otherwise whole-array declarations cannot rule out any pair, so
  // every chunk is its own class and the chunks run in canonical order.
  stats_.color_classes += s.chunk_disjoint_ ? 1 : s.chunk_peers_.size();
  s.chunk_plan_valid_ = true;
}

void StepGraph::run_wave(Step& s, std::span<const std::size_t> wave) {
  const std::size_t n = s.chunk_peers_.size();
  if (wave.size() == 1) {
    ChunkContext ctx;
    ctx.chunk_ = Chunk{s.chunk_peers_[wave[0]], wave[0], n};
    s.chunk_fn_(ctx);
    rt_.comm().charge_work(ctx.work_);
    return;
  }
  if (!pool_) pool_ = std::make_unique<runtime::TaskPool>(kWorkerThreads);
  std::vector<ChunkContext> ctxs(wave.size());
  const std::uint64_t busy_before = pool_->busy_ns();
  for (std::size_t k = 0; k < wave.size(); ++k) {
    ctxs[k].chunk_ = Chunk{s.chunk_peers_[wave[k]], wave[k], n};
    ChunkContext* ctx = &ctxs[k];
    const auto* fn = &s.chunk_fn_;
    pool_->submit([fn, ctx] { (*fn)(*ctx); });
  }
  pool_->wait_idle();
  stats_.pool_busy_ns += pool_->busy_ns() - busy_before;
  // Modeled cost of the threaded wave: its critical path — never better
  // than the biggest chunk, never better than perfect division across the
  // pool.
  double total = 0.0;
  double biggest = 0.0;
  for (const ChunkContext& ctx : ctxs) {
    total += ctx.work_;
    biggest = std::max(biggest, ctx.work_);
  }
  rt_.comm().charge_work(
      std::max(biggest, total / static_cast<double>(kWorkerThreads)));
}

void StepGraph::run_chunks_arrival(Step& s) {
  comm::Engine& engine = rt_.engine();
  const std::size_t n = s.chunk_peers_.size();
  // Conservative firing on the virtual clock: block until every message of
  // the gather batch is queued, so each one's modeled arrival is known,
  // then receive them in (arrival, peer) order and fire the chunks whose
  // peer has landed by the rank's clock. Nothing here depends on host
  // timing, so the fire order, the waves and the modeled time are
  // deterministic.
  std::vector<comm::Engine::Arrival> arrivals;
  if (!s.gather_handles_.empty())
    arrivals = engine.arrival_order(s.gather_handles_.front());
  std::size_t received = 0;
  const auto receive_next = [&] {
    engine.receive_peer(s.gather_handles_.front(), arrivals[received++].peer);
  };
  // need[i]: how many arrivals must be received before chunk i's peer has
  // landed (0: the local chunk, or a peer delivered before this step).
  std::vector<std::size_t> need(n, 0);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t k = 0; k < arrivals.size(); ++k)
      if (arrivals[k].peer == s.chunk_peers_[i]) need[i] = k + 1;
  std::vector<char> done(n, 0);
  std::vector<std::size_t> wave;
  for (std::size_t fired = 0; fired < n;) {
    while (received < arrivals.size() &&
           arrivals[received].at <= rt_.comm().now())
      receive_next();
    // Every landed chunk not yet run fires as one concurrent wave (lowering
    // refused arrival steps without chunk_writes_disjoint()).
    wave.clear();
    for (std::size_t i = 0; i < n; ++i)
      if (!done[i] && need[i] <= received) wave.push_back(i);
    if (wave.empty()) {
      // Nothing can fire: idle until the next modeled arrival.
      receive_next();
      ++stats_.arrival_wakeups;
      continue;
    }
    if (received < arrivals.size())
      stats_.chunks_fired_early += static_cast<std::uint64_t>(wave.size());
    run_wave(s, wave);
    for (std::size_t i : wave) done[i] = 1;
    fired += wave.size();
  }
  // Every message has been delivered; the program's next op settles the
  // handles.
}

std::size_t StepGraph::footprint_bytes() const {
  std::size_t n = 0;
  for (const Step& s : steps_) n += s.chunk_peers_.capacity() * sizeof(int);
  n += hazards_.capacity() + programs_.capacity() * sizeof(Program);
  for (const Program& p : programs_) {
    n += p.ops.capacity() * sizeof(Op);
    for (const InFlight* f : {&p.entry, &p.exit})
      n += (f->armed.capacity() + f->writes.capacity()) *
           sizeof(std::uint32_t);
  }
  if (pool_) n += sizeof(runtime::TaskPool);
  n += verify::footprint_bytes(findings_);
  return n;
}

std::size_t StepGraph::release_chunk_plans() {
  const std::size_t released = footprint_bytes();
  for (Step& s : steps_) {
    // Move-assign from empty temporaries: `= {}` would pick the
    // initializer-list overload, which clears but keeps the capacity.
    s.chunk_peers_ = std::vector<int>();
    s.chunk_plan_valid_ = false;
  }
  hazards_ = std::vector<std::uint8_t>();
  programs_ = std::vector<Program>();
  pool_.reset();
  // Same capacity discipline for the cached verification findings; the
  // graph simply re-verifies at its next arm.
  findings_ = std::vector<verify::Diagnostic>();
  verified_ = false;
  return released;
}

void StepGraph::verify_before_arming() {
  if (verified_) return;
  verify::Analyzer analyzer;
  std::vector<verify::Diagnostic> diags = analyzer.analyze(*this);
  if (verify::has_errors(diags)) {
    // Do NOT latch: the graph keeps refusing on every advance until the
    // declarations are fixed (analysis is cheap next to execution).
    std::string msg =
        "step graph refused to arm: " +
        std::to_string(verify::count(diags, verify::Severity::kError)) +
        " error finding(s):\n" + verify::render(diags);
    findings_ = std::move(diags);
    throw Error(std::move(msg));
  }
  findings_ = std::move(diags);
  verified_ = true;
}

void StepGraph::advance(bool arm_next_iteration) {
  CHAOS_CHECK(!steps_.empty(), "step graph has no steps");
  for (Step& s : steps_) s.resolve();
  verify_before_arming();
  check_bindings();
  ++stats_.iterations;
  // Normalize the memo key: the trailing hoist exists only when pipelining.
  const Program& p = program(arm_next_iteration && pipelining_);
  for (const Op& op : p.ops) {
    Step& s = steps_[op.step];
    switch (op.kind) {
      case Op::Kind::kPostGathers:
        post_gathers(s);
        ++stats_.gather_batches;
        stats_.pipelined_gathers += op.early;
        stats_.overlapped_posts += op.overlapped;
        break;
      case Op::Kind::kWaitGathers:
        wait_gathers(s);
        break;
      case Op::Kind::kWaitWrites:
        wait_writes(s);
        stats_.hazard_stalls += op.stall;
        break;
      case Op::Kind::kRun:
        run(s, op.arrival);
        break;
      case Op::Kind::kPostWrites:
        post_writes(s);
        if (!s.writes_.empty()) ++stats_.write_batches;
        stats_.overlapped_posts += op.overlapped;
        break;
    }
  }
  live_ = p.exit;
}

void StepGraph::quiesce() {
  // Complete every outstanding batch the last program left (write waits
  // run the pending finalizers, in FIFO post order) and disarm hoisted
  // gathers: their delivered ghosts carry current values, and the owning
  // steps simply re-post at their next execution.
  for (std::uint32_t s : live_.armed) wait_gathers(steps_[s]);
  for (std::uint32_t s : live_.writes) wait_writes(steps_[s]);
  live_.armed.clear();
  live_.writes.clear();
  ++stats_.quiesces;
}

void StepGraph::retarget(ScheduleHandle from, ScheduleHandle to) {
  // The hazard table and the lowered programs depend on the declared
  // arrays only, never on schedule handles: they survive.
  quiesce();
  for (Step& s : steps_) {
    s.resolve();
    // The successor epoch's schedules receive from a different peer set;
    // rebuild the chunk plan lazily on the next advance.
    s.chunk_plan_valid_ = false;
    for (auto* list : {&s.gathers_, &s.writes_, &s.locals_}) {
      for (Step::Access& a : *list) {
        // Re-arming onto the successor epoch accepts the arrays' current
        // binding revisions (Array<T>::retarget before graph retarget).
        if (a.revision) a.expected_revision = a.revision();
        if (lang::rides_schedule(a.decl.kind) && a.via == from) a.via = to;
      }
    }
  }
  // The successor epoch's schedules change what the static rules can see
  // (recv partitions, validity); the graph re-verifies at its next arm.
  verified_ = false;
  ++stats_.retargets;
}

void Runtime::run(StepGraph& graph, int iterations) {
  for (int i = 0; i < iterations; ++i)
    graph.advance(/*arm_next_iteration=*/i + 1 < iterations);
  graph.quiesce();
}

}  // namespace chaos
