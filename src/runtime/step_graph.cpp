#include "runtime/step_graph.hpp"

#include <algorithm>

#include "verify/analyzer.hpp"

namespace chaos {

namespace {

bool touches_any(const lang::AccessDecl& d,
                 std::span<const void* const> arrays) {
  for (const void* a : arrays)
    if (d.touches(a)) return true;
  return false;
}

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

void Step::bind_view(views::Binding b) {
  CHAOS_CHECK(!resolved_,
              "step '" + name_ + "': bind() after the graph started "
              "executing — declare every access before the first advance");
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
      CommAccess a;
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
      CommAccess a;
      a.decl = b.decl;
      a.post = std::move(b.post);
      a.name = std::move(b.name);
      writes_.push_back(std::move(a));
      break;
    }
    case lang::AccessKind::kLocalRead:
    case lang::AccessKind::kLocalWrite: {
      LocalAccess l;
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
  for (const CommAccess& w : writes_) {
    if (!w.zeroes_ghosts) continue;
    for (const CommAccess& g : gathers_) {
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

namespace {

Step::AccessInfo access_info(const lang::AccessDecl& decl,
                             ScheduleHandle via, const std::string& name,
                             bool zeroes,
                             const std::function<std::uint64_t()>& probe,
                             std::uint64_t expected) {
  Step::AccessInfo info;
  info.decl = decl;
  info.via = via;
  info.name = name;
  info.zeroes_ghosts = zeroes;
  info.guarded = static_cast<bool>(probe);
  info.stale = probe && probe() != expected;
  return info;
}

}  // namespace

std::vector<Step::AccessInfo> Step::declared_gathers() const {
  CHAOS_CHECK(resolved_,
              "step '" + name_ +
                  "': access introspection before the step was resolved — "
                  "call StepGraph::resolve_for_analysis() first");
  std::vector<AccessInfo> out;
  for (const CommAccess& a : gathers_)
    out.push_back(access_info(a.decl, a.via, a.name, a.zeroes_ghosts,
                              a.revision, a.expected_revision));
  return out;
}

std::vector<Step::AccessInfo> Step::declared_writes() const {
  CHAOS_CHECK(resolved_,
              "step '" + name_ +
                  "': access introspection before the step was resolved — "
                  "call StepGraph::resolve_for_analysis() first");
  std::vector<AccessInfo> out;
  for (const CommAccess& a : writes_)
    out.push_back(access_info(a.decl, a.via, a.name, a.zeroes_ghosts,
                              a.revision, a.expected_revision));
  return out;
}

std::vector<Step::AccessInfo> Step::declared_locals() const {
  CHAOS_CHECK(resolved_,
              "step '" + name_ +
                  "': access introspection before the step was resolved — "
                  "call StepGraph::resolve_for_analysis() first");
  std::vector<AccessInfo> out;
  for (const LocalAccess& l : locals_)
    out.push_back(access_info(l.decl, ScheduleHandle{}, l.name, false,
                              l.revision, l.expected_revision));
  return out;
}

std::vector<const void*> StepGraph::gather_touch(const Step& s) const {
  std::vector<const void*> arrays;
  for (const Step::CommAccess& g : s.gathers_) arrays.push_back(g.decl.array);
  return arrays;
}

std::vector<const void*> StepGraph::compute_touch(const Step& s) const {
  // Everything the step's compute (or its write packing) can observe: the
  // gathered arrays it reads, the declared local effects, and the arrays
  // its own write accesses will pack from.
  std::vector<const void*> arrays;
  for (const Step::CommAccess& g : s.gathers_) arrays.push_back(g.decl.array);
  for (const Step::LocalAccess& l : s.locals_) arrays.push_back(l.decl.array);
  for (const Step::CommAccess& w : s.writes_) {
    arrays.push_back(w.decl.array);
    if (w.decl.array2) arrays.push_back(w.decl.array2);
  }
  return arrays;
}

bool StepGraph::step_blocks_hoist(const Step& s,
                                  std::span<const void* const> arrays) const {
  // A gather may not be hoisted across a step that touches its array in
  // any way EXCEPT through that step's own gather of the same array (two
  // gathers deliver identical owned values, the engine-coalescing case).
  // Writers are the obvious hazard; plain readers (use/update, or the
  // ghost region a scatter packs) matter too — the hoisted gather's early
  // FIFO delivery would hand them ghost values one write fresher than the
  // eager schedule does.
  for (const Step::LocalAccess& l : s.locals_)
    if (touches_any(l.decl, arrays)) return true;
  for (const Step::CommAccess& w : s.writes_)
    if (touches_any(w.decl, arrays)) return true;
  return false;
}

bool StepGraph::pending_write_touching(
    std::span<const void* const> arrays) const {
  for (std::size_t idx : posted_write_order_) {
    const Step& w = steps_[idx];
    for (const Step::CommAccess& acc : w.writes_)
      if (touches_any(acc.decl, arrays)) return true;
  }
  return false;
}

void StepGraph::check_bindings() const {
  // Every refusal names its subjects — step AND array — through the same
  // formatting the static analyzer uses (verify::subject), never a bare
  // index or an anonymous "a schedule".
  const auto check_revision = [](const std::string& step,
                                 const auto& access) {
    if (!access.revision) return;
    CHAOS_CHECK(access.revision() == access.expected_revision,
                "step graph: " +
                    verify::subject(step, access.name, access.decl.array) +
                    " was retargeted onto another epoch after the "
                    "binding — retarget() the graph onto the new epoch's "
                    "schedules (arrays first, then the graph)");
  };
  for (const Step& s : steps_) {
    for (const auto* list : {&s.gathers_, &s.writes_}) {
      for (const Step::CommAccess& a : *list) {
        check_revision(s.name_, a);
        if (a.decl.kind == lang::AccessKind::kMigrate) continue;
        CHAOS_CHECK(
            rt_.valid(a.via),
            "step graph: " +
                verify::subject(s.name_, a.name, a.decl.array) +
                ": schedule s" + std::to_string(a.via.id) +
                " is no longer valid (retired epoch or stale "
                "derivation) — call retarget() after a repartition/"
                "re-derivation");
      }
    }
    for (const Step::LocalAccess& l : s.locals_)
      check_revision(s.name_, l);
  }
}

void StepGraph::try_arm(std::size_t exec_pos) {
  const std::size_t n = steps_.size();
  // Scan each step's next execution in order, wrapping into the next
  // iteration; stop at the first step whose gathers cannot post yet, so
  // the batch sequence stays canonical (identical on every rank — every
  // decision below depends only on the declared graph and the position).
  for (std::size_t t = exec_pos; t < exec_pos + n; ++t) {
    const std::size_t idx = t % n;
    Step& s = steps_[idx];
    if (s.gathers_.empty()) continue;
    if (s.gathers_posted_) continue;  // already armed for its next run
    // A step whose compute runs between here and s's execution must not
    // touch any array s gathers, other than gathering it itself (the
    // hoisted gather packs owned values at post and delivers ghosts early;
    // both directions are observable to intervening writers AND readers).
    const std::vector<const void*> arrays = gather_touch(s);
    bool ok = true;
    for (std::size_t u = exec_pos; u < t && ok; ++u)
      if (step_blocks_hoist(steps_[u % n], arrays)) ok = false;
    // An outstanding write batch on a gathered array is a RAW hazard;
    // defer the arm rather than stall (the forced post at s's own turn
    // waits it out if it is still pending then).
    if (ok && pending_write_touching(arrays)) ok = false;
    if (!ok) break;
    post_gathers(s, /*early=*/t > exec_pos);
  }
}

void StepGraph::post_gathers(Step& s, bool early) {
  const bool in_flight = !posted_write_order_.empty();
  for (Step::CommAccess& g : s.gathers_)
    if (g.prepare) g.prepare(rt_, g.via);
  s.gather_handles_.clear();
  for (Step::CommAccess& g : s.gathers_)
    s.gather_handles_.push_back(g.post(rt_, g.via));
  rt_.comm_flush();
  s.gathers_posted_ = true;
  ++stats_.gather_batches;
  if (early) ++stats_.pipelined_gathers;
  if (in_flight) ++stats_.overlapped_posts;
  if (!s.gather_handles_.empty())
    add_traffic(s.gather_traffic_,
                rt_.engine().batch_traffic(s.gather_handles_.front()));
}

void StepGraph::post_writes(Step& s) {
  if (s.writes_.empty()) {
    if (s.finalize_) s.finalize_();
    return;
  }
  // A later step's gather batch already outstanding at this scatter post
  // is the pipelining the eager executor cannot produce: step k's scatters
  // and step k+1's gathers concurrently in flight.
  for (const Step& other : steps_)
    if (&other != &s && other.gathers_posted_) {
      ++stats_.overlapped_posts;
      break;
    }
  s.write_handles_.clear();
  for (Step::CommAccess& w : s.writes_)
    s.write_handles_.push_back(w.post(rt_, w.via));
  rt_.comm_flush();
  s.writes_posted_ = true;
  posted_write_order_.push_back(s.idx_);
  ++stats_.write_batches;
  add_traffic(s.write_traffic_,
              rt_.engine().batch_traffic(s.write_handles_.front()));
}

void StepGraph::wait_gathers(Step& s) {
  if (!s.gathers_posted_) return;
  for (comm::CommHandle h : s.gather_handles_) rt_.comm_wait(h);
  s.gather_handles_.clear();
  s.gathers_posted_ = false;
}

void StepGraph::wait_writes(Step& s) {
  if (!s.writes_posted_) return;
  for (comm::CommHandle h : s.write_handles_) rt_.comm_wait(h);
  s.write_handles_.clear();
  s.writes_posted_ = false;
  auto it = std::find(posted_write_order_.begin(), posted_write_order_.end(),
                      s.idx_);
  CHAOS_ASSERT(it != posted_write_order_.end());
  posted_write_order_.erase(it);
  if (s.finalize_) s.finalize_();
}

void StepGraph::wait_conflicting_writes(
    std::span<const void* const> arrays) {
  // FIFO post order, so owner-side combines land in the same order the
  // eager executor produces.
  for (std::size_t i = 0; i < posted_write_order_.size();) {
    Step& w = steps_[posted_write_order_[i]];
    bool conflicts = false;
    for (const Step::CommAccess& acc : w.writes_)
      if (touches_any(acc.decl, arrays)) {
        conflicts = true;
        break;
      }
    if (conflicts) {
      ++stats_.hazard_stalls;
      wait_writes(w);  // erases entry i; do not advance
    } else {
      ++i;
    }
  }
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
    for (const Step::CommAccess& g : s.gathers_)
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

void StepGraph::run_chunks_serial(Step& s) {
  build_chunk_plan(s);
  const std::size_t n = s.chunk_peers_.size();
  for (std::size_t i = 0; i < n; ++i) {
    ChunkContext ctx;
    ctx.chunk_ = Chunk{s.chunk_peers_[i], i, n};
    s.chunk_fn_(ctx);
    rt_.comm().charge_work(ctx.work_);
  }
}

void StepGraph::run_wave(Step& s, std::span<const std::size_t> wave) {
  const std::size_t n = s.chunk_peers_.size();
  if (wave.size() > 1 && worker_threads_ > 1) {
    if (!pool_)
      pool_ = std::make_unique<runtime::TaskPool>(worker_threads_);
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
    // than the biggest chunk, never better than perfect division across
    // the pool.
    double total = 0.0;
    double biggest = 0.0;
    for (const ChunkContext& ctx : ctxs) {
      total += ctx.work_;
      biggest = std::max(biggest, ctx.work_);
    }
    rt_.comm().charge_work(
        std::max(biggest, total / static_cast<double>(worker_threads_)));
  } else {
    for (std::size_t idx : wave) {
      ChunkContext ctx;
      ctx.chunk_ = Chunk{s.chunk_peers_[idx], idx, n};
      s.chunk_fn_(ctx);
      rt_.comm().charge_work(ctx.work_);
    }
  }
}

void StepGraph::run_chunks_arrival(Step& s) {
  build_chunk_plan(s);
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
  std::size_t next = 0;  // next chunk in canonical order (conflicted steps)
  std::vector<char> done(n, 0);
  std::vector<std::size_t> wave;
  for (std::size_t fired = 0; fired < n;) {
    while (received < arrivals.size() &&
           arrivals[received].at <= rt_.comm().now())
      receive_next();
    wave.clear();
    if (s.chunk_disjoint_) {
      for (std::size_t i = 0; i < n; ++i)
        if (!done[i] && need[i] <= received) wave.push_back(i);
    } else if (need[next] <= received) {
      wave.push_back(next++);
    }
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
  // Every message has been delivered; settle the handles and disarm.
  wait_gathers(s);
}

std::size_t StepGraph::footprint_bytes() const {
  std::size_t n = 0;
  for (const Step& s : steps_) n += s.chunk_peers_.capacity() * sizeof(int);
  if (pool_) n += sizeof(runtime::TaskPool);
  n += verify::footprint_bytes(strict_diags_);
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
  pool_.reset();
  // Same capacity discipline for the cached strict-verification findings;
  // a strict graph simply re-verifies at its next arm.
  strict_diags_ = std::vector<verify::Diagnostic>();
  strict_checked_ = false;
  return released;
}

void StepGraph::enforce_strict() {
  if (strict_checked_) return;
  verify::Analyzer analyzer;
  std::vector<verify::Diagnostic> diags = analyzer.analyze(*this);
  if (verify::has_errors(diags)) {
    // Do NOT latch: a strict graph keeps refusing on every advance until
    // the declarations are fixed (analysis is cheap next to execution).
    std::string msg =
        "strict step graph refused to arm: " +
        std::to_string(verify::count(diags, verify::Severity::kError)) +
        " error finding(s):\n" + verify::render(diags);
    strict_diags_ = std::move(diags);
    throw Error(std::move(msg));
  }
  strict_diags_ = std::move(diags);
  strict_checked_ = true;
}

void StepGraph::advance(bool arm_next_iteration) {
  CHAOS_CHECK(!steps_.empty(), "step graph has no steps");
  for (Step& s : steps_) s.resolve();
  if (strict_) enforce_strict();
  check_bindings();
  ++stats_.iterations;
  for (std::size_t k = 0; k < steps_.size(); ++k) {
    if (pipelining_) try_arm(k);
    Step& s = steps_[k];
    if (!s.gathers_.empty() && !s.gathers_posted_) {
      // The eager position: clear RAW hazards, then post.
      const std::vector<const void*> arrays = gather_touch(s);
      wait_conflicting_writes(arrays);
      post_gathers(s, /*early=*/false);
    }
    // Arrival-driven chunked steps skip the whole-batch wait: their
    // chunks fire as partitions land (run_chunks_arrival settles the
    // handles itself).
    const bool arrival = arrival_driven_ && s.chunk_fn_;
    if (!arrival) wait_gathers(s);
    // WAR/WAW: outstanding write batches on anything the compute or this
    // step's write packing touches must deliver first.
    const std::vector<const void*> touch = compute_touch(s);
    wait_conflicting_writes(touch);
    for (Step::CommAccess& w : s.writes_)
      if (w.prepare) w.prepare(rt_, w.via);
    if (s.compute_) s.compute_();
    if (s.chunk_fn_) {
      if (arrival)
        run_chunks_arrival(s);
      else
        run_chunks_serial(s);
    }
    post_writes(s);
    if (!pipelining_) wait_writes(s);
  }
  if (pipelining_ && arm_next_iteration) try_arm(steps_.size());
}

void StepGraph::quiesce() {
  // Complete every outstanding batch (write waits run the pending
  // finalizers) and disarm hoisted gathers: their delivered ghosts carry
  // current values, and the owning steps simply re-post at their next
  // execution.
  for (Step& s : steps_) wait_gathers(s);
  while (!posted_write_order_.empty())
    wait_writes(steps_[posted_write_order_.front()]);
  ++stats_.quiesces;
}

void StepGraph::retarget(ScheduleHandle from, ScheduleHandle to) {
  quiesce();
  for (Step& s : steps_) {
    s.resolve();
    // The successor epoch's schedules receive from a different peer set;
    // rebuild the chunk plan lazily on the next advance.
    s.chunk_plan_valid_ = false;
    for (auto* list : {&s.gathers_, &s.writes_}) {
      for (Step::CommAccess& a : *list) {
        // Re-arming onto the successor epoch accepts the arrays' current
        // binding revisions (Array<T>::retarget before graph retarget).
        if (a.revision) a.expected_revision = a.revision();
        if (a.decl.kind == lang::AccessKind::kMigrate) continue;
        if (a.via == from) a.via = to;
      }
    }
    for (Step::LocalAccess& l : s.locals_)
      if (l.revision) l.expected_revision = l.revision();
  }
  // The successor epoch's schedules change what the static rules can see
  // (recv partitions, validity); a strict graph re-verifies at its next
  // arm.
  strict_checked_ = false;
  ++stats_.retargets;
}

void Runtime::run(StepGraph& graph, int iterations) {
  for (int i = 0; i < iterations; ++i)
    graph.advance(/*arm_next_iteration=*/i + 1 < iterations);
  graph.quiesce();
}

}  // namespace chaos
