// chaos::StepGraph — the declarative step-graph executor.
//
// The imperative executor (Runtime Phase F, comm::Engine) makes the caller
// choreograph communication: gather_async -> comm_flush -> comm_wait around
// every loop, by hand, in the right order. The step graph turns that into a
// declaration problem: the program binds the array views each step touches
// (lang/array.hpp) —
//
//   graph.step("nonbonded")
//       .bind(in(pos).via(h_nb),      // gather pos ghosts before compute
//             sum(force).via(h_nb))   // scatter-add force ghosts after
//       .compute([&] { ... });        // runs against localized references
//
// — and the runtime derives the hazards between steps from the inferred
// (array, access-kind) sets and schedules the communication itself. Each
// step's gathers and writes form tag-disjoint comm::Engine batches;
// independent steps' batches overlap in flight, and step k+1's gathers are
// posted while step k's scatters are still outstanding whenever the
// dependence analysis proves it safe ("A Tale of Three Runtimes"-style
// dataflow pipelining over CHAOS schedules).
//
// Hazard rules (arrays are identified by container address; whole-array
// granularity):
//   RAW  a gather of A must not post while a scatter/migrate touching A is
//        outstanding or will still be posted by an intervening step — the
//        gather packs owned values of A at post time.
//   WAR/WAW  a compute touching A waits every outstanding write batch on A
//        first (delivery order then equals the eager executor's, keeping
//        non-associative floating-point combines bitwise identical).
//   gather/gather on one array is benign (both deliver the same owned
//        values) and is the engine-coalescing case, not a hazard.
//
// Execution model: compute callbacks run strictly in declaration order,
// advance() after advance() — only communication moves. All pipelining
// decisions are functions of the declared graph and the program position,
// never of message arrival, so every rank posts the same batch sequence
// (the engine's SPMD contract holds by construction) and a pipelined run
// is bitwise identical to the eager one (set_pipelining(false): plain
// post -> flush -> wait at every step, the reference arm).
//
// Repartition interop: a repartition invalidates the schedules a graph's
// accesses point at. retarget(old, new) quiesces in-flight pipelining and
// swaps the schedule handle everywhere it is declared — the steps, their
// compute callbacks, and their array bindings survive, so a PR-3 seeded
// successor epoch re-arms without a full re-declaration. advance() checks
// every binding and raises a chaos::Error naming the step if a handle went
// stale. Array extents must be stable between quiesces (re-inspection,
// which changes extents, requires a quiesce anyway).
//
// The raw post/flush/wait surface (rt.gather_async & friends) remains the
// low-level escape hatch for patterns the declaration set cannot express.
#pragma once

#include <cmath>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "comm/engine.hpp"
#include "lang/access.hpp"
#include "lang/array.hpp"
#include "runtime/runtime.hpp"
#include "runtime/task_pool.hpp"
#include "verify/diagnostic.hpp"

namespace chaos {

class StepGraph;

/// Accepted numeric deviation for the tolerance-checked arrival arm:
/// |a - b| <= abs + rel * max(|a|, |b|). Required before a conflicted
/// chunked step (shared accumulators, e.g. a scatter_add force array) may
/// run arrival-driven — arrival order legitimately reorders its
/// floating-point combines, so bitwise equality with the eager arm is the
/// wrong contract and this bound is the right one.
struct EquivalenceTolerance {
  double abs = 0.0;
  double rel = 0.0;
  bool within(double a, double b) const {
    const double diff = std::abs(a - b);
    return diff <= abs + rel * std::max(std::abs(a), std::abs(b));
  }
};

/// Identity of one compute chunk within a chunked step. Chunks are keyed
/// by the peer whose gathered partition they consume (`peer == -1` is the
/// local chunk: owned data plus self-block ghosts, never waiting on the
/// wire); fixed-count chunked steps (compute_chunks(n, fn)) number their
/// chunks with peer == -1 throughout. Canonical chunk order — the order
/// the eager/static arms execute, and the bitwise reference — is the
/// local chunk first, then ascending peer.
struct Chunk {
  int peer = -1;
  std::size_t index = 0;  ///< ordinal in canonical order
  std::size_t count = 0;  ///< chunks in this step
};

/// Handed to a chunk callback. charge() accumulates the chunk's modeled
/// work into a slot private to this chunk, so callbacks running on pool
/// workers never touch the rank's sim::Comm (whose accounting is not
/// thread-safe); the graph charges the rank clock when the chunk — or the
/// concurrent wave it ran in — completes.
class ChunkContext {
 public:
  const Chunk& chunk() const { return chunk_; }
  void charge(double work_units) { work_ += work_units; }

 private:
  friend class StepGraph;
  Chunk chunk_;
  double work_ = 0.0;
};

/// One declared step: communication accesses around one compute callback.
/// Created by StepGraph::step(); references into it stay valid for the
/// graph's lifetime. The accesses are stated only through typed views —
/// bind(in(x).via(h), sum(f).via(h), ...): the lang::Access sets are
/// INFERRED from the bindings, and the bound Array/vector doubles as the
/// gather/scatter buffer.
class Step {
 public:
  /// Passkey: only StepGraph can create Steps (via StepGraph::step), but
  /// the container still constructs them in place.
  class Key {
    Key() = default;
    friend class StepGraph;
  };
  Step(Key, std::string name, std::size_t idx)
      : name_(std::move(name)), idx_(idx) {}
  Step(const Step&) = delete;
  Step& operator=(const Step&) = delete;

  const std::string& name() const { return name_; }

  // ---- typed view bindings (access sets inferred) ---------------------

  /// Bind one or more array views into this step: in(x).via(h) becomes a
  /// pre-compute gather, out/sum(x).via(h) a post-compute scatter /
  /// scatter-add, migrate(items).to(d).into(o) a post-compute migration,
  /// use(x)/update(x) local effects. Communication views bound to a step
  /// must carry .via(schedule) (only forall may omit it). Bind update(x)
  /// whenever the compute mutates an array other steps gather — it is what
  /// keeps their gathers from being hoisted across the write. A migrate
  /// pairs with then() to consume its arrivals once the motion completes.
  template <typename... Bs>
  Step& bind(Bs&&... bs) {
    (bind_view(views::Binding(std::forward<Bs>(bs))), ...);
    return *this;
  }

  Step& compute(std::function<void()> fn) {
    compute_ = std::move(fn);
    return *this;
  }

  // ---- partition-granular (chunked) compute ---------------------------

  /// Split this step's compute into partition chunks keyed by the gather
  /// schedules' recv blocks: one local chunk (peer == -1, owned data plus
  /// self-block ghosts) plus one chunk per remote peer the step's gathers
  /// receive from. Under arrival-driven execution a chunk fires the moment
  /// its peer's segments land; under the eager/static arms chunks run
  /// serially in canonical order (local first, then ascending peer) — the
  /// bitwise oracle. An optional compute() callback becomes the serial
  /// prelude that runs before any chunk.
  Step& compute_chunks(std::function<void(ChunkContext&)> fn) {
    chunk_fn_ = std::move(fn);
    chunk_count_ = 0;  // derive from the gather schedules' recv blocks
    return *this;
  }

  /// Fixed-count flavor for steps whose natural partition is not a comm
  /// schedule (e.g. DSMC cell ranges): `n` chunks, all peer == -1, always
  /// immediately eligible — arrival-driven execution still runs them as
  /// concurrent waves when the writes are declared disjoint.
  Step& compute_chunks(std::size_t n, std::function<void(ChunkContext&)> fn) {
    CHAOS_CHECK(n > 0, "compute_chunks: need at least one chunk");
    chunk_fn_ = std::move(fn);
    chunk_count_ = n;
    return *this;
  }

  /// Declare that no two chunks write the same element (disjoint output
  /// slots). This is what licenses running a whole color class concurrently
  /// on the worker pool AND keeps arrival order bitwise-irrelevant — the
  /// order-independent arm. Without it chunks are conservatively assumed
  /// conflicted: they serialize, and arrival-driven execution additionally
  /// requires an EquivalenceTolerance (reordered floating-point combines).
  Step& chunk_writes_disjoint() {
    chunk_disjoint_ = true;
    return *this;
  }

  /// Runs when this step's write accesses have completed (immediately
  /// after the compute when the step has none) — e.g. swapping a migrate's
  /// arrival buffer into place.
  Step& then(std::function<void()> fn) {
    finalize_ = std::move(fn);
    return *this;
  }

  // ---- bench introspection -------------------------------------------

  /// Cumulative wire traffic of this step's gather / write batches (from
  /// comm::Engine::batch_traffic), attributing messages and bytes to the
  /// individual step rather than the whole run.
  comm::Engine::Traffic gather_traffic() const { return gather_traffic_; }
  comm::Engine::Traffic write_traffic() const { return write_traffic_; }

  // ---- static-analysis introspection (verify::Analyzer) ---------------

  /// One declared access as the static analyzer sees it: the declaration
  /// plus the view-carried metadata the rules key on. Snapshot semantics —
  /// `stale` is evaluated at call time. Valid only after the step is
  /// resolved (StepGraph::resolve_for_analysis or first advance).
  struct AccessInfo {
    lang::AccessDecl decl;
    ScheduleHandle via{};
    std::string_view name;    ///< registered array name ("" for raw vectors)
    bool zeroes_ghosts = false;
    bool guarded = false;     ///< carries an Array retarget-revision probe
    bool stale = false;       ///< probe disagrees with the bound snapshot
  };
  std::vector<AccessInfo> declared_gathers() const;  ///< pre-compute comm
  std::vector<AccessInfo> declared_writes() const;   ///< post-compute comm
  std::vector<AccessInfo> declared_locals() const;   ///< use/update
  bool chunked() const { return static_cast<bool>(chunk_fn_); }
  /// 0 = chunks keyed by the gather schedules' recv blocks.
  std::size_t fixed_chunk_count() const { return chunk_count_; }
  bool claims_chunk_writes_disjoint() const { return chunk_disjoint_; }

 private:
  friend class StepGraph;

  struct CommAccess {
    lang::AccessDecl decl;
    ScheduleHandle via{};
    /// Pre-execution hook: gathers run it just before their post, writes
    /// just before the compute (accumulator sizing / zeroing).
    std::function<void(Runtime&, ScheduleHandle)> prepare;
    std::function<comm::CommHandle(Runtime&, ScheduleHandle)> post;
    /// View-carried metadata: registered array name (errors / messages)
    /// and the Array binding-revision probe + snapshot guarding against a
    /// retargeted Array driven through a stale binding.
    std::string name;
    std::function<std::uint64_t()> revision;
    std::uint64_t expected_revision = 0;
    /// The prepare zeroes the ghost region (self-managing accumulators:
    /// sum over an Array). Resolve rejects combining one with a gather of
    /// the same array in the same step — the ghost slots cannot hold both.
    bool zeroes_ghosts = false;
  };

  struct LocalAccess {
    lang::AccessDecl decl;
    std::string name;
    std::function<std::uint64_t()> revision;
    std::uint64_t expected_revision = 0;
  };

  /// Route one type-erased view binding into the access lists.
  void bind_view(views::Binding b);
  /// First-advance resolution: closes the step to further bind() calls and
  /// refuses a self-zeroing accumulator that is also gathered in the same
  /// step. Idempotent; throws chaos::Error on that conflict.
  void resolve();

  std::string name_;
  std::size_t idx_;
  std::vector<CommAccess> gathers_;  ///< pre-compute communication
  std::vector<CommAccess> writes_;   ///< post-compute communication
  std::vector<LocalAccess> locals_;
  bool resolved_ = false;
  std::function<void()> compute_;
  std::function<void()> finalize_;

  // Chunked-compute declaration and its cached plan (built lazily by
  // StepGraph::build_chunk_plan, invalidated by retarget).
  std::function<void(ChunkContext&)> chunk_fn_;
  std::size_t chunk_count_ = 0;  ///< 0: derive from gather recv blocks
  bool chunk_disjoint_ = false;
  std::vector<int> chunk_peers_;   ///< canonical order: -1 then ascending
  std::vector<int> chunk_colors_;  ///< greedy conflict-graph coloring
  int chunk_ncolors_ = 0;
  bool chunk_plan_valid_ = false;

  // Execution state, driven by StepGraph.
  std::vector<comm::CommHandle> gather_handles_;
  std::vector<comm::CommHandle> write_handles_;
  bool gathers_posted_ = false;
  bool writes_posted_ = false;
  comm::Engine::Traffic gather_traffic_{};
  comm::Engine::Traffic write_traffic_{};
};

class StepGraph {
 public:
  explicit StepGraph(Runtime& rt) : rt_(rt) { rt_.register_graph(this); }
  ~StepGraph();
  StepGraph(const StepGraph&) = delete;
  StepGraph& operator=(const StepGraph&) = delete;

  /// Declare a new step, appended to the execution order.
  Step& step(std::string name);

  /// The declared step of that name, or null.
  Step* find(std::string_view name);

  std::size_t size() const { return steps_.size(); }
  /// The i-th declared step; throws a chaos::Error naming the declared
  /// steps when `i` is out of range.
  Step& at(std::size_t i);
  const Step& at(std::size_t i) const {
    return const_cast<StepGraph*>(this)->at(i);
  }

  Runtime& runtime() const { return rt_; }

  /// Resolve every step (close it to bind() and run its self-zeroing
  /// accumulator check) without executing anything — the entry point
  /// verify::Analyzer uses. Idempotent; advance() performs the same
  /// resolution on first execution.
  void resolve_for_analysis() {
    for (Step& s : steps_) s.resolve();
  }

  /// Pipelining switch. On (default): gathers are hoisted ahead of their
  /// step whenever the hazard analysis allows. Off: plain eager
  /// post/flush/wait at every step — the bitwise reference arm.
  void set_pipelining(bool on) { pipelining_ = on; }
  bool pipelining() const { return pipelining_; }

  /// Arrival-driven switch. On: chunked steps stop waiting for the whole
  /// gather batch and fire each chunk the moment its peer's segments land
  /// (comm::Engine::test_peer / wait_arrival); same-color chunks run
  /// concurrently on the worker pool. Only steps whose chunks are provably
  /// order-independent (chunk_writes_disjoint) run this way unchecked —
  /// their results stay bitwise identical to the eager arm. Conflicted
  /// chunked steps additionally need set_tolerance (the tolerance-checked
  /// arm); without one they silently fall back to the static path.
  void set_arrival_driven(bool on) { arrival_driven_ = on; }
  bool arrival_driven() const { return arrival_driven_; }

  /// Declare the accepted deviation for conflicted chunked steps under
  /// arrival-driven execution (see EquivalenceTolerance).
  void set_tolerance(EquivalenceTolerance tol) { tolerance_ = tol; }
  const std::optional<EquivalenceTolerance>& tolerance() const {
    return tolerance_;
  }

  /// Size of the intra-rank worker pool concurrent chunk waves run on
  /// (default 2; 1 disables threading — waves run inline). The pool is
  /// created lazily on the first threaded wave.
  void set_worker_threads(int n) {
    CHAOS_CHECK(n >= 1, "worker threads must be >= 1");
    worker_threads_ = n;
    pool_.reset();  // re-created at the new size on next use
  }
  int worker_threads() const { return worker_threads_; }

  /// Strict mode: before the graph first arms (and again after every
  /// retarget), run the verify::Analyzer rule pipeline over the declared
  /// graph and refuse to execute — chaos::Error listing every finding —
  /// if any error-severity finding exists. Warnings and notes are cached
  /// (last_verification()) but do not block. Error rules are functions of
  /// the declarations alone, so every rank reaches the same verdict and a
  /// strict refusal cannot desynchronize the SPMD batch sequence.
  void set_strict(bool on) { strict_ = on; }
  bool strict() const { return strict_; }

  /// Findings of the most recent strict verification (empty until one
  /// ran; released by Runtime::compact / release_chunk_plans).
  const std::vector<verify::Diagnostic>& last_verification() const {
    return strict_diags_;
  }

  /// Execute every step once, in declaration order. Leaves the pipeline
  /// hot: trailing writes (and next-iteration gathers) may still be in
  /// flight — call advance() again, or quiesce() before touching the
  /// arrays outside the graph. Pass arm_next_iteration = false on the
  /// final iteration (Runtime::run does) to skip the trailing gather
  /// hoist a quiesce would only post-and-discard.
  void advance(bool arm_next_iteration = true);

  /// Complete every outstanding batch, run pending finalizers, and reset
  /// the arming state. Required before repartitioning, re-inspecting a
  /// declared schedule, or reading/writing the arrays imperatively.
  void quiesce();

  /// Swap a schedule handle everywhere it is declared (quiesces first).
  /// This is how a graph re-arms onto a repartitioned successor epoch
  /// without being re-declared.
  void retarget(ScheduleHandle from, ScheduleHandle to);

  struct Stats {
    std::uint64_t iterations = 0;
    std::uint64_t gather_batches = 0;
    std::uint64_t write_batches = 0;
    /// Gather batches posted ahead of their step's execution position.
    std::uint64_t pipelined_gathers = 0;
    /// Executions where one step's gathers and another step's writes were
    /// concurrently in flight (a gather posted with scatters outstanding,
    /// or a scatter posted with a later step's gathers outstanding) — the
    /// "step k+1 gathers posted before step k scatters complete" overlaps.
    std::uint64_t overlapped_posts = 0;
    /// Forced waits: an outstanding write batch had to complete because a
    /// dependent gather post or compute needed its array.
    std::uint64_t hazard_stalls = 0;
    std::uint64_t retargets = 0;
    std::uint64_t quiesces = 0;
    /// Chunks that fired while their step's gather batch was still
    /// partially outstanding — the message-driven wins a whole-batch wait
    /// would have stalled.
    std::uint64_t chunks_fired_early = 0;
    /// wait_arrival calls: times a rank slept for "any useful message"
    /// instead of a specific batch position.
    std::uint64_t arrival_wakeups = 0;
    /// Sum of color-class counts over built chunk plans (1 per plan means
    /// every chunked step was fully conflict-free).
    std::uint64_t color_classes = 0;
    /// Wall-clock nanoseconds pool workers spent running chunk callbacks.
    std::uint64_t pool_busy_ns = 0;

    /// Zero every counter. Long-running services window the counters
    /// rather than reading monotonic totals (see take_stats()).
    void reset() { *this = Stats{}; }
  };
  const Stats& stats() const { return stats_; }

  /// Snapshot-and-reset: return the counters accumulated since the last
  /// take_stats() (or construction) and zero them. This is the windowed
  /// form balance::Monitor consumes — callers that want monotonic totals
  /// keep using stats() and must not mix the two on one graph.
  Stats take_stats() {
    Stats s = stats_;
    stats_.reset();
    return s;
  }

  /// Bytes of auxiliary state this graph holds beyond the declarations
  /// themselves: cached chunk plans (peer/color tables) and the worker
  /// pool bookkeeping. Folded into Runtime::registry_bytes().
  std::size_t footprint_bytes() const;

  /// Drop every cached chunk plan (rebuilt lazily on next advance) and the
  /// worker pool; returns the bytes released. Runtime::compact() calls
  /// this — only invoked when the graph is quiesced.
  std::size_t release_chunk_plans();

 private:
  std::vector<const void*> gather_touch(const Step& s) const;
  std::vector<const void*> compute_touch(const Step& s) const;
  bool step_blocks_hoist(const Step& s,
                         std::span<const void* const> arrays) const;
  bool pending_write_touching(std::span<const void* const> arrays) const;

  void check_bindings() const;
  /// Strict-mode gate: run the analyzer once per arming epoch; throw on
  /// error findings (without latching, so every advance re-refuses).
  void enforce_strict();
  /// Post gathers for every armable step at execution position `exec_pos`
  /// (index of the next compute to run; size() = end of iteration), in
  /// strict step order, stopping at the first hazard.
  void try_arm(std::size_t exec_pos);
  void post_gathers(Step& s, bool early);
  void post_writes(Step& s);
  void wait_gathers(Step& s);
  void wait_writes(Step& s);
  void wait_conflicting_writes(std::span<const void* const> arrays);

  /// Chunked execution (tentpole: message-driven step execution).
  bool use_arrival(const Step& s) const;
  void build_chunk_plan(Step& s);
  void run_chunks_serial(Step& s);
  void run_chunks_arrival(Step& s);
  void run_wave(Step& s, std::span<const std::size_t> wave);

  Runtime& rt_;
  bool pipelining_ = true;
  bool arrival_driven_ = false;
  bool strict_ = false;
  /// Strict verification latches per arming epoch; retarget re-verifies.
  bool strict_checked_ = false;
  std::vector<verify::Diagnostic> strict_diags_;
  std::optional<EquivalenceTolerance> tolerance_;
  int worker_threads_ = 2;
  std::unique_ptr<runtime::TaskPool> pool_;
  std::deque<Step> steps_;
  /// Steps with a posted, un-waited write batch, in post (FIFO) order.
  std::vector<std::size_t> posted_write_order_;
  Stats stats_;
};

}  // namespace chaos
