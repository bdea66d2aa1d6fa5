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
// advance() after advance() — only communication moves. The pipelining
// decisions are made once and kept as data. At the first advance() the
// graph builds its hazard table, the static relation between every pair
// of steps derived from the declared arrays (bindings are closed by then,
// and retarget swaps only schedule handles, so the table survives
// retargets). From the table it lowers one iteration into an op program:
// post gathers (hoisted ahead of their step or not), wait gathers, wait
// writes (a hazard stall or not), run the compute or chunks, post writes —
// each op carrying the Stats increments it implies. A program is memoized
// by its input: the pipelining and arrival modes, the in-flight state it
// starts from (which steps' gathers are armed, which write batches are
// outstanding, in FIFO order) and arm_next_iteration; it records the
// in-flight state it leaves. advance() interprets the matching program,
// lowering it on first use, and quiesce() drains the state the last one
// left. The table and programs are released by release_chunk_plans()
// (Runtime::compact) and rebuilt at the next advance().
//
// A program is a function of the declared graph and the program position,
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

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
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
namespace verify {
class Analyzer;
}  // namespace verify

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
  /// receive from. Under arrival-driven execution a chunk fires once its
  /// peer's segments have landed by the rank's modeled clock; under the
  /// eager/static arms chunks run serially in canonical order (local
  /// first, then ascending peer) — the bitwise oracle. An optional
  /// compute() callback becomes the serial prelude that runs before any
  /// chunk. Like bind(), a chunk declaration must come before the first
  /// advance (or analysis): the lowered program bakes in whether the step
  /// is chunked, so a later call throws chaos::Error.
  Step& compute_chunks(std::function<void(ChunkContext&)> fn) {
    require_open("compute_chunks()");
    chunk_fn_ = std::move(fn);
    chunk_count_ = 0;  // derive from the gather schedules' recv blocks
    return *this;
  }

  /// Fixed-count flavor for steps whose natural partition is not a comm
  /// schedule (e.g. DSMC cell ranges): `n` chunks, all peer == -1, always
  /// immediately eligible — arrival-driven execution still runs them as
  /// concurrent waves when the writes are declared disjoint.
  Step& compute_chunks(std::size_t n, std::function<void(ChunkContext&)> fn) {
    require_open("compute_chunks()");
    CHAOS_CHECK(n > 0, "compute_chunks: need at least one chunk");
    chunk_fn_ = std::move(fn);
    chunk_count_ = n;
    return *this;
  }

  /// Declare that no two chunks write the same element (disjoint output
  /// slots). This is what licenses running every landed chunk as one
  /// concurrent wave on the worker pool in any order — the
  /// order-independent arm. Without it chunks are conservatively assumed
  /// conflicted: arrival-driven execution still fires them early, but one
  /// at a time in canonical order, so they stay bitwise identical to the
  /// serial arm. Refused after the step resolved, like compute_chunks().
  Step& chunk_writes_disjoint() {
    require_open("chunk_writes_disjoint()");
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

 private:
  friend class StepGraph;
  friend class verify::Analyzer;  ///< reads the declared records below

  /// One declared access, as bound. Gathers and writes carry the
  /// communication hooks; local effects (use/update) only the declaration
  /// and the staleness probe.
  struct Access {
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

  /// Why a binding is stale: its Array was retargeted onto another epoch
  /// after the binding (revision drift), and/or the schedule it rides is
  /// no longer valid. The one predicate behind both StepGraph's refusal to
  /// advance and the analyzer's stale-binding rule.
  struct Staleness {
    bool retargeted = false;
    bool invalid_schedule = false;
  };
  static Staleness staleness(const Runtime& rt, const Access& a);

  /// Throw chaos::Error naming `call` once the step has resolved: a
  /// declaration made after the first advance would not reach the lowered
  /// program.
  void require_open(const char* call) const;
  /// Route one type-erased view binding into the access lists.
  void bind_view(views::Binding b);
  /// First-advance resolution: closes the step to further bind() calls and
  /// refuses a self-zeroing accumulator that is also gathered in the same
  /// step. Idempotent; throws chaos::Error on that conflict.
  void resolve();

  std::string name_;
  std::size_t idx_;
  std::vector<Access> gathers_;  ///< pre-compute communication
  std::vector<Access> writes_;   ///< post-compute communication
  std::vector<Access> locals_;   ///< use/update
  bool resolved_ = false;
  std::function<void()> compute_;
  std::function<void()> finalize_;

  // Chunked-compute declaration and its cached plan (built lazily by
  // StepGraph::build_chunk_plan, invalidated by retarget).
  std::function<void(ChunkContext&)> chunk_fn_;
  std::size_t chunk_count_ = 0;  ///< 0: derive from gather recv blocks
  bool chunk_disjoint_ = false;
  std::vector<int> chunk_peers_;  ///< canonical order: -1 then ascending
  bool chunk_plan_valid_ = false;

  // Execution state, driven by StepGraph's lowered programs.
  std::vector<comm::CommHandle> gather_handles_;
  std::vector<comm::CommHandle> write_handles_;
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
  /// gather batch and fire on the modeled clock instead. The rank learns
  /// every message's modeled arrival (comm::Engine::arrival_order),
  /// receives them in (arrival, peer) order, and fires each chunk whose
  /// peer has landed by its clock: for chunk_writes_disjoint() steps, all
  /// such chunks as one concurrent wave on the worker pool; for conflicted
  /// steps, one at a time in canonical order. Either way the results are
  /// bitwise identical to the eager arm and the firing order is a function
  /// of modeled time alone.
  void set_arrival_driven(bool on) { arrival_driven_ = on; }
  bool arrival_driven() const { return arrival_driven_; }

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
    /// Times no chunk could fire and the rank's clock advanced to the next
    /// modeled arrival of its step's gather batch.
    std::uint64_t arrival_wakeups = 0;
    /// Sum of conflict classes over built chunk plans: 1 per disjoint plan
    /// (one concurrent wave), one per chunk for a conflicted plan.
    std::uint64_t color_classes = 0;
    /// Wall-clock nanoseconds pool workers spent running chunk callbacks.
    std::uint64_t pool_busy_ns = 0;
    /// Op programs lowered: one per distinct (modes, entry state,
    /// arm_next_iteration) input, not one per advance().
    std::uint64_t programs_lowered = 0;

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
  /// themselves: cached chunk plans (peer tables), the hazard table and
  /// lowered op programs, and the worker pool bookkeeping. Folded into
  /// Runtime::registry_bytes().
  std::size_t footprint_bytes() const;

  /// Drop every cached chunk plan, the hazard table and the lowered
  /// programs (all rebuilt lazily on next advance) and the worker pool;
  /// returns the bytes released. Runtime::compact() calls this — only
  /// invoked when the graph is quiesced.
  std::size_t release_chunk_plans();

 private:
  friend class verify::Analyzer;  ///< reads steps_ and arrival_driven_

  /// One instruction of a lowered iteration, with the Stats increments it
  /// implies.
  struct Op {
    enum class Kind : std::uint8_t {
      kPostGathers,  ///< prepare and post the step's gather batch
      kWaitGathers,  ///< complete the step's gather batch
      kWaitWrites,   ///< complete the step's write batch, run its then()
      kRun,          ///< write prepares, the compute, then the chunks
      kPostWrites,   ///< post the step's write batch (or run its then())
    };
    Kind kind = Kind::kRun;
    bool early = false;       ///< kPostGathers: hoisted ahead of its step
    bool overlapped = false;  ///< post with an opposite-direction batch out
    bool stall = false;       ///< kWaitWrites: forced by a hazard
    bool arrival = false;     ///< kRun: chunks fire on the modeled clock
    std::uint32_t step = 0;
  };

  /// What is in flight between two iterations: the steps whose gathers
  /// are armed (ascending) and the steps whose write batch is outstanding,
  /// in post (FIFO) order.
  struct InFlight {
    std::vector<std::uint32_t> armed;
    std::vector<std::uint32_t> writes;
    bool operator==(const InFlight&) const = default;
  };

  /// One lowered iteration: its memo key, its ops, and the in-flight state
  /// it leaves.
  struct Program {
    bool pipelining = true;
    bool arrival = false;
    bool arm_next = true;
    InFlight entry{};
    std::vector<Op> ops{};
    InFlight exit{};
  };

  /// Hazard bits of hazards_[u * size() + s]: what step u's declared
  /// accesses do to step s.
  enum Hazard : std::uint8_t {
    /// u's compute or writes touch an array s gathers, other than through
    /// u's own gather of it: s's gather may not be hoisted across u.
    kBlocksHoist = 1,
    /// u's write batch touches an array s gathers (RAW).
    kRaw = 2,
    /// u's write batch touches an array s's compute or write packing
    /// observes (WAR/WAW).
    kWar = 4,
  };

  void check_bindings() const;
  /// Strict-mode gate: run the analyzer once per arming epoch; throw on
  /// error findings (without latching, so every advance re-refuses).
  void enforce_strict();
  /// The program for the current modes and in-flight state, lowered (and
  /// the hazard table built) on first use.
  const Program& program(bool arm_next);
  void build_hazards();
  Program lower(bool arm_next) const;

  // The interpreter's ops.
  void post_gathers(Step& s);
  void post_writes(Step& s);
  void wait_gathers(Step& s);
  void wait_writes(Step& s);
  void run(Step& s, bool arrival);

  /// Chunked (message-driven) execution.
  void build_chunk_plan(Step& s);
  void run_chunks_arrival(Step& s);
  /// Run chunks `wave` of `s`: concurrently on the worker pool when the
  /// wave holds more than one and threads are enabled, else one at a time
  /// in the order given — the one serial chunk loop.
  void run_wave(Step& s, std::span<const std::size_t> wave);

  Runtime& rt_;
  bool pipelining_ = true;
  bool arrival_driven_ = false;
  bool strict_ = false;
  /// Strict verification latches per arming epoch; retarget re-verifies.
  bool strict_checked_ = false;
  std::vector<verify::Diagnostic> strict_diags_;
  int worker_threads_ = 2;
  std::unique_ptr<runtime::TaskPool> pool_;
  std::deque<Step> steps_;
  std::vector<std::uint8_t> hazards_;  ///< size() x size() Hazard bits
  std::vector<Program> programs_;      ///< memoized lowered iterations
  InFlight live_;                      ///< what the last program left
  Stats stats_;
};

}  // namespace chaos
