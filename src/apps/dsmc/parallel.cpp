#include "apps/dsmc/parallel.hpp"

#include <algorithm>
#include <memory>
#include <numeric>

#include "balance/monitor.hpp"
#include "balance/service.hpp"
#include "partition/diffusion.hpp"
#include "runtime/runtime.hpp"
#include "runtime/step_graph.hpp"

namespace chaos::dsmc {

namespace {

using core::GlobalIndex;

/// Copy-in/copy-out overhead of compiler-generated FORALL loops relative to
/// the hand-written collision/update code (the Fortran D FORALL semantics
/// materialize loop temporaries; paper §5.2 and Table 7's total-time gap).
constexpr double kCompilerForallOverhead = 0.55;

/// Fixed chunk count of the arrival-driven collide split (the cell ranges
/// adapt to the current owned-cell count; the count just bounds the wave
/// width on the worker pool).
constexpr std::size_t kCollideChunks = 4;

class Driver {
 public:
  Driver(sim::Comm& comm, const ParallelDsmcConfig& cfg,
         std::vector<DsmcPhaseTimes>& phase_out, ParallelDsmcResult& shared)
      : comm_(comm),
        cfg_(cfg),
        p_(cfg.params),
        phase_out_(phase_out),
        shared_(shared),
        rt_(comm),
        graph_(rt_) {}

  void run() {
    initialize();
    declare_graph();
    if (cfg_.verify_graph) {
      // Analysis-only mode: static rule pipeline over the declared graph,
      // no simulation. Analysis never communicates — collective-safe.
      std::vector<verify::Diagnostic> ds = rt_.verify(graph_);
      if (comm_.rank() == 0) shared_.verify_diagnostics = std::move(ds);
      return;
    }
    if (cfg_.autonomic) {
      policy_ = std::make_unique<balance::Policy>(cfg_.policy);
      monitor_ = std::make_unique<balance::Monitor>(
          comm_, policy_->config().window_steps);
    }
    for (int step = 0; step < cfg_.steps; ++step) {
      cur_step_ = step;
      const bool remap_due = !cfg_.autonomic && cfg_.remap_every > 0 &&
                             step > 0 && step % cfg_.remap_every == 0;
      // One collide/move iteration of the declared graph; the previous
      // step's migration completes at collide's derived `mine_` hazard.
      // Skip the trailing hoist when a remap (which quiesces) or the end
      // of the run follows.
      graph_.advance(!remap_due && step + 1 < cfg_.steps);
      if (remap_due) remap_phase();
      if (cfg_.autonomic) autonomic_tick();
    }
    graph_.quiesce();
    const long long local = collisions_;
    const long long total = comm_.allreduce_sum(local);
    // Sum of per-rank peak residency: the storage each rank actually had
    // to hold, the honest point of comparison against a fixed-capacity
    // (all particles ever alive) over-allocation.
    const long long peak =
        comm_.allreduce_sum(static_cast<long long>(peak_mine_));
    phase_out_[static_cast<size_t>(comm_.rank())] = t_;
    if (comm_.rank() == 0) {
      shared_.collisions = total;
      shared_.peak_particle_bytes =
          static_cast<std::size_t>(peak) * sizeof(Particle);
      shared_.rebalances = diffusions_ + rebuilds_;
      shared_.diffusions = diffusions_;
      shared_.rebuilds = rebuilds_;
      shared_.graph = graph_.stats();
    }
    if (cfg_.collect_state) {
      arrived_ = {};  // free the dead per-step scratch before the final
      order_ = {};    // gather, the run's largest allocation
      collect_state();
    }
  }

 private:
  template <typename Fn>
  void timed(double DsmcPhaseTimes::*slot, Fn&& fn) {
    const double t0 = comm_.now();
    fn();
    t_.*slot += comm_.now() - t0;
  }

  void initialize() {
    // Everyone generates the full particle set deterministically ("input
    // file"), then keeps the particles of its own cells. The initial
    // partition balances the initial per-cell loads with even x-slabs
    // (chain partition of the initial counts), the same starting point for
    // every configuration.
    std::vector<Particle> all = generate_particles(p_);
    std::vector<double> counts(static_cast<size_t>(p_.n_cells()), 0.0);
    for (const Particle& q : all)
      counts[static_cast<size_t>(cell_of(p_, q))] += 1.0;
    std::vector<double> chain_counts(counts.size());
    for (GlobalIndex c = 0; c < p_.n_cells(); ++c)
      chain_counts[static_cast<size_t>(chain_position(p_, c))] =
          counts[static_cast<size_t>(c)];
    const std::vector<std::size_t> bounds =
        part::chain_partition(chain_counts, comm_.size());
    std::vector<int> map(static_cast<size_t>(p_.n_cells()), 0);
    for (int r = 0; r < comm_.size(); ++r)
      for (std::size_t pos = bounds[static_cast<size_t>(r)];
           pos < bounds[static_cast<size_t>(r) + 1]; ++pos)
        map[static_cast<size_t>(cell_at_chain_position(
            p_, static_cast<GlobalIndex>(pos)))] = r;
    adopt_map(std::move(map));

    mine_.clear();
    for (const Particle& q : all)
      if (cell_map_[static_cast<size_t>(cell_of(p_, q))] == comm_.rank())
        mine_.push_back(q);
  }

  /// Install a new cell->processor map and rebuild everything derived. The
  /// previous distribution epoch (if any) is retired: handles bound to it
  /// become invalid.
  void adopt_map(std::vector<int> map) {
    cell_map_ = std::move(map);
    order_.carried = 0;  // carried slots index the retired cell numbering
    my_cells_.clear();
    cell_slot_.assign(cell_map_.size(), -1);
    for (GlobalIndex c = 0; c < p_.n_cells(); ++c) {
      if (cell_map_[static_cast<size_t>(c)] == comm_.rank()) {
        cell_slot_[static_cast<size_t>(c)] =
            static_cast<std::int32_t>(my_cells_.size());
        my_cells_.push_back(c);
      }
    }
    if (cfg_.executor == DsmcExecutor::kCompilerGenerated) {
      // Rows distribution the REDUCE(APPEND) lowering appends into. After
      // the first epoch the new map is adopted as a successor: the
      // translation table is patched from the owner delta instead of being
      // rebuilt (a remap moves most cells' ownership nowhere).
      if (rt_.valid(rows_)) {
        const DistHandle prev = rows_;
        rows_ = rt_.repartition(prev, std::span<const int>(cell_map_));
        rt_.retire(prev);
      } else {
        rows_ = rt_.irregular(cell_map_);
      }
    }
    if (cfg_.executor == DsmcExecutor::kRegular) {
      // The regular-schedule path translates through a non-replicated
      // (paged) translation table, whose lookups communicate — the cost the
      // paper calls out for index analysis with distributed tables
      // (§3.2.2). Successor epochs patch the paged table in place (only
      // this rank's page entries whose Home changed are rewritten).
      if (rt_.valid(paged_)) {
        const DistHandle prev = paged_;
        paged_ = rt_.repartition(prev, std::span<const int>(cell_map_));
        rt_.retire(prev);
      } else {
        paged_ = rt_.irregular_paged(cell_map_);
      }
    }
  }

  /// Declare the collide/move cycle as a step graph, the accesses bound
  /// as typed views (use/update/migrate — the step's access sets are
  /// inferred from the bindings).
  /// On the kStepGraph* shapes the move step's migration is a declared
  /// access on `mine_`/`arrived_`; the runtime derives that the next
  /// collide (updates mine_) depends on it and defers the wait to that
  /// point, and the finalizer swaps the arrival buffer in when the motion
  /// completes. The other shapes run eagerly and migrate inside the move
  /// step's compute.
  void declare_graph() {
    graph_.set_pipelining(cfg_.executor == DsmcExecutor::kStepGraph ||
                          cfg_.executor == DsmcExecutor::kStepGraphArrival);
    Step& collide =
        graph_.step("collide").bind(update(mine_).named("particles"));
    if (cfg_.executor == DsmcExecutor::kStepGraphArrival) {
      // Chunked collide: the serial prelude sorts the particle keys by
      // cell, then fixed-count chunks each gather and collide a disjoint
      // cell range. No two cells share a particle, so the writes are
      // disjoint — the chunks form one conflict class and run concurrently on
      // the worker pool, bitwise identical to the serial arms. The
      // finalizer swaps the gathered array in.
      graph_.set_arrival_driven(true);
      collide.compute([this] {
        timed(&DsmcPhaseTimes::collide, [&] { order_particles(); });
      });
      collide.compute_chunks(
          kCollideChunks, [this](ChunkContext& ctx) { collide_chunk(ctx); });
      collide.chunk_writes_disjoint();
      collide.then([this] {
        mine_.swap(arrived_);
        for (long long c : chunk_collisions_) collisions_ += c;
      });
    } else {
      collide.compute([this] { collide_phase(); });
    }
    Step& move = graph_.step("move").bind(
        update(mine_).named("particles"),
        update(dest_procs_).named("dest_procs"));
    switch (cfg_.executor) {
      case DsmcExecutor::kStepGraph:
      case DsmcExecutor::kStepGraphEager:
      case DsmcExecutor::kStepGraphArrival:
        move.compute([this] {
              timed(&DsmcPhaseTimes::reduce_append, [&] { move_compute(); });
            })
            .bind(migrate(mine_).to(dest_procs_).into(arrived_).named(
                "particles"))
            .then([this] { take_arrivals(); });
        break;
      case DsmcExecutor::kImperative:
        // The same move with a blocking migrate where the graph posts
        // asynchronously: destinations straight from the replicated cell
        // map, no translation, no placement lists.
        move.compute([this] {
          timed(&DsmcPhaseTimes::reduce_append, [&] {
            move_compute();
            rt_.migrate<Particle>(dest_procs_, mine_, arrived_);
            take_arrivals();
          });
        });
        break;
      case DsmcExecutor::kRegular:
        move.compute([this] {
          timed(&DsmcPhaseTimes::reduce_append,
                [&] { move_regular(advance_to_cells()); });
        });
        break;
      case DsmcExecutor::kCompilerGenerated:
        move.compute([this] { move_compiler(); });
        break;
    }
  }

  /// Serial prelude shared by every collide arm: sort the particle keys by
  /// (owned cell, id); the per-cell loop then gathers into the arrival
  /// buffer (also resets the chunked arm's per-chunk counters).
  void order_particles() {
    peak_mine_ = std::max(peak_mine_, mine_.size());
    order_.sort(p_, cell_slot_, my_cells_.size(), mine_, arrived_);
    comm_.charge_work(static_cast<double>(mine_.size()) * kWorkPerSort *
                      p_.work_scale);
    chunk_collisions_.assign(kCollideChunks, 0);
  }

  /// One chunk of the collide phase: the cells in this chunk's share of
  /// the owned-cell range. Runs on a pool worker — work is charged through
  /// the context and collisions land in a per-chunk slot (summed by the
  /// step's finalizer on the rank thread).
  void collide_chunk(ChunkContext& ctx) {
    const std::size_t n = ctx.chunk().count;
    const std::size_t i = ctx.chunk().index;
    const std::size_t ncells = my_cells_.size();
    const std::size_t lo = ncells * i / n;
    const std::size_t hi = ncells * (i + 1) / n;
    long long done_total = 0;
    double work = 0.0;
    for (std::size_t s = lo; s < hi; ++s) {
      const int done = collide_cell(p_, my_cells_[s], cur_step_,
                                    order_.gather(s, mine_, arrived_));
      done_total += done;
      work += (kWorkPerCellVisit +
               static_cast<double>(done) * kWorkPerCollision) *
              p_.work_scale;
    }
    chunk_collisions_[i] = done_total;
    ctx.charge(work);
  }

  /// The serial collide phase; generated code pays its FORALL overhead on
  /// top.
  void collide_phase() {
    timed(&DsmcPhaseTimes::collide, [&] {
      const double t0 = comm_.now();
      order_particles();
      for (std::size_t s = 0; s < my_cells_.size(); ++s) {
        const int done = collide_cell(p_, my_cells_[s], cur_step_,
                                      order_.gather(s, mine_, arrived_));
        collisions_ += done;
        comm_.charge_work((kWorkPerCellVisit +
                           static_cast<double>(done) * kWorkPerCollision) *
                          p_.work_scale);
      }
      mine_.swap(arrived_);
      if (cfg_.executor == DsmcExecutor::kCompilerGenerated)
        comm_.charge_compute_seconds((comm_.now() - t0) *
                                     kCompilerForallOverhead);
    });
  }

  /// The fused move pass shared by every arm (it mirrors the sequential
  /// driver's order exactly): advance, absorb by the deterministic
  /// (seed, id, step) hash, then append this rank's share of the step's
  /// newborns, with destination ranks from the replicated cell map (the
  /// light-weight path's translation-free lookup). Births are dealt to
  /// ranks by id (id % P) rather than by cell, so the following migration
  /// batch genuinely carries newly-born particles to their cell owners —
  /// the case the delivery-permutation fuzz exercises.
  void advance_particles() {
    const std::size_t moved = mine_.size();
    move_pass(p_, cur_step_, cell_map_, cell_slot_, comm_.rank(),
              comm_.size(), mine_, dest_procs_, order_);
    comm_.charge_work(static_cast<double>(moved) * kWorkPerMove *
                      p_.work_scale);
    peak_mine_ = std::max(peak_mine_, mine_.size());
  }

  /// Light-weight move compute: the fused move pass, then reset the
  /// arrival buffer the migration appends into.
  void move_compute() {
    advance_particles();
    comm_.charge_work(static_cast<double>(mine_.size()) * 0.5);
    arrived_.clear();
    if (arrived_.capacity() < mine_.size())  // headroom: settle, not regrow
      arrived_.reserve(mine_.size() + mine_.size() / 8);
  }

  /// Adopt the migration's arrivals (stayers first and in order, so the
  /// carried slots hold); the spent buffer is the next collide's gather target.
  void take_arrivals() { mine_.swap(arrived_); }

  /// The fused move pass for the moves that place particles by
  /// destination cell; returns each particle's cell and empties the
  /// arrival buffer.
  std::vector<GlobalIndex> advance_to_cells() {
    advance_particles();
    order_.carried = 0;  // these arrivals carry no stayer slots
    arrived_.clear();
    std::vector<GlobalIndex> dest_cells(mine_.size());
    for (std::size_t i = 0; i < mine_.size(); ++i)
      dest_cells[i] = cell_of(p_, mine_[i]);
    return dest_cells;
  }

  /// Regular-schedule migration (Table 4's expensive path): a full
  /// inspector over the destination cells plus a per-particle placement
  /// (permutation list) exchange — the work the light-weight schedule
  /// exists to avoid.
  void move_regular(const std::vector<GlobalIndex>& dest_cells) {
    // One-shot index analysis + schedule generation over the destination
    // cells (the pattern changes every step, so nothing is reusable),
    // translating through the distributed (paged) table — one query/reply
    // communication round per step.
    std::vector<GlobalIndex> refs = dest_cells;
    const ScheduleHandle cell_sched = rt_.inspect_once(paged_, refs);
    (void)cell_sched;

    // Placement negotiation: every particle's destination cell travels to
    // the destination rank, which assigns a buffer slot and returns it.
    const int P = comm_.size();
    std::vector<std::vector<GlobalIndex>> ask(static_cast<size_t>(P));
    for (std::size_t i = 0; i < mine_.size(); ++i)
      ask[static_cast<size_t>(dest_procs_[i])].push_back(dest_cells[i]);
    std::vector<std::vector<GlobalIndex>> asked = comm_.alltoallv(ask);
    std::vector<std::vector<GlobalIndex>> slots(static_cast<size_t>(P));
    GlobalIndex next_slot = 0;
    for (int r = 0; r < P; ++r) {
      slots[static_cast<size_t>(r)].resize(
          asked[static_cast<size_t>(r)].size());
      for (auto& v : slots[static_cast<size_t>(r)]) v = next_slot++;
    }
    std::vector<std::vector<GlobalIndex>> granted = comm_.alltoallv(slots);
    comm_.charge_work(static_cast<double>(mine_.size()) * 2.0);
    (void)granted;

    // Payload motion (same arrivals as the light-weight path) plus the
    // placement work of honoring the permutation list.
    rt_.migrate<Particle>(dest_procs_, mine_, arrived_);
    comm_.charge_work(static_cast<double>(arrived_.size()) * 2.0);
    take_arrivals();
  }

  /// Compiler-generated MOVE: the REDUCE(APPEND) lowering, then the size
  /// recovery the compiler additionally emits, accounted separately (it is
  /// extra work the manual version avoids; paper §5.3.2).
  void move_compiler() {
    std::vector<GlobalIndex> dest_cells;
    timed(&DsmcPhaseTimes::reduce_append, [&] {
      dest_cells = advance_to_cells();
      rt_.append<Particle>(rows_, dest_cells, mine_, arrived_);
      take_arrivals();
    });
    timed(&DsmcPhaseTimes::size_recompute,
          [&] { (void)rt_.row_sizes(rows_, dest_cells); });
  }

  /// Particles per owned cell, by slot (each cell's load is known at its
  /// owner).
  std::vector<double> cell_loads() const {
    std::vector<double> w(my_cells_.size(), 0.0);
    for (const Particle& q : mine_)
      w[static_cast<size_t>(cell_slot_[static_cast<size_t>(cell_of(p_, q))])] +=
          1.0;
    return w;
  }

  /// Run the configured partitioner over the current per-cell particle
  /// counts and return the new replicated map. Collective.
  std::vector<int> compute_remap_map() {
    const std::vector<double> weights = cell_loads();
    std::vector<int> new_map;
    if (cfg_.remap_partitioner == core::PartitionerKind::kChain) {
      // Chain order = x slowest, so blocks are slabs across the flow.
      std::vector<GlobalIndex> chain_ids(my_cells_.size());
      for (std::size_t i = 0; i < my_cells_.size(); ++i)
        chain_ids[i] = chain_position(p_, my_cells_[i]);
      std::vector<part::Point3> centers(my_cells_.size());
      for (std::size_t i = 0; i < my_cells_.size(); ++i)
        centers[i] = cell_center(p_, my_cells_[i]);
      std::vector<int> chain_map = rt_.partition_map(
          core::PartitionerKind::kChain, chain_ids, centers, weights,
          p_.n_cells());
      new_map.resize(static_cast<size_t>(p_.n_cells()));
      for (GlobalIndex c = 0; c < p_.n_cells(); ++c)
        new_map[static_cast<size_t>(c)] =
            chain_map[static_cast<size_t>(chain_position(p_, c))];
    } else {
      std::vector<part::Point3> centers(my_cells_.size());
      for (std::size_t i = 0; i < my_cells_.size(); ++i)
        centers[i] = cell_center(p_, my_cells_[i]);
      new_map = rt_.partition_map(cfg_.remap_partitioner, my_cells_,
                                  centers, weights, p_.n_cells());
    }
    return new_map;
  }

  /// Migrate particles to the new owners of their cells, posted through
  /// the comm engine so the transfer overlaps the local rebuild of the
  /// cell ownership structures (which needs only the new map, not the
  /// arrivals): post -> flush -> rebuild -> wait.
  void apply_map(std::vector<int> new_map) {
    std::vector<int> dest(mine_.size());
    for (std::size_t i = 0; i < mine_.size(); ++i)
      dest[i] = new_map[static_cast<size_t>(cell_of(p_, mine_[i]))];
    std::vector<Particle> arrived;
    arrived.reserve(mine_.size());
    const comm::CommHandle mig =
        rt_.migrate_async<Particle>(dest, mine_, arrived);
    rt_.comm_flush();
    adopt_map(std::move(new_map));
    rt_.comm_wait(mig);
    mine_ = std::move(arrived);
  }

  void remap_phase() {
    // A remap lands mid-pipeline: the previous move's migration may still
    // be in flight. Quiesce first (this also runs the arrival-swap
    // finalizer, so `mine_` is current before the weights are computed).
    graph_.quiesce();
    timed(&DsmcPhaseTimes::remap,
          [&] { apply_map(compute_remap_map()); });
  }

  /// Autonomic mode: one policy tick per step. Samples load telemetry;
  /// when the window closes and the policy fires, rebalances cells through
  /// the same migrate/adopt path as a manual remap. The cell map, window
  /// loads, and decisions are replicated, so every rank computes the
  /// identical new map — and physics is cadence-independent, so results
  /// stay bitwise identical to the never-remap arm.
  void autonomic_tick() {
    monitor_->sample(nullptr, &rt_.engine());
    if (!monitor_->window_full()) return;
    const balance::Window w = monitor_->close();
    const balance::Action act = policy_->decide(w);
    if (act == balance::Action::kNone) return;
    graph_.quiesce();
    timed(&DsmcPhaseTimes::remap, [&] {
      const double t0 = comm_.now();
      if (act == balance::Action::kDiffuse) {
        // Replicated per-cell particle counts give the mover exact
        // bookkeeping when cell populations are skewed.
        part::DiffusionResult diff = balance::diffuse_replicated(
            comm_, cell_map_, my_cells_, cell_loads(), w.load,
            policy_->config().target_balance);
        if (diff.moved == 0) return;
        apply_map(std::move(diff.map));
        ++diffusions_;
      } else {
        apply_map(compute_remap_map());
        ++rebuilds_;
      }
      policy_->note_cost(comm_.now() - t0);
    });
  }

  void collect_state() {
    std::vector<Particle> all = comm_.allgatherv<Particle>(mine_);
    if (comm_.rank() == 0) {
      std::sort(all.begin(), all.end(),
                [](const Particle& a, const Particle& b) {
                  return a.id < b.id;
                });
      shared_.particles = std::move(all);
    }
  }

  sim::Comm& comm_;
  const ParallelDsmcConfig& cfg_;
  DsmcParams p_;
  std::vector<DsmcPhaseTimes>& phase_out_;
  ParallelDsmcResult& shared_;

  Runtime rt_;
  StepGraph graph_;
  int cur_step_ = 0;                     // current simulation step (RNG seed)
  std::vector<int> dest_procs_;          // move step: per-item destinations
  std::vector<Particle> arrived_;        // move step: migration arrivals
  std::vector<int> cell_map_;            // replicated cell -> proc
  std::vector<GlobalIndex> my_cells_;    // owned cells, ascending
  std::vector<std::int32_t> cell_slot_;  // cell -> local slot or -1
  std::vector<Particle> mine_;
  std::size_t peak_mine_ = 0;  // max resident particles on this rank
  CellOrder order_;            // cell-ordered layout of mine_ + scratch
  std::vector<long long> chunk_collisions_;  // arrival arm: per-chunk counts
  DistHandle rows_;   // kCompilerGenerated: replicated rows distribution
  DistHandle paged_;  // kRegular: paged translation table

  // Autonomic mode (cfg_.autonomic).
  std::unique_ptr<balance::Policy> policy_;
  std::unique_ptr<balance::Monitor> monitor_;
  int diffusions_ = 0;
  int rebuilds_ = 0;

  long long collisions_ = 0;
  DsmcPhaseTimes t_;
};

}  // namespace

void CellOrder::sort(const DsmcParams& p, std::span<const std::int32_t> cell_slot,
                     std::size_t nslots, std::vector<Particle>& parts,
                     std::vector<Particle>& spare) {
  // Counting sort by slot: count into start[s + 2] so that the scatter's
  // cursors start[s + 1] end up as slot s's end, i.e. slot s + 1's begin.
  const std::size_t n = parts.size();
  slot.resize(n);
  start.assign(nslots + 2, 0);
  for (std::size_t i = 0; i < n; ++i) {
    if (i >= carried)
      slot[i] = cell_slot[static_cast<std::size_t>(cell_of(p, parts[i]))];
    CHAOS_ASSERT(slot[i] >= 0 && static_cast<std::size_t>(slot[i]) < nslots,
                 "particle resident on the wrong rank");
    ++start[static_cast<std::size_t>(slot[i]) + 2];
  }
  carried = 0;
  std::partial_sum(start.begin(), start.end(), start.begin());
  keys.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    CHAOS_ASSERT(parts[i].id >= 0 && parts[i].id <= 0xffffffff,
                 "particle id exceeds 32 bits");
    keys[start[static_cast<std::size_t>(slot[i]) + 1]++] =
        static_cast<std::uint64_t>(parts[i].id) << 32 | i;
  }
  // A cell's keys arrive as a few id-sorted runs (the stayers of each
  // source cell, then arrivals and newborns), so an insertion sort beats a
  // general one here.
  for (std::size_t s = 0; s < nslots; ++s)
    for (std::uint32_t k = start[s] + 1; k < start[s + 1]; ++k) {
      const std::uint64_t key = keys[k];
      std::uint32_t j = k;
      for (; j > start[s] && keys[j - 1] > key; --j) keys[j] = keys[j - 1];
      keys[j] = key;
    }
  if (spare.capacity() < n) spare.reserve(n + n / 8);
  spare.resize(n);
  ptrs.resize(n);
}

std::span<Particle*> CellOrder::gather(std::size_t s,
                                       const std::vector<Particle>& parts,
                                       std::vector<Particle>& spare) {
  for (std::uint32_t k = start[s]; k < start[s + 1]; ++k) {
    spare[k] = parts[keys[k] & 0xffffffffu];
    ptrs[k] = &spare[k];
  }
  return {ptrs.data() + start[s], start[s + 1] - start[s]};
}

void move_pass(const DsmcParams& p, int step, std::span<const int> cell_map,
               std::span<const std::int32_t> cell_slot, int rank, int nranks,
               std::vector<Particle>& parts, std::vector<int>& dest,
               CellOrder& order) {
  // Newborns go after the residents; they neither move nor die this step.
  const std::size_t residents = parts.size();
  const GlobalIndex first =
      p.n_particles + static_cast<GlobalIndex>(step) * p.births_per_step;
  for (GlobalIndex i = ((rank - first) % nranks + nranks) % nranks;
       i < p.births_per_step; i += nranks)
    parts.push_back(birth(p, first + i));
  dest.resize(parts.size());
  order.slot.resize(parts.size());
  order.carried = 0;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    Particle q = parts[i];
    if (i < residents) {
      advance(p, q, p.dt);
      if (absorbed(p, q.id, step)) continue;
    }
    const auto c = static_cast<std::size_t>(cell_of(p, q));
    const std::int32_t s = cell_slot[c];
    if (s >= 0) order.slot[order.carried++] = s;
    dest[kept] = s >= 0 ? rank : cell_map[c];
    parts[kept++] = q;
  }
  parts.resize(kept);
  dest.resize(kept);
}

ParallelDsmcResult run_parallel_dsmc(sim::Machine& machine,
                                     const ParallelDsmcConfig& cfg) {
  ParallelDsmcResult result;
  std::vector<DsmcPhaseTimes> phases(static_cast<size_t>(machine.size()));
  machine.run([&](sim::Comm& comm) {
    Driver d(comm, cfg, phases, result);
    d.run();
  });
  for (const DsmcPhaseTimes& p : phases) {
    result.phases.collide = std::max(result.phases.collide, p.collide);
    result.phases.reduce_append =
        std::max(result.phases.reduce_append, p.reduce_append);
    result.phases.size_recompute =
        std::max(result.phases.size_recompute, p.size_recompute);
    result.phases.remap = std::max(result.phases.remap, p.remap);
  }
  result.execution_time = machine.execution_time();
  result.computation_time = machine.mean_compute_time();
  result.communication_time = machine.mean_comm_time();
  result.load_balance = machine.load_balance();
  return result;
}

}  // namespace chaos::dsmc
