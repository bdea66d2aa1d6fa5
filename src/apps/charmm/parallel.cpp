#include "apps/charmm/parallel.hpp"

#include <algorithm>
#include <memory>
#include <numeric>

#include "apps/charmm/forces.hpp"
#include "balance/monitor.hpp"
#include "balance/service.hpp"
#include "partition/diffusion.hpp"
#include "runtime/runtime.hpp"
#include "runtime/step_graph.hpp"

namespace chaos::charmm {

namespace {

using core::GlobalIndex;
using core::TranslationTable;

/// Record exchanged when re-assembling global geometry.
struct AtomRecord {
  GlobalIndex id;
  part::Point3 pos;
};

struct StateRecord {
  GlobalIndex id;
  part::Point3 pos;
  part::Vec3 force;
};

/// Mechanical overheads of compiler-generated code relative to the
/// hand-written CHAOS calls, as measured by the paper's Table 6: the
/// generated inspector re-derives alignment and bounds (~10%), the remap
/// code moves a compiler-managed descriptor alongside each array (~6%), and
/// generated loop bodies carry extra address arithmetic (~0.5%).
constexpr double kCompilerPartitionOverhead = 0.03;
constexpr double kCompilerRemapOverhead = 0.06;
constexpr double kCompilerInspectorOverhead = 0.10;
constexpr double kCompilerExecutorOverhead = 0.005;

class Driver {
 public:
  Driver(sim::Comm& comm, const ParallelCharmmConfig& cfg,
         std::vector<CharmmPhaseTimes>& phase_out,
         ParallelCharmmResult& shared)
      : comm_(comm),
        cfg_(cfg),
        phase_out_(phase_out),
        shared_(shared),
        rt_(comm),
        graph_(rt_),
        sys_(MolecularSystem::generate(cfg.system)),
        n_(static_cast<GlobalIndex>(sys_.size())) {}

  void run() {
    // Initial BLOCK distribution of all atom-aligned arrays.
    {
      dist_ = rt_.partition(core::PartitionerKind::kBlock, {}, {}, {}, n_);
      my_globals_ = rt_.owned_globals(dist_);
      pos_.resize(my_globals_.size());
      vel_.resize(my_globals_.size());
      for (std::size_t i = 0; i < my_globals_.size(); ++i) {
        pos_[i] = sys_.pos[static_cast<size_t>(my_globals_[i])];
        vel_[i] = sys_.vel[static_cast<size_t>(my_globals_[i])];
      }
    }

    // Bootstrap: a first partition from the density estimate yields the
    // first non-bonded list, whose row lengths are the true per-atom loads;
    // the production partition then balances on those (the paper's RCB/RIB
    // "consider computational weights", §4.1, giving its LB <= 1.08) and
    // remaps the list with the atoms. Reported phase times cover the
    // production sequence only.
    partition_and_remap(cfg_.partitioner, /*remap_list=*/false);
    rebuild_nb_list();
    t_ = CharmmPhaseTimes{};

    // The production distribution regenerates the list (the paper's
    // "non-bonded list generation" row of Table 2).
    partition_and_remap(cfg_.partitioner, /*remap_list=*/false);
    rebuild_nb_list();
    build_schedules(/*regen=*/false);
    declare_graph();

    if (cfg_.verify_graph) {
      // Analysis-only mode: run the static rule pipeline over the declared
      // graph and return without simulating a single step. Analysis never
      // communicates, so the early return is collective-safe.
      std::vector<verify::Diagnostic> ds = rt_.verify(graph_);
      if (comm_.rank() == 0) shared_.verify_diagnostics = std::move(ds);
      return;
    }

    if (cfg_.autonomic) {
      policy_ = std::make_unique<balance::Policy>(cfg_.policy);
      monitor_ = std::make_unique<balance::Monitor>(
          comm_, policy_->config().window_steps);
    }

    int repartitions = 0;
    for (int step = 0; step < cfg_.run.steps; ++step) {
      const bool repartition_due = !cfg_.autonomic && quiesces_at(step) &&
                                   cfg_.repartition_every > 0 &&
                                   step % cfg_.repartition_every == 0;
      const bool rebuild_due = quiesces_at(step) && !repartition_due;

      if (repartition_due) {
        ++repartitions;
        core::PartitionerKind kind = cfg_.partitioner;
        if (cfg_.alternate_partitioners && repartitions % 2 == 1)
          kind = core::PartitionerKind::kRib;
        // The list is remapped along with the atoms (Phase D), so only the
        // schedules need regenerating afterwards.
        partition_and_remap(kind, /*remap_list=*/true);
        build_schedules(/*regen=*/false);
      } else if (rebuild_due) {
        rebuild_nb_list();
        build_schedules(/*regen=*/true);
      }

      // Next-iteration gathers are worth hoisting only if the next
      // iteration actually executes without an intervening quiesce
      // (repartition / list rebuild) that would discard them.
      const int next = step + 1;
      executor_step(/*arm_next=*/next < cfg_.run.steps && !quiesces_at(next));
      if (cfg_.autonomic) autonomic_tick();
    }

    // Drain the pipeline: trailing scatters (and hoisted next-iteration
    // gathers) may still be in flight after the last advance. Collectives
    // are charged modeled time and execution_time includes them, so only
    // the three kStepGraph* shapes pay this drain's barrier and the graph
    // statistics' allreduces: the Table 3 shapes keep the collective
    // sequence of the blocking executors they reproduce (their eager graph
    // leaves nothing in flight).
    if (!table3_shape())
      timed(&CharmmPhaseTimes::executor, [&] { graph_.quiesce(); });

    phase_out_[static_cast<size_t>(comm_.rank())] = t_;
    absorb_epoch_stats(dist_);
    report_reuse();
    if (!table3_shape()) report_step_stats();
    if (comm_.rank() == 0) {
      shared_.rebalances = diffusions_ + rebuilds_;
      shared_.diffusions = diffusions_;
      shared_.rebuilds = rebuilds_;
    }
    if (cfg_.collect_state) collect_state();
  }

 private:
  /// Fold one distribution epoch's inspector statistics into the running
  /// totals; called for each epoch before it is retired (its registry may
  /// be compacted away afterwards) and once for the final epoch.
  void absorb_epoch_stats(DistHandle h) {
    const core::IndexHashTable::Stats hs = rt_.hash_stats(h);
    const runtime::ScheduleRegistry::Stats rs = rt_.registry_stats(h);
    translations_ += hs.translations + rs.seed_translations;
    reused_homes_ += hs.reused_homes;
    patched_schedules_ += rs.patched_schedules;
    rebuilt_schedules_ += rs.rebuilt_schedules;
  }

  /// Fold the step graph's pipelining counters and per-step traffic into
  /// the shared result (collective: every rank joins the sums).
  void report_step_stats() {
    const StepGraph::Stats& gs = graph_.stats();
    if (comm_.rank() == 0) {
      shared_.steps_overlapped = gs.overlapped_posts;
      shared_.pipelined_gathers = gs.pipelined_gathers;
      shared_.hazard_stalls = gs.hazard_stalls;
    }
    const auto total = [&](std::uint64_t v) {
      return static_cast<std::uint64_t>(
          comm_.allreduce_sum(static_cast<long long>(v)));
    };
    // Arrival-driven counters depend on modeled arrivals and differ per
    // rank; report machine-wide sums.
    const std::uint64_t fired = total(gs.chunks_fired_early);
    const std::uint64_t wakeups = total(gs.arrival_wakeups);
    const std::uint64_t colors = total(gs.color_classes);
    const std::uint64_t busy = total(gs.pool_busy_ns);
    if (comm_.rank() == 0) {
      shared_.chunks_fired_early = fired;
      shared_.arrival_wakeups = wakeups;
      shared_.color_classes = colors;
      shared_.pool_busy_ns = busy;
    }
    for (std::size_t i = 0; i < graph_.size(); ++i) {
      const Step& s = graph_.at(i);
      ParallelCharmmResult::StepTraffic st;
      st.name = s.name();
      st.gather_msgs = total(s.gather_traffic().messages);
      st.gather_bytes = total(s.gather_traffic().bytes);
      st.write_msgs = total(s.write_traffic().messages);
      st.write_bytes = total(s.write_traffic().bytes);
      if (comm_.rank() == 0) shared_.step_traffic.push_back(std::move(st));
    }
  }

  void report_reuse() {
    const auto total = [&](std::uint64_t v) {
      return static_cast<std::uint64_t>(
          comm_.allreduce_sum(static_cast<long long>(v)));
    };
    const std::uint64_t translations = total(translations_);
    const std::uint64_t reused = total(reused_homes_);
    const std::uint64_t patched = total(patched_schedules_);
    const std::uint64_t rebuilt = total(rebuilt_schedules_);
    if (comm_.rank() == 0) {
      shared_.translations = translations;
      shared_.reused_homes = reused;
      shared_.patched_schedules = patched;
      shared_.rebuilt_schedules = rebuilt;
    }
  }
  template <typename Fn>
  void timed(double CharmmPhaseTimes::*slot, Fn&& fn) {
    // Synchronize phase entry so each bucket measures its own phase rather
    // than absorbing the previous phase's load imbalance as wait time.
    comm_.barrier();
    const double t0 = comm_.now();
    fn();
    t_.*slot += comm_.now() - t0;
  }

  /// Like timed(), but in compiler-generated mode additionally charges the
  /// mechanical overhead of generated code, inside the phase bucket.
  template <typename Fn>
  void timed_with_overhead(double CharmmPhaseTimes::*slot, double factor,
                           Fn&& fn) {
    comm_.barrier();
    const double t0 = comm_.now();
    fn();
    charge_overhead(comm_.now() - t0, factor);
    t_.*slot += comm_.now() - t0;
  }

  /// Charge the mechanical overhead of compiler-generated code for a phase
  /// that just took `seconds` of virtual time.
  void charge_overhead(double seconds, double factor) {
    if (cfg_.compiler_generated && seconds > 0)
      comm_.charge_compute_seconds(seconds * factor);
  }

  /// Assemble all current positions in global-id order (the replicated
  /// geometry both the partitioner and the list builder consume).
  std::vector<part::Point3> gather_all_positions() {
    std::vector<AtomRecord> mine(my_globals_.size());
    for (std::size_t i = 0; i < my_globals_.size(); ++i)
      mine[i] = AtomRecord{my_globals_[i], pos_[i]};
    std::vector<AtomRecord> all = comm_.allgatherv<AtomRecord>(mine);
    std::vector<part::Point3> full(static_cast<size_t>(n_));
    for (const AtomRecord& r : all)
      full[static_cast<size_t>(r.id)] = r.pos;
    return full;
  }

  /// `remap_list` selects Phase D for the non-bonded list: mid-run
  /// redistributions move the list with its atoms (paper §5.3.1 flow);
  /// the initial distribution regenerates it instead (paper §4.1.1: "this
  /// regeneration was performed because atoms were redistributed").
  /// A non-empty `forced_map` (replicated atom -> rank, e.g. from the
  /// diffusion partitioner) is adopted directly as the successor epoch —
  /// the autonomic diffusion arm; `kind` is then unused.
  void partition_and_remap(core::PartitionerKind kind, bool remap_list,
                           std::vector<int> forced_map = {}) {
    // A repartition invalidates in-flight pipelining for the affected
    // arrays: complete it before the epoch machinery starts. The graph
    // itself re-arms in build_schedules() via retarget().
    graph_.quiesce();
    DistHandle new_dist;
    timed_with_overhead(
        &CharmmPhaseTimes::data_partition, kCompilerPartitionOverhead, [&] {
          if (!forced_map.empty()) {
            new_dist = rt_.repartition(dist_, std::move(forced_map));
            return;
          }
          // Weights: the per-atom computational load is dominated by the
          // non-bonded partner count (paper §4.1 Data Partitioning). Before
          // any list exists, a local-density estimate stands in.
          std::vector<double> weights;
          if (!nb_.inblo.empty()) {
            weights.assign(my_globals_.size(), 1.0);
            for (std::size_t r = 0; r + 1 < nb_.inblo.size(); ++r)
              weights[r] = 2.0 + static_cast<double>(nb_.inblo[r + 1] -
                                                     nb_.inblo[r]);
          } else {
            std::vector<part::Point3> full = gather_all_positions();
            weights = estimate_atom_load(full, my_globals_,
                                         cfg_.system.cutoff, cfg_.system.box);
            comm_.charge_work(static_cast<double>(my_globals_.size()) * 10.0);
          }
          std::vector<part::Point3> points(
              pos_.begin(),
              pos_.begin() + static_cast<std::ptrdiff_t>(my_globals_.size()));
          new_dist = rt_.repartition(dist_, kind, points, weights);
        });

    timed_with_overhead(
        &CharmmPhaseTimes::remap_preproc, kCompilerRemapOverhead, [&] {
          const ScheduleHandle remap = rt_.plan_remap(dist_, new_dist);
          std::vector<part::Point3> new_pos = rt_.remap<part::Point3>(
              remap, {pos_.data(), my_globals_.size()});
          std::vector<part::Vec3> new_vel = rt_.remap<part::Vec3>(
              remap, {vel_.data(), my_globals_.size()});
          const TranslationTable& new_tt = rt_.dist(new_dist).table();
          const GlobalIndex new_owned = rt_.owned_count(new_dist);

          // Phase D, iteration remapping: each atom's non-bonded list row
          // (a variable-length iteration record) travels to the atom's new
          // owner, so the list is *moved*, not rebuilt (paper §4.1,
          // "indirection arrays remapping").
          NonbondedList moved;
          if (remap_list && !nb_.inblo.empty()) {
            std::vector<std::vector<GlobalIndex>> streams(
                static_cast<size_t>(comm_.size()));
            double words = 0;
            for (std::size_t r = 0; r + 1 < nb_.inblo.size(); ++r) {
              const GlobalIndex atom = my_globals_[r];
              const int dest = new_tt.lookup_local(atom).proc;
              auto& s = streams[static_cast<size_t>(dest)];
              s.push_back(atom);
              s.push_back(nb_.inblo[r + 1] - nb_.inblo[r]);
              for (GlobalIndex at = nb_.inblo[r]; at < nb_.inblo[r + 1]; ++at)
                s.push_back(nb_.jnb[static_cast<size_t>(at)]);
              words += 2.0 + static_cast<double>(nb_.inblo[r + 1] -
                                                 nb_.inblo[r]);
            }
            comm_.charge_work(words * core::costs::kPackWord);
            std::vector<std::vector<GlobalIndex>> in = comm_.alltoallv(streams);

            // Reassemble rows in the new owned order.
            std::vector<std::pair<GlobalIndex, std::vector<GlobalIndex>>> rows;
            for (auto& stream : in) {
              std::size_t at = 0;
              while (at < stream.size()) {
                const GlobalIndex atom = stream[at++];
                const GlobalIndex len = stream[at++];
                std::vector<GlobalIndex> partners(
                    stream.begin() + static_cast<std::ptrdiff_t>(at),
                    stream.begin() + static_cast<std::ptrdiff_t>(at) +
                        static_cast<std::ptrdiff_t>(len));
                at += static_cast<std::size_t>(len);
                rows.emplace_back(atom, std::move(partners));
              }
            }
            std::sort(rows.begin(), rows.end(),
                      [&](const auto& a, const auto& b) {
                        return new_tt.lookup_local(a.first).offset <
                               new_tt.lookup_local(b.first).offset;
                      });
            moved.inblo.push_back(0);
            for (auto& [atom, partners] : rows) {
              moved.jnb.insert(moved.jnb.end(), partners.begin(),
                               partners.end());
              moved.inblo.push_back(
                  static_cast<GlobalIndex>(moved.jnb.size()));
            }
            CHAOS_CHECK(moved.rows() ==
                            static_cast<std::size_t>(new_owned),
                        "remapped list must cover every owned atom");
          }

          pos_ = std::move(new_pos);
          vel_ = std::move(new_vel);

          // Distribution epoch changed: retire the old one (its inspector
          // state and every handle bound to it become invalid; the remapped
          // list survives and schedules are regenerated below). Its reuse
          // counters are absorbed first — the registry may be compacted.
          absorb_epoch_stats(dist_);
          rt_.retire(dist_);
          dist_ = new_dist;
          my_globals_ = rt_.owned_globals(dist_);
          nb_ = std::move(moved);

          // Iteration partitioning for the bonded loop (Phases C+D):
          // topology is replicated, so the assignment (majority owner; for
          // two references, the first one's owner) is computed locally.
          my_bonds_.clear();
          for (const auto& [i, j] : sys_.bonds) {
            if (new_tt.lookup_local(i).proc == comm_.rank())
              my_bonds_.emplace_back(i, j);
          }
          comm_.charge_work(static_cast<double>(sys_.bonds.size()) * 2.0);
        });
  }

  void rebuild_nb_list() {
    timed(&CharmmPhaseTimes::nb_list, [&] {
      std::vector<part::Point3> full = gather_all_positions();
      NeighborBuildStats stats;
      nb_ = build_nonbonded_list(full, my_globals_, cfg_.system.cutoff,
                                 cfg_.system.box, &stats, sys_.bonds);
      comm_.charge_work(static_cast<double>(stats.candidates_examined) *
                        kWorkPerPairCheck);
      ++t_.nb_rebuilds;
    });
  }

  /// Both the hand-written and the compiler-generated paths run through the
  /// runtime's schedule registry: the indirection arrays carry modification
  /// records, the registry recycles stamps on rebuild and reuses unchanged
  /// entries (hash hits skip translation, paper §3.2.2). The paths differ
  /// only in schedule shape (merged vs separate, Table 3) and in the
  /// mechanical overheads the compiler mode charges (Table 6).
  void build_schedules(bool regen) {
    timed(regen ? &CharmmPhaseTimes::schedule_regen
                : &CharmmPhaseTimes::schedule_gen,
          [&] {
            // Re-inspection rebuilds schedules in place; any pipelined
            // operation still posted on them must complete first.
            graph_.quiesce();
            const ScheduleHandle prev[] = {h_bond_, h_nb_, h_all_, h_nb_excl_};
            const double t0 = comm_.now();
            if (!regen) {
              // Fresh distribution epoch: rebind both loops and refresh the
              // (static per-epoch) bonded refs.
              std::vector<GlobalIndex> brefs;
              brefs.reserve(my_bonds_.size() * 2);
              for (const auto& [i, j] : my_bonds_) {
                brefs.push_back(i);
                brefs.push_back(j);
              }
              bond_ind_.assign(std::move(brefs));
              bond_loop_ = rt_.bind(dist_, bond_ind_);
              jnb_loop_ = rt_.bind(dist_, jnb_ind_);
            }
            jnb_ind_.assign(
                std::vector<GlobalIndex>(nb_.jnb.begin(), nb_.jnb.end()));

            h_bond_ = rt_.inspect(bond_loop_);
            h_nb_ = rt_.inspect(jnb_loop_);
            bond_refs_ = rt_.local_refs(bond_loop_);
            jnb_local_ = rt_.local_refs(jnb_loop_);

            if (shape() == CharmmShape::kMerged) {
              h_all_ = rt_.merge({h_bond_, h_nb_});
            } else if (table3_shape()) {
              // Disjoint complement used for the scatter direction so
              // overlapping ghost contributions are delivered exactly once
              // (the multiple and engine-coalesced shapes, which share one
              // accumulator between the loops).
              h_nb_excl_ = rt_.incremental(h_nb_, h_bond_);
            }
            extent_ = rt_.local_extent(dist_);
            pos_.resize(static_cast<size_t>(extent_));
            force_.assign(static_cast<size_t>(extent_), part::Vec3{});
            if (!table3_shape())
              force_bond_.assign(static_cast<size_t>(extent_), part::Vec3{});
            if (shape() == CharmmShape::kStepGraphArrival)
              build_chunk_pairs();
            charge_overhead(comm_.now() - t0, kCompilerInspectorOverhead);

            // Re-arm the step graph onto the (possibly repartitioned)
            // epoch's schedules: the declared steps, computes, and array
            // bindings survive — only the handles are swapped.
            const ScheduleHandle now[] = {h_bond_, h_nb_, h_all_, h_nb_excl_};
            for (std::size_t i = 0; i < std::size(now); ++i)
              if (!(prev[i] == now[i])) graph_.retarget(prev[i], now[i]);
          });
  }

  /// One autonomic sample per simulation step. When the policy's window
  /// closes hot, diffusion shifts whole atoms (highest global ids off the
  /// hot rank, so surviving owners keep ascending-id prefixes and the
  /// schedule registry can patch/carry instead of rebuild) and the
  /// non-bonded list rows travel with their atoms; a rebuild runs the
  /// configured partitioner on current positions/loads. Decisions are
  /// computed from replicated windows — identical on every rank.
  void autonomic_tick() {
    using balance::Action;
    monitor_->sample(nullptr, &rt_.engine());
    if (!monitor_->window_full()) return;
    const balance::Window w = monitor_->close();
    Action a = policy_->decide(w);
    if (a == Action::kNone) return;

    const double t0 = comm_.now();
    std::vector<int> forced;
    if (a == Action::kDiffuse) {
      // Replicated per-atom weights (the §4.1 partner-count model) give
      // the mover exact bookkeeping on skewed partner counts.
      std::vector<double> atom_w(my_globals_.size(), 1.0);
      for (std::size_t r = 0; r < atom_w.size() && r + 1 < nb_.inblo.size(); ++r)
        atom_w[r] = 2.0 + static_cast<double>(nb_.inblo[r + 1] - nb_.inblo[r]);
      part::DiffusionResult diff = balance::diffuse_replicated(
          comm_, rt_.dist(dist_).map(), my_globals_, atom_w, w.load,
          policy_->config().target_balance);
      if (diff.moved == 0) {
        a = Action::kRebuild;  // nothing diffusible: fall back to a rebuild
      } else {
        forced = std::move(diff.map);
      }
    }
    partition_and_remap(cfg_.partitioner, /*remap_list=*/true,
                        std::move(forced));
    build_schedules(/*regen=*/false);
    if (a == Action::kDiffuse)
      ++diffusions_;
    else
      ++rebuilds_;
    policy_->note_cost(comm_.now() - t0);
  }

  /// True when simulation step `s` begins with a pipeline quiesce: a
  /// periodic repartition or a non-bonded list rebuild. The single source
  /// of the cadence — both the per-step dispatch and the graph's
  /// next-iteration arm prediction derive from it.
  bool quiesces_at(int s) const {
    if (s <= 0) return false;
    return (!cfg_.autonomic && cfg_.repartition_every > 0 &&
            s % cfg_.repartition_every == 0) ||
           (s % cfg_.run.nb_rebuild_every == 0);
  }

  /// Effective executor shape. The compiler-generated path keeps the
  /// historical separate schedules (Table 6 measures generated code, not
  /// the engine or the pipelined graph).
  CharmmShape shape() const {
    if (cfg_.compiler_generated) return CharmmShape::kMultiple;
    return cfg_.shape;
  }

  /// The Table 3 shapes: merged, multiple and engine. They sum both force
  /// loops into one accumulator, while the kStepGraph* shapes give the
  /// bonded step its own (`force_bond_`, left empty here).
  bool table3_shape() const {
    return shape() == CharmmShape::kMerged ||
           shape() == CharmmShape::kMultiple ||
           shape() == CharmmShape::kEngine;
  }

  /// Declare the force cycle as a step graph: each step binds its array
  /// accesses as typed views (in/sum/use/update — the step's lang::Access
  /// sets are inferred from the bindings) and the runtime schedules the
  /// communication. Every shape is such a declaration.
  ///
  /// The Table 3 shapes run eagerly with one accumulator for both loops,
  /// one post/flush/wait per batch like the blocking executors they
  /// reproduce: merged rides one merged schedule; multiple sends one batch
  /// per schedule (bonded gather, non-bonded gather, bonded scatter, then
  /// the non-bonded scatter through the disjoint complement `h_nb_excl_`);
  /// engine posts both loops' schedules into one batch per direction.
  ///
  /// The kStepGraph* shapes give the bonded step its own accumulator
  /// (`force_bond_`), so the two force steps touch disjoint arrays: the
  /// non-bonded gather of `pos_` posts at iteration start, and the bonded
  /// scatter-add of `force_bond_` stays in flight across the whole
  /// non-bonded compute — both overlaps the dependence analysis derives,
  /// while the integrate step's declared reads force both scatters to
  /// deliver first.
  void declare_graph() {
    // Dogfood the static analyzer: every shipped graph arms strict, so a
    // declaration defect fails fast here, not as a downstream data race.
    graph_.set_strict(true);
    graph_.set_pipelining(shape() == CharmmShape::kStepGraph ||
                          shape() == CharmmShape::kStepGraphArrival);
    const auto forces = [this] {
      std::fill(force_.begin(), force_.end(), part::Vec3{});
      bonded_into(force_);
      nonbonded_into(force_);
    };
    switch (shape()) {
      case CharmmShape::kMerged:
        graph_.step("forces")
            .bind(in(pos_).via(h_all_).named("pos"),
                  sum(force_).via(h_all_).named("force"))
            .compute(forces);
        break;
      case CharmmShape::kMultiple:
        graph_.step("bonded_gather").bind(in(pos_).via(h_bond_).named("pos"));
        graph_.step("forces")
            .bind(in(pos_).via(h_nb_).named("pos"),
                  sum(force_).via(h_bond_).named("force"))
            .compute(forces);
        graph_.step("nonbonded_scatter")
            .bind(sum(force_).via(h_nb_excl_).named("force"));
        break;
      case CharmmShape::kEngine:
        graph_.step("forces")
            .bind(in(pos_).via(h_bond_).named("pos"),
                  in(pos_).via(h_nb_).named("pos"),
                  sum(force_).via(h_bond_).named("force"),
                  sum(force_).via(h_nb_excl_).named("force"))
            .compute(forces);
        break;
      case CharmmShape::kStepGraph:
      case CharmmShape::kStepGraphEager:
      case CharmmShape::kStepGraphArrival: {
        graph_.step("bonded")
            .bind(in(pos_).via(h_bond_).named("pos"),
                  sum(force_bond_).via(h_bond_).named("force_bond"))
            .compute([this] {
              std::fill(force_bond_.begin(), force_bond_.end(), part::Vec3{});
              bonded_into(force_bond_);
            });
        Step& nonbonded = graph_.step("nonbonded")
                              .bind(in(pos_).via(h_nb_).named("pos"),
                                    sum(force_).via(h_nb_).named("force"));
        if (shape() == CharmmShape::kStepGraphArrival) {
          // Message-driven arm: the pair list is split by the peer owning
          // the off-processor partner, and each chunk fires once that
          // peer's ghost positions have landed by the rank's modeled clock.
          // The chunks all accumulate into force_ (conflicted — a pair's
          // own-atom row is shared across chunks), so they fire one at a
          // time in canonical order and the forces are bitwise identical
          // run to run.
          nonbonded.compute([this] {
            std::fill(force_.begin(), force_.end(), part::Vec3{});
          });
          nonbonded.compute_chunks(
              [this](ChunkContext& ctx) { nonbonded_chunk(ctx); });
          graph_.set_arrival_driven(true);
        } else {
          nonbonded.compute([this] {
            std::fill(force_.begin(), force_.end(), part::Vec3{});
            nonbonded_into(force_);
          });
        }
        break;
      }
    }
    Step& integrate = graph_.step("integrate").bind(use(force_).named("force"));
    if (!table3_shape())
      integrate.bind(use(force_bond_).named("force_bond"));
    integrate.bind(update(pos_).named("pos"), update(vel_).named("vel"))
        .compute([this] { integrate_atoms(); });
  }

  /// Bonded force loop (Figure 10 shape, localized indices), accumulating
  /// into `acc`.
  void bonded_into(std::vector<part::Vec3>& acc) {
    const double box = cfg_.system.box;
    for (std::size_t b = 0; b + 1 < bond_refs_.size(); b += 2) {
      const GlobalIndex li = bond_refs_[b];
      const GlobalIndex lj = bond_refs_[b + 1];
      const part::Vec3 f =
          bond_force(pos_[static_cast<size_t>(li)],
                     pos_[static_cast<size_t>(lj)], box);
      acc[static_cast<size_t>(li)] = acc[static_cast<size_t>(li)] + f;
      acc[static_cast<size_t>(lj)] = acc[static_cast<size_t>(lj)] - f;
    }
    comm_.charge_work(static_cast<double>(my_bonds_.size()) * kWorkPerBond);
  }

  /// Partition the non-bonded list by the peer owning the partner atom
  /// (the recv block its ghost slot lands through): partners that are
  /// owned or self-block ghosts go to the local chunk (peer -1), the rest
  /// to their source peer's chunk. Rebuilt whenever the list or the
  /// schedule changes — both land in build_schedules.
  void build_chunk_pairs() {
    chunk_lists_.clear();
    // Ghost slot -> source peer, from the non-bonded schedule's recv
    // blocks (slot indices are local).
    std::vector<int> src(static_cast<std::size_t>(extent_), -1);
    const int me = comm_.rank();
    for (const core::ScheduleBlock& b : rt_.schedule(h_nb_).recv_blocks()) {
      if (b.proc == me) continue;
      for (GlobalIndex idx : b.indices)
        src[static_cast<std::size_t>(idx)] = b.proc;
    }
    for (std::size_t r = 0; r + 1 < nb_.inblo.size(); ++r) {
      for (GlobalIndex at = nb_.inblo[r]; at < nb_.inblo[r + 1]; ++at) {
        const GlobalIndex lj = jnb_local_[static_cast<size_t>(at)];
        const int peer = src[static_cast<std::size_t>(lj)];
        auto c = std::find_if(chunk_lists_.begin(), chunk_lists_.end(),
                              [&](const auto& pl) { return pl.first == peer; });
        if (c == chunk_lists_.end()) {  // rows 0 .. r-1 are empty
          chunk_lists_.emplace_back(peer, NonbondedList{});
          c = chunk_lists_.end() - 1;
          c->second.inblo.assign(r + 1, 0);
        }
        c->second.jnb.push_back(lj);
      }
      for (auto& [peer, list] : chunk_lists_)
        list.inblo.push_back(static_cast<GlobalIndex>(list.jnb.size()));
    }
  }

  /// One arrival-driven chunk of the non-bonded loop: the pairs whose
  /// partner came from this chunk's peer. Work is charged through the
  /// context, not the Comm (thread-safety contract for chunk callbacks).
  void nonbonded_chunk(ChunkContext& ctx) {
    for (const auto& [peer, list] : chunk_lists_) {
      if (peer != ctx.chunk().peer) continue;
      nonbonded_rows(pos_.data(), force_.data(), list.inblo, list.jnb.data(),
                     cfg_.system.cutoff, cfg_.system.box);
      ctx.charge(static_cast<double>(list.pairs()) * kWorkPerNonbonded);
      return;
    }
    // No chunk: the peer gathered only bonded ghosts.
  }

  /// Non-bonded loop: outer iteration r is the owned atom at offset r.
  void nonbonded_into(std::vector<part::Vec3>& acc) {
    nonbonded_rows(pos_.data(), acc.data(), nb_.inblo, jnb_local_.data(),
                   cfg_.system.cutoff, cfg_.system.box);
    comm_.charge_work(static_cast<double>(nb_.pairs()) * kWorkPerNonbonded);
  }

  /// The total force on owned atom `r`: the kStepGraph* shapes split it
  /// between the two force steps' accumulators (the split is what lets
  /// their scatters pipeline).
  part::Vec3 total_force(std::size_t r) const {
    return table3_shape() ? force_[r] : force_[r] + force_bond_[r];
  }

  void integrate_atoms() {
    const double box = cfg_.system.box;
    const double dt = cfg_.run.dt;
    for (std::size_t r = 0; r < my_globals_.size(); ++r) {
      vel_[r] = vel_[r] + total_force(r) * dt;
      pos_[r] = pos_[r] + vel_[r] * dt;
      for (int a = 0; a < 3; ++a) {
        while (pos_[r][a] >= box) pos_[r][a] -= box;
        while (pos_[r][a] < 0) pos_[r][a] += box;
      }
    }
    comm_.charge_work(static_cast<double>(my_globals_.size()) *
                      kWorkPerIntegrate);
  }

  /// One declared-graph iteration; the graph posts/waits communication per
  /// its own dependence analysis. Generated code (Table 6) guards every
  /// irregular loop execution with a modification-record check (a global
  /// agreement) and is charged its mechanical overhead.
  void executor_step(bool arm_next) {
    timed(&CharmmPhaseTimes::executor, [&] {
      const double t0 = comm_.now();
      if (cfg_.compiler_generated) {
        (void)rt_.inspect(bond_loop_);
        (void)rt_.inspect(jnb_loop_);
      }
      graph_.advance(arm_next);
      charge_overhead(comm_.now() - t0, kCompilerExecutorOverhead);
    });
  }

  void collect_state() {
    std::vector<StateRecord> mine(my_globals_.size());
    for (std::size_t i = 0; i < my_globals_.size(); ++i) {
      mine[i] = StateRecord{my_globals_[i], pos_[i], total_force(i)};
    }
    std::vector<StateRecord> all = comm_.allgatherv<StateRecord>(mine);
    if (comm_.rank() == 0) {
      shared_.pos.resize(static_cast<size_t>(n_));
      shared_.force.resize(static_cast<size_t>(n_));
      for (const StateRecord& r : all) {
        shared_.pos[static_cast<size_t>(r.id)] = r.pos;
        shared_.force[static_cast<size_t>(r.id)] = r.force;
      }
    }
  }

  sim::Comm& comm_;
  const ParallelCharmmConfig& cfg_;
  std::vector<CharmmPhaseTimes>& phase_out_;
  ParallelCharmmResult& shared_;

  Runtime rt_;
  StepGraph graph_;  // declared once the first schedules exist
  MolecularSystem sys_;
  GlobalIndex n_;
  DistHandle dist_;
  std::vector<GlobalIndex> my_globals_;
  std::vector<part::Point3> pos_;  // owned + ghost
  std::vector<part::Vec3> vel_;    // owned only
  std::vector<part::Vec3> force_;  // owned + ghost
  std::vector<part::Vec3> force_bond_;  // kStepGraph*: bonded accumulator
  std::vector<std::pair<GlobalIndex, GlobalIndex>> my_bonds_;

  NonbondedList nb_;  // rows = my_globals_

  /// Arrival-shape partition of the non-bonded list: (peer, list) pairs,
  /// peer -1 for the local pairs. Each list has a row per owned atom and
  /// localized partners, in nb_ order.
  std::vector<std::pair<int, NonbondedList>> chunk_lists_;

  // Irregular-loop descriptors: two indirection arrays (bonded refs,
  // non-bonded partners) and their runtime handles.
  lang::IndirectionArray bond_ind_, jnb_ind_;
  LoopHandle bond_loop_, jnb_loop_;
  ScheduleHandle h_bond_, h_nb_, h_all_, h_nb_excl_;
  std::span<const GlobalIndex> bond_refs_;  // localized (ib,jb) pairs
  std::span<const GlobalIndex> jnb_local_;  // localized partners
  GlobalIndex extent_ = 0;

  // Cross-epoch reuse totals, accumulated per epoch (this rank).
  std::uint64_t translations_ = 0;
  std::uint64_t reused_homes_ = 0;
  std::uint64_t patched_schedules_ = 0;
  std::uint64_t rebuilt_schedules_ = 0;

  // Autonomic mode (cfg_.autonomic): telemetry + decisions, and replicated
  // counts of the rebalances that fired.
  std::unique_ptr<balance::Policy> policy_;
  std::unique_ptr<balance::Monitor> monitor_;
  int diffusions_ = 0;
  int rebuilds_ = 0;

  CharmmPhaseTimes t_;
};

}  // namespace

ParallelCharmmResult run_parallel_charmm(sim::Machine& machine,
                                         const ParallelCharmmConfig& cfg) {
  ParallelCharmmResult result;
  std::vector<CharmmPhaseTimes> phases(
      static_cast<size_t>(machine.size()));
  machine.run([&](sim::Comm& comm) {
    Driver d(comm, cfg, phases, result);
    d.run();
  });

  for (const CharmmPhaseTimes& p : phases) {
    result.phases.data_partition =
        std::max(result.phases.data_partition, p.data_partition);
    result.phases.nb_list = std::max(result.phases.nb_list, p.nb_list);
    result.phases.remap_preproc =
        std::max(result.phases.remap_preproc, p.remap_preproc);
    result.phases.schedule_gen =
        std::max(result.phases.schedule_gen, p.schedule_gen);
    result.phases.schedule_regen =
        std::max(result.phases.schedule_regen, p.schedule_regen);
    result.phases.executor = std::max(result.phases.executor, p.executor);
    result.phases.nb_rebuilds = std::max(result.phases.nb_rebuilds,
                                         p.nb_rebuilds);
  }
  result.execution_time = machine.execution_time();
  result.computation_time = machine.mean_compute_time();
  result.communication_time = machine.mean_comm_time();
  result.load_balance = machine.load_balance();
  for (int r = 0; r < machine.size(); ++r) {
    const sim::RankStats& s = machine.stats(r);
    result.msgs_sent += s.msgs_sent;
    result.coalesced_msgs += s.coalesced_msgs_sent;
    result.coalesced_segments += s.coalesced_segments;
  }
  return result;
}

}  // namespace chaos::charmm
