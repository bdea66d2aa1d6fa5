#include "core/parallel_partition.hpp"

#include <algorithm>
#include <numeric>

#include "util/check.hpp"

namespace chaos::core {

const char* partitioner_name(PartitionerKind kind) {
  switch (kind) {
    case PartitionerKind::kBlock:
      return "block";
    case PartitionerKind::kRcb:
      return "rcb";
    case PartitionerKind::kRib:
      return "rib";
    case PartitionerKind::kChain:
      return "chain";
  }
  return "?";
}

namespace {

struct ElementRecord {
  GlobalIndex id;
  part::Point3 point;
  double weight;
};

// The weighted-median searches of parallel recursive bisection: each of the
// log2(P) levels runs a handful of machine-wide reductions of per-processor
// weight counts (payload proportional to P). Data content is irrelevant
// (the partition itself is computed deterministically below); the
// collectives charge the model what the parallel algorithm pays — this is
// the P-growing term that makes recursive bisection lose to the chain
// partitioner at scale (Tables 2 and 5).
void charge_bisection_rounds(sim::Comm& comm) {
  const int levels = sim::hypercube_steps(comm.size());
  constexpr int kMedianIterations = 24;
  for (int l = 0; l < levels; ++l)
    for (int it = 0; it < kMedianIterations; ++it)
      (void)comm.allgather(0.0);
}

}  // namespace

std::vector<int> parallel_partition(sim::Comm& comm, PartitionerKind kind,
                                    std::span<const GlobalIndex> my_ids,
                                    std::span<const part::Point3> my_points,
                                    std::span<const double> my_weights,
                                    GlobalIndex n_total) {
  CHAOS_CHECK(my_points.size() == my_ids.size());
  CHAOS_CHECK(my_weights.empty() || my_weights.size() == my_ids.size());
  const int P = comm.size();

  if (kind == PartitionerKind::kBlock) {
    part::BlockLayout l(n_total > 0 ? n_total : 1, P);
    std::vector<int> map(static_cast<size_t>(n_total));
    for (GlobalIndex g = 0; g < n_total; ++g)
      map[static_cast<size_t>(g)] = l.owner(g);
    return map;
  }

  // Everyone contributes its element records. The replication is a harness
  // device (each rank computes the identical partition deterministically);
  // the real parallel partitioners keep data distributed, so this exchange
  // is not charged — the algorithms' communication is charged analytically
  // below.
  std::vector<ElementRecord> mine(my_ids.size());
  for (std::size_t i = 0; i < my_ids.size(); ++i)
    mine[i] = ElementRecord{my_ids[i], my_points[i],
                            my_weights.empty() ? 1.0 : my_weights[i]};
  std::vector<ElementRecord> all =
      comm.allgatherv_unmodeled<ElementRecord>(mine);
  CHAOS_CHECK(static_cast<GlobalIndex>(all.size()) == n_total,
              "contributed elements do not cover the index space");

  // Canonical order by global id so every rank computes the same result.
  std::sort(all.begin(), all.end(),
            [](const ElementRecord& a, const ElementRecord& b) {
              return a.id < b.id;
            });
  std::vector<part::Point3> points(all.size());
  std::vector<double> weights(all.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    CHAOS_CHECK(all[i].id == static_cast<GlobalIndex>(i),
                "element ids must form a dense range");
    points[i] = all[i].point;
    weights[i] = all[i].weight;
  }

  std::vector<int> map;
  switch (kind) {
    case PartitionerKind::kRcb:
    case PartitionerKind::kRib: {
      const bool inertial = (kind == PartitionerKind::kRib);
      map = inertial ? part::recursive_inertial_bisection(points, weights, P)
                     : part::recursive_coordinate_bisection(points, weights, P);
      comm.charge_work(
          part::bisection_work_units(points.size(), P, inertial) /
          static_cast<double>(P));
      charge_bisection_rounds(comm);
      // Per-level element redistribution of the parallel bisection
      // implementation: empirically ~linear in P and proportional to the
      // element count. The constant is calibrated so the CHARMM partition
      // row reproduces the paper's Table 2; the same constant then predicts
      // the Table 5 crossover (recursive bisection losing to static
      // partitioning at P = 128).
      constexpr double kBisectionCommPerProcSecond = 0.012;
      comm.charge_comm_seconds(kBisectionCommPerProcSecond * P *
                               static_cast<double>(n_total) / 14026.0);
      break;
    }
    case PartitionerKind::kChain: {
      const std::vector<std::size_t> bounds =
          part::chain_partition(weights, P);
      map.assign(static_cast<size_t>(n_total), 0);
      for (int p = 0; p < P; ++p)
        for (std::size_t g = bounds[static_cast<size_t>(p)];
             g < bounds[static_cast<size_t>(p) + 1]; ++g)
          map[g] = p;
      comm.charge_work(part::chain_work_units(weights.size(), P) /
                       static_cast<double>(P));
      // One small reduction to agree on total load; that is all the chain
      // partitioner needs beyond the gathered weights.
      (void)comm.allreduce_sum(0.0);
      return map;
    }
    case PartitionerKind::kBlock:
      break;  // handled above
  }
  return map;
}

}  // namespace chaos::core
