#include "lang/forall.hpp"

#include "comm/engine.hpp"
#include "core/hash_table.hpp"
#include "core/schedule.hpp"

namespace chaos::lang {

std::vector<GlobalIndex> recompute_row_sizes(
    sim::Comm& comm, const Distribution& rows_dist,
    std::span<const GlobalIndex> dest_rows) {
  // Fresh inspector every call: the destination rows are new data each
  // step, so nothing can be reused (the compiler cannot know that counts
  // were already available from the migration primitive).
  core::IndexHashTable hash(rows_dist.owned_count(comm.rank()));
  std::vector<GlobalIndex> refs(dest_rows.begin(), dest_rows.end());
  const core::Stamp s = hash.hash(comm, rows_dist.table(), refs);
  core::Schedule sched =
      core::build_schedule(comm, hash, core::StampExpr::only(s));

  std::vector<GlobalIndex> counts(static_cast<size_t>(hash.local_extent()),
                                  0);
  for (GlobalIndex r : refs) ++counts[static_cast<size_t>(r)];
  comm.charge_work(static_cast<double>(refs.size()) * 1.0);
  // Executed once: run the schedule verbatim rather than lowering it.
  const compile::SchedulePlan plan = compile::SchedulePlan::verbatim(sched);
  comm::Engine engine(comm);
  engine.wait(engine.post_scatter_add<GlobalIndex>(
      sched, std::span<GlobalIndex>{counts}, plan));

  counts.resize(static_cast<size_t>(rows_dist.owned_count(comm.rank())));
  return counts;
}

}  // namespace chaos::lang
