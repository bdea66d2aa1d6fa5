// REDUCE intrinsics (paper §5.2): the executor templates the Fortran 90D
// compiler would emit for the APPEND loop pattern the paper compiles. The
// SUM pattern lives on the typed API (chaos::forall / forall_reduce_sum in
// lang/array.hpp).
//
// REDUCE(APPEND, rows(ind(j)), item):   reduce_append
//   Lowering: the append target is placement-order independent, so the
//   compiler emits light-weight schedule calls: map each item's destination
//   row to its owning processor (replicated distribution lookup — no
//   inspector), build a LightweightSchedule, scatter_append.
//   `recompute_row_sizes` is the extra loop the compiler generates to
//   recover per-row counts (Figure 11 L2/L3) — the communication the
//   hand-written version avoids because CHAOS's migration primitive
//   returns counts directly (paper §5.3.2).
#pragma once

#include <span>
#include <vector>

#include "core/lightweight.hpp"
#include "lang/distribution.hpp"

namespace chaos::lang {

/// REDUCE(APPEND, ...) lowering: move `items` to the processors owning
/// their destination rows (`dest_rows[i]` is the global row id of item i
/// under `rows_dist`) and append arrivals to `out`. Returns nothing else —
/// per-row counts must be recomputed separately, which is exactly what the
/// compiler-generated DSMC code does (see recompute_row_sizes).
template <typename T>
void reduce_append(sim::Comm& comm, const Distribution& rows_dist,
                   std::span<const GlobalIndex> dest_rows,
                   std::span<const T> items, std::vector<T>& out) {
  CHAOS_CHECK(dest_rows.size() == items.size(),
              "one destination row per item");
  std::vector<int> dest_proc(dest_rows.size());
  for (std::size_t i = 0; i < dest_rows.size(); ++i)
    dest_proc[i] = rows_dist.table().lookup_local(dest_rows[i]).proc;
  comm.charge_work(static_cast<double>(dest_rows.size()) *
                   core::costs::kTranslateLocal);

  auto sched = core::LightweightSchedule::build(comm, dest_proc);
  core::scatter_append<T>(comm, sched, items, out);
}

/// The compiler-generated size-recovery loop (Figure 11, loops L2+L3):
/// new_size(icell(i,j)) += 1, parallelized as an irregular scatter_add over
/// the rows distribution. Because the destination pattern changes every
/// step, the inspector runs every call — this is the extra preprocessing
/// and communication that makes the compiled DSMC slower than the manual
/// version in Table 7.
std::vector<GlobalIndex> recompute_row_sizes(
    sim::Comm& comm, const Distribution& rows_dist,
    std::span<const GlobalIndex> dest_rows);

}  // namespace chaos::lang
