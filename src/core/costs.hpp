// Work-unit charges for CHAOS runtime primitives.
//
// The simulated machine (sim::CostModel) converts abstract work units to
// virtual seconds. The constants below encode the *relative* costs the
// paper's measurements imply: hashing a new index (memory allocation +
// translation) is several times more expensive than re-finding an existing
// one; schedule generation touches every matching entry once; packing an
// element for transport is cheap per byte. Benchmarks that reproduce the
// paper's tables are sensitive only to these ratios, not absolute values.
#pragma once

#include <cstddef>
#include <cstdint>

namespace chaos::core::costs {

/// Hashing an index that was not yet in the table (insert + slot
/// assignment; excludes translation).
inline constexpr double kHashInsert = 10.0;

/// Re-hashing an index already present (probe + stamp update) — cheaper
/// than an insert because translation is skipped, but not free: the
/// paper's own Table 2 (regeneration ~83% of initial generation per event)
/// pins the ratio.
inline constexpr double kHashHit = 8.0;

/// One translation-table lookup when the table is replicated (local array
/// access).
inline constexpr double kTranslateLocal = 3.0;

/// Per-query work on both sides of a distributed translation-table lookup
/// (the communication itself is charged by the machine).
inline constexpr double kTranslateRemote = 6.0;

/// Scanning one hash-table entry during schedule generation.
inline constexpr double kScheduleEntry = 5.0;

/// Packing or unpacking one element for transport (per 8-byte word).
inline constexpr double kPackWord = 0.4;

/// Building one entry of a light-weight schedule (a counter increment and a
/// bucket append; no hashing, no translation).
inline constexpr double kLightweightEntry = 1.2;

// ---- Cross-epoch reuse (patching instead of rebuilding) --------------------
//
// After a repartition, preprocessing products of the previous epoch are
// patched where the owner delta permits instead of being rebuilt from
// scratch. The patched paths touch the same data but skip translation,
// request exchange, and per-entry bookkeeping; their charges are
// correspondingly lower than the cold-build constants above.

/// Scanning one element while computing an owner delta or applying a
/// translation-table patch (a compare + conditional write; no hashing, no
/// allocation — vs. 2.0 work units per element for a cold table build).
inline constexpr double kDeltaScan = 0.25;

/// Re-deriving the Home of one *moved* element during a table patch.
inline constexpr double kPatchMove = 2.0;

/// Seeding one reference into the next epoch's hash table when the entry is
/// already present (probe + stamp OR; no translation).
inline constexpr double kSeedHit = 2.0;

/// Seeding one reference whose entry must be inserted but whose Home is
/// carried forward from the previous epoch (insert + slot assignment,
/// translation skipped — vs. kHashInsert + a translation for a cold build).
inline constexpr double kSeedInsert = 6.0;

/// Rewriting one index of a carried-forward schedule (recv-side ghost-slot
/// remap; no request exchange — vs. kScheduleEntry plus the alltoallv for a
/// cold schedule generation).
inline constexpr double kSchedulePatchEntry = 1.0;

/// Pack/unpack work for `elements` items of `elem_bytes` each (whole-word
/// granularity, matching the per-word copy loops of the executor).
inline double pack_work(std::size_t elements, std::size_t elem_bytes) {
  const double words = static_cast<double>((elem_bytes + 7) / 8);
  return static_cast<double>(elements) * words * kPackWord;
}

// ---- Compiled schedules (segment copies instead of indexed loops) ----------
//
// A compiled SchedulePlan (compile/schedule_plan.hpp) replaces the
// per-element indexed pack loop with segment ops: memcpy for contiguous
// runs, strided block copies otherwise, an index list for the residue. A
// bulk copy streams at memory bandwidth where the indexed loop pays an
// address computation, a bounds check, and a dependent load per element —
// the 4x ratio between kSegmentWord and kPackWord encodes that gap
// (conservative against measured memcpy-vs-gather-loop ratios on cached
// data). Residue elements still pay the element-loop rate (kPackWord),
// and a verbatim plan (a schedule run as written) pays it throughout.

/// Dispatching one segment op (loop setup + the block's one-time hull
/// check, amortized over the whole segment instead of paid per element).
inline constexpr double kSegmentOp = 1.0;

/// Per-word cost inside a contiguous or constant-stride segment copy.
inline constexpr double kSegmentWord = 0.1;

/// Work of executing one compiled block: `ops` segment dispatches,
/// `run_elements` at the bulk-copy rate, `residue_elements` at the
/// element-loop rate.
inline double compiled_pack_work(std::uint64_t ops, std::uint64_t run_elements,
                                 std::uint64_t residue_elements,
                                 std::size_t elem_bytes) {
  const double words = static_cast<double>((elem_bytes + 7) / 8);
  return static_cast<double>(ops) * kSegmentOp +
         static_cast<double>(run_elements) * words * kSegmentWord +
         static_cast<double>(residue_elements) * words * kPackWord;
}

}  // namespace chaos::core::costs
