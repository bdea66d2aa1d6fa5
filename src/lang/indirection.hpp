// Indirection arrays with modification records (paper §5.3.1).
//
// An IndirectionArray is the descriptor the compiler-support layer and the
// chaos::Runtime facade key preprocessing on: it carries a process-unique id
// and a version (the modification record). Assigning new contents bumps the
// version; schedule caches compare versions to decide whether the inspector
// can be skipped.
//
// The record is also slot-granular. assign() holds the old and the new
// contents at once, so it diffs them there: when the length is unchanged
// and at most a quarter of the slots differ, it keeps the changed slots
// (ascending) and their old values, at most 12 B per changed slot, until
// the next assign(). A re-inspection relative to the previous version then
// re-hashes only those slots (IndexHashTable::rehash).
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/schedule.hpp"
#include "core/stamp.hpp"
#include "core/translation_table.hpp"

namespace chaos::lang {

using core::GlobalIndex;

/// The slots one assign() changed, in ascending order, with the values they
/// held before it.
struct SlotDelta {
  std::vector<std::uint32_t> slots;
  std::vector<GlobalIndex> old_values;
};

/// An indirection array with a modification record. Assigning new contents
/// bumps the version; schedule caches compare versions to decide whether
/// preprocessing can be reused.
class IndirectionArray {
 public:
  IndirectionArray() : id_(next_id()) {}
  explicit IndirectionArray(std::vector<GlobalIndex> v)
      : id_(next_id()), values_(std::move(v)) {}

  // Move-only: the id is the array's cache identity, so a copy would alias
  // the original's cached plans and silently return the wrong schedule. A
  // move transfers the identity; the moved-from object gets a fresh one.
  IndirectionArray(const IndirectionArray&) = delete;
  IndirectionArray& operator=(const IndirectionArray&) = delete;
  IndirectionArray(IndirectionArray&& o) noexcept
      : id_(std::exchange(o.id_, next_id())),
        version_(std::exchange(o.version_, 0)),
        values_(std::exchange(o.values_, {})),
        delta_(std::exchange(o.delta_, std::nullopt)) {}
  IndirectionArray& operator=(IndirectionArray&& o) noexcept {
    if (this != &o) {
      id_ = std::exchange(o.id_, next_id());
      version_ = std::exchange(o.version_, 0);
      values_ = std::exchange(o.values_, {});
      delta_ = std::exchange(o.delta_, std::nullopt);
    }
    return *this;
  }

  std::span<const GlobalIndex> values() const { return values_; }
  std::size_t size() const { return values_.size(); }

  /// Replace the contents (e.g. a regenerated non-bonded list). Bumps the
  /// modification record, and keeps the slot-level delta when the length is
  /// unchanged and at most 1/kMaxDeltaShare of the slots differ.
  void assign(std::vector<GlobalIndex> v) {
    delta_.reset();
    if (v.size() == values_.size() && v.size() <= UINT32_MAX) {
      const std::size_t limit = v.size() / kMaxDeltaShare;
      SlotDelta d;
      for (std::size_t k = 0; k < v.size() && d.slots.size() <= limit; ++k)
        if (v[k] != values_[k]) {
          d.slots.push_back(static_cast<std::uint32_t>(k));
          d.old_values.push_back(values_[k]);
        }
      if (d.slots.size() <= limit) delta_ = std::move(d);
    }
    values_ = std::move(v);
    ++version_;
  }

  std::uint64_t id() const { return id_; }
  std::uint64_t version() const { return version_; }

  /// The slots the last assign() changed, relative to version() - 1, or null
  /// when it kept no slot-level record.
  const SlotDelta* delta() const { return delta_ ? &*delta_ : nullptr; }

  /// A delta covers at most 1/kMaxDeltaShare of the slots: in micro_chaos
  /// BM_HashRehashRandom (4-core Xeon) the slot path beats the full one at
  /// 1/10/25% changed (1.3/4.8/8.5 vs 9.7/11.4/15.5 ms) and ties near half.
  static constexpr std::size_t kMaxDeltaShare = 4;

 private:
  static std::uint64_t next_id() {
    // Process-wide: ids must stay unique even when arrays are created on
    // different rank threads and later meet in the same per-rank cache
    // (e.g. one array built before Machine::run, another inside it). A
    // thread_local counter would hand both the same id and the cache would
    // return the wrong LoopPlan.
    static std::atomic<std::uint64_t> counter{0};
    return ++counter;
  }

  std::uint64_t id_;
  std::uint64_t version_ = 0;
  std::vector<GlobalIndex> values_;
  std::optional<SlotDelta> delta_;
};

/// The preprocessing result for one irregular loop: translated (localized)
/// indirection array, communication schedule, and required local extent.
struct LoopPlan {
  std::vector<GlobalIndex> local_refs;
  core::Schedule schedule;
  GlobalIndex local_extent = 0;
  core::Stamp stamp = 0;
};

}  // namespace chaos::lang
