// Array-access descriptors for the declarative step-graph executor.
//
// A step states *what* it touches — which distributed array, through
// which communication pattern — instead of choreographing post/flush/wait
// by hand. The descriptors are inferred from the typed views a step binds
// (lang/array.hpp); the runtime derives RAW/WAR/WAW hazards between steps
// from them and pipelines the communication of independent steps
// (runtime/step_graph.hpp). The vocabulary lives here in lang/ because it
// is part of the language surface: the same declarations a compiler would
// emit from FORALL access analysis (paper §5.2) and that Rolinger et al.
// infer from access expressions in irregular PGAS loops.
#pragma once

#include <cstdint>

namespace chaos::lang {

/// How one step touches one array.
enum class AccessKind : std::uint8_t {
  kGather,      ///< in(a).via(h): fetch off-processor ghosts before compute
  kScatter,     ///< out(a).via(h): push ghost writes to owners after compute
  kScatterAdd,  ///< sum(a).via(h): combine ghost contributions at owners
  kMigrate,     ///< migrate(items).to(dest).into(out): light-weight motion
  kLocalRead,   ///< use(a): the compute callback reads `a`, no communication
  kLocalWrite,  ///< update(a): the compute callback writes `a`, no comm
};
// Note: the current hazard analysis is conservative and treats both local
// kinds alike (a hoisted gather's early ghost delivery is observable to
// readers as well as writers) — bind the weaker use() when the
// compute only reads; the distinction stays available for a finer future
// analysis.

/// Short human-readable name of an access kind — the view factory that
/// produces it (error messages and analyzer subjects).
constexpr const char* to_string(AccessKind k) {
  switch (k) {
    case AccessKind::kGather: return "in";
    case AccessKind::kScatter: return "out";
    case AccessKind::kScatterAdd: return "sum";
    case AccessKind::kMigrate: return "migrate";
    case AccessKind::kLocalRead: return "use";
    case AccessKind::kLocalWrite: return "update";
  }
  return "?";
}

/// Kind predicates shared by the hazard machinery and the static analyzer
/// (verify::Analyzer): communication kinds ride a schedule; modifying
/// kinds change the array's owned values, which is what decides whether a
/// later gather of the same array can deliver anything new.
constexpr bool is_comm(AccessKind k) {
  return k == AccessKind::kGather || k == AccessKind::kScatter ||
         k == AccessKind::kScatterAdd || k == AccessKind::kMigrate;
}
/// The communication kinds that ride a schedule handle (.via): all but
/// migrate, whose motion is addressed by its destination list.
constexpr bool rides_schedule(AccessKind k) {
  return is_comm(k) && k != AccessKind::kMigrate;
}
constexpr bool is_owner_write(AccessKind k) {
  return k == AccessKind::kScatter || k == AccessKind::kScatterAdd ||
         k == AccessKind::kMigrate || k == AccessKind::kLocalWrite;
}

/// One declared access. Arrays are identified by the address of their
/// container (std::vector / chaos::Array), which is stable across resizes
/// — the data span itself is re-read at post time.
/// `array2` is the arrival container of a migrate (both ends of the
/// motion are written).
struct AccessDecl {
  AccessKind kind = AccessKind::kLocalRead;
  const void* array = nullptr;
  const void* array2 = nullptr;

  bool touches(const void* a) const { return array == a || array2 == a; }
};

}  // namespace chaos::lang
