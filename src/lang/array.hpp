// chaos::Array<T> — typed distributed arrays and the access-view
// vocabulary that lets the runtime *infer* step-graph access sets from the
// way arrays are bound into loop bodies.
//
// The paper's compiler support (§5) works because the compiler can see
// which arrays a FORALL gathers, scatters, or reduces into. The typed view
// API gives the runtime the same knowledge the way PGAS compilers infer
// communication from access expressions (Rolinger et al.): the binding
// expression IS the access declaration, and the bound object IS the
// gather/scatter buffer — there is no second statement of the accesses
// that could drift from the data the compute touches.
//
//   chaos::Array<double> x(rt, dist, "x"), f(rt, dist, "f");
//   graph.step("force")
//       .bind(in(x).via(h), sum(f).via(h))   // access sets inferred
//       .compute([&] { ... x[j] ... f[j] ... });
//
// Vocabulary (each factory returns a binding consumable by Step::bind and
// chaos::forall):
//   in(x).via(h)     gather x's off-processor ghosts through schedule h
//                    before the compute (AccessKind::kGather)
//   out(x).via(h)    push x's ghost writes back to their owners after the
//                    compute, replacement semantics (kScatter)
//   sum(x).via(h)    combine x's ghost contributions at their owners after
//                    the compute (kScatterAdd); Array-backed sums size and
//                    zero the ghost region before the compute
//   use(x)           the compute reads x, no communication (kLocalRead)
//   update(x)        the compute writes x, no communication (kLocalWrite)
//   migrate(items).to(dest).into(out)
//                    light-weight item motion after the compute (kMigrate)
//
// Inside chaos::forall the .via(h) is optional — the loop's own inspected
// schedule is used. Factories accept both chaos::Array<T> (typed facade:
// automatic extent management, named traffic/error attribution, retarget
// guards) and raw std::vector<T> (the caller keeps sizing duties: the
// container must be sized to the schedule's extent, and the span is
// re-read at post time). Views are the only way a step states its
// accesses; the raw post/flush/wait surface (rt.gather_async & friends)
// stays the low-level route for patterns no step graph expresses.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "lang/access.hpp"
#include "runtime/runtime.hpp"

namespace chaos {

/// Typed facade over a distribution-aligned local array: pairs a
/// DistHandle with the element type and a registered name. The owned
/// region (offsets [0, owned)) is followed by the ghost region the
/// inspector sizes; views grow it on demand (ensure_extent). Identity is
/// the object address (views capture it), so Arrays pin their storage:
/// neither copyable nor movable.
template <typename T>
class Array {
 public:
  static_assert(std::is_trivially_copyable_v<T>,
                "distributed array elements cross rank boundaries");

  Array(Runtime& rt, DistHandle dist, std::string name)
      : rt_(&rt), dist_(dist), name_(std::move(name)) {
    CHAOS_CHECK(rt.valid(dist),
                "Array '" + name_ + "': distribution handle is not valid");
    owned_ = rt.owned_count(dist);
    data_.assign(static_cast<std::size_t>(owned_), T{});
  }
  Array(const Array&) = delete;
  Array& operator=(const Array&) = delete;

  Runtime& runtime() const { return *rt_; }
  DistHandle dist() const { return dist_; }
  const std::string& name() const { return name_; }
  GlobalIndex owned() const { return owned_; }

  /// Bumped by retarget(); step graphs snapshot it at binding time and
  /// refuse to advance over a stale binding (see StepGraph::retarget).
  std::uint64_t binding_revision() const { return revision_; }

  /// Grow local storage to cover ghost slots assigned by an inspector.
  void ensure_extent(GlobalIndex extent) {
    CHAOS_CHECK(extent >= owned_,
                "Array '" + name_ + "': extent cannot shrink below owned");
    if (static_cast<std::size_t>(extent) > data_.size())
      data_.resize(static_cast<std::size_t>(extent));
  }

  std::span<T> local() { return {data_.data(), data_.size()}; }
  std::span<const T> local() const { return {data_.data(), data_.size()}; }
  std::span<T> owned_region() {
    return {data_.data(), static_cast<std::size_t>(owned_)};
  }
  std::span<const T> owned_region() const {
    return {data_.data(), static_cast<std::size_t>(owned_)};
  }

  T& operator[](GlobalIndex local_index) {
    CHAOS_CHECK(local_index >= 0 &&
                    static_cast<std::size_t>(local_index) < data_.size(),
                "Array '" + name_ + "': local index out of range");
    return data_[static_cast<std::size_t>(local_index)];
  }
  const T& operator[](GlobalIndex local_index) const {
    CHAOS_CHECK(local_index >= 0 &&
                    static_cast<std::size_t>(local_index) < data_.size(),
                "Array '" + name_ + "': local index out of range");
    return data_[static_cast<std::size_t>(local_index)];
  }

  /// The global ids of the owned slots, in offset order (cached).
  const std::vector<GlobalIndex>& globals() const {
    if (globals_.empty() && owned_ > 0)
      globals_ = rt_->owned_globals(dist_);
    return globals_;
  }

  /// Initialize the owned region from a generator of the global id.
  template <typename F>
  void fill(F&& f) {
    const std::vector<GlobalIndex>& g = globals();
    for (std::size_t i = 0; i < g.size(); ++i)
      data_[i] = f(g[i]);
  }

  /// Move this array onto a successor distribution epoch: remap the owned
  /// region through `plan` (from rt.plan_remap(dist(), to)), discard the
  /// ghost region, and swap the binding. Collective. Quiesce any step
  /// graph bound to this array FIRST — in-flight pipelined operations
  /// hold spans into the storage this replaces. Bumps the binding
  /// revision — a step graph bound to this array raises a chaos::Error at
  /// its next advance() until StepGraph::retarget re-arms it (retarget
  /// arrays first, then the graph).
  void retarget(ScheduleHandle plan, DistHandle to) {
    CHAOS_CHECK(rt_->valid(to),
                "Array '" + name_ + "': retarget onto an invalid epoch");
    std::vector<T> fresh = rt_->template remap<T>(plan, owned_region());
    const GlobalIndex new_owned = rt_->owned_count(to);
    CHAOS_CHECK(static_cast<GlobalIndex>(fresh.size()) == new_owned,
                "Array '" + name_ +
                    "': remap plan does not target the retarget epoch");
    dist_ = to;
    owned_ = new_owned;
    data_ = std::move(fresh);
    globals_.clear();
    ++revision_;
  }

 private:
  Runtime* rt_;
  DistHandle dist_;
  std::string name_;
  GlobalIndex owned_ = 0;
  std::vector<T> data_;
  std::uint64_t revision_ = 0;
  mutable std::vector<GlobalIndex> globals_;
};

namespace views {

/// One fully specified array binding, type-erased over the element type:
/// what Step::bind and chaos::forall consume. The declaration doubles as
/// the data access — `post` reads the bound container at post time, so
/// the view object and the gather/scatter buffer are one and the same.
struct Binding {
  lang::AccessDecl decl;
  /// Registered Array name ("" for raw containers) — error messages and
  /// traffic attribution.
  std::string name;
  ScheduleHandle via{};
  bool has_via = false;
  /// Sizing/zeroing hook: gathers run it just before their post, writes
  /// just before the compute.
  std::function<void(Runtime&, ScheduleHandle)> prepare;
  /// Posts the communication on the runtime's engine (comm kinds only).
  std::function<comm::CommHandle(Runtime&, ScheduleHandle)> post;
  /// Array-backed bindings: probe of the array's binding revision, so a
  /// retargeted Array cannot be driven through a stale graph binding.
  std::function<std::uint64_t()> revision;
  /// Set on self-managing accumulators (sum over Array):
  /// the prepare zeroes the ghost region before the compute. A step may
  /// not also gather the same array — the ghost slots cannot hold both
  /// the gathered values and zeroed accumulation (Step::resolve rejects).
  bool zeroes_ghosts = false;

  /// Attach a diagnostic name to a raw-container binding — Array-backed
  /// bindings already carry the registered name. Error messages, traffic
  /// attribution, and verify::Analyzer subjects all use it:
  ///   in(pos).via(h).named("pos"), use(cells).named("cells").
  Binding&& named(std::string n) && {
    name = std::move(n);
    return std::move(*this);
  }
};

namespace detail {

template <typename T>
Binding comm_binding(lang::AccessKind kind, Array<T>* a) {
  Binding b;
  b.decl = {kind, a, nullptr};
  b.name = a->name();
  b.revision = [a] { return a->binding_revision(); };
  // Sizing uses the EPOCH-wide local extent (owned + every ghost slot
  // assigned so far), not the individual schedule's: two views of one
  // array through different schedules may have their posts pipelined
  // apart, and a per-schedule resize between them would reallocate the
  // storage a posted operation already holds a span into. The epoch
  // extent is identical for every view of the array and only changes at
  // re-inspection — which requires a quiesce anyway.
  switch (kind) {
    case lang::AccessKind::kGather:
      b.prepare = [a](Runtime& rt, ScheduleHandle) {
        a->ensure_extent(rt.local_extent(a->dist()));
      };
      b.post = [a](Runtime& rt, ScheduleHandle h) {
        return rt.gather_async<T>(h, a->local());
      };
      break;
    case lang::AccessKind::kScatter:
      b.prepare = [a](Runtime& rt, ScheduleHandle) {
        a->ensure_extent(rt.local_extent(a->dist()));
      };
      b.post = [a](Runtime& rt, ScheduleHandle h) {
        return rt.scatter_async<T>(h, a->local());
      };
      break;
    case lang::AccessKind::kScatterAdd:
      // The accumulator convention: ghost slots start from zero each
      // execution (owned slots keep accumulating locally).
      b.zeroes_ghosts = true;
      b.prepare = [a](Runtime& rt, ScheduleHandle) {
        const GlobalIndex extent = rt.local_extent(a->dist());
        a->ensure_extent(extent);
        for (GlobalIndex i = a->owned(); i < extent; ++i) (*a)[i] = T{};
      };
      b.post = [a](Runtime& rt, ScheduleHandle h) {
        return rt.scatter_add_async<T>(h, a->local());
      };
      break;
    default:
      CHAOS_ASSERT(false, "comm_binding: not a communication kind");
  }
  return b;
}

/// Raw-container flavor: no sizing duties taken over — the span is
/// re-read at post time.
template <typename T>
Binding comm_binding(lang::AccessKind kind, std::vector<T>* v) {
  Binding b;
  b.decl = {kind, v, nullptr};
  switch (kind) {
    case lang::AccessKind::kGather:
      b.post = [v](Runtime& rt, ScheduleHandle h) {
        return rt.gather_async<T>(h, std::span<T>{v->data(), v->size()});
      };
      break;
    case lang::AccessKind::kScatter:
      b.post = [v](Runtime& rt, ScheduleHandle h) {
        return rt.scatter_async<T>(h, std::span<T>{v->data(), v->size()});
      };
      break;
    case lang::AccessKind::kScatterAdd:
      b.post = [v](Runtime& rt, ScheduleHandle h) {
        return rt.scatter_add_async<T>(h,
                                       std::span<T>{v->data(), v->size()});
      };
      break;
    default:
      CHAOS_ASSERT(false, "comm_binding: not a communication kind");
  }
  return b;
}

}  // namespace detail

/// Pending communication view: in(x)/out(x)/sum(x) before the schedule is
/// chosen. `.via(h)` completes it; passing it to chaos::forall without
/// .via selects the loop's own schedule. Step::bind requires .via.
template <typename C>
class CommView {
 public:
  CommView(lang::AccessKind kind, C& c) : kind_(kind), c_(&c) {}

  Binding via(ScheduleHandle h) && {
    Binding b = detail::comm_binding(kind_, c_);
    b.via = h;
    b.has_via = true;
    return b;
  }

  operator Binding() && { return detail::comm_binding(kind_, c_); }

 private:
  lang::AccessKind kind_;
  C* c_;
};

/// Pending migration view: migrate(items).to(dest_procs).into(out).
template <typename T>
class MigrateView {
 public:
  explicit MigrateView(std::vector<T>& items) : items_(&items) {}

  MigrateView&& to(const std::vector<int>& dest_procs) && {
    dest_ = &dest_procs;
    return std::move(*this);
  }

  Binding into(std::vector<T>& out) && {
    CHAOS_CHECK(dest_ != nullptr,
                "migrate(items): call .to(dest_procs) before .into(out)");
    Binding b;
    b.decl = {lang::AccessKind::kMigrate, items_, &out};
    std::vector<T>* items = items_;
    const std::vector<int>* dest = dest_;
    std::vector<T>* o = &out;
    b.post = [items, dest, o](Runtime& rt, ScheduleHandle) {
      CHAOS_CHECK(dest->size() == items->size(),
                  "migrate: one destination rank per item");
      return rt.migrate_async<T>(
          *dest, std::span<const T>{items->data(), items->size()}, *o);
    };
    return b;
  }

 private:
  std::vector<T>* items_;
  const std::vector<int>* dest_ = nullptr;
};

}  // namespace views

// ---- the view vocabulary ---------------------------------------------------

template <typename T>
views::CommView<Array<T>> in(Array<T>& a) {
  return {lang::AccessKind::kGather, a};
}
template <typename T>
views::CommView<std::vector<T>> in(std::vector<T>& v) {
  return {lang::AccessKind::kGather, v};
}

template <typename T>
views::CommView<Array<T>> out(Array<T>& a) {
  return {lang::AccessKind::kScatter, a};
}
template <typename T>
views::CommView<std::vector<T>> out(std::vector<T>& v) {
  return {lang::AccessKind::kScatter, v};
}

template <typename T>
views::CommView<Array<T>> sum(Array<T>& a) {
  return {lang::AccessKind::kScatterAdd, a};
}
template <typename T>
views::CommView<std::vector<T>> sum(std::vector<T>& v) {
  return {lang::AccessKind::kScatterAdd, v};
}

/// Local-read binding: the compute reads `c`, no communication.
template <typename T>
views::Binding use(const Array<T>& a) {
  views::Binding b;
  b.decl = {lang::AccessKind::kLocalRead, &a, nullptr};
  b.name = a.name();
  b.revision = [&a] { return a.binding_revision(); };
  return b;
}
template <typename C>
views::Binding use(const C& c) {
  views::Binding b;
  b.decl = {lang::AccessKind::kLocalRead, &c, nullptr};
  return b;
}

/// Local-write binding: the compute writes `c`, no communication.
template <typename T>
views::Binding update(Array<T>& a) {
  views::Binding b;
  b.decl = {lang::AccessKind::kLocalWrite, &a, nullptr};
  b.name = a.name();
  b.revision = [&a] { return a.binding_revision(); };
  return b;
}
template <typename C>
views::Binding update(C& c) {
  views::Binding b;
  b.decl = {lang::AccessKind::kLocalWrite, &c, nullptr};
  return b;
}

template <typename T>
views::MigrateView<T> migrate(std::vector<T>& items) {
  return views::MigrateView<T>(items);
}

// ---- forall: the generalized view-based irregular loop ---------------------

/// One irregular-loop execution assembled from views — the generalized
/// FORALL (paper §5.2) on the typed API. The loop's indirection array is
/// inspected (registry-cached); views without an explicit .via ride the
/// loop's own schedule. Execution order matches a one-step eager graph:
/// gathers post as one engine batch, the body runs against the localized
/// references, writes post as a second batch.
class Forall {
 public:
  Forall(Runtime& rt, DistHandle dist, const lang::IndirectionArray& ind)
      : rt_(rt), dist_(dist), ind_(&ind) {}

  Forall& add(views::Binding b) {
    CHAOS_CHECK(b.decl.kind != lang::AccessKind::kMigrate,
                "forall cannot bind migrate() views — declare a StepGraph "
                "step instead");
    bindings_.push_back(std::move(b));
    return *this;
  }

  /// Inspect, gather, run `body(localized_refs)`, scatter. Returns the
  /// loop handle for reuse (e.g. rt.merge with other loops). Collective.
  template <typename Body>
  LoopHandle run(Body&& body) {
    // Same guard as Step::resolve: a self-zeroing accumulator (sum over
    // an Array) zeroes the ghost region after the gathers
    // delivered — combined with a gather of the SAME array it would
    // silently wipe the gathered ghosts before the body reads them.
    for (const views::Binding& w : bindings_) {
      if (!w.zeroes_ghosts) continue;
      for (const views::Binding& g : bindings_) {
        if (g.decl.kind == lang::AccessKind::kGather &&
            g.decl.array == w.decl.array) {
          throw Error(
              "forall: array '" +
              (w.name.empty() ? "<unnamed>" : w.name) +
              "' is gathered (in) and bound as a self-zeroing accumulator "
              "(sum) in one loop — its ghost slots cannot hold both the "
              "gathered values and the zeroed accumulation. Use a raw "
              "std::vector binding (the body owns ghost zeroing) or "
              "separate loops");
        }
      }
    }
    const LoopHandle loop = rt_.bind(dist_, *ind_);
    const ScheduleHandle own = rt_.inspect(loop);
    const auto via = [&](const views::Binding& b) {
      return b.has_via ? b.via : own;
    };
    const auto is_write = [](const views::Binding& b) {
      return b.decl.kind == lang::AccessKind::kScatter ||
             b.decl.kind == lang::AccessKind::kScatterAdd;
    };

    std::vector<comm::CommHandle> pending;
    for (views::Binding& b : bindings_)
      if (b.decl.kind == lang::AccessKind::kGather && b.prepare)
        b.prepare(rt_, via(b));
    for (views::Binding& b : bindings_)
      if (b.decl.kind == lang::AccessKind::kGather)
        pending.push_back(b.post(rt_, via(b)));
    if (!pending.empty()) {
      rt_.comm_flush();
      for (comm::CommHandle h : pending) rt_.comm_wait(h);
      pending.clear();
    }

    for (views::Binding& b : bindings_)
      if (is_write(b) && b.prepare) b.prepare(rt_, via(b));

    body(rt_.local_refs(loop));

    for (views::Binding& b : bindings_)
      if (is_write(b)) pending.push_back(b.post(rt_, via(b)));
    if (!pending.empty()) {
      rt_.comm_flush();
      for (comm::CommHandle h : pending) rt_.comm_wait(h);
    }
    return loop;
  }

 private:
  Runtime& rt_;
  DistHandle dist_;
  const lang::IndirectionArray* ind_;
  std::vector<views::Binding> bindings_;
};

/// forall(rt, dist, ind, in(y), sum(x)).run([&](auto lrefs) { ... });
template <typename... Vs>
Forall forall(Runtime& rt, DistHandle dist, const lang::IndirectionArray& ind,
              Vs&&... vs) {
  Forall f(rt, dist, ind);
  (f.add(views::Binding(std::forward<Vs>(vs))), ...);
  return f;
}

/// REDUCE(SUM, acc(ind(j)), ...) on the typed API: gather `data`'s ghosts,
/// run the body against localized references, scatter-add `acc`'s ghost
/// contributions home.
template <typename TData, typename TAcc, typename Body>
LoopHandle forall_reduce_sum(Runtime& rt, DistHandle dist,
                             const lang::IndirectionArray& ind,
                             Array<TData>& data, Array<TAcc>& acc,
                             Body&& body) {
  return forall(rt, dist, ind, in(data), sum(acc))
      .run(std::forward<Body>(body));
}

}  // namespace chaos
