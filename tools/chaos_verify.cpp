// chaos-verify — standalone static-analysis driver over every shipped
// step graph (the CI gate for the verify:: rule pipeline).
//
// Each target runs the declaration code of the app or example it names —
// same schedules, same bindings, same chunk plans — then runs the analyzer
// in analysis-only mode (no simulation) and prints the findings. The apps
// are driven through their real drivers (cfg.verify_graph) and the
// examples through the set-up types their main() uses (examples/*.hpp),
// so this binary declares no graph of its own and cannot drift from what
// `rt.run(graph)` would actually arm.
//
// Exit status: 0 clean, 1 if any target produced an error finding — or,
// under --strict, a warning finding. Notes never fail the run. 2 on a
// command line it cannot certify: an unknown target, or a --ranks value
// that is not an integer >= 1.
//
// Usage: chaos-verify [--strict] [--ranks=N] [target...]
//   targets: charmm charmm-arrival charmm-merged charmm-multiple
//            charmm-engine dsmc dsmc-arrival step-pipeline spmv-adaptive
//            mesh-sweep                                  (default: all)
#include <charconv>
#include <functional>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "apps/charmm/parallel.hpp"
#include "apps/dsmc/parallel.hpp"
#include "examples/mesh_sweep.hpp"
#include "examples/spmv_adaptive.hpp"
#include "examples/step_pipeline.hpp"
#include "runtime/runtime.hpp"
#include "verify/diagnostic.hpp"

namespace {

using namespace chaos;

using Diags = std::vector<verify::Diagnostic>;

// ---- app targets: drive the real drivers in analysis-only mode -------------

Diags charmm_graph(int ranks, charmm::CharmmShape shape) {
  sim::Machine machine(ranks);
  charmm::ParallelCharmmConfig cfg;
  cfg.system = charmm::SystemParams::small(400);
  cfg.shape = shape;
  cfg.verify_graph = true;
  return charmm::run_parallel_charmm(machine, cfg).verify_diagnostics;
}

Diags dsmc_graph(int ranks, dsmc::DsmcExecutor executor) {
  sim::Machine machine(ranks);
  dsmc::ParallelDsmcConfig cfg;
  cfg.params.nx = 8;
  cfg.params.ny = 8;
  cfg.params.n_particles = 400;
  cfg.executor = executor;
  cfg.verify_graph = true;
  return dsmc::run_parallel_dsmc(machine, cfg).verify_diagnostics;
}

// ---- example targets: the examples' own set-up and declaration ------------

/// Build an example's graph through the same type its main() runs
/// (examples/*.hpp) and analyze it. The analyzer never executes a compute,
/// so the real compute lambdas ride along unrun.
template <typename Example>
Diags example_graph(int ranks) {
  Diags out;
  sim::Machine machine(ranks);
  machine.run([&](sim::Comm& comm) {
    Runtime rt(comm);
    Example example(rt);
    Diags d = rt.verify(example.graph);
    if (comm.rank() == 0) out = std::move(d);
  });
  return out;
}

struct Target {
  const char* name;
  std::function<Diags(int)> run;
};

const Target kTargets[] = {
    {"charmm", [](int r) { return charmm_graph(r, charmm::CharmmShape::kStepGraph); }},
    {"charmm-arrival",
     [](int r) { return charmm_graph(r, charmm::CharmmShape::kStepGraphArrival); }},
    {"charmm-merged",
     [](int r) { return charmm_graph(r, charmm::CharmmShape::kMerged); }},
    {"charmm-multiple",
     [](int r) { return charmm_graph(r, charmm::CharmmShape::kMultiple); }},
    {"charmm-engine",
     [](int r) { return charmm_graph(r, charmm::CharmmShape::kEngine); }},
    {"dsmc", [](int r) { return dsmc_graph(r, dsmc::DsmcExecutor::kStepGraph); }},
    {"dsmc-arrival",
     [](int r) { return dsmc_graph(r, dsmc::DsmcExecutor::kStepGraphArrival); }},
    {"step-pipeline", example_graph<examples::StepPipeline>},
    {"spmv-adaptive", example_graph<examples::SpmvAdaptive>},
    {"mesh-sweep", example_graph<examples::MeshSweep>},
};

/// The usage line and the target list.
void usage(std::ostream& os) {
  os << "usage: chaos-verify [--strict] [--ranks=N] [target...]\n"
     << "targets:";
  for (const Target& t : kTargets) os << ' ' << t.name;
  os << "\n";
}

/// A --ranks value: a whole decimal integer >= 1, or nullopt.
std::optional<int> parse_ranks(std::string_view text) {
  int value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end || value < 1) return std::nullopt;
  return value;
}

bool known_target(std::string_view name) {
  for (const Target& t : kTargets)
    if (name == t.name) return true;
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  bool strict = false;
  int ranks = 4;
  std::vector<std::string> wanted;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--strict") {
      strict = true;
    } else if (arg.rfind("--ranks=", 0) == 0) {
      const std::string value = arg.substr(8);
      const std::optional<int> r = parse_ranks(value);
      if (!r) {
        std::cerr << "chaos-verify: --ranks needs an integer >= 1, got '"
                  << value << "'\n";
        usage(std::cerr);
        return 2;
      }
      ranks = *r;
    } else if (arg == "--help" || arg == "-h") {
      usage(std::cout);
      return 0;
    } else if (known_target(arg)) {
      wanted.push_back(arg);
    } else {
      std::cerr << "chaos-verify: unknown target '" << arg << "'\n";
      usage(std::cerr);
      return 2;
    }
  }

  int failures = 0;
  std::size_t notes = 0;
  for (const Target& t : kTargets) {
    if (!wanted.empty()) {
      bool hit = false;
      for (const std::string& w : wanted) hit = hit || w == t.name;
      if (!hit) continue;
    }
    const Diags diags = t.run(ranks);
    const std::size_t errors = verify::count(diags, verify::Severity::kError);
    const std::size_t warnings =
        verify::count(diags, verify::Severity::kWarning);
    notes += verify::count(diags, verify::Severity::kNote);
    const bool fail = errors > 0 || (strict && warnings > 0);
    std::cout << "== " << t.name << ": "
              << (fail ? "FAIL" : (diags.empty() ? "clean" : "clean (with notes)"))
              << " (" << errors << " errors, " << warnings << " warnings, "
              << diags.size() << " findings)\n";
    if (!diags.empty()) std::cout << verify::render(diags);
    if (fail) ++failures;
  }
  std::cout << (failures == 0 ? "chaos-verify: all graphs certified"
                              : "chaos-verify: FAILED")
            << (strict ? " [strict]" : "") << " (" << notes
            << " informational notes)\n";
  return failures == 0 ? 0 : 1;
}
