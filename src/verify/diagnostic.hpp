// chaos::verify — structured findings from the static step-graph analyzer.
//
// A Diagnostic is one finding of one rule: an id ("read-before-gather"),
// a severity, the step/array subjects it names, a message stating what the
// rule observed, and a fix hint. Error-severity findings are declaration
// bugs the runtime can prove before anything executes — every StepGraph
// refuses to arm on them; warnings are hazards worth a look; notes
// are certifications and advisories (including the "proven" results of
// the race-certification rule).
//
// This header is a leaf (no runtime includes) so both the analyzer and
// the StepGraph error paths can share the subject-formatting helpers —
// every diagnostic, static or arming-time, names its subjects the same
// way.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace chaos::verify {

enum class Severity {
  kNote,     ///< certification / advisory; never fails anything
  kWarning,  ///< suspicious declaration; fails `chaos-verify --strict`
  kError,    ///< provable defect; step graphs refuse to arm
};

std::string_view to_string(Severity s);

/// One finding from one rule over one step graph.
struct Diagnostic {
  std::string rule;      ///< stable rule id, e.g. "read-before-gather"
  Severity severity = Severity::kNote;
  std::string step;      ///< subject step name ("" = whole-graph finding)
  std::string array;     ///< subject array ("" = no array subject)
  std::string message;   ///< what the rule observed
  std::string hint;      ///< how to fix or silence it
};

/// Render one finding: "error[read-before-gather] step 'advance' array
/// 'x': <message> (hint: <hint>)".
std::string render(const Diagnostic& d);

/// Render a full report, one finding per line, most severe first.
std::string render(std::span<const Diagnostic> ds);

bool has_errors(std::span<const Diagnostic> ds);
std::size_t count(std::span<const Diagnostic> ds, Severity s);

/// Bytes held by a retained diagnostics vector (capacity, not size — the
/// exact-accounting contract registry_bytes()/compact() keep).
std::size_t footprint_bytes(const std::vector<Diagnostic>& ds);

// ---- shared subject formatting ----------------------------------------
//
// Used by the analyzer AND by StepGraph's arming/check_bindings error
// paths, so a defect reads the same whether it was caught statically or
// at arm time.

/// Quote a registered array name, falling back to the container address
/// for raw std::vector bindings: "'pos'" or "<unnamed @0x55...>".
std::string array_subject(std::string_view name, const void* addr);

/// "step 'nonbonded'" / "step 'nonbonded' array 'pos'".
std::string subject(std::string_view step_name, std::string_view array_name,
                    const void* array_addr = nullptr);

}  // namespace chaos::verify
