// Shared helpers for the table-reproduction benchmark harnesses.
//
// Every bench binary regenerates one table of the paper on the simulated
// iPSC/860 (sim::Machine) and prints the paper's published numbers next to
// the modeled measurements. Absolute agreement is not the goal (our
// substrate is a calibrated simulator, not the authors' testbed); the
// qualitative shape — who wins, how costs scale with P, where crossovers
// happen — is. Host-time measurements and the tracked trajectory are
// bench/suite/README.md's.
#pragma once

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "args.hpp"
#include "util/table.hpp"

namespace chaos::bench {

/// Render a row of doubles with a label.
inline std::vector<std::string> num_row(const std::string& label,
                                        const std::vector<double>& values,
                                        int precision = 2) {
  std::vector<std::string> row{label};
  for (double v : values) row.push_back(Table::num(v, precision));
  return row;
}

/// Append one machine-readable result record to `path` (JSON lines, one
/// object per measured configuration):
///   {"bench": ..., "config": ..., "ms_per_event": ..., "counters": {...}}
/// No-op when path is empty (the `--json` flag was not given). Counter
/// values are doubles so both timings and integer counters fit.
inline void emit_json(
    const std::string& path, const std::string& bench,
    const std::string& config, double ms_per_event,
    const std::vector<std::pair<std::string, double>>& counters) {
  if (path.empty()) return;
  const auto quote = [](const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out + "\"";
  };
  std::ostringstream os;
  os << "{\"bench\": " << quote(bench) << ", \"config\": " << quote(config)
     << ", \"ms_per_event\": " << ms_per_event << ", \"counters\": {";
  for (std::size_t i = 0; i < counters.size(); ++i) {
    if (i) os << ", ";
    os << quote(counters[i].first) << ": " << counters[i].second;
  }
  os << "}}";
  std::ofstream f(path, std::ios::app);
  CHAOS_CHECK(f.good(), "--json: cannot open '" + path + "' for append");
  f << os.str() << "\n";
}

}  // namespace chaos::bench
