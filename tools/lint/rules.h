// The pluggable rule interface and the built-in rule registry.
#pragma once

#include <memory>
#include <vector>

#include "lint.h"

namespace spineless::lint {

struct Index;  // index.h — the phase-1 cross-TU symbol index

// Everything a rule may look at. Rules are pure functions of the view —
// they own no state, so the registry is shared and const. The per-file
// rules ignore `index`; the graph rules (graph_rules.h) run on it.
struct ProjectView {
  const std::string& root;
  const Config& cfg;
  const std::vector<SourceFile>& files;
  const Index* index = nullptr;
};

class Rule {
 public:
  virtual ~Rule() = default;
  virtual const char* name() const = 0;
  virtual void check(const ProjectView& p, std::vector<Finding>* out) const = 0;
};

// All built-in rules, in report order. Adding a rule = appending here and
// (optionally) giving it a [rule.<name>] section in lint.toml.
const std::vector<std::unique_ptr<Rule>>& all_rules();

// Hazard-site detectors of the no-wall-clock and no-raw-rand rules
// (graph_rules.cc): if token `i` of `t` is a wall-clock read or a
// raw-randomness use, returns its display name ("steady_clock", "time()",
// "mt19937"); empty string otherwise.
std::string wall_clock_site(const std::vector<Token>& t, std::size_t i);
std::string raw_rand_site(const std::vector<Token>& t, std::size_t i);

}  // namespace spineless::lint
