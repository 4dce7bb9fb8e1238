// spineless_lint core: configuration, the per-file token model with NOLINT
// suppressions, the pluggable rule interface, and the lint driver.
//
// Each rule guards a runtime invariant of the reproduction (see
// doc/architecture.md "Static checks"):
//   no-wall-clock        byte-identical reruns: wall time must never feed
//                        simulated state (metadata-only timing is annotated)
//   no-raw-rand          single-seed reproducibility: all randomness flows
//                        through util/rng's seeded xoshiro streams
//   unordered-iteration  event/snapshot determinism: hash-order iteration
//                        in sim/routing/fault can leak into event order
//   pointer-ordering     run-to-run determinism: containers ordered by raw
//                        pointer value depend on the allocator
//   snapshot-coverage    kill-9/--resume equivalence: every field of a
//                        serialized struct must appear in its codec
//   atomic-spin          engine liveness: busy-wait loops on atomics in
//                        the engine layers must park in a futex-backed
//                        wait or carry a justified annotation
//
// no-wall-clock and no-raw-rand run over the cross-TU symbol index (phase
// 2, graph_rules.cc): besides each direct site, they flag every function in
// the determinism-critical layers that reaches one through a call chain.
// So does the third graph rule:
//   layering             the include graph respects the configured DAG
//                        ([layers] ranks; back-edges and cycles reported
//                        with the full path)
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "token.h"

namespace spineless::lint {

// One active suppression comment: "NOLINT(spineless-<rule>)" applies to
// findings on its own line, "NOLINTNEXTLINE(spineless-<rule>)" to the line
// below. A justification (non-empty text after the closing parenthesis,
// optionally introduced by ':') is required for the suppression to count.
struct Suppression {
  std::string rule;           // rule name without the "spineless-" prefix
  int target_line = 0;        // line the suppression applies to
  bool has_justification = false;
  bool used = false;          // set by the engine when it suppresses
};

struct SourceFile {
  std::string path;      // repo-relative, '/'-separated
  std::vector<Token> tokens;    // comments excluded
  std::vector<Token> comments;  // in source order
  std::vector<Suppression> suppressions;
};

struct Finding {
  std::string rule;
  std::string path;
  int line = 0;
  std::string message;
};

// Per-rule configuration. A file is checked by a rule iff its path starts
// with one of `paths` (empty = every scanned file) and with none of
// `allow` (the path allowlist; matches are prefix matches, so
// "src/util/resilient." covers both the .h and the .cc).
struct RuleConfig {
  bool enabled = true;
  std::vector<std::string> paths;
  std::vector<std::string> allow;
};

// One snapshot-coverage audit: every field of `strct` (declared in
// `header`) must be mentioned by at least one of the `impl` files, which
// hold its serialization codec — or, since the codec may delegate, by a
// function the impl files transitively call (resolved via the symbol
// index).
struct SnapshotAudit {
  std::string strct;
  std::string header;
  std::vector<std::string> impl;
};

// One rank of the enforced include DAG ([layers] in lint.toml). A file
// belongs to the first layer whose prefix matches its path; an #include
// may only point at a strictly lower rank, at the same prefix, or along
// an explicitly sanctioned same-rank edge (Config::layer_allow).
struct Layer {
  int rank = 0;
  std::string prefix;
};

struct Config {
  std::vector<std::string> scan;  // directories (repo-relative) to lint
  std::vector<std::string> extensions = {".h", ".cc"};
  std::map<std::string, RuleConfig> rules;
  std::vector<SnapshotAudit> audits;
  std::vector<Layer> layers;  // rank-ascending; empty = layering off
  // Sanctioned same-rank edges, as (from prefix, to prefix) pairs.
  std::vector<std::pair<std::string, std::string>> layer_allow;

  const RuleConfig& rule(const std::string& name) const;
  // True when `rule` should examine `path` at all.
  bool applies(const std::string& rule, const std::string& path) const;
  // True when `path` is under the rule's `allow` list. The taint rules
  // use this as the *sanctioned barrier* test: functions defined in an
  // allowlisted file neither seed taint nor propagate it (the file is
  // the reviewed home of the hazard, e.g. util/rng for randomness).
  bool allowlisted(const std::string& rule, const std::string& path) const;
  // Layer lookup for a repo-relative path: rank, or -1 when unlayered.
  // `prefix` (optional) receives the matched layer prefix.
  int layer_rank(const std::string& path, std::string* prefix = nullptr) const;
};

// Parses the lint.toml subset: `key = value` pairs, `[section]` headers,
// string and string-array values, '#' comments. Returns std::nullopt and
// fills *error on malformed input. Recognized shapes:
//   scan = ["src", "bench"]
//   [rule.<name>]            with keys enabled/paths/allow
//   [audit.<label>]          with keys struct/header/impl
std::optional<Config> parse_config(const std::string& text,
                                   std::string* error);

// Tokenizes `text` into a SourceFile (suppressions included) under the
// given repo-relative path. This is the in-memory entry point the fixture
// tests use to lint synthetic snippets.
SourceFile make_source(std::string path, std::string_view text);

// Loads + parses one file from disk. `root` is the filesystem root the
// repo-relative `path` hangs off. Returns nullopt if unreadable.
std::optional<SourceFile> load_file(const std::string& root,
                                    const std::string& path);

struct Index;  // index.h — built by lint_files, exposed for --index-dump

struct LintResult {
  std::vector<Finding> findings;
  std::size_t files_scanned = 0;
  std::size_t suppressed = 0;
  std::shared_ptr<const Index> index;
};

// Runs every enabled rule over the scan roots (or, when `only` is
// non-empty, exactly those repo-relative files) and applies suppressions.
// Findings are sorted by (path, line, rule) so output is stable regardless
// of directory enumeration order.
LintResult run_lint(const std::string& root, const Config& cfg,
                    const std::vector<std::string>& only = {});

// The engine half of run_lint, exposed for fixture tests that build their
// own file lists: applies rules + suppressions to already-loaded files.
LintResult lint_files(const std::string& root, const Config& cfg,
                      std::vector<SourceFile> files);

// Reporters. Text is "path:line: [spineless-<rule>] message" per finding;
// JSON is a stable machine-readable document for CI consumption
// (schema_version 3; bump it when the fields change).
std::string report_text(const LintResult& r);
std::string report_json(const LintResult& r);

// JSON string escaping shared by the reporters and the index dump.
std::string json_quote(const std::string& s);

}  // namespace spineless::lint
