#include "lint.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "index.h"
#include "rules.h"

namespace spineless::lint {
namespace {

std::string trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b])) != 0) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0) --e;
  return s.substr(b, e - b);
}

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() &&
         s.compare(0, prefix.size(), prefix) == 0;
}

// Parses a TOML string scalar or array of strings. Values never contain
// escapes in our configs, so a quote scan suffices.
bool parse_strings(const std::string& value, std::vector<std::string>* out,
                   std::string* error) {
  const std::string v = trim(value);
  if (v.empty()) {
    *error = "empty value";
    return false;
  }
  if (v.front() == '"') {
    if (v.size() < 2 || v.back() != '"') {
      *error = "unterminated string: " + v;
      return false;
    }
    out->push_back(v.substr(1, v.size() - 2));
    return true;
  }
  if (v.front() == '[') {
    if (v.back() != ']') {
      *error = "unterminated array (arrays must be single-line): " + v;
      return false;
    }
    std::string inner = v.substr(1, v.size() - 2);
    std::size_t pos = 0;
    while (true) {
      const std::size_t open = inner.find('"', pos);
      if (open == std::string::npos) break;
      const std::size_t close = inner.find('"', open + 1);
      if (close == std::string::npos) {
        *error = "unterminated string in array: " + v;
        return false;
      }
      out->push_back(inner.substr(open + 1, close - open - 1));
      pos = close + 1;
    }
    return true;
  }
  *error = "expected a string or array of strings, got: " + v;
  return false;
}

// Extracts NOLINT / NOLINTNEXTLINE suppressions from a comment token.
void parse_suppressions(const Token& comment,
                        std::vector<Suppression>* out) {
  const std::string& text = comment.text;
  std::size_t pos = 0;
  while ((pos = text.find("NOLINT", pos)) != std::string::npos) {
    const bool nextline =
        text.compare(pos, 14, "NOLINTNEXTLINE") == 0;
    std::size_t open = pos + (nextline ? 14 : 6);
    pos = open;  // resume scanning after the marker either way
    if (open >= text.size() || text[open] != '(') continue;
    const std::size_t close = text.find(')', open);
    if (close == std::string::npos) continue;
    std::string just = trim(text.substr(close + 1));
    if (!just.empty() && just.front() == ':') just = trim(just.substr(1));
    // Comma-separated rule list; only spineless-* entries are ours
    // (clang-tidy style NOLINTs pass through untouched).
    std::stringstream rules(text.substr(open + 1, close - open - 1));
    std::string id;
    while (std::getline(rules, id, ',')) {
      id = trim(id);
      if (!starts_with(id, "spineless-")) continue;
      Suppression s;
      s.rule = id.substr(std::string("spineless-").size());
      s.target_line = comment.line + (nextline ? 1 : 0);
      s.has_justification = !just.empty();
      out->push_back(std::move(s));
    }
  }
}

}  // namespace

const RuleConfig& Config::rule(const std::string& name) const {
  static const RuleConfig kDefault;
  const auto it = rules.find(name);
  return it == rules.end() ? kDefault : it->second;
}

bool Config::allowlisted(const std::string& rule_name,
                         const std::string& path) const {
  for (const std::string& a : rule(rule_name).allow)
    if (starts_with(path, a)) return true;
  return false;
}

int Config::layer_rank(const std::string& path, std::string* prefix) const {
  for (const Layer& l : layers) {
    if (!starts_with(path, l.prefix)) continue;
    if (prefix != nullptr) *prefix = l.prefix;
    return l.rank;
  }
  if (prefix != nullptr) prefix->clear();
  return -1;
}

bool Config::applies(const std::string& rule_name,
                     const std::string& path) const {
  const RuleConfig& rc = rule(rule_name);
  if (!rc.enabled) return false;
  if (!rc.paths.empty()) {
    bool in_scope = false;
    for (const std::string& p : rc.paths)
      if (starts_with(path, p)) in_scope = true;
    if (!in_scope) return false;
  }
  for (const std::string& a : rc.allow)
    if (starts_with(path, a)) return false;
  return true;
}

std::optional<Config> parse_config(const std::string& text,
                                   std::string* error) {
  Config cfg;
  cfg.scan.clear();
  std::string section;          // "" | "rule" | "audit" | "layers"
  RuleConfig* rule = nullptr;   // open [rule.<name>] section
  SnapshotAudit* audit = nullptr;  // open [audit.<label>] section
  bool in_layers = false;          // open [layers] section
  std::size_t layer_ranks_seen = 0;

  std::stringstream in(text);
  std::string raw;
  int lineno = 0;
  while (std::getline(in, raw)) {
    ++lineno;
    // Strip comments (configs hold no '#' inside strings).
    const std::size_t hash = raw.find('#');
    if (hash != std::string::npos) raw = raw.substr(0, hash);
    const std::string line = trim(raw);
    if (line.empty()) continue;

    if (line.front() == '[') {
      if (line.back() != ']') {
        *error = "lint.toml:" + std::to_string(lineno) +
                 ": malformed section header: " + line;
        return std::nullopt;
      }
      const std::string name = trim(line.substr(1, line.size() - 2));
      rule = nullptr;
      audit = nullptr;
      in_layers = false;
      if (starts_with(name, "rule.")) {
        section = "rule";
        rule = &cfg.rules[name.substr(5)];
      } else if (starts_with(name, "audit.")) {
        section = "audit";
        cfg.audits.emplace_back();
        audit = &cfg.audits.back();
      } else if (name == "layers") {
        section = "layers";
        in_layers = true;
      } else {
        *error = "lint.toml:" + std::to_string(lineno) +
                 ": unknown section [" + name + "]";
        return std::nullopt;
      }
      continue;
    }

    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) {
      *error = "lint.toml:" + std::to_string(lineno) +
               ": expected key = value, got: " + line;
      return std::nullopt;
    }
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    std::string verr;
    std::vector<std::string> strings;

    const auto get_strings = [&]() -> bool {
      if (parse_strings(value, &strings, &verr)) return true;
      *error = "lint.toml:" + std::to_string(lineno) + ": " + verr;
      return false;
    };

    if (section.empty()) {
      if (key == "scan") {
        if (!get_strings()) return std::nullopt;
        cfg.scan = strings;
      } else if (key == "extensions") {
        if (!get_strings()) return std::nullopt;
        cfg.extensions = strings;
      } else {
        *error = "lint.toml:" + std::to_string(lineno) +
                 ": unknown top-level key: " + key;
        return std::nullopt;
      }
    } else if (rule != nullptr) {
      if (key == "enabled") {
        rule->enabled = value == "true";
      } else if (key == "paths" || key == "allow") {
        if (!get_strings()) return std::nullopt;
        (key == "paths" ? rule->paths : rule->allow) = strings;
      } else {
        *error = "lint.toml:" + std::to_string(lineno) +
                 ": unknown rule key: " + key;
        return std::nullopt;
      }
    } else if (in_layers) {
      if (!get_strings()) return std::nullopt;
      if (starts_with(key, "rank")) {
        // rankN = ["prefix", ...] — N must be the layer's rank so the
        // config reads as the DAG it enforces, in order.
        int rank = -1;
        try {
          rank = std::stoi(key.substr(4));
        } catch (...) {
        }
        if (rank != static_cast<int>(layer_ranks_seen)) {
          *error = "lint.toml:" + std::to_string(lineno) +
                   ": layer ranks must be rank0, rank1, ... in order (got " +
                   key + ")";
          return std::nullopt;
        }
        ++layer_ranks_seen;
        for (const std::string& prefix : strings)
          cfg.layers.push_back({rank, prefix});
      } else if (key == "allow") {
        // "from-prefix -> to-prefix": a sanctioned same-rank edge.
        for (const std::string& edge : strings) {
          const std::size_t arrow = edge.find("->");
          if (arrow == std::string::npos) {
            *error = "lint.toml:" + std::to_string(lineno) +
                     ": layer allow entries are \"from -> to\", got: " + edge;
            return std::nullopt;
          }
          cfg.layer_allow.emplace_back(trim(edge.substr(0, arrow)),
                                       trim(edge.substr(arrow + 2)));
        }
      } else {
        *error = "lint.toml:" + std::to_string(lineno) +
                 ": unknown layers key: " + key;
        return std::nullopt;
      }
    } else if (audit != nullptr) {
      if (!get_strings()) return std::nullopt;
      if (key == "struct") {
        audit->strct = strings.at(0);
      } else if (key == "header") {
        audit->header = strings.at(0);
      } else if (key == "impl") {
        audit->impl = strings;
      } else {
        *error = "lint.toml:" + std::to_string(lineno) +
                 ": unknown audit key: " + key;
        return std::nullopt;
      }
    }
  }
  for (const SnapshotAudit& a : cfg.audits) {
    if (a.strct.empty() || a.header.empty() || a.impl.empty()) {
      *error = "lint.toml: audit sections need struct, header, and impl";
      return std::nullopt;
    }
  }
  return cfg;
}

SourceFile make_source(std::string path, std::string_view text) {
  SourceFile f;
  f.path = std::move(path);
  f.tokens = tokenize(text, &f.comments);
  for (const Token& c : f.comments) parse_suppressions(c, &f.suppressions);
  return f;
}

std::optional<SourceFile> load_file(const std::string& root,
                                    const std::string& path) {
  std::ifstream in(root + "/" + path, std::ios::binary);
  if (!in) return std::nullopt;
  std::stringstream ss;
  ss << in.rdbuf();
  return make_source(path, ss.str());
}

LintResult lint_files(const std::string& root, const Config& cfg,
                      std::vector<SourceFile> files) {
  // Phase 1: the cross-TU symbol index (definitions, call edges, the
  // include graph). Phase 2: every rule — the per-file rules ignore the
  // index; the graph rules run on it.
  auto index = std::make_shared<Index>(build_index(cfg, files));
  ProjectView view{root, cfg, files, index.get()};
  std::vector<Finding> raw;
  for (const auto& rule : all_rules()) rule->check(view, &raw);

  LintResult result;
  result.index = std::move(index);
  result.files_scanned = files.size();
  for (Finding& f : raw) {
    bool suppressed = false;
    bool bare_nolint = false;
    for (const SourceFile& sf : files) {
      if (sf.path != f.path) continue;
      for (const Suppression& s : sf.suppressions) {
        if (s.rule != f.rule || s.target_line != f.line) continue;
        if (s.has_justification) {
          suppressed = true;
        } else {
          bare_nolint = true;
        }
      }
    }
    if (suppressed) {
      ++result.suppressed;
      continue;
    }
    if (bare_nolint)
      f.message +=
          " [NOLINT ignored: a justification is required after the "
          "closing parenthesis]";
    result.findings.push_back(std::move(f));
  }
  std::sort(result.findings.begin(), result.findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.path, a.line, a.rule) <
                     std::tie(b.path, b.line, b.rule);
            });
  return result;
}

LintResult run_lint(const std::string& root, const Config& cfg,
                    const std::vector<std::string>& only) {
  namespace fs = std::filesystem;
  std::vector<std::string> paths = only;
  if (paths.empty()) {
    for (const std::string& dir : cfg.scan) {
      const fs::path base = fs::path(root) / dir;
      if (!fs::exists(base)) continue;
      for (const auto& entry : fs::recursive_directory_iterator(base)) {
        if (!entry.is_regular_file()) continue;
        const std::string ext = entry.path().extension().string();
        if (std::find(cfg.extensions.begin(), cfg.extensions.end(), ext) ==
            cfg.extensions.end())
          continue;
        paths.push_back(
            fs::relative(entry.path(), root).generic_string());
      }
    }
    // Directory enumeration order is filesystem-dependent; the linter's
    // own output must be deterministic.
    std::sort(paths.begin(), paths.end());
  }
  // Audit inputs (headers + codec files) must be visible to the
  // snapshot-coverage rule even when they fall outside the scan roots.
  for (const SnapshotAudit& a : cfg.audits) {
    for (const std::string& p : a.impl)
      if (std::find(paths.begin(), paths.end(), p) == paths.end())
        paths.push_back(p);
    if (std::find(paths.begin(), paths.end(), a.header) == paths.end())
      paths.push_back(a.header);
  }

  std::vector<SourceFile> files;
  files.reserve(paths.size());
  for (const std::string& p : paths) {
    std::optional<SourceFile> f = load_file(root, p);
    if (f.has_value()) files.push_back(std::move(*f));
  }
  return lint_files(root, cfg, std::move(files));
}

std::string report_text(const LintResult& r) {
  std::ostringstream os;
  for (const Finding& f : r.findings)
    os << f.path << ":" << f.line << ": [spineless-" << f.rule << "] "
       << f.message << "\n";
  os << r.files_scanned << " file(s) scanned, " << r.findings.size()
     << " finding(s), " << r.suppressed << " suppressed\n";
  return os.str();
}

namespace {
void append_json_string(std::string* out, const std::string& s) {
  out->push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}
}  // namespace

std::string json_quote(const std::string& s) {
  std::string out;
  append_json_string(&out, s);
  return out;
}

std::string report_json(const LintResult& r) {
  std::string out = "{\n  \"tool\": \"spineless_lint\",\n";
  out += "  \"schema_version\": 3,\n";
  out += "  \"files_scanned\": " + std::to_string(r.files_scanned) + ",\n";
  out += "  \"suppressed\": " + std::to_string(r.suppressed) + ",\n";
  out += "  \"finding_count\": " + std::to_string(r.findings.size()) + ",\n";
  out += "  \"findings\": [";
  for (std::size_t i = 0; i < r.findings.size(); ++i) {
    const Finding& f = r.findings[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"rule\": ";
    append_json_string(&out, "spineless-" + f.rule);
    out += ", \"path\": ";
    append_json_string(&out, f.path);
    out += ", \"line\": " + std::to_string(f.line) + ", \"message\": ";
    append_json_string(&out, f.message);
    out += "}";
  }
  out += r.findings.empty() ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

}  // namespace spineless::lint
