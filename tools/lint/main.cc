// spineless_lint — determinism & snapshot-safety static analysis over the
// repo's C++ sources. See tools/lint/lint.h for the rule set and
// doc/architecture.md "Static checks" for how each rule maps to a runtime
// invariant.
//
//   spineless_lint --root=/path/to/repo            # text report, exit 1 on findings
//   spineless_lint --root=. --json=lint.json       # machine-readable findings
//   spineless_lint --root=. src/sim/tcp.cc         # lint specific files
//   spineless_lint --root=. --index-dump=idx.json  # dump the symbol index
//
// A finding is accepted only by a justified NOLINT at its line (counted in
// the report's "suppressed").
//
// Exit codes (stable, asserted by scripts/lint_cli_smoke.sh):
//   0  clean (no findings)
//   1  findings
//   2  config or I/O error (unreadable config, unwritable output)
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "index.h"
#include "lint.h"

namespace {

bool read_file(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::stringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

// Accepts both --flag=value and --flag value.
bool flag_value(const std::vector<std::string>& args, std::size_t* i,
                const std::string& name, std::string* out) {
  const std::string& a = args[*i];
  if (a == name) {
    if (*i + 1 >= args.size()) return false;
    *out = args[++*i];
    return true;
  }
  if (a.compare(0, name.size() + 1, name + "=") == 0) {
    *out = a.substr(name.size() + 1);
    return true;
  }
  return false;
}

int usage() {
  std::cerr
      << "usage: spineless_lint [--root=DIR] [--config=FILE]\n"
         "                      [--json[=FILE]] [--index-dump=FILE]\n"
         "                      [files...]\n"
         "  --root            repository root (default: .)\n"
         "  --config          rule config (default: <root>/tools/lint/lint.toml)\n"
         "  --json            emit findings as JSON (to FILE, or stdout)\n"
         "  --index-dump      write the cross-TU symbol index as\n"
         "                    deterministic JSON (same bytes for same tree)\n"
         "  files             repo-relative files to lint instead of the\n"
         "                    configured scan directories\n"
         "exit codes: 0 clean, 1 findings, 2 config/IO error\n";
  return 2;
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  return static_cast<bool>(out);
}

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".";
  std::string config_path;
  bool json = false;
  std::string json_path;
  std::string index_dump_path;
  std::vector<std::string> only;

  const std::vector<std::string> args(argv + 1, argv + argc);
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (flag_value(args, &i, "--root", &root)) continue;
    if (flag_value(args, &i, "--config", &config_path)) continue;
    if (flag_value(args, &i, "--index-dump", &index_dump_path)) continue;
    if (a == "--json") {
      json = true;
      continue;
    }
    if (a.compare(0, 7, "--json=") == 0) {
      json = true;
      json_path = a.substr(7);
      continue;
    }
    if (a == "--help" || a == "-h") return usage();
    if (!a.empty() && a[0] == '-') {
      std::cerr << "spineless_lint: unknown flag " << a << "\n";
      return usage();
    }
    only.push_back(a);
  }
  if (config_path.empty()) config_path = root + "/tools/lint/lint.toml";

  std::string config_text;
  if (!read_file(config_path, &config_text)) {
    std::cerr << "spineless_lint: cannot read config " << config_path << "\n";
    return 2;
  }
  std::string error;
  const auto cfg = spineless::lint::parse_config(config_text, &error);
  if (!cfg.has_value()) {
    std::cerr << "spineless_lint: " << error << "\n";
    return 2;
  }

  spineless::lint::LintResult result =
      spineless::lint::run_lint(root, *cfg, only);

  if (!index_dump_path.empty() &&
      !write_file(index_dump_path,
                  spineless::lint::dump_index_json(*result.index))) {
    std::cerr << "spineless_lint: cannot write " << index_dump_path << "\n";
    return 2;
  }

  const std::string json_doc = json ? spineless::lint::report_json(result)
                                    : std::string();
  if (json && json_path.empty()) {
    std::cout << json_doc;
  } else {
    std::cout << spineless::lint::report_text(result);
    if (json) {
      std::ofstream out(json_path, std::ios::binary | std::ios::trunc);
      out << json_doc;
      if (!out) {
        std::cerr << "spineless_lint: cannot write " << json_path << "\n";
        return 2;
      }
    }
  }
  return result.findings.empty() ? 0 : 1;
}
