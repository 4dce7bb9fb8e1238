#include "rules.h"

#include <set>
#include <string>
#include <unordered_set>

#include "graph_rules.h"
#include "index.h"

namespace spineless::lint {
namespace {

bool is_ident(const Token& t, const char* text) {
  return t.kind == TokKind::kIdent && t.text == text;
}
bool is_punct(const Token& t, const char* text) {
  return t.kind == TokKind::kPunct && t.text == text;
}

// Skips a balanced <...> group. `i` must point at the opening '<';
// returns the index one past the matching '>'. ">>" is never fused by the
// tokenizer, so nested closers count one by one.
std::size_t skip_angles(const std::vector<Token>& toks, std::size_t i) {
  int depth = 0;
  for (; i < toks.size(); ++i) {
    if (is_punct(toks[i], "<")) ++depth;
    if (is_punct(toks[i], ">") && --depth == 0) return i + 1;
    if (is_punct(toks[i], ";")) break;  // malformed; bail at statement end
  }
  return i;
}

std::size_t skip_braces(const std::vector<Token>& toks, std::size_t i) {
  int depth = 0;
  for (; i < toks.size(); ++i) {
    if (is_punct(toks[i], "{")) ++depth;
    if (is_punct(toks[i], "}") && --depth == 0) return i + 1;
  }
  return i;
}

// ---------------------------------------------------------------------------
// unordered-iteration: iterating a hash container inside the simulator,
// routing, or fault layers lets hash-order (which varies with insertion
// history, libstdc++ version, and pointer values) leak into event order or
// snapshot bytes. Detection is per-file: collect the names declared with an
// unordered type, then flag range-fors over them and .begin()/.cbegin()
// calls on them.
class UnorderedIteration : public Rule {
 public:
  const char* name() const override { return "unordered-iteration"; }

  void check(const ProjectView& p, std::vector<Finding>* out) const override {
    for (const SourceFile& f : p.files) {
      if (!p.cfg.applies(name(), f.path)) continue;
      const auto& t = f.tokens;
      const std::set<std::string> vars = collect_unordered_vars(t);
      if (vars.empty()) continue;

      for (std::size_t i = 0; i < t.size(); ++i) {
        // Range-for whose sequence expression mentions a tracked name.
        if (is_ident(t[i], "for") && i + 1 < t.size() &&
            is_punct(t[i + 1], "(")) {
          int depth = 0;
          bool after_colon = false;
          for (std::size_t j = i + 1; j < t.size(); ++j) {
            if (is_punct(t[j], "(")) ++depth;
            if (is_punct(t[j], ")") && --depth == 0) break;
            if (is_punct(t[j], ":")) after_colon = true;
            if (after_colon && t[j].kind == TokKind::kIdent &&
                vars.count(t[j].text) != 0) {
              out->push_back({name(), f.path, t[i].line,
                              "iteration over unordered container '" +
                                  t[j].text + hazard()});
              break;
            }
          }
        }
        // Explicit iterator walks: name.begin(), name->cbegin(), ...
        if (t[i].kind == TokKind::kIdent && vars.count(t[i].text) != 0 &&
            i + 2 < t.size() &&
            (is_punct(t[i + 1], ".") || is_punct(t[i + 1], "->")) &&
            (is_ident(t[i + 2], "begin") || is_ident(t[i + 2], "cbegin") ||
             is_ident(t[i + 2], "rbegin"))) {
          out->push_back({name(), f.path, t[i].line,
                          "iterator over unordered container '" + t[i].text +
                              hazard()});
        }
      }
    }
  }

 private:
  static std::string hazard() {
    return "' — hash order can leak into event order or snapshot bytes; "
           "copy keys into a sorted vector first, or switch to a sorted/"
           "indexed container";
  }

  static std::set<std::string> collect_unordered_vars(
      const std::vector<Token>& t) {
    static const std::unordered_set<std::string> kUnordered = {
        "unordered_map", "unordered_set", "unordered_multimap",
        "unordered_multiset",
    };
    std::set<std::string> vars;
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (t[i].kind != TokKind::kIdent || kUnordered.count(t[i].text) == 0)
        continue;
      if (i + 1 >= t.size() || !is_punct(t[i + 1], "<")) continue;
      std::size_t j = skip_angles(t, i + 1);
      // Skip cv/ref/ptr decoration between the type and the declarator.
      while (j < t.size() &&
             (is_punct(t[j], "*") || is_punct(t[j], "&") ||
              is_ident(t[j], "const")))
        ++j;
      if (j >= t.size() || t[j].kind != TokKind::kIdent) continue;
      // `type name(` is a function declaration, not a variable.
      if (j + 1 < t.size() && is_punct(t[j + 1], "(")) continue;
      vars.insert(t[j].text);
    }
    return vars;
  }
};

// ---------------------------------------------------------------------------
// pointer-ordering: a std::map/std::set keyed by a raw pointer iterates in
// allocation-address order, which differs run to run — anything derived
// from that order (event scheduling, serialized bytes, report rows) breaks
// determinism. Key by a stable id (oid, index, name) instead.
class PointerOrdering : public Rule {
 public:
  const char* name() const override { return "pointer-ordering"; }

  void check(const ProjectView& p, std::vector<Finding>* out) const override {
    static const std::unordered_set<std::string> kOrdered = {
        "map", "set", "multimap", "multiset",
    };
    for (const SourceFile& f : p.files) {
      if (!p.cfg.applies(name(), f.path)) continue;
      const auto& t = f.tokens;
      for (std::size_t i = 1; i + 1 < t.size(); ++i) {
        if (t[i].kind != TokKind::kIdent || kOrdered.count(t[i].text) == 0)
          continue;
        if (!is_punct(t[i - 1], "::")) continue;  // only std::/qualified use
        if (!is_punct(t[i + 1], "<")) continue;
        // Walk the first template argument (the key type) at depth 1.
        int depth = 0;
        std::size_t last_meaningful = 0;
        for (std::size_t j = i + 1; j < t.size(); ++j) {
          if (is_punct(t[j], "<")) {
            ++depth;
            continue;
          }
          if (is_punct(t[j], ">")) {
            if (--depth == 0) break;
            continue;
          }
          if (is_punct(t[j], ",") && depth == 1) break;
          if (is_punct(t[j], ";")) break;  // malformed
          last_meaningful = j;
        }
        if (last_meaningful != 0 && is_punct(t[last_meaningful], "*")) {
          out->push_back(
              {name(), f.path, t[i].line,
               "std::" + t[i].text +
                   " keyed by a raw pointer iterates in allocation-address "
                   "order, which varies run to run — key by a stable id "
                   "(oid, index, name) instead"});
        }
      }
    }
  }
};

// ---------------------------------------------------------------------------
// snapshot-coverage: the static counterpart of the runtime --audit
// invariants. For each configured audit, every instance field of the
// serialized struct must be mentioned by at least one of its codec files —
// a field added to the struct but not to save/load silently resets on
// --resume, breaking kill-9/clean-run byte identity.
class SnapshotCoverage : public Rule {
 public:
  const char* name() const override { return "snapshot-coverage"; }

  void check(const ProjectView& p, std::vector<Finding>* out) const override {
    for (const SnapshotAudit& audit : p.cfg.audits) {
      const SourceFile* header = find(p, audit.header);
      if (header == nullptr) {
        out->push_back({name(), audit.header, 1,
                        "audit for struct '" + audit.strct +
                            "': header not found or unreadable"});
        continue;
      }
      if (!p.cfg.applies(name(), header->path)) continue;
      std::vector<Token> fields;
      if (!collect_fields(header->tokens, audit.strct, &fields)) {
        out->push_back({name(), audit.header, 1,
                        "audit: struct '" + audit.strct +
                            "' not found in " + audit.header});
        continue;
      }
      std::unordered_set<std::string> mentioned;
      for (const std::string& impl : audit.impl) {
        const SourceFile* f = find(p, impl);
        if (f == nullptr) {
          out->push_back({name(), impl, 1,
                          "audit for struct '" + audit.strct +
                              "': codec file not found or unreadable"});
          continue;
        }
        for (const Token& tok : f->tokens)
          if (tok.kind == TokKind::kIdent) mentioned.insert(tok.text);
      }
      // v2: a codec may delegate ("write_header(out, s)" in another TU).
      // Resolve every function defined in the impl files through the call
      // graph and count identifiers in all transitively-reached bodies as
      // codec mentions — a field serialized by a shared helper is covered.
      if (p.index != nullptr) collect_delegated(p, audit, &mentioned);
      for (const Token& field : fields) {
        if (mentioned.count(field.text) != 0) continue;
        out->push_back({name(), header->path, field.line,
                        "field '" + audit.strct + "::" + field.text +
                            "' is never mentioned by its serialization "
                            "code (" + join(audit.impl) +
                            ") — an unserialized field silently resets on "
                            "restore, breaking --resume byte identity"});
      }
    }
  }

 private:
  static const SourceFile* find(const ProjectView& p,
                                const std::string& path) {
    for (const SourceFile& f : p.files)
      if (f.path == path) return &f;
    return nullptr;
  }

  static void collect_delegated(const ProjectView& p,
                                const SnapshotAudit& audit,
                                std::unordered_set<std::string>* mentioned) {
    const Index& idx = *p.index;
    std::set<std::size_t> impl_ids;
    for (std::size_t fi = 0; fi < idx.files.size(); ++fi)
      for (const std::string& impl : audit.impl)
        if (idx.files[fi] == impl) impl_ids.insert(fi);
    std::vector<char> seen(idx.symbols.size(), 0);
    std::vector<std::size_t> work;
    for (std::size_t s = 0; s < idx.symbols.size(); ++s)
      for (const std::size_t d : idx.symbols[s].defs)
        if (impl_ids.count(idx.defs[d].file) != 0 && seen[s] == 0) {
          seen[s] = 1;
          work.push_back(s);
        }
    while (!work.empty()) {
      const std::size_t s = work.back();
      work.pop_back();
      for (const std::size_t d : idx.symbols[s].defs) {
        const FunctionDef& def = idx.defs[d];
        const auto& toks = p.files[def.file].tokens;
        for (std::size_t k = def.tok_begin; k < def.tok_end; ++k)
          if (toks[k].kind == TokKind::kIdent)
            mentioned->insert(toks[k].text);
      }
      for (const std::size_t c : idx.symbols[s].callees)
        if (seen[c] == 0) {
          seen[c] = 1;
          work.push_back(c);
        }
    }
  }

  static std::string join(const std::vector<std::string>& v) {
    std::string out;
    for (const std::string& s : v) {
      if (!out.empty()) out += ", ";
      out += s;
    }
    return out;
  }

  // Collects the instance-field name tokens of `struct_name`. Heuristic
  // statement scanner: inside the struct body at depth 1, a statement
  // without parentheses is a data member; its name is the identifier
  // before '=' / '[' / '{', else the last identifier. Nested types,
  // functions, usings, and static/constexpr members are skipped.
  static bool collect_fields(const std::vector<Token>& t,
                             const std::string& struct_name,
                             std::vector<Token>* fields) {
    std::size_t body = t.size();
    for (std::size_t i = 1; i + 1 < t.size(); ++i) {
      if (t[i].kind == TokKind::kIdent && t[i].text == struct_name &&
          (is_ident(t[i - 1], "struct") || is_ident(t[i - 1], "class"))) {
        std::size_t j = i + 1;
        while (j < t.size() && !is_punct(t[j], "{") && !is_punct(t[j], ";"))
          ++j;  // base clause / final
        if (j < t.size() && is_punct(t[j], "{")) {
          body = j + 1;
          break;
        }
      }
    }
    if (body >= t.size()) return false;

    std::vector<Token> stmt;
    const auto flush = [&]() {
      if (!stmt.empty()) emit_field(stmt, fields);
      stmt.clear();
    };
    for (std::size_t i = body; i < t.size();) {
      const Token& tok = t[i];
      if (is_punct(tok, "}")) break;  // end of struct body
      if (is_punct(tok, ";")) {
        flush();
        ++i;
        continue;
      }
      // Access specifiers are statement noise.
      if (tok.kind == TokKind::kIdent &&
          (tok.text == "public" || tok.text == "private" ||
           tok.text == "protected") &&
          i + 1 < t.size() && is_punct(t[i + 1], ":")) {
        i += 2;
        continue;
      }
      if (is_punct(tok, "{")) {
        const bool function_or_type =
            has_paren(stmt) || starts_type(stmt);
        i = skip_braces(t, i);
        if (function_or_type) {
          stmt.clear();  // body/nested type consumed; drop the statement
          if (i < t.size() && is_punct(t[i], ";")) ++i;
        }
        continue;  // brace-init members keep their statement alive
      }
      if (is_punct(tok, "<")) {
        // Template arguments never name the declarator.
        const std::size_t next = skip_angles(t, i);
        i = next > i ? next : i + 1;
        continue;
      }
      stmt.push_back(tok);
      ++i;
    }
    flush();
    return true;
  }

  static bool has_paren(const std::vector<Token>& stmt) {
    for (const Token& t : stmt)
      if (is_punct(t, "(")) return true;
    return false;
  }

  static bool starts_type(const std::vector<Token>& stmt) {
    if (stmt.empty()) return true;
    const std::string& s = stmt.front().text;
    return s == "struct" || s == "class" || s == "enum" || s == "union";
  }

  static void emit_field(const std::vector<Token>& stmt,
                         std::vector<Token>* fields) {
    if (stmt.empty() || has_paren(stmt)) return;
    static const std::unordered_set<std::string> kNotFields = {
        "using", "typedef", "static", "constexpr", "friend", "template",
        "struct", "class", "enum", "union",
    };
    for (const Token& t : stmt)
      if (t.kind == TokKind::kIdent && kNotFields.count(t.text) != 0) return;
    const Token* name = nullptr;
    for (std::size_t i = 0; i < stmt.size(); ++i) {
      if (is_punct(stmt[i], "=") || is_punct(stmt[i], "[")) break;
      if (stmt[i].kind == TokKind::kIdent) name = &stmt[i];
    }
    if (name != nullptr) fields->push_back(*name);
  }
};

// ---------------------------------------------------------------------------
// atomic-spin: the sharded engine's liveness contract says a cross-thread
// wait spins a bounded number of loads and then parks in a futex-backed
// std::atomic::wait. A raw busy-wait loop on an atomic burns the core a
// sibling thread needs and hides lost-wakeup bugs behind 100% CPU. Flags
// while/for loop *conditions* that call an atomic read-or-RMW member;
// genuinely parked or bounded waits carry a justified NOLINT.
class AtomicSpin : public Rule {
 public:
  const char* name() const override { return "atomic-spin"; }

  void check(const ProjectView& p, std::vector<Finding>* out) const override {
    static const std::unordered_set<std::string> kSpinCalls = {
        "load",
        "exchange",
        "test_and_set",
        "compare_exchange_weak",
        "compare_exchange_strong",
    };
    for (const SourceFile& f : p.files) {
      if (!p.cfg.applies(name(), f.path)) continue;
      const auto& t = f.tokens;
      for (std::size_t i = 0; i + 1 < t.size(); ++i) {
        const bool is_while = is_ident(t[i], "while");
        const bool is_for = is_ident(t[i], "for");
        if ((!is_while && !is_for) || !is_punct(t[i + 1], "(")) continue;
        int depth = 0;
        int semis = 0;  // for(init; cond; step): only cond is a spin site
        for (std::size_t j = i + 1; j < t.size(); ++j) {
          if (is_punct(t[j], "(")) {
            ++depth;
            continue;
          }
          if (is_punct(t[j], ")")) {
            if (--depth == 0) break;
            continue;
          }
          if (is_for && depth == 1 && is_punct(t[j], ";")) {
            ++semis;
            continue;
          }
          if (is_for && semis != 1) continue;  // init/step/range-for: skip
          if (t[j].kind != TokKind::kIdent ||
              kSpinCalls.count(t[j].text) == 0)
            continue;
          const bool member = j > 0 && (is_punct(t[j - 1], ".") ||
                                        is_punct(t[j - 1], "->"));
          if (!member || j + 1 >= t.size() || !is_punct(t[j + 1], "("))
            continue;
          out->push_back(
              {name(), f.path, t[i].line,
               "busy-wait on atomic '" + t[j].text +
                   "()' in a loop condition — a raw spin burns the core a "
                   "sibling thread needs and hides lost-wakeup bugs; "
                   "park in a futex-backed std::atomic::wait (or "
                   "bound the spin) and annotate with "
                   "NOLINT(spineless-atomic-spin): <why>"});
          break;  // one finding per loop header
        }
      }
    }
  }
};

}  // namespace

std::string wall_clock_site(const std::vector<Token>& t, std::size_t i) {
  static const std::unordered_set<std::string> kClocks = {
      "steady_clock",  "system_clock", "high_resolution_clock",
      "gettimeofday",  "clock_gettime", "timespec_get",
  };
  if (t[i].kind != TokKind::kIdent) return "";
  if (kClocks.count(t[i].text) != 0) return t[i].text;
  // std::time(...) / time(nullptr) / time(0): require the call shape so
  // fields and methods merely named `time` stay quiet.
  if (t[i].text == "time" && i + 1 < t.size() && is_punct(t[i + 1], "(")) {
    const bool qualified = i > 0 && is_punct(t[i - 1], "::");
    const bool member =
        i > 0 && (is_punct(t[i - 1], ".") || is_punct(t[i - 1], "->"));
    const bool classic_arg =
        i + 2 < t.size() &&
        (is_ident(t[i + 2], "nullptr") || t[i + 2].text == "0" ||
         is_ident(t[i + 2], "NULL"));
    if (!member && (qualified || classic_arg)) return "time()";
  }
  return "";
}

std::string raw_rand_site(const std::vector<Token>& t, std::size_t i) {
  static const std::unordered_set<std::string> kTypes = {
      "random_device", "mt19937",      "mt19937_64", "minstd_rand",
      "minstd_rand0",  "default_random_engine",      "knuth_b",
      "ranlux24",      "ranlux48",
  };
  static const std::unordered_set<std::string> kCalls = {
      "rand", "srand", "random", "srandom", "drand48", "lrand48",
  };
  if (t[i].kind != TokKind::kIdent) return "";
  const bool member =
      i > 0 && (is_punct(t[i - 1], ".") || is_punct(t[i - 1], "->"));
  if (member) return "";
  if (kTypes.count(t[i].text) != 0) return t[i].text;
  if (kCalls.count(t[i].text) != 0 && i + 1 < t.size() &&
      is_punct(t[i + 1], "("))
    return t[i].text + "()";
  return "";
}

const std::vector<std::unique_ptr<Rule>>& all_rules() {
  static const std::vector<std::unique_ptr<Rule>>* kRules = [] {
    auto* rules = new std::vector<std::unique_ptr<Rule>>();
    rules->push_back(make_no_wall_clock_rule());
    rules->push_back(make_no_raw_rand_rule());
    rules->push_back(std::make_unique<UnorderedIteration>());
    rules->push_back(std::make_unique<PointerOrdering>());
    rules->push_back(std::make_unique<SnapshotCoverage>());
    rules->push_back(std::make_unique<AtomicSpin>());
    rules->push_back(make_layering_rule());
    return rules;
  }();
  return *kRules;
}

}  // namespace spineless::lint
