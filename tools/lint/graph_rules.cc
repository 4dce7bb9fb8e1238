#include "graph_rules.h"

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "index.h"

namespace spineless::lint {
namespace {

// ---------------------------------------------------------------------------
// One rule per hazard (no-wall-clock, no-raw-rand), over the call graph.
// Every hazard site in a scanned file outside the rule's `allow` is
// reported where it stands: a chain of length 0. Taint then flows callee
// -> caller from the first site in each function body, and findings fire
// on the *transitively* tainted functions whose definition lies under the
// rule's `paths`. Barrier functions (defined in an allowlisted file, the
// reviewed home of the hazard) neither seed nor propagate, so a direct
// site and a transitive finding never report one line twice.

struct Seed {
  std::string hazard;  // display name from the shared detector
  std::size_t file = 0;
  int line = 0;
};

struct Site {
  std::size_t tok = 0;
  std::string hazard;
};

using SiteFn = std::string (*)(const std::vector<Token>&, std::size_t);

class TaintRule : public Rule {
 public:
  TaintRule(const char* rule_name, SiteFn detect, std::string kind,
            std::string direct_remedy, std::string remedy)
      : name_(rule_name),
        detect_(detect),
        kind_(std::move(kind)),
        direct_remedy_(std::move(direct_remedy)),
        remedy_(std::move(remedy)) {}

  const char* name() const override { return name_; }

  void check(const ProjectView& p, std::vector<Finding>* out) const override {
    if (!p.cfg.rule(name_).enabled) return;
    // Direct sites, in token order per file.
    std::vector<std::vector<Site>> sites(p.files.size());
    for (std::size_t fi = 0; fi < p.files.size(); ++fi) {
      const SourceFile& f = p.files[fi];
      if (p.cfg.allowlisted(name_, f.path)) continue;
      for (std::size_t i = 0; i < f.tokens.size(); ++i) {
        std::string site = detect_(f.tokens, i);
        if (site.empty()) continue;
        out->push_back({name_, f.path, f.tokens[i].line,
                        kind_ + " '" + site + "' — " + direct_remedy_});
        sites[fi].push_back({i, std::move(site)});
      }
    }
    if (p.index == nullptr) return;
    const Index& idx = *p.index;
    const std::size_t n = idx.symbols.size();

    // def id -> symbol id, and the barrier set. A symbol with any
    // definition in an allowlisted file is the reviewed home of the
    // hazard: it neither seeds nor forwards taint.
    std::vector<std::size_t> sym_of_def(idx.defs.size(), 0);
    std::vector<char> barrier(n, 0);
    for (std::size_t s = 0; s < n; ++s)
      for (const std::size_t d : idx.symbols[s].defs) {
        sym_of_def[d] = s;
        if (p.cfg.allowlisted(name_, idx.files[idx.defs[d].file]))
          barrier[s] = 1;
      }

    // Seeds: first direct site per symbol, in def order so the reported
    // site is stable.
    std::vector<char> is_seed(n, 0);
    std::vector<Seed> seed(n);
    for (std::size_t d = 0; d < idx.defs.size(); ++d) {
      const std::size_t s = sym_of_def[d];
      if (barrier[s] != 0 || is_seed[s] != 0) continue;
      const FunctionDef& def = idx.defs[d];
      const auto& in_file = sites[def.file];
      const auto it = std::lower_bound(
          in_file.begin(), in_file.end(), def.tok_begin,
          [](const Site& a, std::size_t tok) { return a.tok < tok; });
      if (it == in_file.end() || it->tok >= def.tok_end) continue;
      is_seed[s] = 1;
      seed[s] = {it->hazard, def.file, p.files[def.file].tokens[it->tok].line};
    }

    // Reverse adjacency + multi-source BFS from the seeds. next_hop points
    // one call toward the seed, so chains reconstruct without re-search.
    std::vector<std::vector<std::size_t>> callers(n);
    for (std::size_t s = 0; s < n; ++s)
      for (const std::size_t c : idx.symbols[s].callees)
        callers[c].push_back(s);
    constexpr std::size_t kNone = static_cast<std::size_t>(-1);
    std::vector<std::size_t> next_hop(n, kNone), origin(n, kNone);
    std::vector<std::size_t> queue;
    for (std::size_t s = 0; s < n; ++s)
      if (is_seed[s] != 0) {
        origin[s] = s;
        queue.push_back(s);
      }
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const std::size_t cur = queue[head];
      for (const std::size_t caller : callers[cur]) {
        if (origin[caller] != kNone || barrier[caller] != 0) continue;
        next_hop[caller] = cur;
        origin[caller] = origin[cur];
        queue.push_back(caller);
      }
    }

    for (std::size_t s = 0; s < n; ++s) {
      if (origin[s] == kNone || is_seed[s] != 0) continue;
      const FunctionDef* site = nullptr;
      for (const std::size_t d : idx.symbols[s].defs)
        if (p.cfg.applies(name_, idx.files[idx.defs[d].file])) {
          site = &idx.defs[d];
          break;
        }
      if (site == nullptr) continue;
      const std::size_t root = origin[s];
      out->push_back({name_, idx.files[site->file], site->line,
                      "'" + idx.symbols[s].qname + "' transitively reaches " +
                          kind_ + " '" + seed[root].hazard + "' seeded in '" +
                          idx.symbols[root].qname + "' (" +
                          idx.files[seed[root].file] + ":" +
                          std::to_string(seed[root].line) + ") via " +
                          chain(idx, s, next_hop) + " — " + remedy_});
    }
  }

 private:
  static std::string chain(const Index& idx, std::size_t s,
                           const std::vector<std::size_t>& next_hop) {
    constexpr std::size_t kNone = static_cast<std::size_t>(-1);
    std::string out;
    std::size_t hops = 0;
    for (std::size_t cur = s; cur != kNone; cur = next_hop[cur]) {
      if (!out.empty()) out += " -> ";
      if (++hops > 8) {
        out += "...";
        break;
      }
      out += idx.symbols[cur].qname;
    }
    return out;
  }

  const char* name_;
  SiteFn detect_;
  std::string kind_;
  std::string direct_remedy_;
  std::string remedy_;
};

// ---------------------------------------------------------------------------
// layering: every #include edge must stay inside its layer or point at a
// strictly lower rank; same-rank cross-prefix edges need a sanctioned
// entry in [layers] allow. Include cycles are reported once each, with the
// full path, regardless of layer assignment.
class LayeringRule : public Rule {
 public:
  const char* name() const override { return "layering"; }

  void check(const ProjectView& p, std::vector<Finding>* out) const override {
    if (p.index == nullptr || !p.cfg.rule(name()).enabled) return;
    const Index& idx = *p.index;
    if (!p.cfg.layers.empty()) check_edges(p, idx, out);
    check_cycles(p, idx, out);
  }

 private:
  void check_edges(const ProjectView& p, const Index& idx,
                   std::vector<Finding>* out) const {
    for (const IncludeEdge& e : idx.includes) {
      const int from_rank = idx.file_rank[e.from];
      const int to_rank = idx.file_rank[e.to];
      if (from_rank < 0 || to_rank < 0) continue;  // unlayered file
      const std::string& from_layer = idx.file_layer[e.from];
      const std::string& to_layer = idx.file_layer[e.to];
      if (from_layer == to_layer) continue;    // intra-layer
      if (to_rank < from_rank) continue;       // points down the DAG
      bool sanctioned = false;
      for (const auto& edge : p.cfg.layer_allow)
        if (edge.first == from_layer && edge.second == to_layer)
          sanctioned = true;
      if (sanctioned) continue;
      if (!p.cfg.applies(name(), idx.files[e.from])) continue;
      const char* shape =
          to_rank > from_rank ? "a back-edge (rank " : "a sibling edge (rank ";
      out->push_back(
          {name(), idx.files[e.from], e.line,
           "#include \"" + idx.files[e.to] + "\" (layer '" + to_layer +
               "') from layer '" + from_layer + "' is " + shape +
               std::to_string(from_rank) + " -> rank " +
               std::to_string(to_rank) +
               ") — includes must point at strictly lower ranks; move the "
               "dependency down, or sanction an intentional edge in "
               "[layers] allow"});
    }
  }

  void check_cycles(const ProjectView& p, const Index& idx,
                    std::vector<Finding>* out) const {
    const std::size_t n = idx.files.size();
    std::vector<std::vector<std::pair<std::size_t, int>>> adj(n);
    for (const IncludeEdge& e : idx.includes)
      adj[e.from].push_back({e.to, e.line});

    // Iterative DFS; a back-edge into the active stack is a cycle. One
    // finding per canonical cycle (rotated so the smallest file id leads),
    // so A->B->A and B->A->B report once.
    std::vector<int> color(n, 0);  // 0 white, 1 on stack, 2 done
    std::set<std::vector<std::size_t>> reported;
    std::vector<std::size_t> path;
    struct Frame {
      std::size_t node;
      std::size_t next = 0;
    };
    for (std::size_t start = 0; start < n; ++start) {
      if (color[start] != 0) continue;
      std::vector<Frame> stack{{start}};
      color[start] = 1;
      path.assign(1, start);
      while (!stack.empty()) {
        Frame& f = stack.back();
        if (f.next >= adj[f.node].size()) {
          color[f.node] = 2;
          stack.pop_back();
          path.pop_back();
          continue;
        }
        const auto [to, line] = adj[f.node][f.next++];
        if (color[to] == 1) {
          report_cycle(p, idx, path, to, &reported, out);
        } else if (color[to] == 0) {
          color[to] = 1;
          path.push_back(to);
          stack.push_back({to});
        }
      }
    }
  }

  void report_cycle(const ProjectView& p, const Index& idx,
                    const std::vector<std::size_t>& path, std::size_t to,
                    std::set<std::vector<std::size_t>>* reported,
                    std::vector<Finding>* out) const {
    const auto it = std::find(path.begin(), path.end(), to);
    std::vector<std::size_t> cycle(it, path.end());
    const auto min_it = std::min_element(cycle.begin(), cycle.end());
    std::rotate(cycle.begin(), min_it, cycle.end());
    if (!reported->insert(cycle).second) return;

    std::string shown;
    for (const std::size_t f : cycle) shown += idx.files[f] + " -> ";
    shown += idx.files[cycle.front()];
    // Anchor the finding on the canonical head's include of the next hop.
    const std::size_t head = cycle.front();
    const std::size_t next = cycle.size() > 1 ? cycle[1] : cycle.front();
    int line = 1;
    for (const IncludeEdge& e : idx.includes)
      if (e.from == head && e.to == next) {
        line = e.line;
        break;
      }
    if (!p.cfg.applies(name(), idx.files[head])) return;
    out->push_back({name(), idx.files[head], line,
                    "include cycle: " + shown +
                        " — break the cycle (forward-declare, or split the "
                        "shared piece into a lower-layer header)"});
  }
};

}  // namespace

std::unique_ptr<Rule> make_no_wall_clock_rule() {
  return std::make_unique<TaintRule>(
      "no-wall-clock", &wall_clock_site, "wall-clock source",
      "results must be a function of (seed, sim time) only; annotate "
      "metadata-only timing with NOLINT(spineless-no-wall-clock): <why>",
      "determinism-critical layers must be a function of (seed, sim time) "
      "only; route metadata timing through the sanctioned barrier "
      "(util/walltime) or extend [rule.no-wall-clock] allow");
}

std::unique_ptr<Rule> make_no_raw_rand_rule() {
  return std::make_unique<TaintRule>(
      "no-raw-rand", &raw_rand_site, "raw randomness",
      "draw from util/rng (seeded xoshiro streams) so runs replay from one "
      "seed",
      "draw through util/rng's seeded xoshiro streams so runs replay from "
      "one seed, or extend [rule.no-raw-rand] allow");
}

std::unique_ptr<Rule> make_layering_rule() {
  return std::make_unique<LayeringRule>();
}

}  // namespace spineless::lint
