#include "routing/vrf.h"

#include <algorithm>
#include <deque>

#include "topo/analysis.h"
#include "util/runner.h"

namespace spineless::routing {
constexpr int kInf = VrfTable::kInfCost;

namespace {

// BFS distances honoring a dead-link set. The no-failures case dispatches
// to the plain BFS up front so the inner loop never tests for it.
std::vector<int> bfs_avoiding(const Graph& g, NodeId src,
                              const LinkSet& dead) {
  if (dead.empty()) return topo::bfs_distances(g, src);
  std::vector<int> dist(static_cast<std::size_t>(g.num_switches()), -1);
  std::deque<NodeId> queue{src};
  dist[static_cast<std::size_t>(src)] = 0;
  while (!queue.empty()) {
    const NodeId u = queue.front();
    queue.pop_front();
    const int next = dist[static_cast<std::size_t>(u)] + 1;
    for (const Port& p : g.neighbors(u)) {
      if (dead.contains(p.link)) continue;
      auto& d = dist[static_cast<std::size_t>(p.neighbor)];
      if (d < 0) {
        d = next;
        queue.push_back(p.neighbor);
      }
    }
  }
  return dist;
}

// True when a walk of exactly `len` live hops leads from n to dst. A
// shortest path plus back-and-forth hops on its last link gives every
// len >= d of d's parity; the other parity needs an odd cycle.
bool walk_exists(const Graph& g, const LinkSet& dead,
                 std::span<const std::int32_t> dist, NodeId n, int len) {
  const int d = dist[static_cast<std::size_t>(n)];
  if (d < 0 || d > len) return false;
  if (len == 0) return true;  // d == 0: n is dst
  if (d > 0 && (len - d) % 2 == 0) return true;
  for (const Port& p : g.neighbors(n)) {
    if (!dead.contains(p.link) &&
        walk_exists(g, dead, dist, p.neighbor, len - 1))
      return true;
  }
  return false;
}

// Calls fn(port, next_vrf, cost, target state) for every tight virtual
// edge out of state s = (ju, u) toward the destination whose distances
// are h, in next-hop order: live ports in port order, then each port's
// virtual edges in for_each_virtual_edge order (a port tight under two
// edges is listed twice).
template <typename Fn>
void for_each_tight_edge(const Graph& g, const LinkSet& dead, const int* h,
                         int k, NodeId u, int ju, Fn&& fn) {
  const auto ks = static_cast<std::size_t>(k);
  const int hs = h[static_cast<std::size_t>(u) * ks +
                   static_cast<std::size_t>(ju - 1)];
  if (k == 1) {
    // ECMP: one virtual edge per port, cost 1, into VRF 1. Spelled out
    // because the generic loop below costs a K = 1 build ~1.4x.
    for (const Port& p : g.neighbors(u)) {
      const auto sv = static_cast<std::size_t>(p.neighbor);
      if (!dead.contains(p.link) && h[sv] == hs - 1) fn(p, 1, 1, sv);
    }
    return;
  }
  for (const Port& p : g.neighbors(u)) {
    if (dead.contains(p.link)) continue;
    for_each_virtual_edge(ju, k, [&](int jv, int c) {
      const std::size_t sv = static_cast<std::size_t>(p.neighbor) * ks +
                             static_cast<std::size_t>(jv - 1);
      if (h[sv] < kInf && c + h[sv] == hs) fn(p, jv, c, sv);
    });
  }
}

// Serial loop or fan-out over the pool; callers write disjoint slices, so
// both give the same bytes.
template <typename Fn>
void for_each_index(util::Runner* runner, std::size_t n, Fn&& fn) {
  if (runner != nullptr && runner->jobs() > 1 && n > 1) {
    runner->run_batch(n, fn);
  } else {
    for (std::size_t i = 0; i < n; ++i) fn(i);
  }
}

// Turns per-state counts at off[i + 1] into CSR offsets.
void prefix_sum(std::vector<std::uint32_t>& off) {
  std::uint64_t total = 0;
  for (auto& o : off) {
    total += o;
    SPINELESS_CHECK_MSG(total <= UINT32_MAX, "VrfTable hop pool overflow");
    o = static_cast<std::uint32_t>(total);
  }
}

const LinkSet kNoLinks;

}  // namespace

// h(j, n) from d = d(n). A state nearer dst must climb K - j hops to VRF
// K: it costs that many when a walk of that length reaches dst, else one
// hop more for j = 1 (which may stay in VRF 1) or a VRF-K detour for
// j > 1.
int vrf_distance(const Graph& g, const LinkSet& dead,
                 std::span<const std::int32_t> dist, int k, NodeId dst,
                 NodeId n, int j) {
  const int d = dist[static_cast<std::size_t>(n)];
  if (d < 0) return kInf;
  if (j == k) return n == dst ? 0 : std::max(d, k);
  const int climb = k - j;
  if (j == 1 && d >= climb) return d;
  if (j > 1 && d > climb) return std::max(d, k + climb);
  if (walk_exists(g, dead, dist, n, climb)) return climb;
  // Only an isolated dst has no walk of climb + 1 hops either.
  if (!walk_exists(g, dead, dist, n, climb + 1)) return kInf;
  return j == 1 ? climb + 1 : k + climb;
}

void VrfTable::count_destination(const Graph& g, const LinkSet& dead,
                                 NodeId dst) {
  const auto row = bfs_avoiding(g, dst, dead);
  const std::size_t base = static_cast<std::size_t>(dst) * states();
  int* h = dist_.data() + base;
  // Only failures, or the K > 1 tables built over degraded subgraphs, may
  // strand a switch; an ECMP table of a healthy graph must reach them all.
  const bool may_strand = k_ > 1 || !dead.empty();
  for (NodeId u = 0; u < n_; ++u) {
    SPINELESS_CHECK_MSG(may_strand || row[static_cast<std::size_t>(u)] >= 0,
                        "disconnected graph in VrfTable");
    for (int j = 1; j <= k_; ++j)
      h[state(u, j)] = vrf_distance(g, dead, row, k_, dst, u, j);
  }
  std::uint32_t* count = off_.data() + base + 1;
  const std::size_t goal = state(dst, k_);
  for (NodeId u = 0; u < n_; ++u) {
    for (int j = 1; j <= k_; ++j) {
      const std::size_t s = state(u, j);
      if (h[s] >= kInf || s == goal) continue;
      for_each_tight_edge(g, dead, h, k_, u, j,
                          [&](const Port&, int, int, std::size_t) {
                            ++count[s];
                          });
    }
  }
}

void VrfTable::fill_destination(const Graph& g, const LinkSet& dead,
                                NodeId dst) {
  const std::size_t base = static_cast<std::size_t>(dst) * states();
  const int* h = dist_.data() + base;
  const std::uint32_t* off = off_.data() + base;
  // States in ascending cost-to-go (a counting sort): every edge costs at
  // least 1, so a tight edge's target comes first and its count of
  // minimum-cost continuations is final when the edge is written.
  int max_h = 0;
  for (std::size_t s = 0; s < states(); ++s)
    if (h[s] < kInf) max_h = std::max(max_h, h[s]);
  std::vector<std::uint32_t> start(static_cast<std::size_t>(max_h) + 2, 0);
  for (std::size_t s = 0; s < states(); ++s)
    if (h[s] < kInf) ++start[static_cast<std::size_t>(h[s]) + 1];
  for (std::size_t c = 1; c < start.size(); ++c) start[c] += start[c - 1];
  std::vector<std::uint32_t> order(start.back());
  for (std::size_t s = 0; s < states(); ++s)
    if (h[s] < kInf)
      order[start[static_cast<std::size_t>(h[s])]++] =
          static_cast<std::uint32_t>(s);

  constexpr std::int32_t kWaysCap = 1'000'000;
  std::vector<std::int32_t> ways(states(), 0);
  const std::size_t goal = state(dst, k_);
  ways[goal] = 1;
  const auto ks = static_cast<std::size_t>(k_);
  for (const std::uint32_t s : order) {
    if (s == goal) continue;
    VrfHop* out = hops_.data() + off[s];
    for_each_tight_edge(
        g, dead, h, k_, static_cast<NodeId>(s / ks),
        static_cast<int>(s % ks) + 1,
        [&](const Port& p, int jv, int c, std::size_t sv) {
          ways[s] = std::min(kWaysCap, ways[s] + ways[sv]);
          *out++ = VrfHop{p, std::max(1, ways[sv]),
                          static_cast<std::int16_t>(jv),
                          static_cast<std::int16_t>(c)};
        });
  }
}

VrfTable VrfTable::compute(const Graph& g, int k, const LinkSet* dead,
                           util::Runner* runner) {
  SPINELESS_CHECK(k >= 1 && k <= INT16_MAX);
  const LinkSet& dead_set = dead != nullptr ? *dead : kNoLinks;
  VrfTable t;
  t.k_ = k;
  t.n_ = g.num_switches();
  const auto n = static_cast<std::size_t>(t.n_);
  t.dist_.resize(n * t.states());
  t.off_.assign(n * t.states() + 1, 0);
  for_each_index(runner, n, [&](std::size_t d) {
    t.count_destination(g, dead_set, static_cast<NodeId>(d));
  });
  prefix_sum(t.off_);
  t.hops_.resize(t.off_.back());
  for_each_index(runner, n, [&](std::size_t d) {
    t.fill_destination(g, dead_set, static_cast<NodeId>(d));
  });
  return t;
}

void VrfTable::recompute_destinations(const Graph& g, const LinkSet* dead,
                                      const std::vector<NodeId>& dsts,
                                      util::Runner* runner) {
  if (dsts.empty()) return;
  const LinkSet& dead_set = dead != nullptr ? *dead : kNoLinks;
  const auto n = static_cast<std::size_t>(n_);
  const std::size_t per_dst = states();
  std::vector<char> affected(n, 0);
  for (const NodeId d : dsts) affected[static_cast<std::size_t>(d)] = 1;

  // The old CSR stays alive so unaffected destinations' slices can be
  // copied over verbatim; dist_ is updated in place because only affected
  // destinations' rows change.
  const std::vector<VrfHop> old_hops = std::move(hops_);
  const std::vector<std::uint32_t> old_off = std::move(off_);
  hops_ = {};
  off_.assign(n * per_dst + 1, 0);

  // Pass 1: fresh counts for the affected destinations; the others
  // re-derive theirs from the old offsets.
  for_each_index(runner, dsts.size(), [&](std::size_t i) {
    count_destination(g, dead_set, dsts[i]);
  });
  for (std::size_t d = 0; d < n; ++d) {
    if (affected[d]) continue;
    for (std::size_t s = d * per_dst; s < (d + 1) * per_dst; ++s)
      off_[s + 1] = old_off[s + 1] - old_off[s];
  }
  prefix_sum(off_);
  hops_.resize(off_.back());

  // Pass 2: fill the affected slices, copy the others wholesale.
  for_each_index(runner, n, [&](std::size_t d) {
    if (affected[d]) {
      fill_destination(g, dead_set, static_cast<NodeId>(d));
      return;
    }
    std::copy(old_hops.begin() + old_off[d * per_dst],
              old_hops.begin() + old_off[(d + 1) * per_dst],
              hops_.begin() + off_[d * per_dst]);
  });
}

std::vector<NodeId> VrfTable::destinations_affected_by(const Graph& g,
                                                       topo::LinkId link,
                                                       bool now_dead) const {
  const NodeId a = g.link(link).a;
  const NodeId b = g.link(link).b;
  std::vector<NodeId> out;
  for (NodeId d = 0; d < n_; ++d) {
    bool hit = false;
    if (now_dead) {
      // Removal: some installed next hop toward d crosses the link.
      for (const NodeId u : {a, b}) {
        for (int j = 1; j <= k_ && !hit; ++j)
          for (const VrfHop& hop : next_hops(u, j, d))
            if (hop.port.link == link) {
              hit = true;
              break;
            }
        if (hit) break;
      }
    } else {
      // Restore: a gadget edge (ju, u) -> (jv, v) over the link would be
      // tight or improving under the current distances. Check both
      // physical directions.
      auto direction_matters = [&](NodeId u, NodeId v) {
        for (int ju = 1; ju <= k_ && !hit; ++ju) {
          const int du = distance(u, ju, d);
          for_each_virtual_edge(ju, k_, [&](int jv, int c) {
            const int dv = distance(v, jv, d);
            if (dv < kInf && c + dv <= du) hit = true;
          });
        }
      };
      direction_matters(a, b);
      if (!hit) direction_matters(b, a);
    }
    if (hit) out.push_back(d);
  }
  return out;
}

std::vector<NodeId> VrfTable::splice_link_change(const Graph& g,
                                                 LinkSet& dead,
                                                 topo::LinkId link,
                                                 bool now_dead,
                                                 util::Runner* runner) {
  std::vector<NodeId> dsts = destinations_affected_by(g, link, now_dead);
  if (now_dead) {
    dead.insert(link);
  } else {
    dead.erase(link);
  }
  recompute_destinations(g, &dead, dsts, runner);
  return dsts;
}

bool VrfTable::theorem1_holds(const Graph& g, NodeId src, NodeId dst) const {
  if (src == dst) return true;
  const auto dist = topo::bfs_distances(g, src);
  const int l = dist[static_cast<std::size_t>(dst)];
  if (l < 0) return false;
  return source_distance(src, dst) == std::max(l, k_);
}

}  // namespace spineless::routing
