#include "routing/ecmp.h"

#include <algorithm>
#include <deque>

#include "topo/analysis.h"
#include "util/rng.h"
#include "util/runner.h"

namespace spineless::routing {

namespace {

// BFS distances honoring a dead-link set. The no-failures case dispatches
// to the plain BFS up front so the inner loop never tests for it.
std::vector<int> bfs_avoiding(const Graph& g, NodeId src,
                              const LinkSet* dead) {
  if (dead == nullptr || dead->empty()) return topo::bfs_distances(g, src);
  std::vector<int> dist(static_cast<std::size_t>(g.num_switches()), -1);
  std::deque<NodeId> queue{src};
  dist[static_cast<std::size_t>(src)] = 0;
  while (!queue.empty()) {
    const NodeId u = queue.front();
    queue.pop_front();
    const int next = dist[static_cast<std::size_t>(u)] + 1;
    for (const Port& p : g.neighbors(u)) {
      if (dead->contains(p.link)) continue;
      auto& d = dist[static_cast<std::size_t>(p.neighbor)];
      if (d < 0) {
        d = next;
        queue.push_back(p.neighbor);
      }
    }
  }
  return dist;
}

// One destination's slice of pass 1: BFS from dst, store the distance row,
// and count each node's tight next hops (live neighbors one hop closer)
// into count_row.
void count_next_hops(const Graph& g, NodeId dst, const LinkSet* dead,
                     int* dist_row, std::uint32_t* count_row) {
  const bool filtering = dead != nullptr && !dead->empty();
  const auto dist = bfs_avoiding(g, dst, dead);
  for (NodeId u = 0; u < g.num_switches(); ++u) {
    const int du = dist[static_cast<std::size_t>(u)];
    dist_row[static_cast<std::size_t>(u)] = du;
    if (u == dst) continue;
    if (du < 0) {
      SPINELESS_CHECK_MSG(filtering, "disconnected graph in EcmpTable");
      continue;
    }
    std::uint32_t c = 0;
    for (const Port& p : g.neighbors(u)) {
      if (filtering && dead->contains(p.link)) continue;
      if (dist[static_cast<std::size_t>(p.neighbor)] == du - 1) ++c;
    }
    count_row[static_cast<std::size_t>(u)] = c;
  }
}

// One destination's slice of pass 2: re-derive the tight sets from the
// stored distance row and write them, in port order, at ports + off_row[u].
void fill_next_hops(const Graph& g, NodeId dst, const LinkSet* dead,
                    const int* dist_row, const std::uint32_t* off_row,
                    Port* ports) {
  const bool filtering = dead != nullptr && !dead->empty();
  for (NodeId u = 0; u < g.num_switches(); ++u) {
    if (u == dst) continue;
    const int du = dist_row[static_cast<std::size_t>(u)];
    if (du < 0) continue;
    Port* out = ports + off_row[static_cast<std::size_t>(u)];
    for (const Port& p : g.neighbors(u)) {
      if (filtering && dead->contains(p.link)) continue;
      if (dist_row[static_cast<std::size_t>(p.neighbor)] == du - 1)
        *out++ = p;
    }
  }
}

}  // namespace

EcmpTable EcmpTable::compute(const Graph& g, const LinkSet* dead,
                             util::Runner* runner) {
  EcmpTable t;
  t.n_ = g.num_switches();
  const auto n = static_cast<std::size_t>(g.num_switches());
  t.dist_.resize(n * n, -1);
  t.off_.assign(n * n + 1, 0);

  // Pass 1 — per destination (independent slices of dist_ and off_): BFS,
  // store the distance row, and count the tight next hops per (dst, node)
  // into off_[index + 1].
  auto count_for_dst = [&](std::size_t d) {
    count_next_hops(g, static_cast<NodeId>(d), dead, t.dist_.data() + d * n,
                    t.off_.data() + d * n + 1);
  };

  // Pass 2 — exclusive prefix sum over the counts (serial, cheap) turns
  // off_ into the CSR offset table, then the ports fill re-derives the
  // tight sets from the stored distance rows — again per-destination into
  // disjoint ranges, so parallel order cannot change the layout.
  auto fill_for_dst = [&](std::size_t d) {
    fill_next_hops(g, static_cast<NodeId>(d), dead, t.dist_.data() + d * n,
                   t.off_.data() + d * n, t.ports_.data());
  };

  if (runner != nullptr && runner->jobs() > 1 && n > 1) {
    runner->run_batch(n, count_for_dst);
    for (std::size_t i = 1; i <= n * n; ++i) t.off_[i] += t.off_[i - 1];
    t.ports_.resize(t.off_.back());
    runner->run_batch(n, fill_for_dst);
  } else {
    for (std::size_t d = 0; d < n; ++d) count_for_dst(d);
    for (std::size_t i = 1; i <= n * n; ++i) t.off_[i] += t.off_[i - 1];
    t.ports_.resize(t.off_.back());
    for (std::size_t d = 0; d < n; ++d) fill_for_dst(d);
  }
  return t;
}

void EcmpTable::recompute_destinations(const Graph& g, const LinkSet* dead,
                                       const std::vector<NodeId>& dsts,
                                       util::Runner* runner) {
  if (dsts.empty()) return;
  const auto n = static_cast<std::size_t>(n_);
  std::vector<char> affected(n, 0);
  for (const NodeId d : dsts) affected[static_cast<std::size_t>(d)] = 1;

  // The old CSR stays alive so unaffected destinations' slices (which are
  // contiguous per destination) can be copied over verbatim; dist_ is
  // updated in place because only affected rows change.
  const std::vector<Port> old_ports = std::move(ports_);
  const std::vector<std::uint32_t> old_off = std::move(off_);
  ports_ = {};
  off_.assign(n * n + 1, 0);

  // Pass 1: fresh BFS + next-hop counts for each affected destination;
  // unaffected destinations re-derive their counts from the old offsets.
  auto count_affected = [&](std::size_t i) {
    const auto d = static_cast<std::size_t>(dsts[i]);
    count_next_hops(g, dsts[i], dead, dist_.data() + d * n,
                    off_.data() + d * n + 1);
  };
  if (runner != nullptr && runner->jobs() > 1 && dsts.size() > 1) {
    runner->run_batch(dsts.size(), count_affected);
  } else {
    for (std::size_t i = 0; i < dsts.size(); ++i) count_affected(i);
  }
  for (std::size_t d = 0; d < n; ++d) {
    if (affected[d]) continue;
    const std::uint32_t* old_row = old_off.data() + d * n;
    std::uint32_t* count_row = off_.data() + d * n + 1;
    for (std::size_t u = 0; u < n; ++u)
      count_row[u] = old_row[u + 1] - old_row[u];
  }

  for (std::size_t i = 1; i <= n * n; ++i) off_[i] += off_[i - 1];
  ports_.resize(off_.back());

  // Pass 2: fill affected slices from the fresh dist rows, copy unaffected
  // slices wholesale (per-destination ranges are disjoint, so parallel
  // order cannot change the layout).
  auto fill_dst = [&](std::size_t d) {
    if (!affected[d]) {
      std::copy(old_ports.begin() + old_off[d * n],
                old_ports.begin() + old_off[(d + 1) * n],
                ports_.begin() + off_[d * n]);
      return;
    }
    fill_next_hops(g, static_cast<NodeId>(d), dead, dist_.data() + d * n,
                   off_.data() + d * n, ports_.data());
  };
  if (runner != nullptr && runner->jobs() > 1 && n > 1) {
    runner->run_batch(n, fill_dst);
  } else {
    for (std::size_t d = 0; d < n; ++d) fill_dst(d);
  }
}

std::vector<NodeId> EcmpTable::destinations_affected_by(const Graph& g,
                                                        topo::LinkId link,
                                                        bool now_dead) const {
  const NodeId a = g.link(link).a;
  const NodeId b = g.link(link).b;
  std::vector<NodeId> out;
  for (NodeId d = 0; d < n_; ++d) {
    if (now_dead) {
      // Removal: d is affected iff the link sits on some shortest path
      // toward d, i.e. either endpoint's next-hop set references it.
      bool used = false;
      for (const Port& p : next_hops(a, d))
        if (p.link == link) { used = true; break; }
      if (!used)
        for (const Port& p : next_hops(b, d))
          if (p.link == link) { used = true; break; }
      if (used) out.push_back(d);
    } else {
      // Restore: a link joining nodes at equal distance to d creates no
      // new shortest path; one joining a reachable to an unreachable node
      // (or nodes at different distances) can.
      const int da = distance(a, d);
      const int db = distance(b, d);
      if (da < 0 && db < 0) continue;
      if (da < 0 || db < 0 || da != db) out.push_back(d);
    }
  }
  return out;
}

std::vector<NodeId> EcmpTable::splice_link_change(const Graph& g,
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

Path sample_ecmp_path(const EcmpTable& table, NodeId src, NodeId dst,
                      Rng& rng) {
  if (table.distance(src, dst) < 0) return {};
  Path path{src};
  for (NodeId node = src; node != dst;) {
    const auto hops = table.next_hops(node, dst);
    node = hops[rng.uniform(hops.size())].neighbor;
    path.push_back(node);
  }
  return path;
}

bool ecmp_table_valid(const Graph& g, const EcmpTable& table,
                      const LinkSet* dead) {
  if (table.num_switches() != g.num_switches()) return false;
  const bool filtering = dead != nullptr && !dead->empty();
  for (NodeId dst = 0; dst < g.num_switches(); ++dst) {
    // Table distances must be the true hop distances of the surviving graph.
    const auto bfs = bfs_avoiding(g, dst, dead);
    for (NodeId u = 0; u < g.num_switches(); ++u) {
      if (u == dst) continue;
      if (table.distance(u, dst) != bfs[static_cast<std::size_t>(u)])
        return false;
      const auto hops = table.next_hops(u, dst);
      if (bfs[static_cast<std::size_t>(u)] < 0) {
        // Cut off by failures: the empty set is the only valid answer.
        if (!hops.empty()) return false;
        continue;
      }
      if (hops.empty()) return false;
      for (const Port& p : hops) {
        if (!g.adjacent(u, p.neighbor)) return false;
        if (filtering && dead->contains(p.link)) return false;
        if (table.distance(p.neighbor, dst) != table.distance(u, dst) - 1)
          return false;
      }
    }
  }
  return true;
}

}  // namespace spineless::routing
