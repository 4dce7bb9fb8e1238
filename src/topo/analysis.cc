#include "topo/analysis.h"

#include <algorithm>
#include <deque>
#include <limits>

#include "util/rng.h"

namespace spineless::topo {

NsrStats network_server_ratio(const Graph& g) {
  NsrStats stats;
  stats.min = std::numeric_limits<double>::infinity();
  double sum = 0;
  int count = 0;
  for (NodeId n = 0; n < g.num_switches(); ++n) {
    if (g.servers(n) == 0) continue;
    const double nsr = static_cast<double>(g.network_degree(n)) /
                       static_cast<double>(g.servers(n));
    stats.min = std::min(stats.min, nsr);
    stats.max = std::max(stats.max, nsr);
    sum += nsr;
    ++count;
  }
  SPINELESS_CHECK_MSG(count > 0, "topology has no servers");
  stats.mean = sum / count;
  return stats;
}

double udf(const Graph& baseline, const Graph& flat) {
  return network_server_ratio(flat).mean / network_server_ratio(baseline).mean;
}

double leaf_spine_nsr(int x, int y) {
  // Each leaf has y uplinks and x server ports (§3.1).
  return static_cast<double>(y) / static_cast<double>(x);
}

double leaf_spine_flat_nsr(int x, int y) {
  // §3.1: NSR(F(T)) = ((x+y) - s) / s with s = x(x+y)/(x+2y), which
  // simplifies to 2y/x.
  return 2.0 * static_cast<double>(y) / static_cast<double>(x);
}

double leaf_spine_udf(int x, int y) {
  return leaf_spine_flat_nsr(x, y) / leaf_spine_nsr(x, y);  // == 2
}

std::vector<int> bfs_distances(const Graph& g, NodeId src) {
  std::vector<int> dist(static_cast<std::size_t>(g.num_switches()), -1);
  std::deque<NodeId> queue{src};
  dist[static_cast<std::size_t>(src)] = 0;
  while (!queue.empty()) {
    const NodeId u = queue.front();
    queue.pop_front();
    for (const Port& p : g.neighbors(u)) {
      auto& d = dist[static_cast<std::size_t>(p.neighbor)];
      if (d < 0) {
        d = dist[static_cast<std::size_t>(u)] + 1;
        queue.push_back(p.neighbor);
      }
    }
  }
  return dist;
}

PathLengthStats path_length_stats(const Graph& g) {
  PathLengthStats stats;
  double sum = 0;
  std::int64_t pairs = 0;
  for (NodeId n = 0; n < g.num_switches(); ++n) {
    const auto dist = bfs_distances(g, n);
    for (NodeId m = 0; m < g.num_switches(); ++m) {
      if (m == n) continue;
      SPINELESS_CHECK_MSG(dist[static_cast<std::size_t>(m)] >= 0,
                          "graph is disconnected");
      stats.diameter =
          std::max(stats.diameter, dist[static_cast<std::size_t>(m)]);
      sum += dist[static_cast<std::size_t>(m)];
      ++pairs;
    }
  }
  stats.mean = pairs > 0 ? sum / static_cast<double>(pairs) : 0.0;
  return stats;
}

std::int64_t count_shortest_paths(const Graph& g, NodeId src, NodeId dst,
                                  std::int64_t cap) {
  const auto dist = bfs_distances(g, src);
  SPINELESS_CHECK(dist[static_cast<std::size_t>(dst)] >= 0);
  // DP over the BFS DAG in distance order.
  std::vector<std::int64_t> ways(static_cast<std::size_t>(g.num_switches()), 0);
  ways[static_cast<std::size_t>(src)] = 1;
  // Process nodes sorted by distance.
  std::vector<NodeId> order(static_cast<std::size_t>(g.num_switches()));
  for (NodeId n = 0; n < g.num_switches(); ++n)
    order[static_cast<std::size_t>(n)] = n;
  std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    return dist[static_cast<std::size_t>(a)] < dist[static_cast<std::size_t>(b)];
  });
  for (NodeId u : order) {
    if (ways[static_cast<std::size_t>(u)] == 0) continue;
    for (const Port& p : g.neighbors(u)) {
      if (dist[static_cast<std::size_t>(p.neighbor)] ==
          dist[static_cast<std::size_t>(u)] + 1) {
        auto& w = ways[static_cast<std::size_t>(p.neighbor)];
        w = std::min(cap, w + ways[static_cast<std::size_t>(u)]);
      }
    }
  }
  return ways[static_cast<std::size_t>(dst)];
}

double mean_host_path_length(const Graph& g) {
  double weighted = 0;
  double weight = 0;
  for (NodeId a = 0; a < g.num_switches(); ++a) {
    if (g.servers(a) == 0) continue;
    const auto dist = bfs_distances(g, a);
    for (NodeId b = 0; b < g.num_switches(); ++b) {
      if (b == a || g.servers(b) == 0) continue;
      SPINELESS_CHECK(dist[static_cast<std::size_t>(b)] >= 0);
      const double w = static_cast<double>(g.servers(a)) *
                       static_cast<double>(g.servers(b));
      weighted += w * dist[static_cast<std::size_t>(b)];
      weight += w;
    }
  }
  SPINELESS_CHECK(weight > 0);
  return weighted / weight;
}

ThroughputBounds uniform_throughput_bounds(const Graph& g, int cut_trials,
                                           std::uint64_t seed) {
  ThroughputBounds b;
  const double hosts = static_cast<double>(g.total_servers());
  b.distance_bound = 2.0 * static_cast<double>(g.num_links()) /
                     (hosts * mean_host_path_length(g));
  b.bisection_bound =
      4.0 * static_cast<double>(bisection_upper_bound(g, cut_trials, seed)) /
      hosts;
  return b;
}

namespace {

int cut_size(const Graph& g, const std::vector<char>& side) {
  int cut = 0;
  for (const Link& l : g.links())
    cut += side[static_cast<std::size_t>(l.a)] !=
           side[static_cast<std::size_t>(l.b)];
  return cut;
}

}  // namespace

int bisection_upper_bound(const Graph& g, int trials, std::uint64_t seed) {
  const auto n = static_cast<std::size_t>(g.num_switches());
  const std::size_t half = n / 2;
  int best = std::numeric_limits<int>::max();

  // Contiguous sweep cuts (optimal for ring-like node layouts).
  std::vector<char> side(n, 0);
  for (std::size_t start = 0; start < n; ++start) {
    std::fill(side.begin(), side.end(), 0);
    for (std::size_t i = 0; i < half; ++i) side[(start + i) % n] = 1;
    best = std::min(best, cut_size(g, side));
  }

  // Random balanced cuts.
  Rng rng(seed);
  std::vector<std::size_t> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = i;
  for (int t = 0; t < trials; ++t) {
    rng.shuffle(perm);
    std::fill(side.begin(), side.end(), 0);
    for (std::size_t i = 0; i < half; ++i) side[perm[i]] = 1;
    best = std::min(best, cut_size(g, side));
  }
  return best;
}

}  // namespace spineless::topo
