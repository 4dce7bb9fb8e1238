#include "routing/bfs_sampler.h"

#include "util/rng.h"

namespace spineless::routing {

Path BfsSampler::sample(NodeId src, NodeId dst, Rng& rng) {
  if (dead_.empty() && excluded_.empty())
    return walk<false>(src, dst, dist_to<false>(dst), rng);
  return walk<true>(src, dst, dist_to<true>(dst), rng);
}

void BfsSampler::set_link_dead(LinkId link, bool dead) {
  if (dead) {
    dead_.insert(link);
  } else {
    dead_.erase(link);
  }
  cache_.clear();
}

// Excluded switches get a distance when first reached but are never
// expanded, so a distance through them is never propagated while an
// excluded source still learns its own distance.
template <bool kFiltered>
const std::vector<std::int32_t>& BfsSampler::dist_to(NodeId dst) {
  for (const auto& e : cache_) {
    if (e.first == dst) return e.second;
  }
  std::vector<std::int32_t> dist(static_cast<std::size_t>(g_.num_switches()),
                                 -1);
  std::vector<NodeId> frontier{dst};
  dist[static_cast<std::size_t>(dst)] = 0;
  std::vector<NodeId> next;
  while (!frontier.empty()) {
    next.clear();
    for (NodeId n : frontier) {
      const std::int32_t d = dist[static_cast<std::size_t>(n)];
      for (const Port& p : g_.neighbors(n)) {
        if (kFiltered && dead_.contains(p.link)) continue;
        auto& dn = dist[static_cast<std::size_t>(p.neighbor)];
        if (dn < 0) {
          dn = d + 1;
          if (kFiltered && !excluded_.empty() && masked(p.neighbor)) continue;
          next.push_back(p.neighbor);
        }
      }
    }
    frontier.swap(next);
  }
  if (cache_.size() >= kMaxCached) cache_.erase(cache_.begin());
  cache_.emplace_back(dst, std::move(dist));
  return cache_.back().second;
}

template <bool kFiltered>
Path BfsSampler::walk(NodeId src, NodeId dst,
                      const std::vector<std::int32_t>& dist, Rng& rng) {
  if (dist[static_cast<std::size_t>(src)] < 0) return {};
  Path path{src};
  NodeId cur = src;
  while (cur != dst) {
    const std::int32_t d = dist[static_cast<std::size_t>(cur)];
    scratch_.clear();
    for (const Port& p : g_.neighbors(cur)) {
      if (dist[static_cast<std::size_t>(p.neighbor)] != d - 1) continue;
      if (kFiltered &&
          (dead_.contains(p.link) ||
           (p.neighbor != dst && !excluded_.empty() && masked(p.neighbor))))
        continue;
      scratch_.push_back(p.neighbor);
    }
    cur = scratch_[rng.uniform(scratch_.size())];
    path.push_back(cur);
  }
  return path;
}

}  // namespace spineless::routing
