#include "workload/tm.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"

namespace spineless::workload {

int RackTm::sending_racks() const {
  int n = 0;
  for (const auto& row : w_) {
    for (double v : row) {
      if (v > 0) {
        ++n;
        break;
      }
    }
  }
  return n;
}

RackTm RackTm::uniform(const Graph& g) {
  RackTm tm(g.num_switches());
  for (NodeId a = 0; a < g.num_switches(); ++a) {
    for (NodeId b = 0; b < g.num_switches(); ++b) {
      if (a == b) continue;
      tm.at(a, b) = static_cast<double>(g.servers(a)) *
                    static_cast<double>(g.servers(b));
    }
  }
  return tm;
}

RackTm RackTm::rack_to_rack(const Graph& g, NodeId a, NodeId b) {
  SPINELESS_CHECK(a != b);
  SPINELESS_CHECK_MSG(g.servers(a) > 0 && g.servers(b) > 0,
                      "rack-to-rack endpoints must host servers");
  RackTm tm(g.num_switches());
  tm.at(a, b) = 1.0;
  return tm;
}

RackTm RackTm::fb_like_uniform(const Graph& g, std::uint64_t seed) {
  // Hadoop-cluster-like: close to all-to-all with mild per-pair variation.
  Rng rng(seed);
  RackTm tm(g.num_switches());
  for (NodeId a = 0; a < g.num_switches(); ++a) {
    if (g.servers(a) == 0) continue;
    for (NodeId b = 0; b < g.num_switches(); ++b) {
      if (a == b || g.servers(b) == 0) continue;
      // Lognormal(mu=0, sigma=0.3) multiplicative noise.
      const double z = std::sqrt(-2.0 * std::log(1.0 - rng.uniform_real())) *
                       std::cos(6.283185307179586 * rng.uniform_real());
      tm.at(a, b) = std::exp(0.3 * z);
    }
  }
  return tm;
}

RackTm RackTm::fb_like_skewed(const Graph& g, std::uint64_t seed) {
  // Front-end-cluster-like: strong rack-level skew. Rack popularity is
  // Zipf(1.0) over a random rack order; pair weight is the popularity outer
  // product; a handful of elephant pairs get a 20x boost. The knobs below
  // reproduce "a minority of racks carries most traffic".
  constexpr double kZipfAlpha = 1.0;
  constexpr int kElephants = 6;
  constexpr double kElephantBoost = 20.0;

  Rng rng(seed);
  std::vector<NodeId> racks;
  for (NodeId n = 0; n < g.num_switches(); ++n)
    if (g.servers(n) > 0) racks.push_back(n);
  rng.shuffle(racks);
  ZipfSampler zipf(racks.size(), kZipfAlpha);

  RackTm tm(g.num_switches());
  for (std::size_t i = 0; i < racks.size(); ++i) {
    for (std::size_t j = 0; j < racks.size(); ++j) {
      if (i == j) continue;
      tm.at(racks[i], racks[j]) = zipf.probability(i) * zipf.probability(j);
    }
  }
  for (int e = 0; e < kElephants && racks.size() >= 2; ++e) {
    const std::size_t i = rng.uniform(racks.size());
    std::size_t j = rng.uniform(racks.size());
    if (i == j) j = (j + 1) % racks.size();
    tm.at(racks[i], racks[j]) *= kElephantBoost;
  }
  return tm;
}

RackTm RackTm::permutation(const Graph& g, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<NodeId> racks;
  for (NodeId n = 0; n < g.num_switches(); ++n)
    if (g.servers(n) > 0) racks.push_back(n);
  SPINELESS_CHECK_MSG(racks.size() >= 2, "permutation needs >= 2 racks");
  // Random derangement by rejection (expected ~e attempts).
  std::vector<NodeId> target = racks;
  for (int attempt = 0; attempt < 1000; ++attempt) {
    rng.shuffle(target);
    bool fixed_point = false;
    for (std::size_t i = 0; i < racks.size(); ++i)
      fixed_point |= racks[i] == target[i];
    if (!fixed_point) break;
    SPINELESS_CHECK_MSG(attempt + 1 < 1000, "derangement rejection failed");
  }
  RackTm tm(g.num_switches());
  for (std::size_t i = 0; i < racks.size(); ++i) {
    tm.at(racks[i], target[i]) = static_cast<double>(g.servers(racks[i]));
  }
  return tm;
}

TmSampler::TmSampler(const Graph& g, const RackTm& tm) : graph_(g) {
  SPINELESS_CHECK(tm.racks() == g.num_switches());
  double acc = 0;
  for (NodeId a = 0; a < g.num_switches(); ++a) {
    for (NodeId b = 0; b < g.num_switches(); ++b) {
      const double v = tm.at(a, b);
      if (v <= 0) continue;
      SPINELESS_CHECK_MSG(g.servers(a) > 0 && g.servers(b) > 0,
                          "TM weight on server-less switch " << a << "->" << b);
      pairs_.emplace_back(a, b);
      acc += v;
      cdf_.push_back(acc);
    }
  }
  SPINELESS_CHECK_MSG(!pairs_.empty(), "empty traffic matrix");
  for (double& c : cdf_) c /= acc;
  cdf_.back() = 1.0;
  host_map_.resize(static_cast<std::size_t>(g.total_servers()));
  for (HostId h = 0; h < g.total_servers(); ++h)
    host_map_[static_cast<std::size_t>(h)] = h;
}

std::pair<HostId, HostId> TmSampler::sample(Rng& rng) const {
  const double u = rng.uniform_real();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  const auto idx = static_cast<std::size_t>(it - cdf_.begin());
  const auto [ra, rb] = pairs_[std::min(idx, pairs_.size() - 1)];
  for (int attempt = 0; attempt < 64; ++attempt) {
    const HostId src =
        graph_.first_host_of(ra) +
        static_cast<HostId>(rng.uniform(static_cast<std::uint64_t>(
            graph_.servers(ra))));
    const HostId dst =
        graph_.first_host_of(rb) +
        static_cast<HostId>(rng.uniform(static_cast<std::uint64_t>(
            graph_.servers(rb))));
    if (src != dst)
      return {host_map_[static_cast<std::size_t>(src)],
              host_map_[static_cast<std::size_t>(dst)]};
  }
  throw Error("TmSampler: could not draw distinct hosts (1-server rack pair?)");
}

void TmSampler::apply_random_placement(Rng& rng) { rng.shuffle(host_map_); }

}  // namespace spineless::workload
