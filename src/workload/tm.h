// Traffic matrices (§5.2). Rack-level demand weights plus a host-level
// endpoint sampler.
//
// The Facebook workloads: the paper replays rack-level weights measured at
// two 64-rack Facebook clusters (Roy et al., SIGCOMM'15) — one largely
// uniform (Hadoop) and one significantly skewed (front-end). That raw data
// is not redistributable, so `fb_like_uniform` / `fb_like_skewed` generate
// synthetic matrices with the published qualitative structure (see
// DESIGN.md §2): the uniform one is all-to-all with mild lognormal noise;
// the skewed one combines Zipf rack popularity with a handful of elephant
// rack pairs. Host-level TMs are generated natively per topology with the
// same statistical shape and the same offered load (rather than replaying
// the exact leaf-spine server numbering), which preserves the rack-level
// skew each topology sees.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "topo/graph.h"
#include "util/rng.h"

namespace spineless::workload {

using topo::Graph;
using topo::HostId;
using topo::NodeId;

// Square rack-level weight matrix indexed by switch id (weights involving
// server-less switches — leaf-spine spines — are zero by construction).
class RackTm {
 public:
  explicit RackTm(NodeId racks)
      : w_(static_cast<std::size_t>(racks),
           std::vector<double>(static_cast<std::size_t>(racks), 0.0)) {}

  double& at(NodeId a, NodeId b) {
    return w_[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)];
  }
  double at(NodeId a, NodeId b) const {
    return w_[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)];
  }
  NodeId racks() const { return static_cast<NodeId>(w_.size()); }

  // Number of racks with outgoing weight > 0 — the "racks that send
  // traffic" used for the §6.1 participating-fraction rescaling.
  int sending_racks() const;

  // Uniform / A2A: weight proportional to servers(a) * servers(b), a != b —
  // every server pair equally likely.
  static RackTm uniform(const Graph& g);
  // All servers of rack a send to all servers of rack b.
  static RackTm rack_to_rack(const Graph& g, NodeId a, NodeId b);
  // Synthetic Facebook-like matrices (see file comment).
  static RackTm fb_like_uniform(const Graph& g, std::uint64_t seed);
  static RackTm fb_like_skewed(const Graph& g, std::uint64_t seed);
  // Random rack-level permutation: each server-holding rack sends all its
  // traffic to exactly one other rack (a derangement). The classic
  // near-worst-case pattern for oversubscribed fabrics — no statistical
  // multiplexing across destinations.
  static RackTm permutation(const Graph& g, std::uint64_t seed);

 private:
  std::vector<std::vector<double>> w_;
};

// Samples host-level flow endpoints from a rack-level matrix: rack pair by
// weight, then a uniform host within each rack. An optional host
// permutation implements the paper's Random Placement (RP) variants.
class TmSampler {
 public:
  TmSampler(const Graph& g, const RackTm& tm);

  // Draws (src_host, dst_host), src != dst.
  std::pair<HostId, HostId> sample(Rng& rng) const;

  // Randomly permutes the host identity space: rack-level weights then
  // apply to shuffled hosts, modeling random VM placement (§5.2 "FB
  // skewed/uniform Random Placement").
  void apply_random_placement(Rng& rng);

  const Graph& graph() const { return graph_; }

 private:
  const Graph& graph_;
  // Flattened non-zero entries with an inclusive-prefix-sum CDF.
  std::vector<std::pair<NodeId, NodeId>> pairs_;
  std::vector<double> cdf_;
  std::vector<HostId> host_map_;  // identity unless RP applied
};

}  // namespace spineless::workload
