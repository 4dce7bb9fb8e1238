// Maps a data-center topology onto a MaxMinProblem: host NICs (uplink and
// downlink) and each direction of every switch-switch link are resources of
// the configured line rate. Flows follow explicit switch-level paths, the
// way a hashed ECMP/Shortest-Union flow does.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "flowsim/maxmin.h"
#include "routing/types.h"
#include "topo/graph.h"

namespace spineless::flowsim {

using routing::Path;
using topo::Graph;
using topo::HostId;
using topo::NodeId;

// The one fluid resource layout, shared by FluidNetwork, FlowLevelSimulator
// and the hybrid engine's fluid half: for H hosts and L links,
//   host uplink h | host downlink H + h | directed link 2H + 2l + dir,
// where dir is 0 for the link's a->b direction and 1 for b->a.
class ResourceLayout {
 public:
  explicit ResourceLayout(const Graph& g)
      : graph_(&g), num_hosts_(g.total_servers()) {}

  int host_up(HostId h) const { return h; }
  int host_down(HostId h) const { return num_hosts_ + h; }
  int link(topo::LinkId l, bool a_to_b) const {
    return 2 * num_hosts_ + 2 * l + (a_to_b ? 0 : 1);
  }
  std::size_t size() const {
    return 2 * static_cast<std::size_t>(num_hosts_) +
           2 * static_cast<std::size_t>(graph_->num_links());
  }

  // host_bps on every NIC resource, link_bps on every link direction.
  std::vector<double> capacities(double host_bps, double link_bps) const;

  // Appends one directed-link resource per hop of `path` (consecutive
  // switch pairs; parallel links resolve to Graph::link_between's pick,
  // so the fluid model aggregates parallel capacity onto one of them).
  // Throws if a hop is not a link.
  void append_hops(std::span<const NodeId> path, std::vector<int>& out) const;

  // A flow's full route: src uplink, every hop of `path`, dst downlink.
  // `path` must run from tor_of(src) to tor_of(dst); hosts on the same ToR
  // pass the single-element path {tor}.
  std::vector<int> flow(HostId src, HostId dst, const Path& path) const;

 private:
  const Graph* graph_;
  int num_hosts_;
};

class FluidNetwork {
 public:
  FluidNetwork(const Graph& g, double link_rate_bps);

  // Adds a long-running flow from host src to host dst along `path`
  // (ResourceLayout::flow's contract). Returns the flow id.
  int add_flow(HostId src, HostId dst, const Path& path);

  int num_flows() const { return problem_.num_flows(); }

  // Max-min fair rate per flow, bits/sec.
  std::vector<double> solve() const { return problem_.solve(); }

  // Aggregate and mean throughput helpers.
  static double total(const std::vector<double>& rates);
  static double mean(const std::vector<double>& rates);

 private:
  ResourceLayout layout_;
  MaxMinProblem problem_;
};

}  // namespace spineless::flowsim
