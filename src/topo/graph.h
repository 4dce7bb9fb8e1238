// Switch-level data-center topology graph.
//
// Nodes are switches; undirected links connect switch pairs (parallel links
// are allowed — a multigraph). Each switch additionally hosts a number of
// servers ("server ports"); in a *flat* network every switch hosts servers,
// in a leaf-spine only the leaves do. Hosts get global contiguous ids so the
// workload and simulation layers can address them directly.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/error.h"

namespace spineless::topo {

using NodeId = std::int32_t;
using LinkId = std::int32_t;
using HostId = std::int32_t;

constexpr NodeId kInvalidNode = -1;
constexpr LinkId kInvalidLink = -1;

struct Link {
  NodeId a = kInvalidNode;
  NodeId b = kInvalidNode;
};

// One network port of a switch: the neighbor it reaches and the link id.
struct Port {
  NodeId neighbor = kInvalidNode;
  LinkId link = kInvalidLink;
};

class Graph {
 public:
  // ports_per_switch == 0 disables the port-budget check.
  explicit Graph(NodeId num_switches, int ports_per_switch = 0,
                 std::string name = "graph");

  const std::string& name() const noexcept { return name_; }
  NodeId num_switches() const noexcept {
    return static_cast<NodeId>(adjacency_.size());
  }
  LinkId num_links() const noexcept {
    return static_cast<LinkId>(links_.size());
  }
  int ports_per_switch() const noexcept { return ports_per_switch_; }

  LinkId add_link(NodeId a, NodeId b);
  const Link& link(LinkId id) const { return links_.at(static_cast<std::size_t>(id)); }
  const std::vector<Link>& links() const noexcept { return links_; }

  // True if a and b share at least one direct link.
  bool adjacent(NodeId a, NodeId b) const;
  // The first link from u to v in u's port order (parallel links: the
  // lowest port index, deterministically); kInvalidLink if none.
  LinkId link_between(NodeId u, NodeId v) const;

  const std::vector<Port>& neighbors(NodeId n) const {
    return adjacency_.at(static_cast<std::size_t>(n));
  }
  int network_degree(NodeId n) const {
    return static_cast<int>(neighbors(n).size());
  }

  void set_servers(NodeId n, int count);
  int servers(NodeId n) const {
    return servers_.at(static_cast<std::size_t>(n));
  }
  HostId total_servers() const noexcept { return total_servers_; }

  // Host <-> switch mapping. Hosts are numbered contiguously per switch in
  // switch-id order; rebuilt lazily after set_servers calls.
  NodeId tor_of_host(HostId h) const;
  HostId first_host_of(NodeId n) const;
  // Hosts attached to switch n are [first_host_of(n), first_host_of(n)+servers(n)).

  bool connected() const;

  // Total ports used at switch n (network + server).
  int ports_used(NodeId n) const {
    return network_degree(n) + servers(n);
  }

  // Throws if any switch exceeds the port budget (no-op when budget is 0).
  void validate_ports() const;

 private:
  void rebuild_host_index() const;

  std::string name_;
  int ports_per_switch_ = 0;
  std::vector<std::vector<Port>> adjacency_;
  std::vector<Link> links_;
  std::vector<int> servers_;
  HostId total_servers_ = 0;

  mutable std::vector<HostId> host_prefix_;  // size num_switches()+1
  mutable bool host_index_valid_ = false;
};

// The graph with the given links removed (failure modeling for control-
// plane tests and benches). Node ids and server placement are preserved;
// link ids are renumbered densely in original order — surviving links keep
// their relative order but not their ids.
Graph subgraph_without_links(const Graph& g, const std::vector<LinkId>& dead);

}  // namespace spineless::topo
