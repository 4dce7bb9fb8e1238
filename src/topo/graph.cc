#include "topo/graph.h"

#include <algorithm>

namespace spineless::topo {

Graph::Graph(NodeId num_switches, int ports_per_switch, std::string name)
    : name_(std::move(name)),
      ports_per_switch_(ports_per_switch),
      adjacency_(static_cast<std::size_t>(num_switches)),
      servers_(static_cast<std::size_t>(num_switches), 0) {
  SPINELESS_CHECK(num_switches > 0);
  SPINELESS_CHECK(ports_per_switch >= 0);
}

LinkId Graph::add_link(NodeId a, NodeId b) {
  SPINELESS_CHECK(a >= 0 && a < num_switches());
  SPINELESS_CHECK(b >= 0 && b < num_switches());
  SPINELESS_CHECK_MSG(a != b, "self-loop at switch " << a);
  const auto id = static_cast<LinkId>(links_.size());
  links_.push_back(Link{a, b});
  adjacency_[static_cast<std::size_t>(a)].push_back(Port{b, id});
  adjacency_[static_cast<std::size_t>(b)].push_back(Port{a, id});
  return id;
}

bool Graph::adjacent(NodeId a, NodeId b) const {
  const auto& na = neighbors(a);
  const auto& nb = neighbors(b);
  const auto& smaller = na.size() <= nb.size() ? na : nb;
  const NodeId target = na.size() <= nb.size() ? b : a;
  return std::any_of(smaller.begin(), smaller.end(),
                     [target](const Port& p) { return p.neighbor == target; });
}

LinkId Graph::link_between(NodeId u, NodeId v) const {
  for (const Port& p : neighbors(u)) {
    if (p.neighbor == v) return p.link;
  }
  return kInvalidLink;
}

void Graph::set_servers(NodeId n, int count) {
  SPINELESS_CHECK(count >= 0);
  auto& slot = servers_.at(static_cast<std::size_t>(n));
  total_servers_ += count - slot;
  slot = count;
  host_index_valid_ = false;
}

void Graph::rebuild_host_index() const {
  host_prefix_.assign(static_cast<std::size_t>(num_switches()) + 1, 0);
  for (NodeId n = 0; n < num_switches(); ++n) {
    host_prefix_[static_cast<std::size_t>(n) + 1] =
        host_prefix_[static_cast<std::size_t>(n)] +
        servers_[static_cast<std::size_t>(n)];
  }
  host_index_valid_ = true;
}

NodeId Graph::tor_of_host(HostId h) const {
  if (!host_index_valid_) rebuild_host_index();
  SPINELESS_CHECK_MSG(h >= 0 && h < total_servers_, "host " << h);
  // Binary search in the prefix-sum array.
  const auto it =
      std::upper_bound(host_prefix_.begin(), host_prefix_.end(), h);
  return static_cast<NodeId>(it - host_prefix_.begin()) - 1;
}

HostId Graph::first_host_of(NodeId n) const {
  if (!host_index_valid_) rebuild_host_index();
  return host_prefix_.at(static_cast<std::size_t>(n));
}

bool Graph::connected() const {
  if (num_switches() == 0) return true;
  std::vector<char> seen(static_cast<std::size_t>(num_switches()), 0);
  std::vector<NodeId> stack{0};
  seen[0] = 1;
  NodeId visited = 1;
  while (!stack.empty()) {
    const NodeId u = stack.back();
    stack.pop_back();
    for (const Port& p : neighbors(u)) {
      if (!seen[static_cast<std::size_t>(p.neighbor)]) {
        seen[static_cast<std::size_t>(p.neighbor)] = 1;
        ++visited;
        stack.push_back(p.neighbor);
      }
    }
  }
  return visited == num_switches();
}

Graph subgraph_without_links(const Graph& g, const std::vector<LinkId>& dead) {
  std::vector<char> drop(static_cast<std::size_t>(g.num_links()), 0);
  for (const LinkId l : dead) {
    SPINELESS_CHECK_MSG(l >= 0 && l < g.num_links(),
                        "subgraph_without_links: link id out of range");
    drop[static_cast<std::size_t>(l)] = 1;
  }
  Graph out(g.num_switches(), g.ports_per_switch(), g.name());
  for (LinkId l = 0; l < g.num_links(); ++l) {
    if (!drop[static_cast<std::size_t>(l)])
      out.add_link(g.link(l).a, g.link(l).b);
  }
  for (NodeId n = 0; n < g.num_switches(); ++n)
    out.set_servers(n, g.servers(n));
  return out;
}

void Graph::validate_ports() const {
  if (ports_per_switch_ == 0) return;
  for (NodeId n = 0; n < num_switches(); ++n) {
    SPINELESS_CHECK_MSG(ports_used(n) <= ports_per_switch_,
                        "switch " << n << " uses " << ports_used(n)
                                  << " ports, budget " << ports_per_switch_);
  }
}

}  // namespace spineless::topo
