#include "flowsim/resource_layout.h"

#include <algorithm>

#include "util/error.h"

namespace spineless::flowsim {

std::vector<double> ResourceLayout::capacities(double host_bps,
                                               double link_bps) const {
  std::vector<double> caps(size(), link_bps);
  std::fill_n(caps.begin(), 2 * static_cast<std::size_t>(num_hosts_),
              host_bps);
  return caps;
}

void ResourceLayout::append_hops(std::span<const NodeId> path,
                                 std::vector<int>& out) const {
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    const topo::LinkId l = graph_->link_between(path[i], path[i + 1]);
    SPINELESS_CHECK_MSG(l != topo::kInvalidLink,
                        "path hop " << path[i] << "->" << path[i + 1]
                                    << " is not a link");
    out.push_back(link(l, graph_->link(l).a == path[i]));
  }
}

std::vector<int> ResourceLayout::flow(HostId src, HostId dst,
                                      const Path& path) const {
  SPINELESS_CHECK(!path.empty());
  SPINELESS_CHECK_MSG(path.front() == graph_->tor_of_host(src) &&
                          path.back() == graph_->tor_of_host(dst),
                      "path endpoints do not match host ToRs");
  std::vector<int> resources;
  resources.reserve(path.size() + 1);
  resources.push_back(host_up(src));
  append_hops(path, resources);
  resources.push_back(host_down(dst));
  return resources;
}

}  // namespace spineless::flowsim
