// Link-state (OSPF-style) control plane — the other standard protocol the
// paper names for these networks ("running shortest-path routing (BGP or
// OSPF) with equal cost multipath", §2). Complements ctrl/bgp.h: plain
// shortest-path ECMP comes from either protocol; only Shortest-Union(K)
// needs the BGP+VRF gadget.
//
// Model: every router originates a sequence-numbered LSA listing its live
// adjacencies; flooding runs in synchronous rounds (a router forwards LSAs
// that are new to it to all neighbors each round). Once link-state
// databases are complete, each router runs SPF over ITS OWN LSDB to get
// per-destination ECMP next hops — verified in tests to equal the
// analytically computed K = 1 VrfTable. Link failures re-originate the two
// endpoint LSAs and reflood.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "topo/graph.h"

namespace spineless::ctrl {

using topo::Graph;
using topo::LinkId;
using topo::NodeId;
using topo::Port;

class OspfNetwork {
 public:
  explicit OspfNetwork(const Graph& g);

  // Floods until no LSDB changes; returns rounds used (0 if quiescent).
  int flood(int max_rounds = 10'000);

  // True when every router's LSDB contains the newest LSA of every router.
  bool converged() const;

  // Total LSA messages transmitted so far (control-plane load metric).
  std::int64_t messages_sent() const noexcept { return messages_; }

  // Tears down / restores a link: endpoints re-originate their LSAs with
  // bumped sequence numbers. Call flood() afterwards.
  void fail_link(LinkId link);
  void restore_link(LinkId link);

  // ECMP next hops at `router` toward `dst`, computed by SPF over the
  // router's own LSDB. Empty if the LSDB says dst is unreachable.
  std::vector<Port> next_hops(NodeId router, NodeId dst) const;

  // Hop distance router -> dst per the router's LSDB (-1 if unreachable).
  int distance(NodeId router, NodeId dst) const;

 private:
  struct Lsa {
    std::int64_t seq = 0;
    // Live adjacencies of the origin: (neighbor, link id).
    std::vector<Port> adjacencies;
  };

  // The LSDB-derived adjacency view at a router.
  std::vector<std::vector<Port>> lsdb_view(NodeId router) const;
  void reoriginate(NodeId router);
  bool link_up(LinkId link) const { return !down_.count(link); }

  const Graph& graph_;
  std::set<LinkId> down_;
  // lsdb_[router][origin] = best-known LSA of `origin` at `router`.
  std::vector<std::vector<Lsa>> lsdb_;
  // Self sequence numbers.
  std::vector<std::int64_t> seq_;
  std::int64_t messages_ = 0;
};

}  // namespace spineless::ctrl
