// Router-configuration generator for the §4 scheme — the paper notes "the
// routing configurations at each router can be generated by a simple
// script to avoid errors"; this is that script, emitting IOS-style
// configuration for each router of a topology:
//
//   * K VRF definitions; host-facing interfaces in VRF K;
//   * one /31 subinterface pair per virtual connection of the gadget,
//     binding each eBGP session to the right (VRF, VRF) pair over the
//     physical link;
//   * one BGP process per router (unique private AS), address families per
//     VRF, neighbors with `route-map PREPEND_<c> out` applying the cost-c
//     AS-path prepend, and `maximum-paths` for multipath.
//
// The addressing plan is deterministic: loopback 10.<id/256>.<id%256>.1,
// rack subnet 10.128.<id/256>.<id%256>/26 (up to 62 hosts — adjust for
// larger racks), and point-to-point /31s carved from 172.16.0.0/12 by
// (link id, virtual-connection index).
#pragma once

#include <string>

#include "topo/graph.h"

namespace spineless::ctrl {

struct ConfigGenOptions {
  int k = 2;  // VRF count = Shortest-Union K
};

// Full configuration text for one router.
std::string router_config(const topo::Graph& g, topo::NodeId router,
                          const ConfigGenOptions& opts = {});

// Concatenated configs for every router, separated by banner comments —
// what you would paste into the emulator (the paper used GNS3).
std::string full_deployment_config(const topo::Graph& g,
                                   const ConfigGenOptions& opts = {});

}  // namespace spineless::ctrl
