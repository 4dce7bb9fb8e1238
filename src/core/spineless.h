// Umbrella header for the spineless library — everything a downstream user
// needs to build topologies, route them, and reproduce the paper's
// experiments.
//
// Layering (see DESIGN.md):
//   topo     — graphs + builders (leaf-spine, DRing, RRG, flat transform)
//   routing  — ECMP, Shortest-Union(K), the §4 VRF gadget, KSP/VLB baselines
//   ctrl     — BGP+VRF control-plane realization of Shortest-Union(K)
//   sim      — packet-level simulator (TCP, drop-tail queues, ECMP hashing)
//   flowsim  — max-min fair fluid model for long-running flows
//   workload — traffic matrices, C-S model, Pareto flow generation
//   core     — scenarios and experiment runners (this layer)
#pragma once

#include "core/adaptive.h"
#include "core/fct_experiment.h"
#include "core/scenario.h"
#include "core/throughput_experiment.h"
#include "core/udf_report.h"
#include "ctrl/bgp.h"
#include "ctrl/config_gen.h"
#include "flowsim/maxmin.h"
#include "flowsim/resource_layout.h"
#include "routing/disjoint.h"
#include "routing/ksp.h"
#include "routing/paths.h"
#include "routing/vlb.h"
#include "routing/vrf.h"
#include "sim/incast_driver.h"
#include "sim/monitor.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "sim/striping.h"
#include "sim/tcp.h"
#include "topo/analysis.h"
#include "topo/builders.h"
#include "topo/expand.h"
#include "topo/export.h"
#include "topo/wiring.h"
#include "topo/graph.h"
#include "workload/cs_model.h"
#include "workload/incast.h"
#include "workload/flows.h"
#include "workload/tm.h"
