#include "service/warm_state.h"

#include <algorithm>
#include <utility>

#include "core/throughput_experiment.h"
#include "fault/degradation.h"
#include "fault/fault_plan.h"
#include "flowsim/flow_level_sim.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "sim/snapshot.h"
#include "sim/tcp.h"
#include "util/error.h"
#include "util/fsio.h"
#include "util/rng.h"
#include "workload/tm.h"

namespace spineless::service {
namespace {

// Goodput sampling cadence for the degradation monitor (same cadence the
// failure bench uses; ~32 samples over the default 8 ms horizon).
constexpr Time kMonInterval = 250 * units::kMicrosecond;

// Baseline-scalars snapshot section ('SRVB') and its format version.
constexpr std::uint32_t kBaselineTag = 0x53525642;
constexpr std::uint32_t kBaselineVersion = 1;

constexpr const char* kWarmFile = "/service_warm.snap";
constexpr const char* kBaselineFile = "/service_baseline.snap";

// The packet-level experiment every request (and the warm build)
// reconstructs. Member declaration order IS the protocol: it fixes the
// simulator oid sequence and the CheckpointSession part order, so a
// request-side reconstruction restores the warm build's bytes verbatim.
// Changing this order is a snapshot format change.
struct PacketExperiment {
  sim::Network net;
  sim::FlowDriver driver;
  fault::FaultPlan plan;  // must outlive inj (held by reference)
  fault::DegradationMonitor mon;
  fault::FaultInjector inj;
  sim::CheckpointSession session;

  PacketExperiment(const topo::Graph& g, const ServiceConfig& cfg,
                   fault::FaultPlan p, std::uint64_t config_hash)
      : net(g, cfg.net),
        driver(net, cfg.tcp),
        plan(std::move(p)),
        mon(net, kMonInterval),
        inj(net, plan, cfg.fault),
        session(net, config_hash) {
    session.add(&driver);
    session.add(&mon);
    session.add(&inj);
  }

  void add_flows(sim::Simulator& sim,
                 const std::vector<workload::FlowSpec>& flows) {
    for (const auto& f : flows)
      driver.add_flow(sim, f.src, f.dst, f.bytes, f.start);
  }

  // Advances `sim` to `deadline`, polling the cooperative cancel hook at 32
  // quiescent boundaries; without a hook the run is one segment. Returns
  // false when canceled.
  static bool run(sim::Simulator& sim, Time deadline,
                  const std::function<bool()>& cancel) {
    sim::CheckpointSpec spec;
    spec.cancel = cancel;
    const Time step =
        cancel ? std::max<Time>(1, (deadline - sim.now()) / 32) : deadline;
    return sim::run_segments(sim, nullptr, spec, deadline, step);
  }
};

fault::FaultPlan parse_plan(const std::string& spec, const topo::Graph& g,
                            std::uint64_t seed) {
  // An empty spec is the identity what-if: it must reproduce the baseline
  // byte-for-byte (the core warm-restore validation).
  if (spec.find_first_not_of(" \t;") == std::string::npos)
    return fault::FaultPlan::from_actions({}, seed);
  return fault::FaultPlan::parse(spec, g, seed);
}

}  // namespace

namespace {
topo::Graph make_graph(const ServiceConfig& cfg) {
  if (cfg.topology == "dring") return std::move(cfg.scenario.dring().graph);
  if (cfg.topology == "rrg") return cfg.scenario.rrg();
  if (cfg.topology == "leafspine") return cfg.scenario.leaf_spine();
  throw Error("service: unknown topology '" + cfg.topology +
              "' (expected dring | rrg | leafspine)");
}
}  // namespace

std::unique_ptr<WarmState> WarmState::build(const ServiceConfig& cfg) {
  std::unique_ptr<WarmState> ws(new WarmState(make_graph(cfg)));
  ws->cfg_ = cfg;

  // The service always runs the serial engine: request horizons are short,
  // many requests run concurrently across the worker pool, and serial vs.
  // sharded answers are byte-identical anyway.
  ws->cfg_.net.intra_jobs = 1;
  if (ws->cfg_.flowgen.offered_load_bps <= 0) {
    ws->cfg_.flowgen.offered_load_bps = workload::spine_offered_load_bps(
        cfg.scenario.x, cfg.scenario.y,
        static_cast<double>(ws->cfg_.net.link_rate_bps), cfg.utilization);
  }
  if (ws->cfg_.warm_time <= 0 || ws->cfg_.warm_time >= ws->cfg_.horizon)
    throw Error("service: warm_time must lie in (0, horizon)");

  ws->ecmp_ = routing::EcmpTable::compute(ws->graph_);
  ws->vrf_ = std::make_unique<routing::VrfTable>(
      routing::VrfTable::compute(ws->graph_, ws->cfg_.net.su_k));

  // Everything that determines the warm checkpoint's reconstruction. A
  // persisted snapshot whose hash differs is silently rebuilt.
  core::FctConfig fct;
  fct.net = ws->cfg_.net;
  fct.tcp = ws->cfg_.tcp;
  fct.flowgen = ws->cfg_.flowgen;
  fct.seed = ws->cfg_.scenario.seed;
  sim::HashChain h;
  h.mix(core::fct_config_hash(ws->graph_, fct))
      .mix(sim::fnv1a(ws->cfg_.topology))
      .mix(static_cast<std::uint64_t>(ws->cfg_.warm_time))
      .mix(static_cast<std::uint64_t>(ws->cfg_.horizon))
      .mix(static_cast<std::uint64_t>(ws->cfg_.fault.hello_interval))
      .mix(static_cast<std::uint64_t>(ws->cfg_.fault.hold_count))
      .mix(static_cast<std::uint64_t>(ws->cfg_.fault.repair_delay));
  ws->warm_hash_ = h.value();

  ws->baseline_flows_ =
      ws->make_flows(ws->make_tm("uniform", ws->workload_seed(0)),
                     ws->workload_seed(0), /*load_scale=*/1.0);

  if (!ws->try_restore_persisted()) {
    ws->build_fresh();
    ws->persist();
  }
  return ws;
}

std::uint64_t WarmState::workload_seed(std::uint64_t salt) const {
  // salt == 0 is the baseline workload itself.
  return salt == 0 ? cfg_.scenario.seed : splitmix64(cfg_.scenario.seed ^ salt);
}

workload::RackTm WarmState::make_tm(const std::string& kind,
                                    std::uint64_t seed) const {
  if (kind == "uniform") return workload::RackTm::uniform(graph_);
  if (kind == "skewed") return workload::RackTm::fb_like_skewed(graph_, seed);
  if (kind == "permutation") return workload::RackTm::permutation(graph_, seed);
  throw Error("service: unknown tm '" + kind +
              "' (expected uniform | skewed | permutation)");
}

std::vector<workload::FlowSpec> WarmState::make_flows(
    const workload::RackTm& tm, std::uint64_t seed, double load_scale) const {
  Rng rng(seed);
  workload::TmSampler sampler(graph_, tm);
  workload::FlowGenConfig fg = cfg_.flowgen;
  fg.offered_load_bps *= load_scale;
  return workload::generate_flows(sampler, fg, rng);
}

void WarmState::build_fresh() {
  PacketExperiment exp(graph_, cfg_,
                       fault::FaultPlan::from_actions({}, cfg_.scenario.seed),
                       warm_hash_);
  sim::Simulator sim;
  exp.add_flows(sim, baseline_flows_);
  exp.inj.arm(sim, cfg_.horizon);
  exp.mon.start(sim, 0, cfg_.horizon);

  sim.run_until(cfg_.warm_time);
  warm_bytes_ = exp.session.save_bytes(sim);

  // Continue the SAME engine to the horizon: the baseline is exactly what
  // an empty-plan what-if computes after restoring the warm bytes, which
  // makes "empty what-if == baseline" a byte-level identity, not an
  // approximation.
  sim.run_until(cfg_.horizon);
  const Summary fct = exp.driver.fct_ms();
  baseline_packet_.p50_ms = fct.median();
  baseline_packet_.p99_ms = fct.p99();
  baseline_packet_.flows = exp.driver.num_flows();
  baseline_packet_.completed = exp.driver.completed_flows();
  baseline_packet_.goodput_bps =
      exp.mon.mean_goodput_bps(cfg_.warm_time, cfg_.horizon);

  const WhatIfResult f = run_fluid(baseline_flows_, ecmp_, workload_seed(0));
  baseline_fluid_.p50_ms = f.p50_ms;
  baseline_fluid_.p99_ms = f.p99_ms;
  baseline_fluid_.flows = f.flows;
  baseline_fluid_.completed = f.completed;
}

bool WarmState::try_restore_persisted() {
  if (cfg_.snapshot_dir.empty()) return false;
  try {
    std::string warm, base;
    if (!sim::SnapshotReader::load_file(cfg_.snapshot_dir + kWarmFile, &warm))
      return false;
    if (!sim::SnapshotReader::load_file(cfg_.snapshot_dir + kBaselineFile,
                                        &base))
      return false;
    {
      sim::SnapshotReader wr(warm);
      if (wr.config_hash() != warm_hash_) return false;
    }
    sim::SnapshotReader br(std::move(base));
    if (br.config_hash() != warm_hash_) return false;
    br.expect_section(kBaselineTag);
    if (br.u32() != kBaselineVersion) return false;
    for (BaselineResult* b : {&baseline_packet_, &baseline_fluid_}) {
      b->p50_ms = br.f64();
      b->p99_ms = br.f64();
      b->flows = br.u64();
      b->completed = br.u64();
      b->goodput_bps = br.f64();
    }
    br.end_section();
    warm_bytes_ = std::move(warm);
  } catch (const std::exception&) {
    return false;  // corrupt / stale snapshot: rebuild from scratch
  }
  restored_ = true;
  return true;
}

void WarmState::persist() const {
  if (cfg_.snapshot_dir.empty()) return;
  SPINELESS_CHECK_MSG(util::ensure_dir(cfg_.snapshot_dir),
                      "service: cannot create snapshot_dir "
                          << cfg_.snapshot_dir);
  // The warm checkpoint bytes already ARE a sealed snapshot (magic, config
  // hash, checksum) — write them verbatim.
  SPINELESS_CHECK_MSG(
      util::atomic_write_file(cfg_.snapshot_dir + kWarmFile, warm_bytes_),
      "service: cannot persist warm snapshot to " << cfg_.snapshot_dir);
  sim::SnapshotWriter w(warm_hash_);
  w.begin_section(kBaselineTag);
  w.u32(kBaselineVersion);
  for (const BaselineResult* b : {&baseline_packet_, &baseline_fluid_}) {
    w.f64(b->p50_ms);
    w.f64(b->p99_ms);
    w.u64(b->flows);
    w.u64(b->completed);
    w.f64(b->goodput_bps);
  }
  w.end_section();
  SPINELESS_CHECK_MSG(w.write_file(cfg_.snapshot_dir + kBaselineFile),
                      "service: cannot persist baseline scalars to "
                          << cfg_.snapshot_dir);
}

WhatIfResult WarmState::whatif_fault_packet(
    const std::string& spec, std::uint64_t seed_salt,
    const std::function<bool()>& cancel) const {
  WhatIfResult r;
  r.fidelity = Fidelity::kPacket;

  PacketExperiment exp(
      graph_, cfg_,
      parse_plan(spec, graph_, splitmix64(cfg_.scenario.seed ^ seed_salt)),
      warm_hash_);
  sim::Simulator sim;
  // Flows must be added before restore: the TcpSource objects (and their
  // oids) are part of the reconstructed experiment the bytes load into.
  exp.add_flows(sim, baseline_flows_);
  exp.session.restore_bytes(warm_bytes_, sim);
  // Only the plan's actions: the BFD hello/hold machinery and the
  // monitor's sampling events are already in the restored event arrays.
  exp.inj.arm_actions(sim);

  r.finished = PacketExperiment::run(sim, cfg_.horizon, cancel);

  const Summary fct = exp.driver.fct_ms();
  r.p50_ms = fct.median();
  r.p99_ms = fct.p99();
  r.flows = exp.driver.num_flows();
  r.completed = exp.driver.completed_flows();
  r.delta_p50_ms = r.p50_ms - baseline_packet_.p50_ms;
  r.delta_p99_ms = r.p99_ms - baseline_packet_.p99_ms;

  const fault::FaultInjector::Report rep = exp.inj.report(cfg_.horizon);
  r.blackhole_s = rep.blackhole_seconds;
  r.outages = rep.outages.size();
  for (const auto& o : rep.outages) {
    if (o.t_down < 0 || o.t_detected < 0) continue;
    const double d = static_cast<double>(o.t_detected - o.t_down) /
                     static_cast<double>(units::kMillisecond);
    if (r.detect_ms < 0 || d < r.detect_ms) r.detect_ms = d;
  }
  const double goodput = exp.mon.mean_goodput_bps(cfg_.warm_time, cfg_.horizon);
  r.goodput_recovery = baseline_packet_.goodput_bps > 0
                           ? goodput / baseline_packet_.goodput_bps
                           : 0;
  return r;
}

WhatIfResult WarmState::whatif_fault_fluid(const std::string& spec,
                                           std::uint64_t seed_salt) const {
  const fault::FaultPlan plan =
      parse_plan(spec, graph_, splitmix64(cfg_.scenario.seed ^ seed_salt));

  // The fluid model has no transient fault machinery; it answers the
  // steady-state question: which links are still down at the end of the
  // plan, and what do FCTs look like routed around them.
  std::vector<char> is_down(graph_.num_links(), 0);
  for (const auto& a : plan.actions()) {
    if (a.kind == fault::FaultAction::Kind::kLinkDown) is_down[a.link] = 1;
    if (a.kind == fault::FaultAction::Kind::kLinkUp) is_down[a.link] = 0;
  }

  routing::EcmpTable table = ecmp_;
  routing::LinkSet dead;
  for (topo::LinkId l = 0; l < graph_.num_links(); ++l)
    if (is_down[l]) table.splice_link_change(graph_, dead, l, /*now_dead=*/true);

  WhatIfResult r =
      run_fluid(baseline_flows_, table, workload_seed(seed_salt));
  r.delta_p50_ms = r.p50_ms - baseline_fluid_.p50_ms;
  r.delta_p99_ms = r.p99_ms - baseline_fluid_.p99_ms;
  return r;
}

WhatIfResult WarmState::run_fluid(const std::vector<workload::FlowSpec>& flows,
                                  const routing::EcmpTable& table,
                                  std::uint64_t seed) const {
  WhatIfResult r;
  r.fidelity = Fidelity::kFluid;
  flowsim::FlowLevelSimulator fluid(
      graph_, static_cast<double>(cfg_.net.link_rate_bps));
  Rng rng(splitmix64(seed ^ 0xf1d0f1d0f1d0f1d0ULL));
  for (const auto& f : flows) {
    const routing::Path path = routing::sample_ecmp_path(
        table, graph_.tor_of_host(f.src), graph_.tor_of_host(f.dst), rng);
    if (path.empty()) {
      ++r.stalled;  // no surviving path: the flow never completes
      continue;
    }
    fluid.add_flow(f.src, f.dst, f.bytes, f.start, path);
  }
  r.completed = fluid.run(cfg_.horizon);
  const Summary fct = fluid.fct_ms();
  r.p50_ms = fct.median();
  r.p99_ms = fct.p99();
  r.flows = flows.size();
  return r;
}

WhatIfResult WarmState::whatif_tm(const std::string& tm, double load_scale,
                                  std::uint64_t seed_salt, Fidelity fidelity,
                                  const std::function<bool()>& cancel) const {
  const std::uint64_t seed = workload_seed(seed_salt);
  const auto flows = make_flows(make_tm(tm, seed), seed, load_scale);

  if (fidelity == Fidelity::kFluid) {
    WhatIfResult r = run_fluid(flows, ecmp_, seed);
    r.delta_p50_ms = r.p50_ms - baseline_fluid_.p50_ms;
    r.delta_p99_ms = r.p99_ms - baseline_fluid_.p99_ms;
    return r;
  }

  // Packet fidelity: a TM change invalidates the warm checkpoint (the
  // flows ARE checkpointed state), so this runs the full horizon from t=0
  // through the same experiment machinery the baseline used — whatif_tm
  // {uniform, 1.0, salt 0} reproduces the baseline exactly.
  WhatIfResult r;
  r.fidelity = Fidelity::kPacket;
  PacketExperiment exp(graph_, cfg_,
                       fault::FaultPlan::from_actions({}, cfg_.scenario.seed),
                       warm_hash_);
  sim::Simulator sim;
  exp.add_flows(sim, flows);
  exp.inj.arm(sim, cfg_.horizon);
  exp.mon.start(sim, 0, cfg_.horizon);
  r.finished = PacketExperiment::run(sim, cfg_.horizon, cancel);

  const Summary fct = exp.driver.fct_ms();
  r.p50_ms = fct.median();
  r.p99_ms = fct.p99();
  r.flows = exp.driver.num_flows();
  r.completed = exp.driver.completed_flows();
  r.delta_p50_ms = r.p50_ms - baseline_packet_.p50_ms;
  r.delta_p99_ms = r.p99_ms - baseline_packet_.p99_ms;
  const double goodput = exp.mon.mean_goodput_bps(cfg_.warm_time, cfg_.horizon);
  r.goodput_recovery = baseline_packet_.goodput_bps > 0
                           ? goodput / baseline_packet_.goodput_bps
                           : 0;
  return r;
}

WhatIfResult WarmState::affected(std::int64_t link, bool down) const {
  if (link < 0 || link >= static_cast<std::int64_t>(graph_.num_links()))
    throw Error("service: affected link id out of range [0, " +
                std::to_string(graph_.num_links()) + ")");
  const auto l = static_cast<topo::LinkId>(link);

  WhatIfResult r;
  r.fidelity = Fidelity::kPacket;  // answered from the packet tables
  std::vector<topo::NodeId> dsts;
  routing::LinkSet dead;
  if (cfg_.net.mode == sim::RoutingMode::kEcmp) {
    routing::EcmpTable t = ecmp_;
    dsts = t.splice_link_change(graph_, dead, l, down);
  } else {
    routing::VrfTable t = *vrf_;
    dsts = t.splice_link_change(graph_, dead, l, down);
  }
  std::sort(dsts.begin(), dsts.end());
  r.affected_destinations = dsts.size();
  const std::size_t n = std::min<std::size_t>(dsts.size(), 32);
  r.affected_sample.assign(dsts.begin(), dsts.begin() + n);

  // Physical-reachability delta, from BFS distances (mode-independent).
  routing::EcmpTable after = ecmp_;
  routing::LinkSet dead2;
  after.splice_link_change(graph_, dead2, l, down);
  std::int64_t before_unreach = 0, after_unreach = 0;
  for (topo::NodeId s = 0; s < graph_.num_switches(); ++s) {
    for (topo::NodeId d = 0; d < graph_.num_switches(); ++d) {
      if (s == d) continue;
      if (ecmp_.distance(s, d) < 0) ++before_unreach;
      if (after.distance(s, d) < 0) ++after_unreach;
    }
  }
  r.unreachable_pairs_delta = after_unreach - before_unreach;
  return r;
}

}  // namespace spineless::service
