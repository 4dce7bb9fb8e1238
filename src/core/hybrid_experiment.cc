#include "core/hybrid_experiment.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <memory>
#include <span>
#include <utility>

#include "core/hybrid_fault.h"
#include "fault/fault_plan.h"
#include "fault/injector.h"
#include "flowsim/flow_level_sim.h"
#include "flowsim/maxmin.h"
#include "flowsim/resource_layout.h"
#include "routing/bfs_sampler.h"
#include "sim/boundary.h"
#include "sim/sharded_engine.h"
#include "sim/simulator.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/walltime.h"

namespace spineless::core {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::uint64_t kPathStreamSalt = 0x70617468ULL;    // "path"
constexpr std::uint64_t kBoundarySalt = 0x424e4459ULL;      // "BNDY"
constexpr std::uint64_t kRepathSalt = 0x72657061ULL;        // "repa"
// HYBR snapshot payload version (sim::section_version): 2 added the
// whole-network fault state (per-flow routes/stalls, link states, outage
// and re-pin logs) in PR 8.
constexpr std::uint32_t kHybridSectionVersion = 2;
// Re-solve the max-min problem only when an active boundary cap moved by
// more than this relative tolerance (or the active set changed).
constexpr double kCapTolerance = 0.05;
// Boundary cap = headroom x measured departure rate of the last window.
constexpr double kCapHeadroom = 2.0;

enum class FlowKind : std::uint8_t { kInternal, kBoundary, kExternal };

// One flow's co-simulation plan, derived from its sampled full-graph path.
struct FlowPlan {
  FlowKind kind = FlowKind::kExternal;
  std::vector<int> resources;       // fluid resources (boundary/external)
  topo::HostId pkt_src = -1;        // region host ids (boundary only)
  topo::HostId pkt_dst = -1;
  topo::LinkId boundary_link = topo::kInvalidLink;  // phase-key component
  // Cut indices of the gateways this flow is pinned to (-1: that end
  // terminates on a real region host). The fault model re-pins these when
  // a cut link fails.
  std::int32_t entry_cut = -1;
  std::int32_t exit_cut = -1;
};

// Index of `l` in the cut, or -1 when `l` is not a cut link.
int find_cut(const topo::RegionCut& cut, topo::LinkId l) {
  const auto it = std::lower_bound(
      cut.cut.begin(), cut.cut.end(), l,
      [](const topo::CutLink& c, topo::LinkId id) { return c.link < id; });
  return it != cut.cut.end() && it->link == l
             ? static_cast<int>(it - cut.cut.begin())
             : -1;
}

int cut_index_of(const topo::RegionCut& cut, topo::LinkId l) {
  const int c = find_cut(cut, l);
  SPINELESS_CHECK(c >= 0);
  return c;
}

FlowPlan classify_flow(const topo::Graph& g, const topo::RegionCut& cut,
                       const topo::RegionGraph& rg,
                       const flowsim::ResourceLayout& rs,
                       const workload::FlowSpec& f,
                       const routing::Path& path) {
  const std::size_t len = path.size();
  std::size_t i0 = len;
  for (std::size_t i = 0; i < len; ++i) {
    if (cut.contains(path[i])) {
      i0 = i;
      break;
    }
  }
  FlowPlan plan;
  if (i0 == len) {  // no hot switch: pure fluid
    plan.kind = FlowKind::kExternal;
    plan.resources = rs.flow(f.src, f.dst, path);
    return plan;
  }
  std::size_t j0 = i0;
  while (j0 + 1 < len && cut.contains(path[j0 + 1])) ++j0;
  if (i0 == 0 && j0 == len - 1) {  // whole path hot: full TCP
    plan.kind = FlowKind::kInternal;
    return plan;
  }

  plan.kind = FlowKind::kBoundary;
  if (i0 == 0) {
    plan.pkt_src = rg.host_to_region[static_cast<std::size_t>(f.src)];
  } else {
    const topo::LinkId entry = g.link_between(path[i0 - 1], path[i0]);
    plan.entry_cut = cut_index_of(cut, entry);
    plan.pkt_src = rg.gateway_host[static_cast<std::size_t>(plan.entry_cut)];
    plan.boundary_link = entry;
    // Fluid half upstream of the region: src NIC + every edge strictly
    // before the entry cut link (the cut link itself is modeled by the
    // gateway host's NIC inside the packet region).
    plan.resources.push_back(rs.host_up(f.src));
    rs.append_hops(std::span(path).first(i0), plan.resources);
  }
  if (j0 == len - 1) {
    plan.pkt_dst = rg.host_to_region[static_cast<std::size_t>(f.dst)];
  } else {
    const topo::LinkId exit = g.link_between(path[j0], path[j0 + 1]);
    plan.exit_cut = cut_index_of(cut, exit);
    plan.pkt_dst = rg.gateway_host[static_cast<std::size_t>(plan.exit_cut)];
    if (plan.boundary_link == topo::kInvalidLink) plan.boundary_link = exit;
    // Fluid half downstream: every edge strictly after the exit cut link
    // (re-entries into the hot set past the first run stay fluid — a
    // deliberate approximation) + dst NIC.
    rs.append_hops(std::span(path).subspan(j0 + 1), plan.resources);
    plan.resources.push_back(rs.host_down(f.dst));
  }
  if (plan.pkt_src == plan.pkt_dst) {
    // Degenerate cut (entry and exit collapse onto one gateway): fall back
    // to pure fluid over the whole path rather than injecting self-traffic.
    plan = FlowPlan{};
    plan.kind = FlowKind::kExternal;
    plan.resources = rs.flow(f.src, f.dst, path);
  }
  return plan;
}

// --- The fluid half + boundary bookkeeping, checkpointed as "HYBR" -------

struct FluidFlowState {
  // Static (reconstructed, not serialized):
  std::size_t spec = 0;             // index into the flow list
  FlowKind kind = FlowKind::kExternal;
  std::int64_t bytes = 0;
  Time start = 0;
  int boundary = -1;                // index into sources_/sinks_

  // Dynamic (HYBR section, version 2; the current fluid route, which
  // re-paths move, is this flow's route in HybridLoop::problem_):
  double remaining = 0;
  double rate = 0;
  double cap = kInf;
  double cap_at_solve = kInf;
  std::int64_t delivered_last = 0;
  Time finish = -1;
  bool active = false;
  bool done = false;
  // Whole-network fault state: current gateway pinning (boundary flows;
  // re-pins move these off the FlowPlan values), the re-path/re-pin
  // generation feeding the deterministic per-flow RNG streams, and stall
  // accounting for flows with no surviving path.
  std::int32_t entry_cut = -1;
  std::int32_t exit_cut = -1;
  std::uint32_t generation = 0;
  bool stalled = false;
  Time stall_since = -1;
  double stalled_s = 0;
};

// One window-quantized fluid fault event, derived from a FaultPlan action
// at partition time. The full list is a pure function of (plan, BFD
// timing); only a cursor into it is checkpointed.
struct FluidEvent {
  enum class Kind : std::uint8_t {
    kDown,       // capacity -> 0 (external) / gateway dark (cut)
    kRoutedOut,  // detection + repair: re-path / re-pin off the link
    kUp,         // capacity restored (external)
    kRoutedIn,   // link back in the tables: stalled flows retry
    kDegrade,    // capacity *= factor (external only)
    kGray,       // capacity *= expected goodput fraction (external only)
  };
  Kind kind = Kind::kDown;
  Time at = 0;  // nominal instant; applied at the first window ending past it
  topo::LinkId link = topo::kInvalidLink;
  double factor = 1.0;   // kDegrade / kGray (1.0 = restore)
  bool boundary = false; // cut link
};

class HybridLoop : public sim::Checkpointable {
 public:
  // One max-min problem for the whole run: flow i of the problem is fluid
  // flow i, and fault events edit its routes and capacities in place.
  HybridLoop(const topo::RegionCut& cut, std::vector<double> capacities)
      : cut_(&cut), problem_(std::move(capacities)) {}

  void add_fluid_flow(FluidFlowState s, std::vector<int> route) {
    s.remaining = static_cast<double>(s.bytes);
    fluid_.push_back(std::move(s));
    problem_.add_flow(std::move(route));
  }
  void add_boundary(std::unique_ptr<sim::BoundarySource> src,
                    std::unique_ptr<sim::BoundarySink> sink) {
    sources_.push_back(std::move(src));
    sinks_.push_back(std::move(sink));
  }
  int num_boundaries() const { return static_cast<int>(sources_.size()); }

  // Arms the fluid/boundary half of a whole-network FaultPlan (the
  // window-quantized event list from the partition in
  // run_hybrid_experiment_flows). first_fault / last_topo bound the
  // goodput-recovery measurement: peak per-window goodput before the first
  // degradation vs after the last routed-in/out settles. Call before the
  // engine runs (and before any restore — the HYBR v2 payload assumes the
  // fault block exists iff this was called).
  void attach_faults(const topo::Graph& g, const topo::RegionGraph& rg,
                     const flowsim::ResourceLayout& rs,
                     const std::vector<workload::FlowSpec>& specs,
                     std::vector<FluidEvent> events, std::uint64_t seed,
                     double base_link_rate, Time first_fault,
                     Time last_topo) {
    fault_active_ = true;
    full_ = &g;
    rg_ = &rg;
    rs_ = &rs;
    specs_ = &specs;
    events_ = std::move(events);
    seed_ = seed;
    base_link_rate_ = base_link_rate;
    first_fault_ = first_fault;
    last_topo_ = last_topo;
    // Re-paths avoid the hot set (its traffic is the packet half's) and
    // every routed-out link.
    bfs_ = std::make_unique<routing::BfsSampler>(g, 1, cut_->in_region);
    link_state_of_.assign(static_cast<std::size_t>(g.num_links()), -1);
    // One FluidLinkState per distinct faulted link, in first-event order —
    // a pure function of the plan, so the save/load layout is static.
    for (const FluidEvent& e : events_) {
      auto& idx = link_state_of_[static_cast<std::size_t>(e.link)];
      if (idx < 0) {
        idx = static_cast<std::int32_t>(link_states_.size());
        FluidLinkState s;
        s.link = e.link;
        link_states_.push_back(s);
      }
    }
  }

  // Quiescent-boundary window protocol. begin_window runs in the control
  // context (fault events, activations, the capped solve, boundary
  // reprogramming); end_window reads the packet-side measurements back.
  void begin_window(sim::Simulator& control, Time t, Time w_end) {
    static_cast<void>(t);
    advance(w_end);
    // Flows whose nominal start falls inside the upcoming window activate
    // now: the solve sees them for the whole window (a conservative
    // over-subscription of at most one window) but their drain and pacing
    // are anchored at the exact start (see end_window / not_before), so
    // window size bounds rate error, not start skew.
    for (FluidFlowState& f : fluid_) {
      if (!f.done && !f.active && f.start < w_end) f.active = true;
    }
    std::uint64_t sig = 0x48594252ULL;
    std::size_t num_active = 0;
    bool caps_moved = false;
    for (std::size_t i = 0; i < fluid_.size(); ++i) {
      const FluidFlowState& f = fluid_[i];
      if (!f.active || excluded(f)) continue;
      ++num_active;
      sig = splitmix64(sig ^ i);
      if (f.kind == FlowKind::kBoundary && !caps_moved) {
        // A cap only matters when it clamps. If the flow was cap-bound at
        // the last solve, any move beyond the tolerance re-solves; if it
        // was not, the measured-rate jitter in the cap is irrelevant until
        // the cap undercuts the rate the flow already holds.
        const double tol = kCapTolerance;
        const bool was_bound = !std::isinf(f.cap_at_solve) &&
                               f.rate >= f.cap_at_solve * (1.0 - tol);
        if (was_bound) {
          const double base = std::max(f.cap_at_solve, 1.0);
          if (std::isinf(f.cap) ||
              std::abs(f.cap - f.cap_at_solve) > tol * base)
            caps_moved = true;
        } else if (!std::isinf(f.cap) && f.cap < f.rate * (1.0 - tol)) {
          caps_moved = true;
        }
      }
    }
    if (num_active > 0) {
      if (sig != active_sig_ || caps_moved || force_solve_) {
        solve();
        active_sig_ = sig;
      } else {
        ++solves_skipped_;
      }
    }
    force_solve_ = false;
    // Re-sync every active boundary source to the bytes still owed — the
    // abstract retransmission of packets the region dropped last window.
    // Stalled/suspended flows pause (rate 0) until the fault clears.
    for (const FluidFlowState& f : fluid_) {
      if (!f.active || f.kind != FlowKind::kBoundary) continue;
      const auto bi = static_cast<std::size_t>(f.boundary);
      if (excluded(f)) {
        sources_[bi]->program(control, 0, 0);
        continue;
      }
      const std::int64_t owed = f.bytes - sinks_[bi]->delivered();
      sources_[bi]->program(control, static_cast<std::int64_t>(f.rate),
                            owed, /*not_before=*/f.start);
    }
  }

  void end_window(Time t, Time w_end) {
    ++windows_;
    const double dt_s = units::to_seconds(w_end - t);
    double delivered_bytes = 0;  // goodput-recovery tracking
    for (FluidFlowState& f : fluid_) {
      if (!f.active) continue;
      // A flow activated mid-window drains only from its exact start.
      const Time base = f.start > t ? f.start : t;
      if (f.kind == FlowKind::kExternal) {
        if (f.rate <= 0) continue;
        const Time dt = w_end - base;
        const double drain = f.rate * units::to_seconds(dt) / 8.0;
        if (f.remaining <= drain + flowsim::kDrainedBytes) {
          // Interpolated completion inside the window.
          const double frac_s = f.remaining * 8.0 / f.rate;
          f.finish = base + std::min<Time>(
                                dt, static_cast<Time>(
                                        frac_s *
                                        static_cast<double>(units::kSecond)));
          delivered_bytes += f.remaining;
          f.remaining = 0;
          f.done = true;
          f.active = false;
        } else {
          f.remaining -= drain;
          delivered_bytes += drain;
        }
      } else {
        const auto bi = static_cast<std::size_t>(f.boundary);
        const std::int64_t delivered = sinks_[bi]->delivered();
        const std::int64_t delta = delivered - f.delivered_last;
        f.delivered_last = delivered;
        f.remaining = static_cast<double>(f.bytes - delivered);
        delivered_bytes += static_cast<double>(delta);
        const double measured =
            static_cast<double>(delta) * 8.0 / dt_s;
        const double floor_rate =
            static_cast<double>(sim::kMss) * 8.0 / dt_s;
        // A paused flow measures nothing; keep its pre-fault cap so the
        // first post-repair solve starts from real history instead of
        // crawling back up from one MSS per window.
        if (!excluded(f)) f.cap = std::max(kCapHeadroom * measured, floor_rate);
        if (sinks_[bi]->completed()) {
          f.finish = sinks_[bi]->finish();
          f.done = true;
          f.active = false;
        }
      }
    }
    if (fault_active_ && dt_s > 0) {
      const double goodput = delivered_bytes / dt_s;
      if (w_end <= first_fault_) peak_pre_ = std::max(peak_pre_, goodput);
      if (t >= last_topo_) peak_post_ = std::max(peak_post_, goodput);
    }
  }

  std::uint64_t windows() const { return windows_; }
  std::uint64_t solves() const { return solves_; }
  std::uint64_t solves_skipped() const { return solves_skipped_; }
  const std::vector<FluidFlowState>& fluid() const { return fluid_; }
  const sim::BoundarySink& sink(int i) const {
    return *sinks_[static_cast<std::size_t>(i)];
  }
  const std::vector<FluidOutage>& fluid_outages() const { return outages_; }
  const std::vector<BoundaryRepin>& boundary_repins() const {
    return repins_;
  }
  double goodput_recovery() const {
    return (peak_pre_ > 0 && peak_post_ > 0) ? peak_post_ / peak_pre_ : 0.0;
  }

  struct FaultTotals {
    std::size_t stalled_flows = 0;
    double stalled_seconds = 0;
    double blackhole_seconds = 0;
  };
  // Closes still-open stall intervals and open outages against `end` (the
  // run deadline) — call once, at result assembly. The blackhole formula is
  // the packet injector's: min(t_routed_out, t_restored, end) - t_down.
  FaultTotals fault_totals(Time end) {
    FaultTotals totals;
    for (FluidFlowState& f : fluid_) {
      if (f.stalled && !f.done) {
        if (end > f.stall_since)
          f.stalled_s += units::to_seconds(end - f.stall_since);
        f.stall_since = end;
        ++totals.stalled_flows;
      }
      totals.stalled_seconds += f.stalled_s;
    }
    for (const FluidOutage& o : outages_) {
      if (o.t_down < 0) continue;
      Time stop = end;
      if (o.t_routed_out >= 0) stop = std::min(stop, o.t_routed_out);
      if (o.t_restored >= 0) stop = std::min(stop, o.t_restored);
      if (stop > o.t_down)
        totals.blackhole_seconds += units::to_seconds(stop - o.t_down);
    }
    return totals;
  }

  // Checkpointable (section "HYBR"):
  std::uint32_t section_tag() const override { return sim::kSectionHybrid; }
  void collect_sinks(sim::SinkRegistry& reg) override {
    for (auto& s : sources_) reg.add(s.get(), sim::CtxKind::kPlain);
  }
  void save_state(sim::SnapshotWriter& w) const override { fields(w, *this); }
  void load_state(sim::SnapshotReader& r) override { fields(r, *this); }

 private:
  // The HYBR payload, one field list for save and restore.
  template <class Io, class Self>
  static void fields(Io& io, Self& self) {
    sim::section_version(io, sim::kSectionHybrid, kHybridSectionVersion);
    io.u64(self.windows_);
    io.u64(self.solves_);
    io.u64(self.solves_skipped_);
    io.u64(self.active_sig_);
    io.f64(self.peak_pre_);
    io.f64(self.peak_post_);
    io.expect(self.fluid_.size(), "hybrid snapshot fluid flow count mismatch");
    for (std::size_t i = 0; i < self.fluid_.size(); ++i) {
      auto& f = self.fluid_[i];
      io.f64(f.remaining);
      io.f64(f.rate);
      io.f64(f.cap);
      io.f64(f.cap_at_solve);
      io.i64(f.delivered_last);
      io.i64(f.finish);
      io.u8(f.active);
      io.u8(f.done);
      io.u8(f.stalled);
      io.u64(f.generation);
      io.i64(f.stall_since);
      io.f64(f.stalled_s);
      self.cut_field(io, f.entry_cut);
      self.cut_field(io, f.exit_cut);
      // The current fluid route: re-paths move it off the classification.
      self.route_field(io, static_cast<int>(i));
    }
    for (auto& src : self.sources_) io.part(*src);
    for (auto& sink : self.sinks_) io.part(*sink);
    io.template expect<std::uint8_t>(
        self.fault_active_,
        "hybrid snapshot fault block mismatch — snapshot and run disagree "
        "on whether faults are armed");
    if (!self.fault_active_) return;
    io.u64(self.cursor_);
    io.expect(self.link_states_.size(),
              "hybrid snapshot fault link-state count mismatch");
    for (auto& l : self.link_states_) {
      io.u8(l.down);
      io.u8(l.routed_out);
      io.f64(l.degrade_factor);
      io.f64(l.gray_factor);
      io.i64(l.open_outage);
      if constexpr (!Io::kSaving) {
        self.bfs_->set_link_dead(l.link, l.routed_out);
        self.apply_capacity(l);
      }
    }
    io.seq(self.outages_, [](auto& io, auto& o) {
      io.i64(o.link);
      io.i64(o.t_down);
      io.i64(o.t_routed_out);
      io.i64(o.t_restored);
      io.i64(o.t_routed_in);
      io.u8(o.boundary);
    });
    io.seq(self.repins_, [](auto& io, auto& p) {
      io.i64(p.flow);
      io.i64(p.from_cut);
      io.i64(p.to_cut);
      io.i64(p.at);
    });
  }

  // A gateway cut index: -1 (a real region host) or a cut link. Snapshot
  // bytes are untrusted, so a restore refuses any other value before
  // cut_dark or a re-pin indexes the cut with it.
  template <class Io, class Cut>
  void cut_field(Io& io, Cut& c) const {
    std::int64_t v = c;
    io.i64(v);
    if constexpr (!Io::kSaving) {
      if (v < -1 || v >= static_cast<std::int64_t>(cut_->cut.size()))
        io.fail("gateway cut index " + std::to_string(v) + " outside [-1, " +
                std::to_string(cut_->cut.size()) + ")");
      c = static_cast<std::int32_t>(v);
    }
  }
  // Fluid flow i's route, with every resource id range-checked on restore.
  void route_field(sim::SnapshotWriter& io, int i) const {
    io.seq(problem_.route(i), [](auto& io, int r) { io.i64(r); });
  }
  void route_field(sim::SnapshotReader& io, int i) {
    std::vector<std::int64_t> stored;
    io.seq(stored, [](auto& io, auto& r) { io.i64(r); });
    std::vector<int> resources;
    resources.reserve(stored.size());
    for (const std::int64_t r : stored) {
      if (r < 0 || r >= problem_.num_resources())
        io.fail("route resource " + std::to_string(r) + " outside [0, " +
                std::to_string(problem_.num_resources()) + ")");
      resources.push_back(static_cast<int>(r));
    }
    problem_.set_route(i, std::move(resources));
  }

  // One solve over the active, non-excluded fluid flows, capped at their
  // measured boundary rates.
  void solve() {
    ++solves_;
    std::vector<int> ids;
    std::vector<double> caps;
    for (std::size_t i = 0; i < fluid_.size(); ++i) {
      FluidFlowState& f = fluid_[i];
      if (!f.active || excluded(f)) continue;
      ids.push_back(static_cast<int>(i));
      caps.push_back(f.kind == FlowKind::kBoundary ? f.cap : kInf);
      f.cap_at_solve = f.cap;
    }
    const std::vector<double> rates = problem_.solve(ids, caps);
    for (std::size_t k = 0; k < ids.size(); ++k)
      fluid_[static_cast<std::size_t>(ids[k])].rate = rates[k];
  }

  // --- Fluid/boundary fault machinery (inert unless attach_faults ran) ---

  const FluidLinkState* state_of(topo::LinkId l) const {
    if (link_state_of_.empty()) return nullptr;
    const std::int32_t idx = link_state_of_[static_cast<std::size_t>(l)];
    return idx < 0 ? nullptr : &link_states_[static_cast<std::size_t>(idx)];
  }
  // "Dark" = physically down or routed out — a flow pinned to a dark cut
  // link delivers nothing (suspended) until re-pinned or restored.
  bool cut_dark(std::int32_t c) const {
    if (c < 0) return false;
    const FluidLinkState* s =
        state_of(cut_->cut[static_cast<std::size_t>(c)].link);
    return s != nullptr && (s->down || s->routed_out);
  }
  bool cut_routed_out(std::int32_t c) const {
    if (c < 0) return false;
    const FluidLinkState* s =
        state_of(cut_->cut[static_cast<std::size_t>(c)].link);
    return s != nullptr && s->routed_out;
  }
  // Excluded from the solve (and paced at rate 0): stalled flows have no
  // surviving fluid route; suspended boundary flows are pinned to a dark
  // cut link.
  bool excluded(const FluidFlowState& f) const {
    if (!fault_active_) return false;
    if (f.stalled) return true;
    return f.kind == FlowKind::kBoundary &&
           (cut_dark(f.entry_cut) || cut_dark(f.exit_cut));
  }

  void apply_capacity(const FluidLinkState& s) {
    const double cap = (s.down ? 0.0 : base_link_rate_) * s.degrade_factor *
                       s.gray_factor;
    problem_.set_capacity(rs_->link(s.link, true), cap);
    problem_.set_capacity(rs_->link(s.link, false), cap);
  }

  void stall(FluidFlowState& f, Time at) {
    if (f.stalled) return;
    f.stalled = true;
    f.stall_since = std::max(at, f.start);
    f.rate = 0;
  }
  void unstall(FluidFlowState& f, Time at) {
    if (!f.stalled) return;
    if (at > f.stall_since)
      f.stalled_s += units::to_seconds(at - f.stall_since);
    f.stall_since = -1;
    f.stalled = false;
  }

  // Rebuilds a flow's fluid resource list from its CURRENT gateway pinning
  // over the surviving cold subgraph, using the per-(flow, generation) RNG
  // stream. No surviving route -> the flow stalls (blackhole accounting).
  void rebuild_resources(std::size_t i, Time at) {
    FluidFlowState& f = fluid_[i];
    Rng rng(splitmix64(splitmix64(seed_ ^ kRepathSalt) ^
                       static_cast<std::uint64_t>(f.spec) ^
                       (static_cast<std::uint64_t>(f.generation) << 32)));
    const workload::FlowSpec& spec = (*specs_)[f.spec];
    std::vector<int> res;
    bool ok = true;
    const auto append_path = [&](topo::NodeId from, topo::NodeId to) {
      const routing::Path p = bfs_->sample(from, to, rng);
      if (p.empty()) ok = false;
      rs_->append_hops(p, res);
    };
    const topo::NodeId src_tor = full_->tor_of_host(spec.src);
    const topo::NodeId dst_tor = full_->tor_of_host(spec.dst);
    if (f.kind == FlowKind::kExternal) {
      res.push_back(rs_->host_up(spec.src));
      append_path(src_tor, dst_tor);
      res.push_back(rs_->host_down(spec.dst));
    } else {
      if (f.entry_cut >= 0) {
        res.push_back(rs_->host_up(spec.src));
        append_path(src_tor,
                    cut_->cut[static_cast<std::size_t>(f.entry_cut)].outside);
      }
      if (f.exit_cut >= 0) {
        append_path(cut_->cut[static_cast<std::size_t>(f.exit_cut)].outside,
                    dst_tor);
        res.push_back(rs_->host_down(spec.dst));
      }
    }
    if (!ok) {
      stall(f, at);
      return;
    }
    problem_.set_route(static_cast<int>(i), std::move(res));
    unstall(f, at);
  }

  void repath_flow(std::size_t i, Time at) {
    ++fluid_[i].generation;
    rebuild_resources(i, at);
  }

  // Deterministic re-pin of a boundary flow off routed-out cut link `c`:
  // prefer a surviving cut link at the same inside switch (lowest cut
  // index), else the lowest surviving cut index; never collapse src and
  // dst onto one gateway. No survivor -> the region is severed for this
  // flow: record to_cut = -1 and demote it to stalled fluid.
  void repin_boundary(std::size_t i, std::int32_t c, Time at) {
    FluidFlowState& f = fluid_[i];
    const bool entry = f.entry_cut == c;
    const topo::NodeId inside =
        cut_->cut[static_cast<std::size_t>(c)].inside;
    std::int32_t pick = -1;
    for (int pass = 0; pass < 2 && pick < 0; ++pass) {
      for (std::size_t k = 0; k < cut_->cut.size(); ++k) {
        const auto kc = static_cast<std::int32_t>(k);
        if (kc == c || cut_routed_out(kc)) continue;
        if (pass == 0 && cut_->cut[k].inside != inside) continue;
        if (kc == (entry ? f.exit_cut : f.entry_cut)) continue;
        pick = kc;
        break;
      }
    }
    repins_.push_back(
        {static_cast<std::int64_t>(f.spec), c, pick, at});
    if (pick < 0) {
      stall(f, at);
      return;
    }
    (entry ? f.entry_cut : f.exit_cut) = pick;
    ++f.generation;
    const topo::LinkId new_link =
        cut_->cut[static_cast<std::size_t>(pick)].link;
    const std::uint64_t phase_key = splitmix64(
        splitmix64(seed_ ^ kBoundarySalt) ^
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(new_link))
         << 32) ^
        static_cast<std::uint64_t>(f.spec) ^
        (static_cast<std::uint64_t>(f.generation) << 48));
    const topo::HostId gw =
        rg_->gateway_host[static_cast<std::size_t>(pick)];
    sim::BoundarySource& src = *sources_[static_cast<std::size_t>(f.boundary)];
    if (entry) {
      src.retarget(gw, src.dst(), phase_key);
    } else {
      src.retarget(src.src(), gw, phase_key);
    }
    // The re-pinned side's fluid segment must reach the new outside node.
    rebuild_resources(i, at);
  }

  // Re-pin/re-path every not-yet-finished flow that the routed-out link
  // carried (future flows included — their pre-built routes die with it).
  void route_out(const FluidEvent& e) {
    if (e.boundary) {
      const std::int32_t c =
          static_cast<std::int32_t>(cut_index_of(*cut_, e.link));
      for (std::size_t i = 0; i < fluid_.size(); ++i) {
        FluidFlowState& f = fluid_[i];
        if (f.done || f.kind != FlowKind::kBoundary) continue;
        if (f.entry_cut == c || f.exit_cut == c) repin_boundary(i, c, e.at);
      }
      return;
    }
    const int r0 = rs_->link(e.link, true);
    const int r1 = rs_->link(e.link, false);
    for (std::size_t i = 0; i < fluid_.size(); ++i) {
      FluidFlowState& f = fluid_[i];
      if (f.done) continue;
      for (int res : problem_.route(static_cast<int>(i))) {
        if (res == r0 || res == r1) {
          repath_flow(i, e.at);
          break;
        }
      }
    }
  }

  // A routed-in link can unblock stalled flows: severed boundary flows
  // retry the re-pin, stalled fluid routes retry the BFS.
  void retry_stalled(Time at) {
    for (std::size_t i = 0; i < fluid_.size(); ++i) {
      FluidFlowState& f = fluid_[i];
      if (!f.stalled || f.done) continue;
      if (f.kind == FlowKind::kBoundary) {
        if (cut_routed_out(f.entry_cut)) {
          repin_boundary(i, f.entry_cut, at);
          continue;
        }
        if (cut_routed_out(f.exit_cut)) {
          repin_boundary(i, f.exit_cut, at);
          continue;
        }
      }
      repath_flow(i, at);
    }
  }

  // Applies every fault event with a nominal time inside the upcoming
  // window at its start — the same one-window quantization flows'
  // activations already get. Skip rules make interleavings deterministic:
  // a routed-out for a link that recovered before the hold expired is a
  // no-op, as is a routed-in for a link that was never routed out.
  void advance(Time w_end) {
    if (!fault_active_) return;
    bool changed = false;
    while (cursor_ < events_.size() &&
           events_[static_cast<std::size_t>(cursor_)].at < w_end) {
      const FluidEvent& e = events_[static_cast<std::size_t>(cursor_++)];
      FluidLinkState& s = link_states_[static_cast<std::size_t>(
          link_state_of_[static_cast<std::size_t>(e.link)])];
      switch (e.kind) {
        case FluidEvent::Kind::kDown:
          if (s.down) break;
          s.down = true;
          s.open_outage = static_cast<std::int32_t>(outages_.size());
          outages_.push_back({e.link, e.at, -1, -1, -1, e.boundary});
          apply_capacity(s);
          changed = true;
          break;
        case FluidEvent::Kind::kRoutedOut:
          if (!s.down || s.routed_out) break;
          s.routed_out = true;
          bfs_->set_link_dead(e.link, true);
          if (s.open_outage >= 0)
            outages_[static_cast<std::size_t>(s.open_outage)].t_routed_out =
                e.at;
          route_out(e);
          changed = true;
          break;
        case FluidEvent::Kind::kUp:
          if (!s.down) break;
          s.down = false;
          if (s.open_outage >= 0) {
            outages_[static_cast<std::size_t>(s.open_outage)].t_restored =
                e.at;
            // Recovered before the hold expired: the cycle never touched
            // the tables, close it here.
            if (!s.routed_out) s.open_outage = -1;
          }
          apply_capacity(s);
          changed = true;
          break;
        case FluidEvent::Kind::kRoutedIn:
          if (!s.routed_out || s.down) break;
          s.routed_out = false;
          bfs_->set_link_dead(e.link, false);
          if (s.open_outage >= 0) {
            outages_[static_cast<std::size_t>(s.open_outage)].t_routed_in =
                e.at;
            s.open_outage = -1;
          }
          retry_stalled(e.at);
          changed = true;
          break;
        case FluidEvent::Kind::kDegrade:
          if (s.degrade_factor == e.factor) break;
          s.degrade_factor = e.factor;
          apply_capacity(s);
          changed = true;
          break;
        case FluidEvent::Kind::kGray:
          if (s.gray_factor == e.factor) break;
          s.gray_factor = e.factor;
          apply_capacity(s);
          changed = true;
          break;
      }
    }
    if (changed) force_solve_ = true;
  }

  const topo::RegionCut* cut_;
  flowsim::MaxMinProblem problem_;
  std::vector<FluidFlowState> fluid_;
  std::vector<std::unique_ptr<sim::BoundarySource>> sources_;
  std::vector<std::unique_ptr<sim::BoundarySink>> sinks_;
  std::uint64_t windows_ = 0;
  std::uint64_t solves_ = 0;
  std::uint64_t solves_skipped_ = 0;
  std::uint64_t active_sig_ = 0;

  // Fault machinery (attach_faults; all inert otherwise).
  bool fault_active_ = false;
  const topo::Graph* full_ = nullptr;
  const topo::RegionGraph* rg_ = nullptr;
  const flowsim::ResourceLayout* rs_ = nullptr;
  const std::vector<workload::FlowSpec>* specs_ = nullptr;
  std::vector<FluidEvent> events_;
  std::uint64_t seed_ = 0;
  double base_link_rate_ = 0;
  Time first_fault_ = 0;
  Time last_topo_ = 0;
  // Fluid re-path sampler; owns the routed-out link set.
  std::unique_ptr<routing::BfsSampler> bfs_;
  std::vector<FluidLinkState> link_states_;   // one per faulted link
  std::vector<std::int32_t> link_state_of_;   // full link -> index or -1
  std::uint64_t cursor_ = 0;                  // next unapplied event
  std::vector<FluidOutage> outages_;
  std::vector<BoundaryRepin> repins_;
  bool force_solve_ = false;
  double peak_pre_ = 0;
  double peak_post_ = 0;
};

std::uint64_t mix_double(sim::HashChain& h, double v) {
  return h.mix(std::bit_cast<std::uint64_t>(v)).value();
}

}  // namespace

std::uint64_t hybrid_config_hash(const topo::Graph& g,
                                 const std::vector<workload::FlowSpec>& specs,
                                 const HybridConfig& cfg) {
  sim::HashChain h;
  h.mix(fct_config_hash(g, cfg.fct))
      .mix(static_cast<std::uint64_t>(cfg.region_mode))
      .mix(static_cast<std::uint64_t>(cfg.auto_region_switches))
      .mix(static_cast<std::uint64_t>(cfg.window));
  // The retired cap knobs' values, so config hashes (and the snapshots
  // keyed by them) stay compatible.
  mix_double(h, kCapTolerance);
  mix_double(h, kCapHeadroom);
  h.mix(cfg.region_switches.size());
  for (topo::NodeId n : cfg.region_switches)
    h.mix(static_cast<std::uint64_t>(n));
  h.mix(cfg.region_supernodes.size());
  for (int s : cfg.region_supernodes) h.mix(static_cast<std::uint64_t>(s));
  h.mix(specs.size());
  for (const workload::FlowSpec& f : specs) {
    h.mix(static_cast<std::uint64_t>(f.src))
        .mix(static_cast<std::uint64_t>(f.dst))
        .mix(static_cast<std::uint64_t>(f.bytes))
        .mix(static_cast<std::uint64_t>(f.start));
  }
  // Mixed only when faults are armed, so fault-free configs keep their
  // pre-fault hashes (snapshots stay cross-compatible).
  if (!cfg.fault_spec.empty()) {
    h.mix(0xFA017ULL).mix(cfg.fault_spec.size());
    for (const char c : cfg.fault_spec)
      h.mix(static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
    h.mix(static_cast<std::uint64_t>(cfg.fault.hello_interval))
        .mix(static_cast<std::uint64_t>(cfg.fault.hold_count))
        .mix(static_cast<std::uint64_t>(cfg.fault.repair_delay));
  }
  return h.value();
}

HybridResult run_hybrid_experiment_flows(
    const topo::Graph& g, const std::vector<workload::FlowSpec>& specs,
    const HybridConfig& cfg, const std::vector<int>* supernode_of) {
  // Hashed hop-by-hop modes only: the full-graph path sample and the
  // region-local tables must come from the same forwarding discipline, and
  // kSourceRouted pins full-graph paths no region table can reproduce.
  SPINELESS_CHECK_MSG(cfg.fct.net.mode != sim::RoutingMode::kSourceRouted,
                      "hybrid co-simulation supports hashed routing only");
  const double setup_start = util::monotonic_seconds();

  // --- Sample every flow's full-graph path (deterministic side stream) ---
  Rng path_rng(splitmix64(cfg.fct.seed ^ kPathStreamSalt));
  std::vector<routing::Path> paths;
  paths.reserve(specs.size());
  routing::BfsSampler::Counters path_work;
  {
    // Scoped: its distance cache (up to 64 arrays of num_switches ints)
    // must not outlive set-up.
    routing::BfsSampler sampler(
        g, sim::shortest_union_k(cfg.fct.net.mode, cfg.fct.net.su_k));
    for (const workload::FlowSpec& f : specs) {
      paths.push_back(sampler.sample(g.tor_of_host(f.src),
                                     g.tor_of_host(f.dst), path_rng));
      SPINELESS_CHECK_MSG(!paths.back().empty(), "graph is disconnected");
    }
    path_work = sampler.counters();
  }
  const double path_sample_s = util::monotonic_seconds() - setup_start;

  // --- Region selection + packet subgraph ---
  topo::RegionCut cut;
  switch (cfg.region_mode) {
    case RegionMode::kSwitches:
      cut = topo::region_from_switches(g, cfg.region_switches);
      break;
    case RegionMode::kSupernodes:
      SPINELESS_CHECK_MSG(supernode_of != nullptr,
                          "RegionMode::kSupernodes needs supernode_of");
      cut = topo::region_from_supernodes(g, *supernode_of,
                                         cfg.region_supernodes);
      break;
    case RegionMode::kAuto: {
      // Demand per directed link from the sampled paths — the "prior fluid
      // pass" that locates the congested neighborhood.
      std::vector<double> demand(2 * static_cast<std::size_t>(g.num_links()),
                                 0.0);
      for (std::size_t i = 0; i < specs.size(); ++i) {
        const routing::Path& p = paths[i];
        for (std::size_t t = 0; t + 1 < p.size(); ++t) {
          const topo::LinkId l = g.link_between(p[t], p[t + 1]);
          const std::size_t dir = g.link(l).a == p[t] ? 0 : 1;
          demand[2 * static_cast<std::size_t>(l) + dir] +=
              static_cast<double>(specs[i].bytes);
        }
      }
      cut = topo::region_from_utilization(g, demand,
                                          cfg.auto_region_switches);
      break;
    }
  }
  const topo::RegionGraph rg = topo::build_region_graph(g, cut);
  SPINELESS_CHECK_MSG(rg.graph.connected(),
                      "hybrid region subgraph must be connected");

  const std::int64_t link_rate = cfg.fct.net.link_rate_bps;
  const std::int64_t host_rate =
      cfg.fct.net.host_rate_bps > 0 ? cfg.fct.net.host_rate_bps : link_rate;
  const flowsim::ResourceLayout rs(g);
  std::vector<double> capacities = rs.capacities(
      static_cast<double>(host_rate), static_cast<double>(link_rate));

  // --- Classification ---
  std::vector<FlowPlan> plans;
  plans.reserve(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i)
    plans.push_back(classify_flow(g, cut, rg, rs, specs[i], paths[i]));

  // --- Fault partition: region sub-plan / boundary / fluid ---------------
  // Region-internal actions drive a packet FaultInjector; everything else
  // (cut + external links) expands into window-quantized fluid events with
  // the SAME detection + repair timing the packet side would measure.
  const bool faults = !cfg.fault_spec.empty();
  fault::FaultPlan region_plan;
  std::vector<FluidEvent> fluid_events;
  Time first_fault = 0;
  Time last_topo = 0;
  if (faults) {
    cfg.fault.validate(sim::kLinkDelay);
    const fault::FaultPlan full_plan =
        fault::FaultPlan::parse(cfg.fault_spec, g, cfg.fct.seed);
    const Time hold =
        static_cast<Time>(cfg.fault.hold_count) * cfg.fault.hello_interval;
    std::vector<fault::FaultAction> region_actions;
    first_fault = std::numeric_limits<Time>::max();
    using K = fault::FaultAction::Kind;
    for (const fault::FaultAction& a : full_plan.actions()) {
      // Whole-plan goodput-recovery bounds: when a fault first degrades
      // the network and when its last table change settles.
      Time settle = a.at;
      if (a.kind == K::kLinkDown) settle = a.at + hold + cfg.fault.repair_delay;
      if (a.kind == K::kLinkUp)
        settle = a.at + cfg.fault.hello_interval + cfg.fault.repair_delay;
      last_topo = std::max(last_topo, settle);
      if (a.kind == K::kLinkDown ||
          (a.kind == K::kDegradeOn && a.rate_factor < 1.0) ||
          (a.kind == K::kGrayOn && (a.drop_prob > 0 || a.corrupt_prob > 0)))
        first_fault = std::min(first_fault, a.at);
      const topo::LinkId rl =
          rg.link_to_region[static_cast<std::size_t>(a.link)];
      if (rl != topo::kInvalidLink) {
        fault::FaultAction ra = a;
        ra.link = rl;
        region_actions.push_back(ra);
        continue;
      }
      const bool boundary = find_cut(cut, a.link) >= 0;
      switch (a.kind) {
        case K::kLinkDown:
          fluid_events.push_back(
              {FluidEvent::Kind::kDown, a.at, a.link, 1.0, boundary});
          fluid_events.push_back({FluidEvent::Kind::kRoutedOut,
                                  a.at + hold + cfg.fault.repair_delay,
                                  a.link, 1.0, boundary});
          break;
        case K::kLinkUp:
          fluid_events.push_back(
              {FluidEvent::Kind::kUp, a.at, a.link, 1.0, boundary});
          fluid_events.push_back(
              {FluidEvent::Kind::kRoutedIn,
               a.at + cfg.fault.hello_interval + cfg.fault.repair_delay,
               a.link, 1.0, boundary});
          break;
        case K::kGrayOn:
          // Gray on a cut link is not modeled (documented in HybridConfig);
          // on an external link it scales capacity by the expected goodput
          // fraction and — like packet gray — is never detected.
          if (!boundary)
            fluid_events.push_back(
                {FluidEvent::Kind::kGray, a.at, a.link,
                 (1.0 - a.drop_prob) * (1.0 - a.corrupt_prob), false});
          break;
        case K::kGrayOff:
          if (!boundary)
            fluid_events.push_back(
                {FluidEvent::Kind::kGray, a.at, a.link, 1.0, false});
          break;
        case K::kDegradeOn:
          if (!boundary)
            fluid_events.push_back({FluidEvent::Kind::kDegrade, a.at, a.link,
                                    a.rate_factor, false});
          break;
        case K::kDegradeOff:
          if (!boundary)
            fluid_events.push_back(
                {FluidEvent::Kind::kDegrade, a.at, a.link, 1.0, false});
          break;
      }
    }
    if (first_fault == std::numeric_limits<Time>::max()) first_fault = 0;
    std::stable_sort(
        fluid_events.begin(), fluid_events.end(),
        [](const FluidEvent& x, const FluidEvent& y) { return x.at < y.at; });
    region_plan =
        fault::FaultPlan::from_actions(std::move(region_actions), cfg.fct.seed);
  }

  const double setup_s = util::monotonic_seconds() - setup_start;

  // --- Packet region construction (fixed oid order: Network, internal TCP
  // flows in spec order, then boundary sources in spec order) ---
  sim::Network net(rg.graph, cfg.fct.net);
  sim::FlowDriver driver(net, cfg.fct.tcp);
  HybridLoop loop(cut, std::move(capacities));
  std::unique_ptr<fault::FaultInjector> injector;

  const Time deadline = run_deadline(cfg.fct);
  if (faults) {
    loop.attach_faults(g, rg, rs, specs, std::move(fluid_events),
                       cfg.fct.seed, static_cast<double>(link_rate),
                       first_fault, last_topo);
  }
  const Time window = std::max<Time>(1, cfg.window);
  const std::uint64_t config_hash = hybrid_config_hash(g, specs, cfg);
  const sim::CheckpointSpec& spec = cfg.fct.checkpoint;

  HybridResult result;
  result.flows = specs.size();
  result.region_switches = static_cast<int>(cut.hot.size());
  result.cut_links = static_cast<int>(cut.cut.size());

  // spec index -> (internal driver id | fluid index), for result assembly.
  std::vector<std::int32_t> internal_id(specs.size(), -1);
  std::vector<std::int32_t> fluid_id(specs.size(), -1);

  const auto build = [&](sim::Simulator& control) {
    for (std::size_t i = 0; i < specs.size(); ++i) {
      if (plans[i].kind != FlowKind::kInternal) continue;
      const workload::FlowSpec& f = specs[i];
      internal_id[i] = driver.add_flow(
          control,
          rg.host_to_region[static_cast<std::size_t>(f.src)],
          rg.host_to_region[static_cast<std::size_t>(f.dst)], f.bytes,
          f.start);
      ++result.internal_flows;
    }
    std::int32_t next_flow_id =
        static_cast<std::int32_t>(driver.num_flows());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      if (plans[i].kind == FlowKind::kInternal) continue;
      const workload::FlowSpec& f = specs[i];
      FluidFlowState state;
      state.spec = i;
      state.kind = plans[i].kind;
      state.bytes = f.bytes;
      state.start = f.start;
      state.entry_cut = plans[i].entry_cut;
      state.exit_cut = plans[i].exit_cut;
      if (plans[i].kind == FlowKind::kBoundary) {
        state.boundary = loop.num_boundaries();
        auto sink = std::make_unique<sim::BoundarySink>(f.bytes);
        const std::uint64_t phase_key = splitmix64(
            splitmix64(cfg.fct.seed ^ kBoundarySalt) ^
            (static_cast<std::uint64_t>(
                 static_cast<std::uint32_t>(plans[i].boundary_link))
             << 32) ^
            static_cast<std::uint64_t>(i));
        auto src = std::make_unique<sim::BoundarySource>(
            net, next_flow_id++, plans[i].pkt_src, plans[i].pkt_dst,
            sink.get(), phase_key);
        loop.add_boundary(std::move(src), std::move(sink));
        ++result.boundary_flows;
      } else {
        ++result.external_flows;
      }
      fluid_id[i] = static_cast<std::int32_t>(loop.fluid().size());
      loop.add_fluid_flow(std::move(state), std::move(plans[i].resources));
    }
    if (faults) {
      // After every flow, so flow oids match fault-free builds; armed
      // before any restore — a restore overwrites the event heaps
      // wholesale, exactly like FlowDriver's build-time schedules.
      injector =
          std::make_unique<fault::FaultInjector>(net, region_plan, cfg.fault);
      injector->arm(control, deadline);
    }
  };

  bool finished = true;
  std::uint64_t packet_events = 0;
  sim::with_engine(net, [&](auto& eng, sim::Simulator& control) {
    build(control);
    sim::CheckpointSession session(net, config_hash);
    session.add(&driver);
    session.add(&loop);
    if (injector) session.add(injector.get());
    finished = sim::run_segments(
        eng, &session, spec, deadline, window, [&](Time t, Time w_end) {
          loop.begin_window(control, t, w_end);
          eng.run_until(w_end);
          loop.end_window(t, w_end);
        });
    packet_events = eng.events_processed();
  });

  // --- Result assembly (spec order, so sample order is deterministic) ---
  sim::HashChain rh;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    Time start = -1;
    Time finish = -1;
    if (internal_id[i] >= 0) {
      const sim::FlowRecord& rec =
          driver.flow(static_cast<std::size_t>(internal_id[i])).record();
      start = rec.start;
      finish = rec.finish;
    } else {
      const FluidFlowState& f =
          loop.fluid()[static_cast<std::size_t>(fluid_id[i])];
      start = f.start;
      finish = f.finish;
    }
    if (finish >= 0) {
      result.fct_ms.add(units::to_millis(finish - start));
      ++result.completed;
    }
    rh.mix(static_cast<std::uint64_t>(plans[i].kind))
        .mix(static_cast<std::uint64_t>(finish));
  }
  result.finished = finished;
  result.packet_events = packet_events;
  result.fluid_windows = loop.windows();
  result.fluid_solves = loop.solves();
  result.fluid_solves_skipped = loop.solves_skipped();
  result.queue_drops = net.stats().queue_drops;
  result.retransmits = driver.total_retransmits();
  result.intra_jobs = net.config().intra_jobs;
  result.table_build_s = net.table_build_seconds() + setup_s;
  result.path_sample_s = path_sample_s;
  result.path_sample_work = path_work;
  rh.mix(result.flows)
      .mix(result.completed)
      .mix(result.packet_events)
      .mix(result.fluid_windows)
      .mix(result.fluid_solves)
      .mix(result.fluid_solves_skipped)
      .mix(static_cast<std::uint64_t>(result.queue_drops))
      .mix(static_cast<std::uint64_t>(result.retransmits));
  if (faults) {
    const HybridLoop::FaultTotals totals = loop.fault_totals(deadline);
    result.stalled_flows = totals.stalled_flows;
    result.boundary_repins = loop.boundary_repins().size();
    result.fluid_outages = loop.fluid_outages().size();
    result.fluid_blackhole_seconds = totals.blackhole_seconds;
    result.stalled_seconds = totals.stalled_seconds;
    result.goodput_recovery = loop.goodput_recovery();

    // Unified cross-half report. Packet-injector link ids are region-local;
    // translate them back to full-graph ids so one document names every
    // link consistently.
    std::vector<topo::LinkId> region_link_to_full(
        static_cast<std::size_t>(rg.graph.num_links()), topo::kInvalidLink);
    for (std::size_t l = 0; l < rg.link_to_region.size(); ++l) {
      if (rg.link_to_region[l] != topo::kInvalidLink)
        region_link_to_full[static_cast<std::size_t>(rg.link_to_region[l])] =
            static_cast<topo::LinkId>(l);
    }
    JsonWriter jw;
    jw.begin_object();
    jw.key("packet");
    injector->write_report(jw, deadline, region_link_to_full);
    jw.key("fluid");
    jw.begin_object();
    jw.kv("blackhole_seconds", totals.blackhole_seconds);
    jw.kv("stalled_flows",
          static_cast<std::uint64_t>(totals.stalled_flows));
    jw.kv("stalled_seconds", totals.stalled_seconds);
    jw.key("outages");
    jw.begin_array();
    for (const FluidOutage& o : loop.fluid_outages()) {
      jw.begin_object();
      jw.kv("link", static_cast<std::int64_t>(o.link));
      jw.kv("t_down", static_cast<std::int64_t>(o.t_down));
      jw.kv("t_routed_out", static_cast<std::int64_t>(o.t_routed_out));
      jw.kv("t_restored", static_cast<std::int64_t>(o.t_restored));
      jw.kv("t_routed_in", static_cast<std::int64_t>(o.t_routed_in));
      jw.kv("boundary", o.boundary);
      jw.end_object();
    }
    jw.end_array();
    jw.end_object();
    jw.key("boundary");
    jw.begin_object();
    std::int64_t severed = 0;
    jw.key("repins");
    jw.begin_array();
    for (const BoundaryRepin& p : loop.boundary_repins()) {
      if (p.to_cut < 0) ++severed;
      jw.begin_object();
      jw.kv("flow", p.flow);
      jw.kv("from_cut", static_cast<std::int64_t>(p.from_cut));
      jw.kv("to_cut", static_cast<std::int64_t>(p.to_cut));
      jw.kv("at", static_cast<std::int64_t>(p.at));
      jw.end_object();
    }
    jw.end_array();
    jw.kv("severed", severed);
    jw.end_object();
    jw.kv("goodput_recovery", result.goodput_recovery);
    jw.end_object();
    result.fault_report = jw.str();

    rh.mix(result.stalled_flows)
        .mix(result.boundary_repins)
        .mix(result.fluid_outages);
    mix_double(rh, result.fluid_blackhole_seconds);
    mix_double(rh, result.stalled_seconds);
    mix_double(rh, result.goodput_recovery);
  }
  result.result_hash = rh.value();
  return result;
}

HybridResult run_hybrid_experiment(const topo::Graph& g,
                                   const workload::RackTm& tm,
                                   const HybridConfig& cfg,
                                   const std::vector<int>* supernode_of) {
  Rng rng(cfg.fct.seed);
  const auto specs = generate_experiment_flows(g, tm, cfg.fct, rng);
  return run_hybrid_experiment_flows(g, specs, cfg, supernode_of);
}

}  // namespace spineless::core
