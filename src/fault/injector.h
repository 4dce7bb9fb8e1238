// FaultInjector: applies a FaultPlan to a live Network and replaces the
// oracle reconvergence trigger with in-band detection.
//
// Detection model (BFD-style): every directed link runs a hello
// transmitter at the sending switch (a 64-byte control packet each
// hello_interval, sharing the data path — so it queues, serializes, and
// dies with the link like real BFD) and a hold timer at the receiving
// switch. When no valid hello has arrived for hold_count * hello_interval,
// the receiver declares the link down; the "control plane" routes the link
// out of the forwarding tables repair_delay later (detection + incremental
// reconvergence = the measured outage window). A hello arriving on a link
// that was declared down starts the symmetric restore path. Gray links
// that still pass hellos are — correctly — never detected: the traffic
// they eat is visible only in the degradation metrics.
//
// Determinism: hello transmitters and hold timers are ordinary simulator
// events with construction-order oids; per-link gray RNG streams are pure
// functions of (plan seed, link). Shard-side detections never touch
// injector state directly — they schedule a global (barrier-synchronized)
// event at now + repair_delay, which is also why repair_delay must be at
// least the network's link delay (the sharded engine's lookahead horizon).
// The whole run — reports included — is byte-identical for any intra_jobs.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "fault/fault_plan.h"
#include "sim/checkpoint.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "util/json.h"

namespace spineless::fault {

using sim::Network;
using sim::Simulator;

struct FaultInjectorConfig {
  Time hello_interval = 100 * units::kMicrosecond;
  // Hold time = hold_count * hello_interval without a valid hello before
  // the receiver declares the link down (BFD detect multiplier).
  int hold_count = 3;
  // Detection -> repaired tables: the control-plane reaction time
  // (incremental reconvergence + FIB install). Must be >= the network's
  // link delay (sharded-engine lookahead).
  Time repair_delay = 500 * units::kMicrosecond;

  // Throws spineless::Error naming the offending value when the config
  // cannot run deterministically: repair_delay below `link_delay` would
  // schedule global repair events inside the sharded engine's lookahead
  // horizon (silent cross-shard nondeterminism), and a non-positive
  // hello_interval / hold_count < 1 degenerates the BFD machinery.
  // FaultInjector::arm() calls this; callers embedding the config elsewhere
  // (the hybrid fluid outage model) validate through the same path.
  void validate(Time link_delay) const;
};

class FaultInjector : public sim::EventSink,
                      public sim::HelloHandler,
                      public sim::Checkpointable {
 public:
  // Registers itself as the network's hello handler and draws oids for
  // every per-directed-link BFD session — construct in the same order as
  // every other dynamic sink to keep runs comparable.
  FaultInjector(Network& net, const FaultPlan& plan,
                const FaultInjectorConfig& cfg = {});
  ~FaultInjector() override;

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // Schedules every plan action and starts the BFD machinery (hello
  // transmissions stop after `until`). Call once, before running.
  void arm(Simulator& sim, Time until);

  // Restore-safe arming: schedules ONLY the plan actions, leaving the BFD
  // machinery alone. This is the entry point for experiments that restore
  // a warm checkpoint whose event arrays already contain the hello/hold
  // events (re-running arm() would duplicate them): construct the injector
  // with the request's plan, restore, then arm_actions. Throws when any
  // action predates the engine clock — a what-if fault cannot land inside
  // the already-simulated warm prefix.
  void arm_actions(Simulator& sim);

  // One routed-out/routed-in cycle of a link. Times are -1 when the
  // corresponding transition never happened. A gray link that trips BFD
  // (e.g. drop=1.0) produces an outage with t_down == -1: the data plane
  // never went physically down, yet the control plane reacted.
  struct Outage {
    topo::LinkId link = 0;
    Time t_down = -1;        // physical failure
    Time t_detected = -1;    // BFD hold expiry (first direction to trip)
    Time t_routed_out = -1;  // repaired tables installed (detection +
                             // repair_delay)
    Time t_restored = -1;    // physical recovery
    Time t_up_detected = -1;   // first valid hello after routed-out
    Time t_routed_in = -1;     // link back in the tables
  };

  struct GrayWindow {
    topo::LinkId link = 0;
    Time from = 0;
    Time until = -1;        // -1: still active at report time
    bool detected = false;  // BFD tripped during the window
  };

  struct Report {
    std::vector<Outage> outages;
    std::vector<GrayWindow> gray_windows;
    // Seconds during which packets offered to a failed-but-still-routed
    // link were blackholed, summed over links: for each outage,
    // min(t_routed_out, t_restored, end) - t_down.
    double blackhole_seconds = 0;
    int undetected_gray_windows = 0;
  };
  // `end`: horizon for still-open windows (normally the run deadline).
  Report report(Time end) const;
  // Writes the report as one JSON object into `w` — it contains no
  // wall-clock times, so serial and sharded runs of the same plan write
  // byte-identical text. A non-empty `link_ids` maps every link id this
  // injector saw to the id written (a region network's links back to the
  // full graph's).
  void write_report(JsonWriter& w, Time end,
                    std::span<const topo::LinkId> link_ids = {}) const;

  const FaultInjectorConfig& config() const noexcept { return cfg_; }
  Time hold_time() const noexcept {
    return cfg_.hold_count * cfg_.hello_interval;
  }

  // sim::HelloHandler (runs in the receiving switch's shard).
  void on_hello(Simulator& sim, const sim::Packet& pkt) override;
  // Global sink: plan actions and detection-driven repairs.
  void on_event(Simulator& sim, std::uint64_t ctx) override;

  // sim::Checkpointable: self, then every (tx, rx) BFD session pair in
  // construction order. State covers the hold timers, the per-link logs,
  // and the outage/gray-window records; hello transmitters are stateless.
  void collect_sinks(sim::SinkRegistry& reg) override;
  void save_state(sim::SnapshotWriter& w) const override;
  void load_state(sim::SnapshotReader& r) override;

 private:
  class HelloTx;
  class BfdRx;
  friend class BfdRx;

  // High bit of a global-event ctx marks a detection-driven repair; the
  // low bits pack (link, up). Plan actions use their plain index. Keeping
  // the two spaces disjoint — independent of the plan size — lets a warm
  // checkpoint with in-flight repairs be restored under a different plan.
  static constexpr std::uint64_t kRepairCtxBit = 1ULL << 63;

  // Called by a BFD session (shard context): queue a global repair event.
  void schedule_repair(Simulator& sim, topo::LinkId link, bool up);
  void apply_action(const FaultAction& a, Time now);
  void apply_repair(topo::LinkId link, bool up, Time now);

  // Per-link bookkeeping, touched only from global events.
  struct LinkLog {
    int open_outage = -1;  // index into outages_, -1 = none
    int open_gray = -1;    // index into gray_windows_, -1 = none
  };

  Network& net_;
  const FaultPlan& plan_;
  FaultInjectorConfig cfg_;
  Time hello_until_ = 0;  // written once in arm(), read by tx events

  std::unique_ptr<HelloTx[]> tx_;  // [2 * link + dir]
  std::unique_ptr<BfdRx[]> rx_;    // [2 * link + dir]
  std::size_t num_sessions_ = 0;

  std::vector<LinkLog> link_log_;
  std::vector<Outage> outages_;
  std::vector<GrayWindow> gray_windows_;

  template <class Io, class Self>
  static void fields(Io& io, Self& self);
};

}  // namespace spineless::fault
