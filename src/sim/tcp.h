// TCP Reno/NewReno endpoints, htsim-style: packet-counted congestion window
// with slow start, AIMD congestion avoidance, fast retransmit / fast
// recovery on three duplicate ACKs, NewReno partial-ACK retransmission, and
// go-back-N on retransmission timeout with exponential backoff.
//
// The paper's simulations use "TCP and 10Gbps links" (§5.3); this is the
// standard transport every topology/routing combination runs on.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/checkpoint.h"
#include "sim/network.h"
#include "sim/packet.h"
#include "sim/simulator.h"
#include "util/stats.h"

namespace spineless::sim {

struct TcpConfig {
  // DCTCP (extension): react proportionally to the fraction of ECN-marked
  // ACKs, once per window: cwnd *= 1 - alpha/2. Requires
  // NetworkConfig::ecn_threshold_bytes > 0 to see any marks.
  bool dctcp = false;
};

// Completion record for one flow.
struct FlowRecord {
  std::int32_t flow_id = 0;
  std::int64_t bytes = 0;
  Time start = 0;
  Time finish = -1;  // -1 while incomplete
  std::int64_t retransmits = 0;
  std::int64_t timeouts = 0;
  bool completed() const noexcept { return finish >= 0; }
  Time fct() const noexcept { return finish - start; }
};

class TcpSink;

class TcpSource : public EventSink, public Endpoint {
 public:
  // Creates source + paired sink and registers both with the network.
  TcpSource(Network& net, std::int32_t flow_id, topo::HostId src,
            topo::HostId dst, std::int64_t bytes, const TcpConfig& cfg);
  ~TcpSource() override;

  TcpSource(const TcpSource&) = delete;
  TcpSource& operator=(const TcpSource&) = delete;

  // Schedules the connection to begin sending at time t.
  void start_at(Simulator& sim, Time t);

  const FlowRecord& record() const noexcept { return record_; }
  // Cumulatively acknowledged payload — the goodput numerator for
  // long-running-flow throughput measurements.
  std::int64_t bytes_acked() const noexcept {
    const std::int64_t b = cum_ * kMss;
    return b < record_.bytes ? b : record_.bytes;
  }

  // Endpoint: ACK arrival.
  void on_packet(Simulator& sim, const Packet& ack) override;
  // EventSink: flow start (ctx 0) or RTO timer (ctx 1).
  void on_event(Simulator& sim, std::uint64_t ctx) override;

  double dctcp_alpha() const noexcept { return dctcp_alpha_; }

  // Checkpoint support (driven by FlowDriver): the full sender state plus
  // the paired sink's reassembly state, one field list for save and
  // restore. Restore is only valid on a flow that was reconstructed
  // identically (same id/src/dst/bytes/config).
  template <class Io, class Self>
  static void fields(Io& io, Self& self);

 private:
  void send_available(Simulator& sim);
  void dctcp_on_ack(std::int64_t delta, bool marked);
  void transmit(Simulator& sim, std::int64_t seq);
  void arm_rto(Simulator& sim);
  void schedule_rto_event(Simulator& sim);
  void note_rtt_sample(Time rtt);
  void handle_new_ack(Simulator& sim, std::int64_t acked, Time echoed_ts,
                      bool marked);
  void handle_dup_ack(Simulator& sim);
  void handle_timeout(Simulator& sim);

  Network& net_;
  TcpConfig cfg_;
  topo::HostId src_, dst_;
  topo::NodeId dst_tor_;
  std::int64_t total_pkts_;
  std::unique_ptr<TcpSink> sink_;

  // Sender state (in packets).
  std::int64_t snd_next_ = 0;  // next new sequence to send
  std::int64_t cum_ = 0;       // highest cumulative ACK (count received)
  double cwnd_;
  double ssthresh_ = 1e18;
  int dupacks_ = 0;
  bool in_recovery_ = false;
  std::int64_t recover_ = 0;  // snd_next_ when recovery was entered

  // DCTCP state: per-window marked/acked byte counting and the EWMA alpha.
  double dctcp_alpha_ = 0;
  std::int64_t dctcp_marked_ = 0;
  std::int64_t dctcp_acked_ = 0;
  std::int64_t dctcp_window_end_ = 0;

  // RTT estimation (Jacobson/Karels).
  Time srtt_ = 0;
  Time rttvar_ = 0;
  Time rto_;
  int backoff_ = 0;
  // Retransmission timer, deadline-checked: stale fires re-check
  // rto_deadline_ and re-arm instead of timing out. (Pushing a fresh timer
  // per ACK left thousands of stale events in the heap, and the deeper
  // sift per push/pop dominated the event loop.) Most ACKs only advance
  // the deadline and piggyback on the pending event, but the deadline can
  // also move EARLIER (an ACK resets backoff_, RTT samples shrink rto_);
  // then an extra event is scheduled at the new deadline so a loss is
  // never detected at a stale backed-off fire time. pending_fires_ holds
  // the scheduled times of in-flight timer events: new times are pushed
  // only when strictly earlier than every pending one and events fire in
  // time order, so it is a strictly-decreasing stack whose back() is the
  // earliest pending fire.
  Time rto_deadline_ = 0;
  std::vector<Time> pending_fires_;

  FlowRecord record_;
  bool started_ = false;
};

class TcpSink : public Endpoint {
 public:
  TcpSink(Network& net, std::int32_t flow_id) : net_(net), flow_id_(flow_id) {}

  void on_packet(Simulator& sim, const Packet& data) override;
  std::int64_t cumulative() const noexcept { return next_expected_; }

  // Checkpoint support (driven by the owning TcpSource).
  template <class Io, class Self>
  static void fields(Io& io, Self& self);

 private:
  Network& net_;
  std::int32_t flow_id_;
  std::int64_t next_expected_ = 0;
  std::vector<bool> received_;  // out-of-order buffer flags
  // Memoized ACK return address (tor_of_host binary-searches a prefix-sum
  // array; the sender of a flow never changes).
  topo::HostId ack_dst_ = -1;
  topo::NodeId ack_tor_ = 0;
};

// Builds sources for a whole workload and summarizes FCTs.
class FlowDriver : public Checkpointable {
 public:
  FlowDriver(Network& net, const TcpConfig& cfg) : net_(net), cfg_(cfg) {}

  // Adds a flow; returns its id (dense, in insertion order).
  std::int32_t add_flow(Simulator& sim, topo::HostId src, topo::HostId dst,
                        std::int64_t bytes, Time start);

  // Checkpointable: flows in construction (id) order.
  void collect_sinks(SinkRegistry& reg) override;
  void save_state(SnapshotWriter& w) const override;
  void load_state(SnapshotReader& r) override;

  std::size_t num_flows() const noexcept { return flows_.size(); }
  std::size_t completed_flows() const;
  // FCTs of completed flows, in milliseconds.
  Summary fct_ms() const;
  std::int64_t total_retransmits() const;
  const TcpSource& flow(std::size_t i) const { return *flows_.at(i); }

 private:
  Network& net_;
  TcpConfig cfg_;
  std::vector<std::unique_ptr<TcpSource>> flows_;

  template <class Io, class Self>
  static void fields(Io& io, Self& self);
};

}  // namespace spineless::sim
