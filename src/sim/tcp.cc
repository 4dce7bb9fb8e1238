#include "sim/tcp.h"

#include <algorithm>
#include <cmath>

namespace spineless::sim {
namespace {

constexpr std::uint64_t kStartCtx = 0;
constexpr std::uint64_t kRtoCtx = 1;

constexpr double kInitCwndPkts = 10;               // IW10
constexpr Time kMinRto = 1 * units::kMillisecond;  // conservative DC floor
constexpr Time kMaxRto = 100 * units::kMillisecond;
constexpr double kDctcpGain = 0.0625;  // g in alpha = (1-g) alpha + g F

std::int64_t packets_for(std::int64_t bytes) {
  return (bytes + kMss - 1) / kMss;
}

}  // namespace

TcpSource::TcpSource(Network& net, std::int32_t flow_id, topo::HostId src,
                     topo::HostId dst, std::int64_t bytes,
                     const TcpConfig& cfg)
    : net_(net),
      cfg_(cfg),
      src_(src),
      dst_(dst),
      dst_tor_(net.graph().tor_of_host(dst)),
      total_pkts_(packets_for(bytes)),
      sink_(std::make_unique<TcpSink>(net, flow_id)),
      cwnd_(kInitCwndPkts),
      rto_(kMinRto) {
  SPINELESS_CHECK(bytes > 0);
  SPINELESS_CHECK(src != dst);
  record_.flow_id = flow_id;
  record_.bytes = bytes;
  net_.register_flow(flow_id, this, sink_.get());
  // Deterministic scheduling identity, drawn in flow-construction order;
  // the source's timers execute in its host's shard (ACKs already arrive
  // there — a host shares its ToR's shard).
  set_event_identity(net.next_oid(), net.shard_of_host(src));
}

TcpSource::~TcpSource() = default;

void TcpSource::start_at(Simulator& sim, Time t) {
  record_.start = t;
  sim.schedule_at(t, this, kStartCtx);
}

void TcpSource::on_event(Simulator& sim, std::uint64_t ctx) {
  if (ctx == kStartCtx) {
    started_ = true;
    send_available(sim);
    arm_rto(sim);
    return;
  }
  // RTO timer fired. A fire before the current deadline is stale: make
  // sure some pending event covers the deadline and die; a fire at or
  // past the deadline is a real timeout.
  SPINELESS_DCHECK(!pending_fires_.empty());
  pending_fires_.pop_back();  // events fire earliest-first = back()
  if (record_.completed()) return;
  if (sim.now() < rto_deadline_) {
    schedule_rto_event(sim);
    return;
  }
  handle_timeout(sim);
}

void TcpSource::transmit(Simulator& sim, std::int64_t seq) {
  Packet pkt;
  pkt.src_host = src_;
  pkt.dst_host = dst_;
  pkt.dst_tor = dst_tor_;
  pkt.flow_id = record_.flow_id;
  pkt.seq = seq;
  pkt.size_bytes = kDataPacketBytes;
  pkt.is_ack = false;
  pkt.ts = sim.now();
  net_.inject_from_host(sim, pkt);
}

void TcpSource::send_available(Simulator& sim) {
  const auto window = static_cast<std::int64_t>(cwnd_);
  while (snd_next_ < total_pkts_ && snd_next_ - cum_ < window) {
    transmit(sim, snd_next_);
    ++snd_next_;
  }
}

void TcpSource::arm_rto(Simulator& sim) {
  const Time timeout = std::min(kMaxRto, rto_ << std::min(backoff_, 6));
  rto_deadline_ = sim.now() + timeout;
  schedule_rto_event(sim);
}

void TcpSource::schedule_rto_event(Simulator& sim) {
  // Schedule only if no pending event fires at or before the deadline —
  // an earlier pending fire will re-check the deadline and re-arm, so it
  // covers detection; a later-only pending set would detect the loss at
  // the stale (possibly backed-off, up to ~64x) time.
  if (pending_fires_.empty() || rto_deadline_ < pending_fires_.back()) {
    pending_fires_.push_back(rto_deadline_);
    sim.schedule_at(rto_deadline_, this, kRtoCtx);
  }
}

void TcpSource::note_rtt_sample(Time rtt) {
  if (srtt_ == 0) {
    srtt_ = rtt;
    rttvar_ = rtt / 2;
  } else {
    const Time err = std::abs(srtt_ - rtt);
    rttvar_ = (3 * rttvar_ + err) / 4;
    srtt_ = (7 * srtt_ + rtt) / 8;
  }
  rto_ = std::max(kMinRto, srtt_ + 4 * rttvar_);
}

void TcpSource::on_packet(Simulator& sim, const Packet& ack) {
  SPINELESS_DCHECK(ack.is_ack);
  if (record_.completed()) return;
  if (ack.seq > cum_) {
    handle_new_ack(sim, ack.seq, ack.ts, ack.ecn_ce);
  } else {
    handle_dup_ack(sim);
  }
}

void TcpSource::dctcp_on_ack(std::int64_t delta, bool marked) {
  dctcp_acked_ += delta;
  if (marked) dctcp_marked_ += delta;
  // RFC 8257: a mark during slow start ends slow start immediately —
  // without this, exponential growth overshoots far past the marking
  // threshold before the first proportional cut lands.
  if (marked && cwnd_ < ssthresh_) ssthresh_ = cwnd_;
  if (cum_ < dctcp_window_end_) return;
  // One observation window (~RTT) has passed: update alpha and, if any
  // marks were seen, apply the proportional cut once.
  const double f = dctcp_acked_ > 0
                       ? static_cast<double>(dctcp_marked_) /
                             static_cast<double>(dctcp_acked_)
                       : 0.0;
  dctcp_alpha_ = (1.0 - kDctcpGain) * dctcp_alpha_ + kDctcpGain * f;
  if (dctcp_marked_ > 0 && !in_recovery_) {
    cwnd_ = std::max(2.0, cwnd_ * (1.0 - dctcp_alpha_ / 2.0));
    ssthresh_ = cwnd_;
  }
  dctcp_marked_ = 0;
  dctcp_acked_ = 0;
  dctcp_window_end_ = snd_next_;
}

void TcpSource::handle_new_ack(Simulator& sim, std::int64_t acked,
                               Time echoed_ts, bool marked) {
  const std::int64_t delta = acked - cum_;
  cum_ = acked;
  dupacks_ = 0;
  backoff_ = 0;
  note_rtt_sample(sim.now() - echoed_ts);
  if (cfg_.dctcp) dctcp_on_ack(delta, marked);

  if (in_recovery_) {
    if (acked >= recover_) {
      // Full ACK: leave fast recovery, deflate to ssthresh.
      in_recovery_ = false;
      cwnd_ = std::max(2.0, ssthresh_);
    } else {
      // NewReno partial ACK: the next segment is lost too; retransmit it
      // and stay in recovery.
      transmit(sim, cum_);
      ++record_.retransmits;
      cwnd_ = std::max(2.0, cwnd_ - static_cast<double>(delta) + 1.0);
    }
  } else if (cwnd_ < ssthresh_) {
    cwnd_ += static_cast<double>(delta);  // slow start
  } else {
    cwnd_ += static_cast<double>(delta) / cwnd_;  // congestion avoidance
  }

  if (cum_ >= total_pkts_) {
    record_.finish = sim.now();
    // Any pending timer fires once more, sees completed(), and dies.
    return;
  }
  send_available(sim);
  arm_rto(sim);
}

void TcpSource::handle_dup_ack(Simulator& sim) {
  ++dupacks_;
  if (!in_recovery_ && dupacks_ == 3) {
    in_recovery_ = true;
    recover_ = snd_next_;
    const double inflight = static_cast<double>(snd_next_ - cum_);
    ssthresh_ = std::max(2.0, inflight / 2.0);
    cwnd_ = ssthresh_ + 3;
    transmit(sim, cum_);  // fast retransmit of the missing segment
    ++record_.retransmits;
    arm_rto(sim);
  } else if (in_recovery_) {
    cwnd_ += 1.0;  // window inflation per extra dup ACK
    send_available(sim);
  }
}

void TcpSource::handle_timeout(Simulator& sim) {
  ++record_.timeouts;
  if (started_ && cum_ < total_pkts_) {
    const double inflight = static_cast<double>(snd_next_ - cum_);
    ssthresh_ = std::max(2.0, inflight / 2.0);
    cwnd_ = 1.0;
    in_recovery_ = false;
    dupacks_ = 0;
    snd_next_ = cum_;  // go-back-N
    ++backoff_;
    ++record_.retransmits;
    send_available(sim);
  }
  arm_rto(sim);
}

void TcpSink::on_packet(Simulator& sim, const Packet& data) {
  SPINELESS_DCHECK(!data.is_ack);
  const auto idx = static_cast<std::size_t>(data.seq);
  if (received_.size() <= idx) received_.resize(idx + 1, false);
  received_[idx] = true;
  while (next_expected_ < static_cast<std::int64_t>(received_.size()) &&
         received_[static_cast<std::size_t>(next_expected_)]) {
    ++next_expected_;
  }
  if (ack_dst_ != data.src_host) {  // resolved once; constant per flow
    ack_dst_ = data.src_host;
    ack_tor_ = net_.graph().tor_of_host(data.src_host);
  }
  Packet ack;
  ack.src_host = data.dst_host;
  ack.dst_host = data.src_host;
  ack.dst_tor = ack_tor_;
  ack.flow_id = flow_id_;
  ack.seq = next_expected_;
  ack.size_bytes = kAckPacketBytes;
  ack.is_ack = true;
  ack.ecn_ce = data.ecn_ce;  // precise ECN echo (DCTCP)
  ack.ts = data.ts;  // echo for RTT estimation
  net_.inject_from_host(sim, ack);
}

template <class Io, class Self>
void TcpSink::fields(Io& io, Self& s) {
  io.i64(s.next_expected_);
  // The out-of-order flags, bit-packed 64 to a word.
  std::uint64_t n = s.received_.size();
  io.count(n, 8, 64);
  if constexpr (!Io::kSaving) s.received_.assign(n, false);
  for (std::uint64_t base = 0; base < n; base += 64) {
    const std::uint64_t bits = std::min<std::uint64_t>(64, n - base);
    std::uint64_t word = 0;
    for (std::uint64_t i = 0; i < bits; ++i)
      if (s.received_[base + i]) word |= std::uint64_t{1} << i;
    io.u64(word);
    if constexpr (!Io::kSaving)
      for (std::uint64_t i = 0; i < bits; ++i)
        s.received_[base + i] = ((word >> i) & 1) != 0;
  }
  io.i64(s.ack_dst_);
  io.i64(s.ack_tor_);
}

template <class Io, class Self>
void TcpSource::fields(Io& io, Self& s) {
  io.i64(s.snd_next_);
  io.i64(s.cum_);
  io.f64(s.cwnd_);
  io.f64(s.ssthresh_);
  io.u32(s.dupacks_);
  io.u8(s.in_recovery_);
  io.i64(s.recover_);
  io.f64(s.dctcp_alpha_);
  io.i64(s.dctcp_marked_);
  io.i64(s.dctcp_acked_);
  io.i64(s.dctcp_window_end_);
  io.i64(s.srtt_);
  io.i64(s.rttvar_);
  io.i64(s.rto_);
  io.u32(s.backoff_);
  io.i64(s.rto_deadline_);
  io.seq(s.pending_fires_, [](auto& io, auto& t) { io.i64(t); });
  io.i64(s.record_.start);
  io.i64(s.record_.finish);
  io.i64(s.record_.retransmits);
  io.i64(s.record_.timeouts);
  io.u8(s.started_);
  TcpSink::fields(io, *s.sink_);
}

std::int32_t FlowDriver::add_flow(Simulator& sim, topo::HostId src,
                                  topo::HostId dst, std::int64_t bytes,
                                  Time start) {
  const auto id = static_cast<std::int32_t>(flows_.size());
  flows_.push_back(
      std::make_unique<TcpSource>(net_, id, src, dst, bytes, cfg_));
  flows_.back()->start_at(sim, start);
  return id;
}

void FlowDriver::collect_sinks(SinkRegistry& reg) {
  // Source timers carry plain ctx words (kStartCtx / kRtoCtx); sinks are
  // Endpoints, not EventSinks, so the sources are the only entries.
  for (auto& f : flows_) reg.add(f.get(), CtxKind::kPlain);
}

template <class Io, class Self>
void FlowDriver::fields(Io& io, Self& s) {
  io.expect(s.flows_.size(),
            "snapshot flow count does not match the reconstructed workload");
  for (auto& f : s.flows_) TcpSource::fields(io, *f);
}

void FlowDriver::save_state(SnapshotWriter& w) const { fields(w, *this); }

void FlowDriver::load_state(SnapshotReader& r) { fields(r, *this); }

std::size_t FlowDriver::completed_flows() const {
  std::size_t n = 0;
  for (const auto& f : flows_) n += f->record().completed();
  return n;
}

Summary FlowDriver::fct_ms() const {
  Summary s;
  for (const auto& f : flows_) {
    if (f->record().completed())
      s.add(units::to_millis(f->record().fct()));
  }
  return s;
}

std::int64_t FlowDriver::total_retransmits() const {
  std::int64_t n = 0;
  for (const auto& f : flows_) n += f->record().retransmits;
  return n;
}

}  // namespace spineless::sim
