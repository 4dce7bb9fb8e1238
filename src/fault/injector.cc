#include "fault/injector.h"

#include <algorithm>

namespace spineless::fault {

// Hello transmitter for one directed link. Lives in the transmitting
// switch's shard; re-schedules itself every hello_interval and enqueues a
// control packet on the link — which drops it if the link is down, exactly
// like a real hello into a dead port.
class FaultInjector::HelloTx : public sim::EventSink {
 public:
  void init(FaultInjector* inj, topo::LinkId link, int dir) {
    inj_ = inj;
    link_ = link;
    dir_ = dir;
  }
  void on_event(Simulator& sim, std::uint64_t) override {
    if (sim.now() + inj_->cfg_.hello_interval <= inj_->hello_until_)
      sim.schedule_after(inj_->cfg_.hello_interval, this, 0);
    inj_->net_.send_hello(sim, link_, dir_);
  }

 private:
  FaultInjector* inj_ = nullptr;
  topo::LinkId link_ = 0;
  int dir_ = 0;
};

// Hold-timer state for one directed link, owned by the receiving switch's
// shard. Deadline-checked: every valid hello arms a check at now + hold;
// a check that finds no hello within the hold window declares the link
// down. Declarations are handed to the injector as global events at
// now + repair_delay — never by touching injector state from shard
// context.
class FaultInjector::BfdRx : public sim::EventSink {
 public:
  void init(FaultInjector* inj, topo::LinkId link) {
    inj_ = inj;
    link_ = link;
  }
  void hello(Simulator& sim) {
    last_rx_ = sim.now();
    if (down_) {
      down_ = false;
      inj_->schedule_repair(sim, link_, /*up=*/true);
    }
    sim.schedule_after(inj_->hold_time(), this, 0);
  }
  // Prime the session at arm time as if a hello had just been seen, so a
  // link that dies before the first real hello still gets detected.
  void prime(Simulator& sim, Time check_at) {
    last_rx_ = sim.now();
    sim.schedule_at(check_at, this, 0);
  }
  void on_event(Simulator& sim, std::uint64_t) override {
    if (down_) return;  // stale check from before the declaration
    if (sim.now() - last_rx_ >= inj_->hold_time()) {
      down_ = true;
      inj_->schedule_repair(sim, link_, /*up=*/false);
    }
  }
  template <class Io, class Self>
  static void fields(Io& io, Self& s) {
    io.i64(s.last_rx_);
    io.u8(s.down_);
  }

 private:
  FaultInjector* inj_ = nullptr;
  topo::LinkId link_ = 0;
  Time last_rx_ = 0;
  bool down_ = false;
};

void FaultInjectorConfig::validate() const {
  if (repair_delay < sim::kLinkDelay) {
    throw Error("FaultInjectorConfig: repair_delay (" +
                std::to_string(repair_delay) + "ps) is below the network "
                "link delay (" + std::to_string(sim::kLinkDelay) +
                "ps) — repair events would land inside the sharded engine's "
                "lookahead horizon and break cross-shard determinism");
  }
  if (hello_interval <= 0) {
    throw Error("FaultInjectorConfig: hello_interval must be positive, got " +
                std::to_string(hello_interval) + "ps");
  }
  if (hold_count < 1) {
    throw Error("FaultInjectorConfig: hold_count must be >= 1, got " +
                std::to_string(hold_count));
  }
}

FaultInjector::FaultInjector(Network& net, const FaultPlan& plan,
                             const FaultInjectorConfig& cfg)
    : net_(net), plan_(plan), cfg_(cfg) {
  net_.register_global_sink(this);
  net_.set_hello_handler(this);

  const topo::Graph& g = net_.graph();
  num_sessions_ = 2 * static_cast<std::size_t>(g.num_links());
  tx_ = std::make_unique<HelloTx[]>(num_sessions_);
  rx_ = std::make_unique<BfdRx[]>(num_sessions_);
  for (topo::LinkId l = 0; l < g.num_links(); ++l) {
    for (int dir = 0; dir < 2; ++dir) {
      const std::size_t idx = 2 * static_cast<std::size_t>(l) +
                              static_cast<std::size_t>(dir);
      const topo::NodeId tx_node = dir == 0 ? g.link(l).a : g.link(l).b;
      const topo::NodeId rx_node = dir == 0 ? g.link(l).b : g.link(l).a;
      tx_[idx].init(this, l, dir);
      tx_[idx].set_event_identity(net_.next_oid(),
                                  net_.shard_of_switch(tx_node));
      rx_[idx].init(this, l);
      rx_[idx].set_event_identity(net_.next_oid(),
                                  net_.shard_of_switch(rx_node));
    }
  }
  link_log_.resize(static_cast<std::size_t>(g.num_links()));
}

FaultInjector::~FaultInjector() { net_.set_hello_handler(nullptr); }

void FaultInjector::arm(Simulator& sim, Time until) {
  cfg_.validate();
  hello_until_ = until;
  arm_actions(sim);
  // Stagger hello start times evenly across one interval so the fabric is
  // not probed in lockstep (and the stagger is a pure function of the
  // session index — deterministic).
  const Time start = sim.now();
  for (std::size_t idx = 0; idx < num_sessions_; ++idx) {
    const Time offset =
        static_cast<Time>(static_cast<std::size_t>(cfg_.hello_interval) * idx /
                          num_sessions_);
    sim.schedule_at(start + offset, &tx_[idx], 0);
    rx_[idx].prime(sim, start + offset + hold_time());
  }
}

void FaultInjector::arm_actions(Simulator& sim) {
  cfg_.validate();
  for (std::size_t i = 0; i < plan_.actions().size(); ++i) {
    SPINELESS_CHECK_MSG(plan_.actions()[i].at >= sim.now(),
                        "FaultInjector: plan action at t="
                            << plan_.actions()[i].at
                            << " is before the engine clock " << sim.now()
                            << " (what-if faults must start after the warm "
                               "checkpoint)");
    sim.schedule_at(plan_.actions()[i].at, this, i);
  }
}

void FaultInjector::on_hello(Simulator& sim, const sim::Packet& pkt) {
  const auto idx = static_cast<std::size_t>(pkt.seq);
  SPINELESS_DCHECK(idx < num_sessions_);
  rx_[idx].hello(sim);
}

void FaultInjector::schedule_repair(Simulator& sim, topo::LinkId link,
                                    bool up) {
  // ctx layout: plain indexes are plan actions; repair events set the high
  // bit and pack (link, direction-of-change) below it. The encoding must
  // not depend on the plan size: a warm checkpoint saved under one plan is
  // restored into an experiment armed with another (the serving layer's
  // what-if requests), and an in-flight repair whose ctx were
  // `actions.size() + k` would silently re-decode as a plan action there.
  const std::uint64_t ctx = kRepairCtxBit |
                            (2 * static_cast<std::uint64_t>(link) +
                             (up ? 1 : 0));
  sim.schedule_at(sim.now() + cfg_.repair_delay, this, ctx);
}

void FaultInjector::on_event(Simulator& sim, std::uint64_t ctx) {
  if ((ctx & kRepairCtxBit) == 0) {
    SPINELESS_DCHECK(ctx < plan_.actions().size());
    apply_action(plan_.actions()[ctx], sim.now());
    return;
  }
  const std::uint64_t rest = ctx & ~kRepairCtxBit;
  apply_repair(static_cast<topo::LinkId>(rest / 2), (rest % 2) != 0,
               sim.now());
}

void FaultInjector::apply_action(const FaultAction& a, Time now) {
  LinkLog& log = link_log_[static_cast<std::size_t>(a.link)];
  switch (a.kind) {
    case FaultAction::Kind::kLinkDown:
      net_.set_link_phys(a.link, /*up=*/false);
      if (log.open_outage < 0) {
        log.open_outage = static_cast<int>(outages_.size());
        outages_.push_back({});
        outages_.back().link = a.link;
      }
      outages_[static_cast<std::size_t>(log.open_outage)].t_down = now;
      break;
    case FaultAction::Kind::kLinkUp:
      net_.set_link_phys(a.link, /*up=*/true);
      if (log.open_outage >= 0) {
        Outage& o = outages_[static_cast<std::size_t>(log.open_outage)];
        o.t_restored = now;
        // If the control plane never reacted (flap shorter than the hold
        // window), the cycle is complete now.
        if (o.t_routed_out < 0) log.open_outage = -1;
      }
      break;
    case FaultAction::Kind::kGrayOn:
      net_.set_link_gray(a.link, a.drop_prob, a.corrupt_prob,
                         splitmix64(plan_.seed() ^
                                    static_cast<std::uint64_t>(a.link)));
      if (log.open_gray < 0) {
        log.open_gray = static_cast<int>(gray_windows_.size());
        gray_windows_.push_back({a.link, now, -1, false});
      }
      break;
    case FaultAction::Kind::kGrayOff:
      net_.clear_link_gray(a.link);
      if (log.open_gray >= 0) {
        gray_windows_[static_cast<std::size_t>(log.open_gray)].until = now;
        log.open_gray = -1;
      }
      break;
    case FaultAction::Kind::kDegradeOn:
      net_.set_link_rate_factor(a.link, a.rate_factor);
      break;
    case FaultAction::Kind::kDegradeOff:
      net_.set_link_rate_factor(a.link, 1.0);
      break;
  }
}

void FaultInjector::apply_repair(topo::LinkId link, bool up, Time now) {
  LinkLog& log = link_log_[static_cast<std::size_t>(link)];
  if (!up) {
    // Both directions can trip: the first declaration wins, the second is
    // a no-op because the link is already routed out.
    if (net_.link_routed_out(link)) return;
    net_.set_link_routed_out(link, true);
    net_.repair_tables();
    if (log.open_outage < 0) {
      // No physical outage on record: a gray link tripped BFD (or a
      // detection raced a very short flap's recovery).
      log.open_outage = static_cast<int>(outages_.size());
      outages_.push_back({});
      outages_.back().link = link;
    }
    Outage& o = outages_[static_cast<std::size_t>(log.open_outage)];
    o.t_detected = now - cfg_.repair_delay;  // the hold-expiry instant
    o.t_routed_out = now;
    if (log.open_gray >= 0)
      gray_windows_[static_cast<std::size_t>(log.open_gray)].detected = true;
    return;
  }
  // Up-detection: a valid hello crossed a routed-out link. Ignore if the
  // link has gone physically down again since the hello was seen.
  if (!net_.link_routed_out(link) || net_.link_phys_down(link)) return;
  net_.set_link_routed_out(link, false);
  net_.repair_tables();
  if (log.open_outage >= 0) {
    Outage& o = outages_[static_cast<std::size_t>(log.open_outage)];
    o.t_up_detected = now - cfg_.repair_delay;
    o.t_routed_in = now;
    log.open_outage = -1;
  }
}

void FaultInjector::collect_sinks(sim::SinkRegistry& reg) {
  reg.add(this, sim::CtxKind::kPlain);
  for (std::size_t idx = 0; idx < num_sessions_; ++idx) {
    reg.add(&tx_[idx], sim::CtxKind::kPlain);
    reg.add(&rx_[idx], sim::CtxKind::kPlain);
  }
}

template <class Io, class Self>
void FaultInjector::fields(Io& io, Self& s) {
  io.i64(s.hello_until_);
  io.expect(s.num_sessions_,
            "snapshot BFD session count does not match the reconstructed "
            "fabric");
  for (std::size_t idx = 0; idx < s.num_sessions_; ++idx)
    BfdRx::fields(io, s.rx_[idx]);
  io.expect(s.link_log_.size(),
            "snapshot link log count does not match the reconstructed "
            "fabric");
  for (auto& log : s.link_log_) {
    io.u32(log.open_outage);
    io.u32(log.open_gray);
  }
  io.seq(s.outages_, [](auto& io, auto& o) {
    io.i64(o.link);
    io.i64(o.t_down);
    io.i64(o.t_detected);
    io.i64(o.t_routed_out);
    io.i64(o.t_restored);
    io.i64(o.t_up_detected);
    io.i64(o.t_routed_in);
  });
  io.seq(s.gray_windows_, [](auto& io, auto& g) {
    io.i64(g.link);
    io.i64(g.from);
    io.i64(g.until);
    io.u8(g.detected);
  });
}

void FaultInjector::save_state(sim::SnapshotWriter& w) const {
  fields(w, *this);
}

void FaultInjector::load_state(sim::SnapshotReader& r) { fields(r, *this); }

FaultInjector::Report FaultInjector::report(Time end) const {
  Report r;
  r.outages = outages_;
  r.gray_windows = gray_windows_;
  for (const Outage& o : r.outages) {
    if (o.t_down < 0) continue;  // gray-triggered: nothing blackholed
    Time stop = end;
    if (o.t_routed_out >= 0) stop = std::min(stop, o.t_routed_out);
    if (o.t_restored >= 0) stop = std::min(stop, o.t_restored);
    if (stop > o.t_down) r.blackhole_seconds += units::to_seconds(stop - o.t_down);
  }
  for (const GrayWindow& w : r.gray_windows)
    if (!w.detected) ++r.undetected_gray_windows;
  return r;
}

void FaultInjector::write_report(JsonWriter& w, Time end,
                                 std::span<const topo::LinkId> link_ids) const {
  const auto link_id = [&](topo::LinkId l) {
    return static_cast<std::int64_t>(
        link_ids.empty() ? l : link_ids[static_cast<std::size_t>(l)]);
  };
  const Report r = report(end);
  w.begin_object();
  w.kv("blackhole_seconds", r.blackhole_seconds);
  w.kv("undetected_gray_windows", r.undetected_gray_windows);
  w.key("outages");
  w.begin_array();
  for (const Outage& o : r.outages) {
    w.begin_object();
    w.kv("link", link_id(o.link));
    w.kv("t_down", static_cast<std::int64_t>(o.t_down));
    w.kv("t_detected", static_cast<std::int64_t>(o.t_detected));
    w.kv("t_routed_out", static_cast<std::int64_t>(o.t_routed_out));
    w.kv("t_restored", static_cast<std::int64_t>(o.t_restored));
    w.kv("t_up_detected", static_cast<std::int64_t>(o.t_up_detected));
    w.kv("t_routed_in", static_cast<std::int64_t>(o.t_routed_in));
    w.end_object();
  }
  w.end_array();
  w.key("gray_windows");
  w.begin_array();
  for (const GrayWindow& g : r.gray_windows) {
    w.begin_object();
    w.kv("link", link_id(g.link));
    w.kv("from", static_cast<std::int64_t>(g.from));
    w.kv("until", static_cast<std::int64_t>(g.until));
    w.kv("detected", g.detected);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

}  // namespace spineless::fault
