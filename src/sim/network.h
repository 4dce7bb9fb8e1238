// The simulated data-center network: one switch device per topology node,
// one host device per server, two unidirectional Links per cable (and per
// host NIC). Forwarding is hop-by-hop with per-flow hashing:
//
//  * kEcmp          — shortest-path ECMP, the standard leaf-spine
//                     deployment: the K = 1 VrfTable's next hops;
//  * kShortestUnion — VRF-tagged forwarding over the §4 gadget (VrfTable):
//                     packets carry their VRF level, each hop hashes over
//                     the BGP-multipath next hops of (vrf, switch, dst) and
//                     rewrites the level. This is exactly what the
//                     BGP+VRF configuration installs in hardware.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "routing/types.h"
#include "routing/vrf.h"
#include "sim/link.h"
#include "sim/packet.h"
#include "sim/packet_pool.h"
#include "sim/simulator.h"
#include "topo/graph.h"
#include "util/rng.h"
#include "util/runner.h"
#include "util/stats.h"

namespace spineless::sim {

class SinkRegistry;

using topo::Graph;
using topo::HostId;
using topo::NodeId;

enum class RoutingMode {
  kEcmp,
  kShortestUnion,
  // Pinned per-flow paths installed via Network::set_flow_routes — models
  // k-shortest-path source routing (Jellyfish) and VLB path sets, the
  // non-standard baselines of §2.
  kSourceRouted,
};

// The K of the Shortest-Union(K) paths a mode's flows use: ECMP is SU(1).
inline int shortest_union_k(RoutingMode mode, int su_k) {
  return mode == RoutingMode::kEcmp ? 1 : su_k;
}

// Every link's propagation + processing delay; also the sharded engine's
// conservative lookahead.
inline constexpr Time kLinkDelay = 1 * units::kMicrosecond;

struct NetworkConfig {
  std::int64_t link_rate_bps = units::gbps(10);
  // Host NIC rate; 0 means same as link_rate_bps. Lets experiments model
  // the heterogeneous line speeds §5.1 leaves to future work.
  std::int64_t host_rate_bps = 0;
  std::int64_t queue_bytes = 100 * kDataPacketBytes;  // shallow DC buffers
  RoutingMode mode = RoutingMode::kEcmp;
  int su_k = 2;  // K of Shortest-Union(K) in kShortestUnion mode
  // Flowlet switching (Kassing et al. / CONGA-style): when > 0, a switch
  // re-hashes a flow's next hop after an idle gap longer than this,
  // letting hashed modes rebalance mid-flow. 0 = per-flow hashing.
  Time flowlet_gap = 0;
  // Weighted Shortest-Union splitting (WCMP-style): hash traffic over the
  // VRF next hops proportionally to the number of minimum-cost paths
  // through each, instead of equally. Only meaningful in kShortestUnion.
  bool weighted_su = false;
  // ECN marking threshold per queue (bytes); 0 disables marking. Pair with
  // TcpConfig::dctcp for DCTCP transport. The DCTCP paper's guidance is
  // K ~ 20-65 packets at 10G; default when enabled: 20 packets.
  std::int64_t ecn_threshold_bytes = 0;
  // Record the switch-level path of each flow's first data packet —
  // lets tests assert that forwarding really uses (only) the intended
  // path sets. Off by default (costs a per-packet branch).
  bool trace_paths = false;
  // Number of shards for deterministic intra-cell parallelism: switches
  // (with their hosts, flows, and NICs) are block-partitioned into this
  // many shards, each with its own event heap and packet pool, advanced by
  // sim::ShardedEngine in lookahead-wide windows. Route-table construction
  // fans destinations over the same number of workers. 1 = the plain
  // serial engine; results are byte-identical either way. Clamped to the
  // switch count.
  int intra_jobs = 1;
  // OS threads backing the sharded engine's reactors. 0 = auto:
  // min(shards, hardware_concurrency), so on a single-core host all shard
  // pollers multiplex cooperatively onto the calling thread and the engine
  // pays no context switches. N > 0 forces exactly N reactors (clamped to
  // the shard count) — the TSAN determinism tests force one thread per
  // shard so the lock-free rings are exercised concurrently even on small
  // hosts. Results are byte-identical for every value; this knob is not
  // part of the experiment configuration hash.
  int reactor_threads = 0;
  // Pin each reactor thread to a core (pthread_setaffinity_np, reactor r ->
  // core r mod hardware_concurrency) when the host has more than one core.
  // Pure scheduling hint: results are byte-identical pinned or not, so like
  // reactor_threads it stays outside the experiment configuration hash.
  bool pin_reactors = false;
  // Workers for route-table construction. 0 = inherit intra_jobs (tables
  // fan over the shard count). N > 1 parallelizes the per-destination BFS
  // even for serial-engine cells — at 10k+ switches table build otherwise
  // dominates cell setup. The table contents are identical for every value,
  // so like reactor_threads this stays outside the configuration hash.
  int table_jobs = 0;
};

// A TCP source or sink — receives the packets addressed to its flow.
class Endpoint {
 public:
  virtual ~Endpoint() = default;
  virtual void on_packet(Simulator& sim, const Packet& pkt) = 0;
};

// Receiver hook for in-band control packets (the fault layer's BFD-style
// hellos, flow_id < 0): switches hand them here instead of forwarding.
// Called in the receiving switch's shard — implementations must only touch
// state owned by that shard (or schedule events) from this callback.
class HelloHandler {
 public:
  virtual ~HelloHandler() = default;
  virtual void on_hello(Simulator& sim, const Packet& pkt) = 0;
};

class Network {
 public:
  Network(const Graph& g, const NetworkConfig& cfg);
  ~Network();  // out-of-line: SwitchDev/HostDev are incomplete here

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  const Graph& graph() const noexcept { return graph_; }
  const NetworkConfig& config() const noexcept { return cfg_; }

  // Endpoint registration, indexed by flow id (sources receive ACKs, sinks
  // receive data). Flow ids must be dense from 0.
  void register_flow(std::int32_t flow_id, Endpoint* source, Endpoint* sink);

  // kSourceRouted mode: pins the flow's forward path (src ToR .. dst ToR,
  // inclusive) — data packets follow it, ACKs follow its reverse. The
  // Network stores the paths; they must be valid switch paths.
  void set_flow_routes(std::int32_t flow_id, routing::Path forward);

  // Host NIC entry point: stamps the VRF level and queues on the uplink.
  void inject_from_host(Simulator& sim, Packet pkt);

  struct NetStats {
    std::int64_t queue_drops = 0;  // drop-tail losses on any link
    std::int64_t ttl_drops = 0;    // forwarding-loop guard (should be 0)
    std::int64_t no_route_drops = 0;  // table had no surviving next hop
    std::int64_t delivered = 0;    // packets handed to endpoints
    // Fault-layer accounting. blackhole_drops and gray_drops are subsets
    // of queue_drops (a downed or gray link still "ate" the packet);
    // corrupt_drops are packets that traversed the fabric but failed the
    // receiver's checksum. delivered_bytes counts payload bytes of
    // delivered data packets — the degradation monitor's goodput basis.
    std::int64_t blackhole_drops = 0;
    std::int64_t gray_drops = 0;
    std::int64_t corrupt_drops = 0;
    std::int64_t delivered_bytes = 0;
  };
  NetStats stats() const;

  // Peak queue occupancy across switch-switch links (diagnostics).
  std::int64_t max_network_queue_bytes() const;

  // The shard-0 packet-buffer pool (diagnostics: pooling tests assert its
  // block count plateaus across back-to-back experiments; serial networks
  // have exactly one pool).
  const PacketPool& packet_pool() const noexcept { return *pools_[0]; }

  // --- Sharding (NetworkConfig::intra_jobs; see sim/sharded_engine.h) ---
  int num_shards() const noexcept { return num_shards_; }
  bool sharded() const noexcept { return num_shards_ > 1; }
  int shard_of_switch(NodeId n) const {
    return switch_shard_[static_cast<std::size_t>(n)];
  }
  int shard_of_host(HostId h) const {
    return shard_of_switch(graph_.tor_of_host(h));
  }
  // Hands out the next deterministic scheduling oid (see EventSink). The
  // Network consumes ids for its own links/devices at construction;
  // dynamically created sinks (TcpSource, failure events, monitors) draw
  // theirs in construction order, which experiments keep identical across
  // serial and sharded runs.
  std::uint32_t next_oid() noexcept { return next_oid_++; }
  // Registers a sink that must execute barrier-synchronized with respect
  // to every shard (monitors and other whole-network observers).
  void register_global_sink(EventSink* sink) {
    sink->set_event_identity(next_oid(), EventSink::kShardGlobal);
  }

  // Wall seconds spent building forwarding tables (construction plus every
  // reconvergence) — surfaces setup vs. simulate time in BENCH_*.json.
  double table_build_seconds() const noexcept { return table_build_s_; }

  // --- Mid-simulation link failures (the §7 failure questions at the
  // data plane) ---
  // Takes the physical link down immediately: both directions drop all
  // packets offered to them (blackholing) until routing reconverges.
  void take_link_down(topo::LinkId link);
  void bring_link_up(topo::LinkId link);
  // Recomputes the forwarding tables excluding currently-down links —
  // what the control plane installs once it has reconverged. Destinations
  // cut off entirely get empty next-hop sets (counted as no_route_drops).
  // Only the table the routing mode actually forwards with is recomputed.
  void reconverge_tables();
  // Convenience: schedule a failure at `at` and the table update at
  // `at + reconvergence_delay` (the control-plane convergence window).
  // This is the *oracle* model (the control plane learns of the failure by
  // magic); the fault layer (src/fault) replaces it with in-band BFD
  // detection driving the primitives below.
  void schedule_link_failure(Simulator& sim, topo::LinkId link, Time at,
                             Time reconvergence_delay);

  // --- Fault-layer primitives (src/fault). All of these mutate whole-
  // network state and must run from a global (barrier-synchronized) event
  // in sharded runs, exactly like take_link_down/reconverge_tables. ---
  // Physical link state only: a downed pair blackholes traffic but the
  // tables still point at it until the control plane reacts.
  void set_link_phys(topo::LinkId link, bool up);
  bool link_phys_down(topo::LinkId link) const {
    return net_links_[2 * static_cast<std::size_t>(link)].is_down();
  }
  // Gray failure / port degradation on both directions of a link; `seed`
  // is mixed per direction so the two streams are independent.
  void set_link_gray(topo::LinkId link, double drop_prob, double corrupt_prob,
                     std::uint64_t seed);
  void clear_link_gray(topo::LinkId link);
  void set_link_rate_factor(topo::LinkId link, double factor);
  // Control-plane view: marks the link (not) to be used by forwarding
  // tables. Takes effect at the next repair_tables() call.
  void set_link_routed_out(topo::LinkId link, bool out);
  bool link_routed_out(topo::LinkId link) const {
    return down_links_.contains(link);
  }
  // Incremental reconvergence: computes which destinations the links whose
  // routed-out state changed since the installed tables can affect
  // (VrfTable::destinations_affected_by) and recomputes only
  // those — a delta repair instead of reconverge_tables()'s full rebuild.
  // Falls back to the full rebuild when more than half the destinations
  // are affected. Time is accumulated into table_build_seconds().
  void repair_tables();

  // Enqueues a BFD-style hello (flow_id = kCtrlFlowId, 64 bytes) on
  // direction `dir` (0 = a->b, 1 = b->a) of topology link `link`. The
  // receiving switch hands it to the HelloHandler instead of forwarding.
  // Must be called from the transmitting switch's shard.
  void send_hello(Simulator& sim, topo::LinkId link, int dir);
  void set_hello_handler(HelloHandler* handler) noexcept {
    hello_handler_ = handler;
  }

  // The traced switch path of flow `flow_id`'s first data packet (empty
  // if tracing is off or nothing was forwarded yet). The final entry is
  // the destination ToR once the packet got there.
  routing::Path traced_path(std::int32_t flow_id) const;

  // Instantaneous queued bytes per directed switch-switch link (index
  // 2l = a->b of topology link l, 2l+1 = b->a). Sampled by
  // sim::QueueMonitor.
  std::vector<std::int64_t> queue_occupancy() const;

  // --- Checkpoint support (sim/checkpoint.h) ---
  // Registers every event sink the Network owns, in oid order (the same
  // order the constructor and schedule_link_failure assigned them).
  void collect_sinks(SinkRegistry& reg);
  // Serializes / restores all mutable network state: link queues and
  // stats, physical/routed-out link state (tables are rebuilt from it, not
  // serialized), gray RNG streams, flowlet tables, stats stripes, traces.
  // load_state is only valid on a freshly-reconstructed Network.
  void save_state(SnapshotWriter& w, const PacketCodec& codec) const;
  void load_state(SnapshotReader& r, const PacketCodec& codec);
  // The pinned source route a restored in-flight packet points at.
  const routing::Path* route_for(std::int32_t flow_id, bool is_ack) const;
  // Re-allocates a restored in-flight packet's node from the pool its oid
  // owner drains into (only the per-pool in_use skew depends on the shard).
  PacketNode* alloc_restored_node(int pool_shard, const Packet& p) {
    return pools_[static_cast<std::size_t>(pool_shard)]->alloc(p);
  }
  // Auditor accessors: total pool occupancy and a walk over every link.
  std::int64_t pool_nodes_in_use() const {
    std::int64_t n = 0;
    for (const auto& p : pools_) n += p->in_use();
    return n;
  }
  template <typename Fn>
  void for_each_link(Fn&& fn) const {
    for (const Link& l : net_links_) fn(l);
    for (const Link& l : host_up_) fn(l);
    for (const Link& l : host_down_) fn(l);
  }

 private:
  class SwitchDev;
  class HostDev;
  friend class SwitchDev;
  friend class HostDev;

  Link& out_link(NodeId node, topo::LinkId link);
  // slot = the executing shard: selects the packet pool and the stats
  // stripe, so shards never touch each other's counters or free lists.
  void forward_at_switch(Simulator& sim, NodeId node, int slot,
                         PacketNode* packet_node);
  void deliver(Simulator& sim, int slot, const Packet& pkt);
  void rebuild_tables(const routing::LinkSet* dead);
  topo::LinkId link_to_neighbor(NodeId node, NodeId neighbor) const;
  // Per-flow hash key at a switch, with the flowlet id mixed in when
  // flowlet switching is enabled.
  std::uint64_t hash_key(Simulator& sim, NodeId node, const Packet& pkt);

  // Mixed into every per-hop hash key.
  static constexpr std::uint64_t kEcmpSalt = 0x5eed;

  // Maps the hash onto [0, n) with a multiply-shift instead of a modulo —
  // the per-hop divide was a measurable slice of forwarding cost.
  std::uint32_t pick(std::uint64_t key, std::size_t n) const {
    const std::uint64_t h = splitmix64(key ^ kEcmpSalt);
    return static_cast<std::uint32_t>(
        (static_cast<unsigned __int128>(h) * n) >> 64);
  }

  const Graph& graph_;
  NetworkConfig cfg_;
  // Block partition of switches over shards (shard of switch n); hosts,
  // NICs, and flows follow their ToR. Contiguous blocks keep each shard's
  // links/devices adjacent in the arrays below — the per-shard working set
  // stays cache-local where one global heap walked the whole arrays.
  int num_shards_ = 1;
  std::vector<std::int32_t> switch_shard_;
  std::uint32_t next_oid_ = 1;  // 0 is the simulators' root context
  // Worker pool for parallel table construction; null when both intra_jobs
  // and table_jobs resolve to 1.
  // Nested::kAllow — the benches divide --jobs between sweep and cell.
  std::unique_ptr<util::Runner> table_runner_;
  double table_build_s_ = 0;
  // The forwarding table, built with K = shortest_union_k(mode, su_k);
  // empty in kSourceRouted mode, which forwards along pinned routes.
  routing::VrfTable table_;

  // One pool per shard, declared before the links so they outlive them.
  // Cross-shard packets are released into the receiving shard's free list
  // (see PacketPool::in_use on the counter skew this allows).
  std::vector<std::unique_ptr<PacketPool>> pools_;

  // Devices and links live in contiguous arrays — the forwarding path
  // indexes straight into them with no per-object heap indirection, which
  // keeps the handful of hot Link records packed into few cache lines.
  std::unique_ptr<SwitchDev[]> switches_;
  std::unique_ptr<HostDev[]> hosts_;
  // Switch-to-switch: two directed Links per topology link (index 2l for
  // a->b, 2l+1 for b->a).
  std::vector<Link> net_links_;
  // Host NICs: uplink host->ToR and downlink ToR->host per host.
  std::vector<Link> host_up_;
  std::vector<Link> host_down_;

  std::vector<Endpoint*> sources_;
  std::vector<Endpoint*> sinks_;
  // Pinned routes per flow id (kSourceRouted). reverse is derived.
  struct FlowRoutes {
    routing::Path forward;
    routing::Path reverse;
  };
  std::vector<std::unique_ptr<FlowRoutes>> routes_;
  // Flowlet state per switch. Keyed by flow id in a linear-probing flat
  // table: the per-switch unordered_map lookup was a profiled hot spot,
  // but flow ids are global and monotonically increasing, so a dense
  // per-flow vector per switch would cost O(switches x flows) memory
  // (GBs at paper scale) — each switch stores only the flows that
  // actually traverse it.
  struct FlowletState {
    Time last = 0;
    std::uint32_t id = 0;
  };
  class FlowletTable {
   public:
    // Finds or inserts the state for `flow`. References are invalidated
    // by the next call (the table may grow).
    FlowletState& operator[](std::int32_t flow);

    // Checkpoint support: the slot array round-trips verbatim so probe
    // sequences (and thus flowlet ids) after restore match exactly.
    template <class Io, class Self>
    static void fields(Io& io, Self& table);

   private:
    struct Slot {
      std::int32_t flow = -1;  // -1 = empty
      FlowletState state;
    };
    static std::size_t probe_start(std::int32_t flow, std::size_t mask) {
      return static_cast<std::size_t>(
                 splitmix64(static_cast<std::uint64_t>(flow))) &
             mask;
    }
    void grow();

    std::vector<Slot> slots_;  // power-of-two size
    std::size_t size_ = 0;
  };
  std::vector<FlowletTable> flowlets_;
  std::vector<routing::Path> traces_;  // per flow id, when trace_paths
  routing::LinkSet down_links_;
  // Delta-repair bookkeeping: the dead set the installed tables were built
  // against, plus the links whose routed-out state changed since.
  routing::LinkSet installed_dead_;
  std::vector<topo::LinkId> pending_repair_;
  HelloHandler* hello_handler_ = nullptr;
  // Pending failure schedulers (own their EventSink identity).
  class FailureEvent;
  std::vector<std::unique_ptr<FailureEvent>> failure_events_;
  // ttl_drops / no_route_drops / delivered, striped per shard so parallel
  // windows never share a counter cache line; stats() sums the stripes.
  struct alignas(64) ShardStats {
    NetStats s;
  };
  std::vector<ShardStats> shard_stats_;

  // The one field list save_state and load_state walk.
  template <class Io, class Self>
  static void fields(Io& io, Self& self, const PacketCodec& codec);
};

}  // namespace spineless::sim
