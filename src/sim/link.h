// A unidirectional link: drop-tail byte-bounded output queue, store-and-
// forward serialization at the line rate, then fixed propagation delay to
// the receiving device.
//
// Packets live in PacketNodes drawn from a shared PacketPool: the output
// queue is an intrusive FIFO of nodes, and a packet in flight travels
// through the event queue as its node pointer (ctx), so the data path
// performs no heap allocation and no staging copies once the pool is warm.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "sim/packet.h"
#include "sim/packet_pool.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace spineless::sim {

class PacketCodec;
class SnapshotReader;
class SnapshotWriter;

// Anything that can accept a packet off a link. The device takes ownership
// of the node: it must either re-enqueue it on another Link or release it
// back to the pool — this is what lets a packet cross the whole fabric
// without ever being copied.
//
// A Device is itself an EventSink: propagation-delay arrivals are
// scheduled directly on the receiving device (ctx = the PacketNode*), so
// in a sharded run the arrival executes in the device's shard — the only
// cross-shard events are exactly these link arrivals, which the
// propagation delay pushes at least one lookahead into the future.
class Device : public EventSink {
 public:
  virtual void receive(Simulator& sim, PacketNode* node) = 0;
  void on_event(Simulator& sim, std::uint64_t ctx) final {
    receive(sim, reinterpret_cast<PacketNode*>(ctx));
  }
};

class Link : public EventSink {
 public:
  struct Stats {
    std::int64_t packets_tx = 0;
    std::int64_t bytes_tx = 0;
    std::int64_t drops = 0;
    std::int64_t ecn_marks = 0;
    std::int64_t max_queue_bytes = 0;
    // Fault-layer accounting (data/ACK packets only; control hellos are
    // not counted). down_drops and gray_drops are also included in
    // `drops`, preserving its meaning of "every packet this link ate".
    std::int64_t down_drops = 0;     // blackholed while physically down
    std::int64_t gray_drops = 0;     // silently dropped by a gray fault
    std::int64_t corrupt_marks = 0;  // corrupted in flight (discarded at
                                     // the receiver's checksum)
  };

  // ecn_threshold_bytes > 0 enables ECN: packets enqueued while the queue
  // holds at least that many bytes get the congestion-experienced mark
  // (DCTCP-style instantaneous-queue marking). The pool outlives the link
  // and is typically shared by every link of a Network.
  Link(std::int64_t rate_bps, Time propagation_delay,
       std::int64_t queue_capacity_bytes, Device* peer, PacketPool* pool,
       std::int64_t ecn_threshold_bytes = 0)
      : rate_bps_(rate_bps),
        prop_delay_(propagation_delay),
        queue_capacity_(queue_capacity_bytes),
        ecn_threshold_(ecn_threshold_bytes),
        peer_(peer),
        pool_(pool) {
    SPINELESS_CHECK(rate_bps > 0 && queue_capacity_bytes > 0);
    SPINELESS_CHECK(peer != nullptr);
    SPINELESS_CHECK(pool != nullptr);
    base_rate_bps_ = rate_bps;
  }

  // Drop-tail enqueue; starts the transmitter if idle. Packets offered to
  // a downed link are dropped (counted in stats) — the data-plane blackhole
  // between a physical failure and routing reconvergence.
  void enqueue(Simulator& sim, const Packet& pkt);
  // Zero-copy variant: takes ownership of a node already drawn from the
  // pool (the forwarding path hands nodes link to link). Dropped nodes are
  // released back to the pool.
  void enqueue_node(Simulator& sim, PacketNode* node);

  void set_down(bool down) noexcept { down_ = down; }
  bool is_down() const noexcept { return down_; }

  // Gray failure: each enqueued packet is independently dropped with
  // probability drop_prob or marked corrupted with probability
  // corrupt_prob (the receiver's checksum discards it on delivery, so the
  // loss is visible only end-to-end). The per-link RNG stream makes the
  // fault replayable: a link's packets enqueue in serial-identical order
  // under the sharded engine, so the draws are byte-identical too.
  void set_gray(double drop_prob, double corrupt_prob, std::uint64_t seed);
  void clear_gray() noexcept { gray_.reset(); }

  // Port degradation: scales the serialization rate by `factor` in
  // (0, 1]; 1 restores the configured rate. Takes effect from the next
  // packet to start transmitting.
  void set_rate_factor(double factor);

  const Stats& stats() const noexcept { return stats_; }
  std::int64_t queued_bytes() const noexcept { return queued_bytes_; }

  // EventSink: serialization of the head packet finished (arrivals are
  // events on the peer Device, not on the Link).
  void on_event(Simulator& sim, std::uint64_t ctx) override;

  // --- Checkpoint support (sim/checkpoint.h) ---
  void save_state(SnapshotWriter& w, const PacketCodec& codec) const;
  // Only valid on a freshly-constructed link (empty queue): queued packets
  // re-allocate from this link's own pool.
  void load_state(SnapshotReader& r, const PacketCodec& codec);

  // Auditor: recounts the FIFO from the nodes themselves so the cached
  // aggregates can be cross-checked.
  struct QueueAudit {
    std::size_t nodes = 0;
    std::int64_t bytes = 0;       // recomputed sum of queued sizes
    std::uint8_t max_hops = 0;    // worst TTL among queued packets
    bool bytes_consistent = true; // recomputed == queued_bytes_ >= 0
    bool busy_consistent = true;  // busy_ iff a head packet exists
  };
  QueueAudit audit_queue() const;

 private:
  struct GrayState {
    double drop_prob = 0;
    double corrupt_prob = 0;
    Rng rng;
  };

  void start_tx(Simulator& sim);

  std::int64_t rate_bps_;
  Time prop_delay_;
  std::int64_t queue_capacity_;
  std::int64_t ecn_threshold_ = 0;
  Device* peer_;
  PacketPool* pool_;

  // Serialization-time memo: a direction carries almost exclusively one
  // packet size (data one way, ACKs the other), so this caches the 128-bit
  // division in units::serialization_time away from the per-packet path.
  std::int64_t memo_size_ = -1;
  Time memo_time_ = 0;

  // Intrusive FIFO awaiting serialization (head = in tx).
  PacketNode* head_ = nullptr;
  PacketNode* tail_ = nullptr;
  std::int64_t queued_bytes_ = 0;
  bool busy_ = false;
  bool down_ = false;
  std::int64_t base_rate_bps_ = 0;  // configured rate; rate_bps_ may be
                                    // degraded below it (set_rate_factor)
  std::unique_ptr<GrayState> gray_;
  Stats stats_;

  // The one field list save_state and load_state walk.
  template <class Io, class Self>
  static void fields(Io& io, Self& self, const PacketCodec& codec);
};

}  // namespace spineless::sim
