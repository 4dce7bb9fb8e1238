#include "sim/link.h"

#include <algorithm>
#include <array>

#include "sim/checkpoint.h"

namespace spineless::sim {

void Link::enqueue(Simulator& sim, const Packet& pkt) {
  if (down_ || queued_bytes_ + pkt.size_bytes > queue_capacity_) {
    if (down_ && pkt.flow_id >= 0) ++stats_.down_drops;
    ++stats_.drops;
    return;
  }
  enqueue_node(sim, pool_->alloc(pkt));
}

void Link::enqueue_node(Simulator& sim, PacketNode* node) {
  if (down_ || queued_bytes_ + node->pkt.size_bytes > queue_capacity_) {
    if (down_ && node->pkt.flow_id >= 0) ++stats_.down_drops;
    ++stats_.drops;
    pool_->release(node);
    return;
  }
  if (gray_ != nullptr) {
    // One draw per packet regardless of outcome keeps the stream aligned
    // across drop/corrupt/pass decisions.
    const double u = gray_->rng.uniform_real();
    if (u < gray_->drop_prob) {
      if (node->pkt.flow_id >= 0) ++stats_.gray_drops;
      ++stats_.drops;
      pool_->release(node);
      return;
    }
    if (u < gray_->drop_prob + gray_->corrupt_prob && !node->pkt.corrupted) {
      node->pkt.corrupted = true;
      ++stats_.corrupt_marks;
    }
  }
  if (ecn_threshold_ > 0 && queued_bytes_ >= ecn_threshold_) {
    node->pkt.ecn_ce = true;
    ++stats_.ecn_marks;
  }
  node->next = nullptr;
  if (tail_ == nullptr) {
    head_ = tail_ = node;
  } else {
    tail_->next = node;
    tail_ = node;
  }
  queued_bytes_ += node->pkt.size_bytes;
  stats_.max_queue_bytes = std::max(stats_.max_queue_bytes, queued_bytes_);
  if (!busy_) start_tx(sim);
}

void Link::set_gray(double drop_prob, double corrupt_prob,
                    std::uint64_t seed) {
  SPINELESS_CHECK(drop_prob >= 0 && corrupt_prob >= 0 &&
                  drop_prob + corrupt_prob <= 1.0);
  gray_ = std::make_unique<GrayState>();
  gray_->drop_prob = drop_prob;
  gray_->corrupt_prob = corrupt_prob;
  gray_->rng.reseed(seed);
}

void Link::set_rate_factor(double factor) {
  SPINELESS_CHECK(factor > 0 && factor <= 1.0);
  rate_bps_ = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(static_cast<double>(base_rate_bps_) *
                                   factor));
  memo_size_ = -1;  // re-derive serialization time at the new rate
}

void Link::start_tx(Simulator& sim) {
  SPINELESS_DCHECK(head_ != nullptr);
  busy_ = true;
  const std::int64_t size = head_->pkt.size_bytes;
  if (size != memo_size_) {
    memo_size_ = size;
    memo_time_ = units::serialization_time(size, rate_bps_);
  }
  sim.schedule_after(memo_time_, this, /*ctx=*/0);
}

void Link::on_event(Simulator& sim, std::uint64_t) {
  // Head packet fully serialized: launch it down the wire. The node
  // itself rides the propagation event to the peer device, which then
  // owns it; arrivals stay FIFO because serialization completes in order
  // and the delay is constant.
  PacketNode* node = head_;
  head_ = node->next;
  if (head_ == nullptr) tail_ = nullptr;
  node->next = nullptr;
  queued_bytes_ -= node->pkt.size_bytes;
  ++stats_.packets_tx;
  stats_.bytes_tx += node->pkt.size_bytes;
  sim.schedule_after(prop_delay_, peer_,
                     reinterpret_cast<std::uint64_t>(node));
  if (head_ != nullptr)
    start_tx(sim);
  else
    busy_ = false;
}

template <class Io, class Self>
void Link::fields(Io& io, Self& s, const PacketCodec& codec) {
  // Queue contents in FIFO order (head first). Restore re-allocates the
  // nodes from this link's own pool.
  std::uint64_t n = 0;
  for (const PacketNode* p = s.head_; p != nullptr; p = p->next) ++n;
  io.count(n, codec.wire_bytes());
  if constexpr (Io::kSaving) {
    for (const PacketNode* p = s.head_; p != nullptr; p = p->next)
      codec.fields(io, p->pkt);
  } else {
    SPINELESS_CHECK(s.head_ == nullptr && s.tail_ == nullptr);
    for (std::uint64_t i = 0; i < n; ++i) {
      Packet pkt;
      codec.fields(io, pkt);
      PacketNode* node = s.pool_->alloc(pkt);
      node->next = nullptr;
      if (s.tail_ == nullptr) {
        s.head_ = s.tail_ = node;
      } else {
        s.tail_->next = node;
        s.tail_ = node;
      }
    }
    s.memo_size_ = -1;  // wall-clock-free cache; re-derive lazily
  }
  io.i64(s.queued_bytes_);
  io.u8(s.busy_);
  io.u8(s.down_);
  io.i64(s.rate_bps_);  // may be degraded below base_rate_bps_
  bool gray = s.gray_ != nullptr;
  io.u8(gray);
  if constexpr (!Io::kSaving)
    s.gray_ = gray ? std::make_unique<GrayState>() : nullptr;
  if (gray) {
    io.f64(s.gray_->drop_prob);
    io.f64(s.gray_->corrupt_prob);
    std::array<std::uint64_t, 4> rng = s.gray_->rng.state();
    io.rng_state(rng);  // mid-stream, NOT the seed
    if constexpr (!Io::kSaving) s.gray_->rng.set_state(rng);
  }
  io.i64(s.stats_.packets_tx);
  io.i64(s.stats_.bytes_tx);
  io.i64(s.stats_.drops);
  io.i64(s.stats_.ecn_marks);
  io.i64(s.stats_.max_queue_bytes);
  io.i64(s.stats_.down_drops);
  io.i64(s.stats_.gray_drops);
  io.i64(s.stats_.corrupt_marks);
}

void Link::save_state(SnapshotWriter& w, const PacketCodec& codec) const {
  fields(w, *this, codec);
}

void Link::load_state(SnapshotReader& r, const PacketCodec& codec) {
  fields(r, *this, codec);
}

Link::QueueAudit Link::audit_queue() const {
  QueueAudit a;
  for (const PacketNode* p = head_; p != nullptr; p = p->next) {
    ++a.nodes;
    a.bytes += p->pkt.size_bytes;
    a.max_hops = std::max(a.max_hops, p->pkt.hops);
  }
  a.bytes_consistent = a.bytes == queued_bytes_ && queued_bytes_ >= 0;
  // An idle link must have an empty FIFO; a busy one must have a head in
  // transmission.
  a.busy_consistent = busy_ == (head_ != nullptr);
  return a;
}

}  // namespace spineless::sim
