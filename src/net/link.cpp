#include "net/link.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "net/switch_buffer.hpp"
#include "sim/parallel.hpp"

namespace mrmtp::net {

namespace {
/// Guaranteed control-band depth (serialization backlog) of the banded
/// path. 100 us at 10 GbE is ~125 KB — orders of magnitude more than a
/// fabric's worth of hellos needs.
constexpr sim::Duration kControlQueue = sim::Duration::micros(100);
}  // namespace

Link::Link(Port& a, Port& b, Params params)
    : a_(&a), b_(&b), params_(params) {
  if (a.link_ != nullptr || b.link_ != nullptr) {
    throw std::logic_error("Link: port already wired (" + a.str() + " / " +
                           b.str() + ")");
  }
  end_ctx_[0] = &a.owner().ctx();
  end_ctx_[1] = &b.owner().ctx();
  a.link_ = this;
  b.link_ = this;
}

void Link::set_loss(Dir dir, double p) {
  Impairments& im = impair_[static_cast<int>(dir)];
  im.loss = std::clamp(p, 0.0, 1.0);
  im.ramp_over = sim::Duration{};  // immediate: no ramp in progress
  im.ramp_from = im.loss;
}

void Link::set_blackhole(Dir dir, bool on) {
  impair_[static_cast<int>(dir)].blackhole = on;
}

void Link::ramp_loss(Dir dir, double target, sim::Duration over) {
  Impairments& im = impair_[static_cast<int>(dir)];
  im.ramp_from = effective_loss(dir);
  im.loss = std::clamp(target, 0.0, 1.0);
  im.ramp_start = send_ctx(static_cast<int>(dir)).now();
  im.ramp_over = over;
}

void Link::clear_impairments() {
  impair_[0] = Impairments{};
  impair_[1] = Impairments{};
}

void Link::clear_impairments(Dir dir) {
  impair_[static_cast<int>(dir)] = Impairments{};
}

void Link::use_stream_rng(std::uint64_t seed) {
  sim::Rng base(seed);
  stream_rng_[0].emplace(base.fork());
  stream_rng_[1].emplace(base.fork());
}

sim::Rng& Link::dir_rng(int dir) {
  return stream_rng_[dir] ? *stream_rng_[dir] : send_ctx(dir).rng;
}

void Link::schedule_delivery(int dir, sim::Time at, Frame&& frame) {
  auto fn = [this, dir, frame = std::move(frame)]() mutable {
    deliver(dir, std::move(frame));
  };
  SimContext& snd = send_ctx(dir);
  SimContext& rcv = recv_ctx(dir);
  if (snd.bus == nullptr) {
    if (&snd != &rcv) {
      throw std::logic_error(
          "Link: endpoints on different contexts but no ShardBus wired");
    }
    snd.sched.schedule_at(at, std::move(fn));
    return;
  }
  // Sharded run: every delivery is keyed by (sender node, sender port,
  // send sequence) so the destination scheduler breaks same-instant ties
  // identically at any shard count. Same-shard deliveries go straight into
  // the destination scheduler; only true cross-shard frames ride the bus,
  // which is what lets the engine derive lookahead from the actual
  // inter-shard links instead of the global minimum over ALL links.
  const Port& sender = dir == static_cast<int>(Dir::kAToB) ? *a_ : *b_;
  std::uint64_t order =
      (static_cast<std::uint64_t>(sender.owner().id()) << 48) |
      (static_cast<std::uint64_t>(sender.number()) << 32) |
      tx_seq_[dir]++;
  if (snd.shard == rcv.shard) {
    rcv.sched.schedule_at_ordered(at, order, std::move(fn));
    return;
  }
  snd.bus->post(snd.shard, rcv.shard, at, order,
                std::function<void()>(std::move(fn)));
}

double Link::effective_loss(Dir dir) const {
  const Impairments& im = impair_[static_cast<int>(dir)];
  if (im.ramp_over <= sim::Duration{}) return im.loss;
  sim::Duration elapsed = send_ctx(static_cast<int>(dir)).now() - im.ramp_start;
  if (elapsed >= im.ramp_over) return im.loss;
  if (elapsed <= sim::Duration{}) return im.ramp_from;
  double f = static_cast<double>(elapsed.ns()) /
             static_cast<double>(im.ramp_over.ns());
  return im.ramp_from + (im.loss - im.ramp_from) * f;
}

sim::Duration Link::ser_time(const Frame& frame) const {
  // 20 bytes of preamble + inter-frame gap per frame, as on real Ethernet.
  std::uint64_t wire_bits = (frame.padded_wire_size() + 20) * 8;
  return sim::Duration::nanos(static_cast<std::int64_t>(
      (wire_bits * 1000000000ull) / params_.bandwidth_bps));
}

void Link::transmit(Port& from, Frame&& frame) {
  if (&from != a_ && &from != b_) {
    throw std::logic_error("Link::transmit from foreign port");
  }
  Dir direction = direction_from(from);
  DirStats& dstats = dir_stats(direction);

  if (!from.admin_up()) {
    ++dstats.dropped_link_down;
    return;
  }
  from.tx_stats().record(frame);

  int dir = static_cast<int>(direction);
  SwitchBuffer* sb = from.owner().switch_buffer();
  if (sb != nullptr || params_.priority_queues) {
    transmit_banded(dir, std::move(frame), sb);
    return;
  }

  // Shared FIFO: tail drop when the output queue (expressed as serialization
  // backlog) is full, i.e. the transmitter is more than max_queue behind.
  sim::Time now = send_ctx(dir).now();
  sim::Duration backlog =
      busy_until_[dir] > now ? busy_until_[dir] - now : sim::Duration{};
  if (backlog > params_.max_queue) {
    ++dstats.dropped_queue_full;
    if (is_control_class(frame.traffic_class)) ++dstats.dropped_queue_control;
    return;
  }
  auto& hw = is_control_class(frame.traffic_class)
                 ? dstats.control_backlog_hw_ns
                 : dstats.data_backlog_hw_ns;
  hw = std::max(hw, static_cast<std::uint64_t>(backlog.ns()));

  sim::Duration ser = ser_time(frame);
  serialize_and_send(dir, std::move(frame), ser);
}

void Link::transmit_banded(int dir, Frame&& frame, SwitchBuffer* sb) {
  DirStats& dstats = dir_stats(static_cast<Dir>(dir));
  bool control = is_control_class(frame.traffic_class);
  int band = control ? kControlBand : kDataBand;
  sim::Duration ser = ser_time(frame);

  sim::Time now = send_ctx(dir).now();
  sim::Duration residual =
      busy_until_[dir] > now ? busy_until_[dir] - now : sim::Duration{};

  // Fast path: idle transmitter and empty bands behave exactly like the
  // shared FIFO — one delivery event per frame, no queue churn, which keeps
  // steady-state event throughput unchanged by banding — and hold no buffer
  // (cut-through approximation: occupancy counts queued frames). A PAUSE
  // only stops the data band, so control ignores paused_.
  if (residual <= sim::Duration{} && bands_[dir][kControlBand].empty() &&
      bands_[dir][kDataBand].empty() && (control || !paused_[dir])) {
    serialize_and_send(dir, std::move(frame), ser);
    return;
  }

  // Band admission. A control frame only waits behind the frame already on
  // the wire plus other control frames (strict priority), so its depth limit
  // considers the control band alone — the guaranteed band. Data sees the
  // whole backlog, matching the shared FIFO's tail-drop bound.
  sim::Duration wait = control ? band_backlog_[dir][kControlBand]
                               : residual + band_backlog_[dir][kControlBand] +
                                     band_backlog_[dir][kDataBand];
  if (wait > (control ? kControlQueue : params_.max_queue)) {
    ++dstats.dropped_queue_full;
    if (control) ++dstats.dropped_queue_control;
    return;
  }

  auto bytes = static_cast<std::uint32_t>(frame.padded_wire_size());
  std::uint32_t charged = 0;
  std::uint32_t ingress = 0;
  if (sb != nullptr) {
    // The control band keeps its serialization-time carve-out and is never
    // charged to the data pool — the invariant that keeps hellos/ACKs
    // deliverable at 100% data occupancy.
    if (control) {
      sb->note_ctrl_admitted();
    } else {
      Port& from = sender(dir);
      if (!sb->admit_egress(from.number(), bytes)) {
        ++dstats.dropped_buffer;
        return;
      }
      charged = bytes;
      ingress = from.owner().current_rx_port();
      if (ingress != 0) sb->charge_ingress(ingress, bytes);
      std::uint64_t threshold = sb->params().ecn_data_threshold;
      if (threshold > 0 && band_bytes_[dir][kDataBand] + bytes > threshold &&
          mark_ce(frame)) {
        ++dstats.ecn_marked_data;
        sb->note_ecn_mark();
      }
    }
  }
  auto& hw = control ? dstats.control_backlog_hw_ns : dstats.data_backlog_hw_ns;
  hw = std::max(hw, static_cast<std::uint64_t>(wait.ns()));

  band_bytes_[dir][band] += bytes;
  bands_[dir][band].push_back(Pending{std::move(frame), ser, charged, ingress});
  band_backlog_[dir][band] = band_backlog_[dir][band] + ser;
  // While paused, data leaves the drain unarmed; the RESUME (or a later
  // control frame) re-arms it.
  if (control || !paused_[dir]) arm_drain(dir);
}

void Link::arm_drain(int dir) {
  if (drain_armed_[dir]) return;
  drain_armed_[dir] = true;
  SimContext& ctx = send_ctx(dir);
  ctx.sched.schedule_at(std::max(ctx.now(), busy_until_[dir]),
                        [this, dir] { drain(dir); });
}

void Link::drain(int dir) {
  drain_armed_[dir] = false;
  int band =
      !bands_[dir][kControlBand].empty() ? kControlBand : kDataBand;
  auto& q = bands_[dir][band];
  // Defensive empty check; a PAUSEd data band with no control waiting also
  // parks the drain (the RESUME re-arms it).
  if (q.empty() || (band == kDataBand && paused_[dir])) return;
  Pending p = std::move(q.front());
  q.pop_front();
  band_backlog_[dir][band] = band_backlog_[dir][band] - p.ser;
  std::uint64_t wire = p.frame.padded_wire_size();
  band_bytes_[dir][band] -= std::min(band_bytes_[dir][band], wire);
  serialize_and_send(dir, std::move(p.frame), p.ser);
  if (p.charged > 0) {
    // The frame left the buffer: release its pool/ingress charges. This can
    // emit a RESUME out the ingress port (a different link's control band).
    if (SwitchBuffer* sb = sender(dir).owner().switch_buffer()) {
      sb->release_egress(sender(dir).number(), p.charged);
      if (p.ingress != 0) sb->release_ingress(p.ingress, p.charged);
    }
  }
  if (!bands_[dir][kControlBand].empty() ||
      (!paused_[dir] && !bands_[dir][kDataBand].empty())) {
    arm_drain(dir);
  }
}

void Link::serialize_and_send(int dir, Frame&& frame, sim::Duration ser) {
  Dir direction = static_cast<Dir>(dir);
  DirStats& dstats = dir_stats(direction);

  // Serialization occupies the transmitter; back-to-back frames queue.
  sim::Time start = std::max(send_ctx(dir).now(), busy_until_[dir]);
  busy_until_[dir] = start + ser;
  sim::Time arrival = busy_until_[dir] + params_.delay;

  // Gray failures kill the frame after the sender's transmitter did its
  // normal work — the sending side observes nothing locally.
  const Impairments& im = impair_[dir];
  if (im.blackhole) {
    ++dstats.dropped_blackhole;
    return;
  }

  sim::Rng& rng = dir_rng(dir);
  if (params_.reorder_jitter > sim::Duration{}) {
    arrival = arrival + sim::Duration::nanos(static_cast<std::int64_t>(
                  rng.below(static_cast<std::uint64_t>(
                      params_.reorder_jitter.ns()))));
  }

  bool duplicate = params_.duplicate_probability > 0 &&
                   rng.chance(params_.duplicate_probability);
  bool lost = (im.loss > 0 || im.ramp_over > sim::Duration{}) &&
              rng.chance(effective_loss(direction));
  if (lost) {
    ++dstats.dropped_impairment;
    if (!duplicate) return;
    duplicate = false;  // the "copy" survives as the only delivery
  }

  if (duplicate) {
    // Schedule the duplicate first so the primary delivery below can still
    // move the frame; the copy shares the payload slab (refcount bump), and
    // that second reference is exactly what blocks in-place mutation of the
    // delivered bytes until the duplicate lands.
    ++dstats.duplicated;
    schedule_delivery(dir, arrival + sim::Duration::micros(1), Frame(frame));
  }
  // The last/only delivery moves the frame — no payload copy on transit.
  schedule_delivery(dir, arrival, std::move(frame));
}

void Link::deliver(int dir, Frame&& frame) {
  Port& to = dir == static_cast<int>(Dir::kAToB) ? *b_ : *a_;
  DirStats& dstats = dir_stats(static_cast<Dir>(dir));
  if (!to.admin_up()) {
    ++dstats.dropped_dst_down;
    return;
  }
  ++dstats.delivered;
  if (tap_) tap_(to.owner().ctx().now(), frame);
  to.rx_stats().record(frame);
  if (frame.ethertype == EtherType::kFlowControl) {
    // Link-local PFC: consumed here, never handed to the node. The paused
    // direction is the reverse of the PFC's travel — its transmitter is the
    // receiving node, so this executes on the shard that owns that state.
    apply_flow_control(dir, frame);
    return;
  }
  to.owner().receive_frame(to, std::move(frame));
}

void Link::apply_flow_control(int delivery_dir, const Frame& frame) {
  int pd = 1 - delivery_dir;  // the direction being paused/resumed
  bool pause = !frame.payload.empty() && frame.payload[0] != 0;
  DirStats& dstats = dir_stats(static_cast<Dir>(pd));
  if (pause) {
    if (!paused_[pd]) {
      paused_[pd] = true;
      pause_start_[pd] = send_ctx(pd).now();
      ++dstats.pause_rx;
    }
    return;
  }
  if (!paused_[pd]) return;
  paused_[pd] = false;
  ++dstats.pause_rx;
  dstats.pause_ns += static_cast<std::uint64_t>(
      (send_ctx(pd).now() - pause_start_[pd]).ns());
  if (!bands_[pd][kDataBand].empty()) arm_drain(pd);
}

std::uint64_t Link::pause_ns_total(Dir dir) const {
  int d = static_cast<int>(dir);
  std::uint64_t ns = stats_.dir(dir).pause_ns;
  if (paused_[d]) {
    ns += static_cast<std::uint64_t>(
        (send_ctx(d).now() - pause_start_[d]).ns());
  }
  return ns;
}

}  // namespace mrmtp::net
