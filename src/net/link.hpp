// Full-duplex point-to-point link with propagation delay, serialization at a
// configured bandwidth, and optional impairments for failure-injection tests.
//
// Impairments come in two layers:
//   * Params carries the static, bidirectional ones set at wiring time
//     (duplication / reorder jitter).
//   * Impairments are per-direction and runtime-mutable — the gray-failure
//     model and the one source of random loss. A link can blackhole or drop
//     a fraction of frames A->B while B->A stays perfectly healthy
//     (unidirectional optics degradation), and loss can ramp up over time
//     (a dying transceiver) via ramp_loss().
// Stats are kept per direction, in the link itself, so a one-way failure is
// visible as an asymmetric drop count.
//
// Egress has two admission paths. The shared FIFO tail-drops on
// serialization backlog. The banded path serves a strict-priority control
// band ahead of data and holds the data band while the peer PAUSEs it; a
// sender runs it when `priority_queues` is set or its node has a
// SwitchBuffer, which adds pool and ingress charging and ECN marking.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>

#include "net/node.hpp"
#include "net/stats.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"

namespace mrmtp::net {

class Link {
 public:
  /// Transmission direction through the link.
  enum class Dir : int { kAToB = 0, kBToA = 1 };

  struct Params {
    /// One-way propagation delay.
    sim::Duration delay = sim::Duration::micros(5);
    /// Serialization rate in bits per second (10 GbE default).
    std::uint64_t bandwidth_bps = 10'000'000'000ull;
    /// Probability a frame is delivered twice.
    double duplicate_probability = 0.0;
    /// Extra uniform random delay in [0, reorder_jitter] per frame; a value
    /// larger than the inter-frame gap causes reordering.
    sim::Duration reorder_jitter{};
    /// Maximum serialization backlog per direction (output-queue depth in
    /// time units); frames arriving when the transmitter is further behind
    /// are tail-dropped. 1 ms at 10 GbE is ~1.25 MB of buffer.
    sim::Duration max_queue = sim::Duration::millis(1);
    /// Class-aware egress queueing: the transmitter serves a strict-priority
    /// control band (hello/control/ACK classes, see is_control_class()) ahead
    /// of data. Data keeps the shared tail-drop bound above; control frames
    /// are only dropped when the control band alone exceeds its guaranteed
    /// 100 us depth, so an incast of data can never starve keep-alives off
    /// the wire. Default off = today's single shared FIFO (the A/B ablation
    /// switch).
    bool priority_queues = false;
  };

  /// Runtime-mutable per-direction gray-failure state. The sender still
  /// serializes normally (its transmitter sees nothing wrong); frames die on
  /// the wire, which is exactly what makes these failures "gray".
  struct Impairments {
    bool blackhole = false;
    /// Directional loss probability; the target value while ramping.
    double loss = 0.0;
    /// Degradation ramp: effective loss moves linearly from `ramp_from` at
    /// `ramp_start` to `loss` at `ramp_start + ramp_over` (then holds).
    double ramp_from = 0.0;
    sim::Time ramp_start{};
    sim::Duration ramp_over{};
  };

  /// Per-direction delivery/drop counters and the two-direction aggregate,
  /// held by the link itself (net/stats.hpp; the nested names stay valid).
  using DirStats = LinkDirStats;
  using Stats = LinkStats;

  Link(Port& a, Port& b, Params params);

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// Observer invoked for every frame delivered (either direction) — the
  /// hook pcap capture attaches to.
  using Tap = std::function<void(sim::Time at, const Frame& frame)>;
  void set_tap(Tap tap) { tap_ = std::move(tap); }

  /// Queues `frame` for transmission from `from` toward the other side.
  void transmit(Port& from, Frame&& frame);

  // --- gray-failure impairments (runtime-mutable, per direction) ---
  void set_loss(Dir dir, double p);
  void set_blackhole(Dir dir, bool on);
  /// Linearly ramps the directional loss from its current effective value to
  /// `target` over `over` (a transceiver degrading instead of dying).
  void ramp_loss(Dir dir, double target, sim::Duration over);
  /// Resets both directions to healthy.
  void clear_impairments();
  /// Resets one direction. Sharded chaos heals each side on its own shard
  /// when the endpoints live on different threads.
  void clear_impairments(Dir dir);

  /// Switches both directions' random draws (jitter / loss / duplication)
  /// onto private streams derived from `seed`. Sharded deployments enable
  /// this on every link so the draw sequence each direction sees depends
  /// only on its own frame order — never on how other entities interleave —
  /// which is what makes 1-shard and N-shard runs produce identical drops.
  void use_stream_rng(std::uint64_t seed);

  [[nodiscard]] bool blackholed(Dir dir) const {
    return impair_[static_cast<int>(dir)].blackhole;
  }
  /// Directional loss at the current instant (ramp evaluated).
  [[nodiscard]] double effective_loss(Dir dir) const;
  /// True if frames sent in `dir` can currently arrive at all (no blackhole,
  /// loss < 1). Port admin state is not considered here.
  [[nodiscard]] bool deliverable(Dir dir) const {
    return !blackholed(dir) && effective_loss(dir) < 1.0;
  }
  [[nodiscard]] const Impairments& impairments(Dir dir) const {
    return impair_[static_cast<int>(dir)];
  }

  /// The direction a frame leaving `from` travels.
  [[nodiscard]] Dir direction_from(const Port& from) const {
    return &from == a_ ? Dir::kAToB : Dir::kBToA;
  }
  [[nodiscard]] static Dir reverse(Dir d) {
    return d == Dir::kAToB ? Dir::kBToA : Dir::kAToB;
  }

  [[nodiscard]] Port& a() const { return *a_; }
  [[nodiscard]] Port& b() const { return *b_; }
  [[nodiscard]] Port& other(const Port& p) const { return &p == a_ ? *b_ : *a_; }
  [[nodiscard]] const Params& params() const { return params_; }
  [[nodiscard]] const Stats& stats() const { return stats_; }
  Params& mutable_params() { return params_; }

  // --- PFC backpressure state (driven by received kFlowControl frames) ---
  /// True while `dir`'s data band is PAUSEd by the receiving peer. The
  /// control band is never paused.
  [[nodiscard]] bool data_paused(Dir dir) const {
    return paused_[static_cast<int>(dir)];
  }
  /// Bytes currently waiting in `dir`'s data band (auditor's deadlock walk:
  /// paused + nonzero = traffic blocked behind the pause).
  [[nodiscard]] std::uint64_t queued_data_bytes(Dir dir) const {
    return band_bytes_[static_cast<int>(dir)][kDataBand];
  }
  /// Cumulative paused time including any pause still in progress (the
  /// DirStats::pause_ns field only counts completed pauses).
  [[nodiscard]] std::uint64_t pause_ns_total(Dir dir) const;
  /// Counts a PFC frame the owner of `from` is about to transmit (bumped by
  /// SwitchBuffer::signal so per-direction pause_tx lands with the rest of
  /// the link counters).
  void note_pause_tx(Port& from) {
    ++dir_stats(direction_from(from)).pause_tx;
  }

  // --- WCMP / flowlet telemetry (bumped by the owning router's forwarding
  //     path; `from` is the egress port on this link) ---
  /// Counts a flowlet that re-drew its weighted choice onto this egress.
  void note_flowlet_reroute(const Port& from) {
    ++dir_stats(direction_from(from)).flowlet_reroutes;
  }
  /// Counts a weight recomputation that touched this egress (route install
  /// with WCMP weights, MTP up-cache weight rebuild).
  void note_weight_update(const Port& from) {
    ++dir_stats(direction_from(from)).wcmp_weight_updates;
  }

 private:
  /// A frame admitted to a band, waiting for the transmitter. `charged` is
  /// the byte count held against the sender's SwitchBuffer pool (0 = not
  /// charged: control frames and non-buffered links), `ingress` the 1-based
  /// arrival port charged for PFC (0 = self-originated).
  struct Pending {
    Frame frame;
    sim::Duration ser;
    std::uint32_t charged = 0;
    std::uint32_t ingress = 0;
  };
  static constexpr int kControlBand = 0;
  static constexpr int kDataBand = 1;

  void deliver(int dir, Frame&& frame);
  /// Serializes `frame` starting no earlier than now (impairments, jitter,
  /// loss and duplication applied) and moves it into its delivery closure.
  /// Shared tail of the fast path and the band drain.
  void serialize_and_send(int dir, Frame&& frame, sim::Duration ser);
  /// Banded admission (priority mode, or the sender has a SwitchBuffer):
  /// fast path when the transmitter is idle, otherwise a strict-priority
  /// band enqueue with per-class depth limits; an active PAUSE holds the
  /// data band. With `sb` non-null, data is also charged byte-accurately to
  /// the pool and its ingress port, and both bands are ECN-marked.
  void transmit_banded(int dir, Frame&& frame, SwitchBuffer* sb);
  /// Schedules a drain at the next transmitter-free instant unless one is
  /// already armed.
  void arm_drain(int dir);
  /// Pops the next frame (control band first) onto the transmitter; rearms
  /// itself at the next transmitter-free instant while frames wait.
  void drain(int dir);
  /// Applies a received PFC frame (traveling `delivery_dir`) to the reverse
  /// direction's data band.
  void apply_flow_control(int delivery_dir, const Frame& frame);
  /// The sending port of direction `dir`.
  [[nodiscard]] Port& sender(int dir) const {
    return dir == static_cast<int>(Dir::kAToB) ? *a_ : *b_;
  }
  DirStats& dir_stats(Dir dir) {
    return dir == Dir::kAToB ? stats_.ab : stats_.ba;
  }
  [[nodiscard]] sim::Duration ser_time(const Frame& frame) const;

  /// The context owning direction `dir`'s transmitter (the sending node's
  /// shard); all serialization state for that direction lives there.
  [[nodiscard]] SimContext& send_ctx(int dir) const { return *end_ctx_[dir]; }
  [[nodiscard]] SimContext& recv_ctx(int dir) const {
    return *end_ctx_[1 - dir];
  }
  [[nodiscard]] sim::Rng& dir_rng(int dir);
  /// Direct schedule in a classic single-context run. In a sharded run every
  /// delivery — same-shard included — rides the ShardBus under a
  /// sharding-invariant order key (sender node, port, send sequence), so
  /// same-instant arrivals at a router break ties identically at any shard
  /// count.
  void schedule_delivery(int dir, sim::Time at, sim::Scheduler::Callback fn);

  /// Endpoint contexts: [0] = a's owner, [1] = b's owner. Identical in every
  /// single-threaded run.
  SimContext* end_ctx_[2];
  Port* a_;
  Port* b_;
  Params params_;
  Stats stats_;
  Impairments impair_[2];
  /// Per-direction private draw streams (see use_stream_rng); empty means
  /// draws come from the sending context's shared rng, the legacy behavior.
  std::optional<sim::Rng> stream_rng_[2];
  Tap tap_;
  /// Per-direction time the transmitter becomes free (0 = a->b, 1 = b->a).
  sim::Time busy_until_[2];
  /// Banded waiting rooms: [dir][band]. Empty whenever the analytic fast
  /// path is in use, so shared-FIFO workloads never touch them.
  std::deque<Pending> bands_[2][2];
  /// Serialization backlog held in each band's deque, [dir][band].
  sim::Duration band_backlog_[2][2];
  /// Padded wire bytes held in each band's deque, [dir][band] (ECN
  /// thresholds and the auditor's pause-wait walk read these).
  std::uint64_t band_bytes_[2][2] = {};
  /// PFC pause state per direction (data band only) and the onset instant
  /// of the pause in progress.
  bool paused_[2] = {false, false};
  sim::Time pause_start_[2];
  /// True while a drain event is scheduled for the direction.
  bool drain_armed_[2] = {false, false};
  /// Per-direction delivery send sequence, the low word of the ShardBus
  /// order key. Counts schedule_delivery calls in the sender's execution
  /// order — sharding-invariant by construction. Unused in classic runs.
  std::uint32_t tx_seq_[2] = {0, 0};
};

}  // namespace mrmtp::net
