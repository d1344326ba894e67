// The per-frame hot counters of the net layer, and the one router-side
// table (flowlets) that lives beside them.
//
// Each block is held by value by the object it counts: a Port its two
// TrafficStats tallies, a Link its LinkStats, a SwitchBuffer its
// SwitchBufferStats, and a Node its FlowletTable (created when flowlet
// switching is enabled). There is no shared store: every counter write
// lands in the sending or receiving entity's own object, on the shard that
// runs it. Whole-fabric sweeps (harness::link_totals, the reports) walk
// Network::links() and read each link's block through Link::stats().
#pragma once

#include <cstddef>
#include <cstdint>

#include "net/frame.hpp"

namespace mrmtp::net {

/// Per-direction delivery/drop counters of one Link.
struct LinkDirStats {
  std::uint64_t delivered = 0;
  std::uint64_t dropped_link_down = 0;   // sender-side port down
  std::uint64_t dropped_dst_down = 0;    // receiver-side port down at arrival
  std::uint64_t dropped_impairment = 0;  // random loss (static or gray)
  std::uint64_t dropped_blackhole = 0;   // directional blackhole
  std::uint64_t dropped_queue_full = 0;  // output-queue tail drop (any class)
  std::uint64_t duplicated = 0;
  /// Subset of dropped_queue_full that was control-class (hello / control /
  /// ACK). Nonzero here under congestion is the smoking gun for false dead
  /// declarations; priority mode exists to keep it at zero.
  std::uint64_t dropped_queue_control = 0;
  /// High-water serialization backlog (ns) observed at frame admission,
  /// split by the admitted frame's band. In shared-FIFO mode both classes
  /// see the same queue, so these record the shared backlog as each class
  /// encountered it.
  std::uint64_t control_backlog_hw_ns = 0;
  std::uint64_t data_backlog_hw_ns = 0;

  /// Finite-buffer / congestion-control counters, per class (all stay zero
  /// unless the sending node has a SwitchBuffer enabled):
  ///   ecn_marked_data — CE marks applied at data-band admission (the
  ///                    control band is never marked).
  ///   pause_tx       — PFC PAUSE/RESUME frames that traveled this direction
  ///                    (the sender asking its upstream peer to stop).
  ///   pause_rx       — pause transitions applied to this direction's data
  ///                    band by a received PFC frame.
  ///   dropped_buffer — data admissions refused because the shared buffer
  ///                    pool (or the port's dynamic-threshold cap) was
  ///                    exhausted. Disjoint from dropped_queue_full.
  ///   pause_ns       — cumulative time this direction's data band spent
  ///                    paused.
  std::uint64_t ecn_marked_data = 0;
  std::uint64_t pause_tx = 0;
  std::uint64_t pause_rx = 0;
  std::uint64_t dropped_buffer = 0;
  std::uint64_t pause_ns = 0;

  /// Weighted-multipath / flowlet telemetry (stay zero unless a router runs
  /// with PathSelect != kHrw):
  ///   flowlet_reroutes    — an existing flow re-drew its weighted choice
  ///                         after an idle gap and landed on this direction
  ///                         (counted at the NEW egress).
  ///   wcmp_weight_updates — weight recomputations that touched this
  ///                         direction's egress (route installs with WCMP
  ///                         weights, MTP up-cache weight rebuilds).
  std::uint64_t flowlet_reroutes = 0;
  std::uint64_t wcmp_weight_updates = 0;

  [[nodiscard]] std::uint64_t ecn_marked() const { return ecn_marked_data; }

  [[nodiscard]] std::uint64_t dropped_total() const {
    return dropped_link_down + dropped_dst_down + dropped_impairment +
           dropped_blackhole + dropped_queue_full + dropped_buffer;
  }

  bool operator==(const LinkDirStats&) const = default;
};

/// Both directions plus whole-link aggregates (the pre-gray-failure API).
/// Direction 0 is a() -> b() — `Link::Dir` casts to the right index.
struct LinkStats {
  LinkDirStats ab;  // a() -> b()
  LinkDirStats ba;  // b() -> a()

  template <typename DirT>  // Link::Dir or a raw direction index
  [[nodiscard]] const LinkDirStats& dir(DirT d) const {
    return static_cast<int>(d) == 0 ? ab : ba;
  }
  [[nodiscard]] std::uint64_t delivered() const {
    return ab.delivered + ba.delivered;
  }
  [[nodiscard]] std::uint64_t dropped_dst_down() const {
    return ab.dropped_dst_down + ba.dropped_dst_down;
  }
  [[nodiscard]] std::uint64_t dropped_queue_full() const {
    return ab.dropped_queue_full + ba.dropped_queue_full;
  }
  [[nodiscard]] std::uint64_t duplicated() const {
    return ab.duplicated + ba.duplicated;
  }
};

/// Flowlet-switching state of one router: flow key -> (last departure time,
/// chosen egress port). A fixed-size direct-mapped array with a short linear
/// probe run; when the run is full the stalest slot (oldest last_ns) is
/// evicted. Losing a slot is always safe — the evicted flow simply re-draws
/// its weighted choice on its next packet, exactly as if its idle gap had
/// expired. Owned by its router, so only that router's shard thread touches
/// it (TSan-clean under the async sharded engine).
struct FlowletTable {
  struct Slot {
    std::uint64_t key = 0;      // mixed flow hash; 0 only while unused
    std::int64_t last_ns = -1;  // sim time of the newest departure; -1 empty
    std::uint32_t port = 0;     // egress chosen for the current flowlet
  };
  static constexpr std::size_t kSlots = 512;  // power of two
  static constexpr std::size_t kProbe = 4;    // linear probe run length

  Slot slots[kSlots] = {};

  /// The slot holding `key`, or — if `key` is absent from its probe run —
  /// the eviction victim (stalest slot in the run). The caller detects the
  /// miss via `slot.key != key` and re-draws before overwriting.
  [[nodiscard]] Slot& probe(std::uint64_t key) {
    const std::size_t base = static_cast<std::size_t>(key) & (kSlots - 1);
    Slot* victim = nullptr;
    for (std::size_t i = 0; i < kProbe; ++i) {
      Slot& s = slots[(base + i) & (kSlots - 1)];
      if (s.key == key) return s;
      if (victim == nullptr || s.last_ns < victim->last_ns) victim = &s;
    }
    return *victim;
  }
};

/// Occupancy / admission counters of one switch's shared egress buffer.
/// Occupancy is accounted per class: the control band keeps its own
/// serialization-time carve-out and is never charged to the data pool, so
/// `ctrl_admitted` counts frames, not pool bytes.
struct SwitchBufferStats {
  std::uint64_t data_admitted = 0;       // data frames charged to the pool
  std::uint64_t ctrl_admitted = 0;       // control frames (carve-out band)
  std::uint64_t dropped = 0;             // admissions refused (pool/cap)
  std::uint64_t ecn_marked = 0;          // CE marks applied by this switch
  std::uint64_t pause_onsets = 0;        // XOFF transitions signalled
  std::uint64_t resume_onsets = 0;       // XON transitions signalled
  std::uint64_t occupancy_hw = 0;        // pool-occupancy high-water (bytes)
  std::uint64_t port_occupancy_hw = 0;   // worst single egress port (bytes)
};

}  // namespace mrmtp::net
