// MtpRouter: the Multi-Root Meshed Tree Protocol engine (paper §III–IV).
//
// One object serves every tier; the role differences fall out of the tier
// number and the presence of a server subnet:
//   * Leaves (ToRs) derive their root VID from the rack subnet's third
//     octet, advertise it upward, and encapsulate/decapsulate server IP
//     packets in MTP DATA frames.
//   * Spines join the trees advertised from below (request -> offer -> ack,
//     all retransmitted until acknowledged — MR-MTP's built-in reliability
//     in place of TCP) and acquire one VID per tree per downstream branch.
//   * Forwarding is VID-table down, hash-load-balanced default-route up,
//     with per-destination port exclusions maintained by failure updates.
//
// Failure handling implements the paper's Quick-to-Detect / Slow-to-Accept:
// a neighbor is declared down after a single missed hello window (dead
// interval = 2 x hello), and re-accepted only after `kAcceptStreak`
// consecutive messages. Every MTP frame counts as a keep-alive; the 1-byte
// HELLO is sent only on links idle for a hello interval.
//
// Failure updates never recompute routes (paper §IV.B): VID_WITHDRAW prunes
// exact table entries upward; DEST_UNREACH/DEST_CLEAR maintain load-balancer
// exclusions downward.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <unordered_map>

#include "ip/packet.hpp"
#include "mtp/message.hpp"
#include "mtp/vid_table.hpp"
#include "net/network.hpp"
#include "sim/flap_damping.hpp"
#include "util/hash.hpp"

namespace mrmtp::mtp {

/// Consecutive keep-alives required to re-accept a neighbor (paper: 3).
inline constexpr int kAcceptStreak = 3;
/// Hop budget of every DATA frame a leaf originates.
inline constexpr std::uint8_t kDataTtl = 16;

struct MtpTimers {
  sim::Duration hello = sim::Duration::millis(50);
  sim::Duration dead = sim::Duration::millis(100);
  /// Ablation switch: false accepts a neighbor on the first keep-alive.
  bool slow_to_accept = true;

  /// Flap damping (overload containment, disabled when zero): the figure of
  /// merit added per alive->dead flap. While the decayed penalty sits above
  /// sim::kDampingReuse after reaching sim::kDampingSuppress, the port is
  /// suppressed and Slow-to-Accept streaks no longer promote the neighbor
  /// (sim/flap_damping.hpp).
  double damping_penalty = 0;

  // --- withdrawal-storm containment (disabled when zero) ---
  /// Minimum spacing between failure-update originations per port. The
  /// first update in an idle interval still leaves immediately (single
  /// failures keep today's latency); bursts inside the interval are batched
  /// into one VID_WITHDRAW / DEST_UNREACH / DEST_CLEAR each, with duplicate
  /// and self-cancelling entries absorbed.
  sim::Duration update_min_interval{};
};

struct MtpConfig {
  /// Tier in the folded-Clos (1 = ToR). This is the only per-device value
  /// the paper's Listing 2 configuration carries besides the rack port.
  std::uint32_t tier = 1;
  MtpTimers timers;

  // --- leaf-only ---
  /// Rack subnet; the VID is its third octet (192.168.11.0/24 -> 11).
  std::optional<ip::Ipv4Prefix> server_subnet;
  /// Host-facing ports (plain IP, no MTP), keyed by the host address.
  std::map<ip::Ipv4Addr, std::uint32_t> rack_hosts;
};

class MtpRouter : public net::Node {
 public:
  MtpRouter(net::SimContext& ctx, std::string name, MtpConfig config);

  void start() override;
  /// Reboot step: cancels every timer and wipes the VID table, exclusions,
  /// reliable-delivery bookkeeping, and advertised failure state. A later
  /// start() is a cold rejoin indistinguishable from first power-on.
  void stop() override;
  void handle_frame(net::Port& in, net::Frame&& frame) override;
  void on_port_down(net::Port& port) override;
  void on_port_up(net::Port& port) override;

  /// Graceful cost-out before a planned reboot: withdraws every child VID
  /// assigned upstream and declares every known root (plus the wildcard
  /// default route) unreachable downstream, then suppresses re-advertisement
  /// and join offers so neighbors do not pull this router back into trees
  /// during the grace period. The VID table is kept so in-flight downstream
  /// traffic still delivers while neighbors shift load away.
  void drain();
  [[nodiscard]] bool draining() const { return draining_; }

  [[nodiscard]] bool is_leaf() const { return config_.server_subnet.has_value(); }
  /// Leaf root VID (0 on spines).
  [[nodiscard]] std::uint16_t own_vid() const { return own_vid_; }
  [[nodiscard]] const MtpConfig& config() const { return config_; }
  [[nodiscard]] const VidTable& vid_table() const { return vid_table_; }
  [[nodiscard]] const ExclusionTable& exclusions() const { return exclusions_; }

  /// True once this router has joined every expected tree: a spine holds a
  /// VID for each of `roots`; a leaf counts its own root as joined.
  [[nodiscard]] bool joined_all(const std::vector<std::uint16_t>& roots) const;

  /// Neighbor liveness as seen by this router (tests/harness).
  [[nodiscard]] bool neighbor_alive(std::uint32_t port) const;

  /// Decayed flap-damping penalty on `port` at the current instant, and
  /// whether re-accept is currently suppressed by it (tests/bench).
  [[nodiscard]] double port_damping_penalty(std::uint32_t port) const;
  [[nodiscard]] bool port_damping_suppressed(std::uint32_t port) const;

  /// Operator view: one line per MTP port with tier, liveness, and the
  /// VIDs held/assigned across it.
  [[nodiscard]] std::string neighbor_summary() const;

  struct MtpStats {
    std::uint64_t hellos_sent = 0;
    std::uint64_t updates_sent = 0;        // withdraw/unreach/clear frames
    std::uint64_t update_bytes_raw = 0;    // L2 bytes, unpadded
    std::uint64_t update_bytes_padded = 0; // L2 bytes with 60B minimum
    std::uint64_t updates_received = 0;
    /// Instant of the last update sent or received: convergence ends here.
    sim::Time last_update_at{};
    std::uint64_t data_forwarded = 0;
    std::uint64_t data_delivered = 0;
    std::uint64_t data_dropped_no_path = 0;
    std::uint64_t data_dropped_ttl = 0;
    std::uint64_t table_changes_local = 0;   // from own interface/dead-timer
    std::uint64_t table_changes_remote = 0;  // from received update messages
    std::uint64_t exclusion_changes = 0;
    std::uint64_t neighbors_lost = 0;
    std::uint64_t neighbors_accepted = 0;
    /// Slow-to-Accept streaks that completed while the port's flap-damping
    /// penalty was still above the reuse threshold (re-accept suppressed).
    std::uint64_t accepts_suppressed = 0;
    /// Failure-update originations deferred into a pending batch by the
    /// per-port min-interval rate limit.
    std::uint64_t updates_batched = 0;
    /// Duplicate or self-cancelling entries absorbed while pending (e.g. an
    /// UNREACH and its CLEAR meeting in the queue before either was sent).
    std::uint64_t updates_deduped = 0;
    /// Joins refused because another port already roots the same ToR VID
    /// (duplicate rack subnet misconfiguration).
    std::uint64_t duplicate_roots_rejected = 0;
    // --- hot-path counters (harness::report hot-path table) ---
    /// Forwards served without building a candidate vector: downward picks
    /// through the VID table's per-root index plus uplink-cache hits.
    std::uint64_t allocs_avoided = 0;
    /// Uplink candidate-set cache hits / (re)builds.
    std::uint64_t up_cache_hits = 0;
    std::uint64_t up_cache_misses = 0;

    bool operator==(const MtpStats&) const = default;
  };
  [[nodiscard]] const MtpStats& mtp_stats() const { return stats_; }

  /// Uplinks currently eligible to carry traffic toward `dst_root` (alive,
  /// admin-up, not excluded) — the load-balancer candidate set. Public so
  /// the FabricAuditor can walk virtual probes through the same decision.
  /// Returns a reference into the per-root cache the data path forwards
  /// from, invalidated on liveness, interface, tier, and exclusion changes.
  /// Lookups through here leave the up-cache counters in mtp_stats() alone.
  [[nodiscard]] const std::vector<std::uint32_t>& eligible_up_ports(
      std::uint16_t dst_root) const;

  /// Test-only hook (auditor unit tests): plants a VID-table entry without
  /// the join handshake — e.g. a stale entry pointing at a dead port.
  void debug_add_vid_entry(const Vid& vid, std::uint32_t port) {
    vid_table_.add(vid, port);
  }

 private:
  /// A child VID assigned to the neighbor on a port.
  struct Assignment {
    Vid base;
    /// The port's held statement lists the child; false until a statement
    /// is checked for it (see handle_advertise).
    bool listed = false;
  };

  struct PortState {
    bool mtp = true;  // rack ports carry plain IP
    std::optional<std::uint8_t> neighbor_tier;
    bool alive = false;
    int streak = 0;
    sim::Time last_rx{};
    sim::Time last_tx{};
    std::unique_ptr<sim::Timer> hello_timer;
    std::unique_ptr<sim::Timer> dead_timer;
    std::unique_ptr<sim::Timer> join_retry_timer;
    /// Tree bases requested on this port, awaiting offers (we are upstream).
    std::set<Vid> join_pending;
    /// Child VIDs we assigned to the neighbor on this port.
    std::map<Vid, Assignment> assigned;
    /// Children named by unacked JOIN_OFFERs on this port -> how many such
    /// offers name each (kept with outstanding_, see count_offer).
    std::map<Vid, std::uint32_t> offered;
    /// Roots an *upstream* neighbor listed in its last ADVERTISE — a full
    /// statement of the trees it holds — sorted and unique. The uplink load
    /// balancer prefers uplinks that advertised the destination root, so a
    /// cold-rejoining neighbor draws no tree traffic until it has actually
    /// re-joined.
    std::vector<std::uint16_t> advertised_roots;
    /// The last statement accepted from an upstream neighbor: its payload
    /// (a refcount on the frame's slab, not a copy) and its VID list. A
    /// neighbor re-sends its whole statement on every table change, nearly
    /// always the held list with VIDs appended, so the next statement is
    /// read only past the bytes that repeat `held_vids` (see
    /// handle_advertise). neighbor_down, stop(), the next accepted
    /// statement and a HELLO from the neighbor release it.
    net::Buffer held_adv;
    VidListView held_vids;
    void release_held() {
      held_adv = net::Buffer{};
      held_vids = VidListView{};
    }
    /// Highest ADVERTISE seq seen from this neighbor; older statements are
    /// duplicates the link re-delivered late and must not prune anything.
    /// Reset when the neighbor dies so a rebooted sender restarts cleanly.
    std::uint32_t last_adv_seq = 0;

    // --- flap damping ---
    sim::FlapPenalty damp;
    bool damp_suppressed = false;

    // --- withdrawal-storm containment ---
    sim::Time last_update_tx{};
    std::unique_ptr<sim::Timer> update_flush_timer;
    std::set<Vid> pending_withdraw;
    std::set<std::uint16_t> pending_unreach;
    std::set<std::uint16_t> pending_clear;
  };

  struct Outstanding {
    std::uint32_t port;
    MtpMessage msg;
    int retries = 0;
    std::unique_ptr<sim::Timer> timer;
  };

  // --- frame I/O ---
  /// Takes the message by value: move a DataMsg in to keep its payload slab
  /// unique so encapsulation prepends in place (see mtp::encode).
  void send_msg(std::uint32_t port, MtpMessage msg);
  /// Frames an encoded message of `type` and transmits it on `out`.
  void send_payload(net::Port& out, MsgType type, net::Buffer payload);
  void send_reliable(std::uint32_t port, MtpMessage msg);
  /// Erases the reliable message `id` if it is still outstanding.
  void erase_outstanding(std::uint16_t id);
  /// Counts the children `o` names into (or out of) its port's `offered`,
  /// if it is a JOIN_OFFER.
  void count_offer(const Outstanding& o, bool add);
  void handle_msg(net::Port& in, MtpMessage& msg);

  // --- liveness ---
  void note_rx(net::Port& in);
  void neighbor_up(std::uint32_t port);
  void neighbor_down(std::uint32_t port);
  void send_hello_if_idle(std::uint32_t port);
  /// True when the upstream neighbor on `port` holds a child of every tree
  /// we can offer (steady state: plain hellos only).
  [[nodiscard]] bool fully_assigned(std::uint32_t port) const;

  // --- tree establishment ---
  /// Sends our statement on `port`, numbered with the next `adv_seq_`
  /// (taken even when the port cannot send).
  void send_advertise(std::uint32_t port);
  /// The encoded VID list of our statement (see adv_body_).
  [[nodiscard]] std::span<const std::uint8_t> advertise_body();
  /// Reads the statement in place: `msg` views `payload`'s bytes. An
  /// accepted statement from above is kept as the port's held statement.
  void handle_advertise(std::uint32_t port, const AdvertiseView& msg,
                        net::Buffer payload);
  /// Sets `s.advertised_roots` to the roots of `vids`, sorted and unique;
  /// returns whether they changed. Roots are ToR VIDs, small dense
  /// integers, so a mark per root value and one pass over the marked range
  /// order them without a sort or a copy of the list.
  bool store_advertised_roots(PortState& s, const VidListView& vids);
  /// True when an unacked JOIN_OFFER on `port` names `child`.
  [[nodiscard]] bool offer_pending(std::uint32_t port, const Vid& child) const {
    return pstate(port).offered.contains(child);
  }
  void handle_join_request(std::uint32_t port, const JoinRequestMsg& msg);
  void handle_join_offer(std::uint32_t port, const JoinOfferMsg& msg);
  void retry_joins(std::uint32_t port);
  /// Calls `fn` on each VID this router offers upward (none while
  /// draining, the own root on a leaf, else the table in order) until `fn`
  /// returns false; returns false iff it stopped early.
  template <typename Fn>
  bool for_each_advertisable(Fn&& fn) const;

  // --- failure updates ---
  /// Every failure update is originated through these, never by a direct
  /// send_reliable, so a burst of failures inside `update_min_interval`
  /// collapses into one message per port per type (withdrawal-storm
  /// containment). With a zero interval each call flushes at once. Callers
  /// pass sorted, unique lists and alive ports, so the flush sends exactly
  /// the list given.
  void queue_withdraw(std::uint32_t port, const std::vector<Vid>& vids);
  void queue_reach_update(std::uint32_t port,
                          const std::vector<std::uint16_t>& roots,
                          bool unreach);
  void schedule_flush(std::uint32_t port);
  void flush_updates(std::uint32_t port);
  void handle_withdraw(std::uint32_t port, const VidWithdrawMsg& msg);
  void handle_dest_unreach(std::uint32_t port, const DestUnreachMsg& msg);
  void handle_dest_clear(std::uint32_t port, const DestClearMsg& msg);
  /// Withdraws children derived from `lost` upward, then refreshes
  /// reachability advertisements for the affected roots.
  void process_vid_loss(const std::vector<VidEntry>& lost);
  [[nodiscard]] bool reachable(std::uint16_t root) const;
  void update_reachability(const std::set<std::uint16_t>& roots);

  // --- data plane ---
  void handle_rack_frame(net::Port& in, net::Frame&& frame);
  void forward_data(DataMsg msg, std::optional<std::uint32_t> in_port);
  void deliver_to_rack(DataMsg msg);
  [[nodiscard]] static std::uint64_t data_flow_hash(const DataMsg& msg);

  // --- helpers ---
  [[nodiscard]] bool is_upstream(std::uint32_t port) const;
  [[nodiscard]] bool is_downstream(std::uint32_t port) const;
  [[nodiscard]] std::vector<std::uint32_t> alive_ports(bool upstream) const;
  /// Configured egress capacity of `p` in Mb/s (1.0 when unwired).
  [[nodiscard]] double port_mbps(std::uint32_t p) const;
  struct UpCacheSlot;
  /// eligible_up_ports' engine: the validated (rebuilt if stale) cache slot
  /// for `dst_root`, ports and WCMP weights together. `hit` says whether it
  /// was already valid; only the forwarding path counts hits and misses.
  [[nodiscard]] const UpCacheSlot& up_slot(std::uint16_t dst_root,
                                           bool& hit) const;
  PortState& pstate(std::uint32_t port) { return ports_state_[port - 1]; }
  [[nodiscard]] const PortState& pstate(std::uint32_t port) const {
    return ports_state_[port - 1];
  }
  void note_update_stats(const net::Frame& frame);

  /// Invalidates every cached uplink candidate set; called whenever anything
  /// that feeds eligibility (liveness, admin state, neighbor tier,
  /// exclusions) changes. O(1): slots validate themselves lazily against the
  /// bumped epoch, and their vectors keep their capacity across rebuilds —
  /// convergence churn no longer frees and reallocates every candidate set.
  void invalidate_up_cache() { ++up_cache_epoch_; }

  MtpConfig config_;
  std::uint16_t own_vid_ = 0;
  /// False until start() and after stop(): interface events and frames that
  /// arrive while powered off (e.g. a deferred PoD being wired dark) must
  /// not touch per-port state that does not exist yet.
  bool started_ = false;
  bool draining_ = false;
  VidTable vid_table_;
  ExclusionTable exclusions_;
  /// Roots we have told downstream neighbors we cannot reach.
  std::set<std::uint16_t> advertised_unreach_;
  std::vector<PortState> ports_state_;
  std::unordered_map<std::uint16_t, Outstanding> outstanding_;
  std::uint16_t next_msg_id_ = 1;
  /// Statement counter stamped into every ADVERTISE (shared across ports;
  /// still strictly increasing per port, which is all receivers need).
  std::uint32_t adv_seq_ = 0;
  /// Our statement's VID list as the wire carries it (count byte, then each
  /// advertisable VID), encoded for the (table version, draining) pair in
  /// adv_body_key_. Every ADVERTISE until either moves copies these bytes
  /// instead of re-encoding the table.
  util::BufWriter adv_body_;
  std::optional<std::pair<std::uint64_t, bool>> adv_body_key_;
  /// store_advertised_roots' mark per root value (all clear between calls).
  std::vector<std::uint8_t> root_marks_;
  /// Eligible-uplink sets as a dense epoch-validated slab indexed by
  /// destination root (lazy, see eligible_up_ports); mutable because
  /// lookups are logically const. A slot is valid iff its epoch matches
  /// up_cache_epoch_, so invalidation is one counter bump and a lookup is
  /// one indexed load — no hash, no rehash churn, no allocation on the
  /// steady-state path (roots are ToR VIDs: small, dense integers).
  struct UpCacheSlot {
    std::uint64_t epoch = 0;  // valid iff == up_cache_epoch_ (0 = never)
    std::vector<std::uint32_t> ports;
    /// WCMP weights parallel to `ports` (advertised downstream capacity:
    /// link Mb/s x trees the neighbor advertises). Rebuilt with the ports on
    /// every epoch miss; left empty under kHrw so the default mode pays
    /// nothing.
    std::vector<double> weights;
  };
  mutable std::vector<UpCacheSlot> up_cache_;
  mutable std::uint64_t up_cache_epoch_ = 1;
  mutable MtpStats stats_;
};

}  // namespace mrmtp::mtp
