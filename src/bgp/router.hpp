// BgpRouter: an RFC 7938-style datacenter eBGP speaker with ECMP and
// optional BFD, the paper's baseline protocol suite.
//
// Implements the pieces the paper's measurements exercise:
//   * session FSM over TCP-lite (Idle/Connect/OpenSent/OpenConfirm/
//     Established), keepalive + hold timers ("timers bgp 1 3"),
//     connect-retry with jitter;
//   * fast external fallover: a local interface going down immediately tears
//     the sessions riding on it (how TC2/TC4 converge quickly);
//   * Adj-RIB-In per peer, decision process by shortest AS_PATH with
//     multipath-relax ECMP, installation into the kernel-style RouteTable;
//   * per-peer Adj-RIB-Out with MinRouteAdvertisementInterval (MRAI)
//     batching and sender-side AS-loop suppression (the RFC 7938 ASN plan
//     makes this equivalent to valley-free route propagation);
//   * flat RIBs: every table is an array over dense per-router prefix ids
//     and AS paths are interned, so steady-state UPDATE handling compares
//     integers and allocates nothing;
//   * optional BFD (RFC 5880) driving the session down on detect timeout.
#pragma once

#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "bfd/bfd.hpp"
#include "bgp/message.hpp"
#include "sim/flap_damping.hpp"
#include "transport/l3_node.hpp"

namespace mrmtp::bgp {

struct BgpTimers {
  /// MinRouteAdvertisementIntervalTimer. FRR's datacenter profile uses 0;
  /// the ablation bench sweeps it.
  sim::Duration mrai = sim::Duration::seconds(0);
  /// Flap damping (RFC 2439-flavoured, disabled when zero): the figure of
  /// merit added per Established->down flap. While the decayed penalty is at
  /// or above sim::kDampingSuppress, reconnect attempts are deferred until
  /// it would decay to sim::kDampingReuse — a flapping session backs off
  /// instead of re-amplifying the withdrawal storm that killed it
  /// (sim/flap_damping.hpp).
  double damping_penalty = 0;
};

struct NeighborConfig {
  ip::Ipv4Addr local_addr;
  ip::Ipv4Addr peer_addr;
  std::uint32_t peer_asn = 0;
};

struct BgpConfig {
  std::uint32_t asn = 0;
  std::uint32_t router_id = 0;
  BgpTimers timers;
  /// BFD at the paper's 100 ms x 3 (bfd::kTxInterval, bfd::kDetectMult).
  bool enable_bfd = false;
  std::vector<NeighborConfig> neighbors;
  /// Locally originated prefixes (a ToR's server subnet).
  std::vector<ip::Ipv4Prefix> originate;
};

class BgpRouter : public transport::L3Node {
 public:
  enum class SessionState {
    kIdle,
    kConnect,
    kOpenSent,
    kOpenConfirm,
    kEstablished,
  };

  BgpRouter(net::SimContext& ctx, std::string name, std::uint32_t tier,
            BgpConfig config);

  void start() override;
  /// Reboot step: RSTs every TCP session (established peers learn at once;
  /// half-open peers exhaust their own SYN retransmits instead of wedging),
  /// stops BFD, and wipes peers, RIBs, and learned routes. A later start()
  /// is a cold rejoin with fresh sessions.
  void stop() override;
  void on_port_down(net::Port& port) override;
  void on_port_up(net::Port& port) override;

  /// Graceful cost-out before a planned reboot: withdraws every advertised
  /// prefix from every established peer and suppresses re-advertisement, so
  /// neighbors shift traffic to their remaining ECMP members while this
  /// router keeps forwarding in-flight packets through the grace period.
  void drain();
  [[nodiscard]] bool draining() const { return draining_; }

  /// Moves every timer-jitter draw (keepalive, retry, BFD tx) onto private
  /// per-peer streams derived from `seed`. Sharded deployments enable this
  /// on every router so each session's draw sequence depends only on its own
  /// event order — the cross-shard determinism requirement. Call before
  /// start(); the legacy single-context path leaves it off and keeps drawing
  /// from the shared SimContext rng.
  void use_stream_rng(std::uint64_t seed) { stream_seed_ = seed; }

  [[nodiscard]] const BgpConfig& config() const { return config_; }
  [[nodiscard]] SessionState session_state(ip::Ipv4Addr peer) const;
  [[nodiscard]] std::size_t established_sessions() const;

  /// FRR-style "show running-config" text (paper Listing 1).
  [[nodiscard]] std::string config_text() const;

  /// FRR-style "show bgp summary": one line per neighbor with state and
  /// message counters.
  [[nodiscard]] std::string summary_text() const;

  struct BgpStats {
    std::uint64_t updates_sent = 0;
    std::uint64_t updates_received = 0;
    /// Instant of the last UPDATE sent or received: convergence ends here.
    sim::Time last_update_at{};
    std::uint64_t keepalives_sent = 0;
    std::uint64_t rib_changes = 0;  // RouteTable mutations
    std::uint64_t sessions_flapped = 0;  // Established -> down transitions
    /// Reconnects deferred past connect_retry by flap damping.
    std::uint64_t retries_damped = 0;
  };
  [[nodiscard]] const BgpStats& bgp_stats() const { return stats_; }

  /// Decayed flap-damping penalty for the session with `peer` (tests/bench).
  [[nodiscard]] double peer_damping_penalty(ip::Ipv4Addr peer) const;

 private:
  /// Dense per-router handle of a prefix, assigned on first sight. The
  /// prefix set is small and fixed (one subnet per rack), so every RIB is a
  /// flat array indexed by it.
  using PrefixId = std::uint32_t;
  /// Handle of an interned AS path: two paths are equal iff their ids are.
  using PathId = std::uint32_t;
  static constexpr PathId kNoPath = UINT32_MAX;
  /// Peer slot of the locally originated path.
  static constexpr std::uint32_t kLocal = UINT32_MAX;

  /// The router's AS paths, each stored once. Interning a known path and
  /// comparing two paths allocate nothing; entries live until stop().
  class AsPathTable {
   public:
    PathId intern(std::span<const std::uint32_t> path);
    /// Interns `asn` followed by path `tail` (what this router advertises).
    PathId prepend(std::uint32_t asn, PathId tail);
    [[nodiscard]] std::span<const std::uint32_t> get(PathId id) const {
      const Entry& e = entries_[id];
      return {words_.data() + e.offset, e.length};
    }
    [[nodiscard]] bool contains(PathId id, std::uint32_t asn) const;
    /// Lexicographic order, as std::vector<std::uint32_t> compares.
    [[nodiscard]] bool less(PathId a, PathId b) const;
    void clear();

   private:
    struct Entry {
      std::uint32_t offset;
      std::uint32_t length;
      std::uint64_t hash;
    };
    std::vector<std::uint32_t> words_;
    std::vector<Entry> entries_;
    /// Open-addressed index into entries_ (kNoPath: empty), a power of two
    /// at least twice entries_.size().
    std::vector<PathId> index_;
    std::vector<std::uint32_t> scratch_;
  };

  /// One path to a prefix: an Adj-RIB-In slot or a Loc-RIB choice.
  struct Path {
    std::uint32_t peer = kLocal;
    PathId as_path = kNoPath;
    ip::Ipv4Addr next_hop;
    bool operator==(const Path&) const = default;
  };

  struct PrefixRib {
    ip::Ipv4Prefix prefix;
    bool originated = false;
    /// Adj-RIB-In: one slot per peer that announced the prefix, in
    /// peer-index order.
    std::vector<Path> in;
    /// Loc-RIB: the chosen (ECMP) paths in peer-index order; the first is
    /// the best.
    std::vector<Path> chosen;
    /// The best path with this router's ASN prepended, computed once per
    /// decision; every peer is offered it unless the no-echo or loop check
    /// suppresses it. kNoPath while there is no route.
    PathId out = kNoPath;
  };

  struct Peer {
    NeighborConfig cfg;
    std::size_t index = 0;
    /// The port carrying the session's /31 (0: none), reported when the
    /// session goes down.
    std::uint32_t port = 0;
    SessionState state = SessionState::kIdle;
    transport::TcpConnection* conn = nullptr;
    MessageReader reader;
    /// Every message of the session is decoded into this one.
    BgpMessage rx;
    std::unique_ptr<sim::Timer> hold_timer;
    std::unique_ptr<sim::Timer> keepalive_timer;
    std::unique_ptr<sim::Timer> retry_timer;
    std::unique_ptr<sim::Timer> mrai_timer;
    /// Adj-RIB-Out: the AS path last advertised, by prefix id (kNoPath:
    /// none; ids past the end were never advertised).
    std::vector<PathId> advertised;
    /// Prefixes whose advertisement must be re-evaluated at next flush,
    /// ascending by prefix.
    std::vector<PrefixId> pending;
    sim::FlapPenalty damp;
    /// Private jitter stream (use_stream_rng); empty: shared ctx rng.
    std::optional<sim::Rng> rng;
  };

  // --- session management ---
  void start_peer(Peer& peer);
  void attach_connection(Peer& peer, transport::TcpConnection& conn);
  void session_established(Peer& peer);
  void drop_session(Peer& peer);
  void schedule_retry(Peer& peer);
  void handle_stream(Peer& peer, std::span<const std::uint8_t> data);
  void handle_message(Peer& peer, const BgpMessage& msg);
  void send_message(Peer& peer, const BgpMessage& msg);
  void send_update(Peer& peer, const UpdateMessage& update);
  /// RFC 4271-style timer jitter: uniform in [0.75, 1.0) x base, drawn from
  /// the peer's private stream when one is set.
  [[nodiscard]] sim::Duration jittered(Peer& peer, sim::Duration base);
  [[nodiscard]] sim::Rng& draw_rng(Peer& peer) {
    return peer.rng ? *peer.rng : ctx_.rng;
  }

  // --- routing ---
  /// The id of `prefix`, assigned (with an empty RIB entry) on first sight.
  PrefixId prefix_id(ip::Ipv4Prefix prefix);
  [[nodiscard]] std::optional<PrefixId> find_prefix(ip::Ipv4Prefix prefix) const;
  void process_update(Peer& peer, const UpdateMessage& update);
  /// Re-runs the decision process for a prefix; returns true if the
  /// Loc-RIB / RouteTable changed.
  bool run_decision(PrefixId id);
  void schedule_advertisements(PrefixId id);
  /// Adds `id` to the peer's pending set, keeping it ascending by prefix.
  void mark_pending(Peer& peer, PrefixId id);
  void flush_peer(Peer& peer);
  /// What should currently be advertised to `peer` (the interned AS path
  /// with own ASN prepended), or kNoPath for none/suppressed.
  [[nodiscard]] PathId advertisement_for(const Peer& peer,
                                         const PrefixRib& rib) const;

  [[nodiscard]] bool originates(ip::Ipv4Prefix prefix) const;

  BgpConfig config_;
  std::optional<std::uint64_t> stream_seed_;
  bool draining_ = false;
  std::vector<std::unique_ptr<Peer>> peers_;
  AsPathTable paths_;
  /// Adj-RIB-In and Loc-RIB, by prefix id.
  std::vector<PrefixRib> ribs_;
  /// Every prefix id, ascending by prefix.
  std::vector<PrefixId> by_prefix_;
  std::unique_ptr<bfd::BfdManager> bfd_;
  BgpStats stats_;

  // Scratch storage reused across calls so steady-state UPDATE handling
  // allocates nothing.
  std::vector<PrefixId> affected_;
  std::vector<Path> decision_;
  std::vector<ip::NextHop> nexthops_;
  std::vector<ip::NextHop> sorted_nexthops_;
  /// (advertised path, prefix id) pairs of one flush.
  std::vector<std::pair<PathId, PrefixId>> adverts_;
  UpdateMessage update_;
};

}  // namespace mrmtp::bgp
