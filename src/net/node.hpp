// Node and Port: the device model.
//
// A Node owns numbered ports (1-based, matching the paper's VID derivation,
// which appends the arrival port number). Protocol stacks subclass Node and
// receive frames via handle_frame(). Interface failure is one-sided: the
// owning node gets on_port_down() immediately (the paper's failure script
// records this instant as convergence start); the peer learns nothing until
// its keep-alive dead timer fires, exactly as observed on FABRIC's virtual
// links.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/frame.hpp"
#include "net/stats.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"
#include "util/hash.hpp"

namespace mrmtp::sim {
class ShardBus;
}

namespace mrmtp::net {

class Node;
class Link;
class SwitchBuffer;
struct SwitchBufferParams;

/// Shared simulation services handed to every node. In a sharded run each
/// shard owns one SimContext (scheduler + clock); `shard`/`bus` identify it
/// on the cross-shard mailbox fabric. Single-threaded runs keep the defaults
/// (shard 0, no bus) and every code path degenerates to direct scheduling.
struct SimContext {
  explicit SimContext(std::uint64_t seed = 1) : rng(seed) {}

  sim::Scheduler sched;
  sim::Rng rng;
  std::uint32_t shard = 0;
  sim::ShardBus* bus = nullptr;

  [[nodiscard]] sim::Time now() const { return sched.now(); }
};

class Port {
 public:
  Port(Node& owner, std::uint32_t number) : owner_(&owner), number_(number) {}

  Port(const Port&) = delete;
  Port& operator=(const Port&) = delete;

  [[nodiscard]] Node& owner() const { return *owner_; }
  /// 1-based port number; MR-MTP appends this to VIDs.
  [[nodiscard]] std::uint32_t number() const { return number_; }
  [[nodiscard]] bool admin_up() const { return admin_up_; }
  [[nodiscard]] bool connected() const { return link_ != nullptr; }
  [[nodiscard]] Link* link() const { return link_; }
  [[nodiscard]] MacAddr mac() const;

  /// The port on the far side of this port's link (nullptr if unwired).
  /// Topology/harness helper only — protocol logic must discover peers via
  /// messages, not by peeking.
  [[nodiscard]] Port* peer() const;

  [[nodiscard]] TrafficStats& tx_stats() { return tx_; }
  [[nodiscard]] TrafficStats& rx_stats() { return rx_; }
  [[nodiscard]] const TrafficStats& tx_stats() const { return tx_; }
  [[nodiscard]] const TrafficStats& rx_stats() const { return rx_; }

  [[nodiscard]] std::string str() const;  // "S-1-1:2"

 private:
  friend class Node;
  friend class Link;

  Node* owner_;
  std::uint32_t number_;
  Link* link_ = nullptr;
  bool admin_up_ = true;
  TrafficStats tx_;
  TrafficStats rx_;
};

class Node {
 public:
  // Ctor/dtor out of line: SwitchBuffer is incomplete here.
  Node(SimContext& ctx, std::string name, std::uint32_t tier);
  virtual ~Node();

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  [[nodiscard]] SimContext& ctx() { return ctx_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::uint32_t id() const { return id_; }
  /// Tier in the folded-Clos: 0 = server, 1 = ToR/leaf, 2 = pod spine,
  /// 3 = top spine (and so on for deeper fabrics).
  [[nodiscard]] std::uint32_t tier() const { return tier_; }

  Port& add_port();
  [[nodiscard]] Port& port(std::uint32_t number) {
    if (number == 0 || number > ports_.size()) throw_no_port(number);
    return *ports_[number - 1];
  }
  [[nodiscard]] const Port& port(std::uint32_t number) const {
    return const_cast<Node*>(this)->port(number);
  }
  [[nodiscard]] std::uint32_t port_count() const {
    return static_cast<std::uint32_t>(ports_.size());
  }

  /// Sends a frame out `out`; silently dropped if the port is down/unwired.
  void transmit(Port& out, Frame&& frame);

  /// Gives this node a finite shared egress buffer (see switch_buffer.hpp);
  /// every Link admission from this node then charges it. Enabling twice
  /// replaces the buffer with a fresh one (fresh accounting).
  SwitchBuffer& enable_switch_buffer(const SwitchBufferParams& params);
  [[nodiscard]] SwitchBuffer* switch_buffer() { return switch_buffer_.get(); }
  [[nodiscard]] const SwitchBuffer* switch_buffer() const {
    return switch_buffer_.get();
  }

  /// Sets the multipath policy `pick_egress` applies. Under kWcmpFlowlet a
  /// flow keeps its egress until it idles for `flowlet_gap` (zero keeps the
  /// 500 µs default: above one 1000 B serialization at 100 Mb/s, below
  /// PFC-pause stalls); the first kWcmpFlowlet call creates its flowlet
  /// table.
  void enable_path_select(util::PathSelect mode, sim::Duration flowlet_gap = {});
  [[nodiscard]] util::PathSelect path_select() const { return path_select_; }

  /// The one egress choice of every forwarding plane: index of the
  /// candidate among `n` (> 0) that carries a packet of `flow_hash`.
  /// `key_of(i)` is candidate i's rendezvous key, `weight_of(i)` its WCMP
  /// base weight and `port_of(i)` its egress port.
  ///   kHrw:         equal-share rendezvous over the keys (weights unread);
  ///   kWcmp:        weighted rendezvous;
  ///   kWcmpFlowlet: weighted rendezvous with each weight discounted by its
  ///                 egress's congestion, redrawn only when the flow's
  ///                 flowlet closes or its port leaves the candidate set.
  template <typename KeyOf, typename WeightOf, typename PortOf>
  [[nodiscard]] std::size_t pick_egress(std::uint64_t flow_hash, std::size_t n,
                                        KeyOf&& key_of, WeightOf&& weight_of,
                                        PortOf&& port_of) {
    if (path_select_ == util::PathSelect::kHrw) {
      return util::hrw_pick(flow_hash, n, key_of);
    }
    const bool flowlet = path_select_ == util::PathSelect::kWcmpFlowlet;
    auto redraw = [&] {
      return util::hrw_pick_weighted(flow_hash, n, key_of, [&](std::size_t i) {
        const double w = static_cast<double>(weight_of(i));
        return flowlet ? w * congestion_factor(port_of(i)) : w;
      });
    };
    if (!flowlet) return redraw();
    // The table index wants uniform low bits; the flow hashes are FNV, whose
    // low bits are weaker than mix64's, so rescramble.
    const std::uint64_t key = util::mix64(flow_hash);
    const std::int64_t now_ns = ctx_.now().ns();
    FlowletTable::Slot& s = flowlets_->probe(key);
    const bool known = s.key == key && s.last_ns >= 0;
    if (known && now_ns - s.last_ns <= flowlet_gap_ns_) {
      for (std::size_t i = 0; i < n; ++i) {
        if (port_of(i) == s.port) {  // flowlet open, port still a candidate
          s.last_ns = now_ns;
          return i;
        }
      }
    }
    const std::size_t pick = redraw();
    const std::uint32_t chosen = port_of(pick);
    if (known && chosen != s.port) note_flowlet_reroute(chosen);
    s.key = key;
    s.last_ns = now_ns;
    s.port = chosen;
    return pick;
  }

  /// Delivery entry point used by Link: records which port the frame arrived
  /// on (ingress attribution for PFC charging — forwarding is synchronous in
  /// every protocol stack here) and dispatches to handle_frame().
  void receive_frame(Port& in, Frame&& frame) {
    std::uint32_t saved = rx_port_no_;
    rx_port_no_ = in.number();
    handle_frame(in, std::move(frame));
    rx_port_no_ = saved;
  }
  /// 1-based port number of the frame currently being received; 0 outside
  /// receive_frame (self-originated traffic charges no ingress account).
  [[nodiscard]] std::uint32_t current_rx_port() const { return rx_port_no_; }

  /// Administratively fails/restores an interface. Down notifies this node
  /// (on_port_down) at the current instant; the peer is NOT notified.
  void set_interface_down(std::uint32_t port_number);
  void set_interface_up(std::uint32_t port_number);

  /// Invoked once after the topology is fully wired; protocols begin their
  /// state machines (advertisements, session establishment) here.
  virtual void start() {}

  /// Powers the node off: protocols must tear down sessions and wipe all
  /// control-plane state so a later start() is a cold rejoin, not a resume.
  /// The lifecycle engine's reboot primitive; default is stateless no-op.
  virtual void stop() {}

  /// A frame arrived on `in`, moved from the sender; the handler may move it.
  virtual void handle_frame(Port& in, Frame&& frame) = 0;

  virtual void on_port_down(Port& port) { (void)port; }
  virtual void on_port_up(Port& port) { (void)port; }

  /// Fired when the routing protocol declares the neighbor on `port` dead:
  /// MR-MTP's dead timer or interface event, or an Established BGP session
  /// dropping (port 0 if no local port carries the session's /31). The one
  /// protocol event observers see as it happens: detection latency and the
  /// auditor's false-dead check need the instant itself; every other
  /// metric is read from the protocol's counters.
  std::function<void(sim::Time, std::uint32_t port)> on_neighbor_down;

 protected:
  SimContext& ctx_;

 private:
  friend class Network;

  /// Congestion feedback on a kWcmpFlowlet weight: 0.05 while `port`'s
  /// egress data band is PFC-paused, 0.25 while its backlog exceeds the ECN
  /// threshold (64 KiB without a marking SwitchBuffer), 1.0 otherwise.
  [[nodiscard]] double congestion_factor(std::uint32_t port) const;
  /// Counts a flowlet redrawn onto `port` on its link direction.
  void note_flowlet_reroute(std::uint32_t port) const;
  [[noreturn]] void throw_no_port(std::uint32_t number) const;

  std::string name_;
  std::uint32_t id_ = 0;
  std::uint32_t tier_;
  std::vector<std::unique_ptr<Port>> ports_;
  std::unique_ptr<SwitchBuffer> switch_buffer_;
  std::uint32_t rx_port_no_ = 0;
  util::PathSelect path_select_ = util::PathSelect::kHrw;
  std::int64_t flowlet_gap_ns_ = 500'000;
  /// Non-null once kWcmpFlowlet is enabled; owned here, so only this
  /// node's shard thread touches it.
  std::unique_ptr<FlowletTable> flowlets_;
};

inline MacAddr Port::mac() const {
  return MacAddr::for_port(owner_->id(), number_);
}

}  // namespace mrmtp::net
