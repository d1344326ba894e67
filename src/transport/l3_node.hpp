// L3Node: an IP host/router data plane on top of net::Node.
//
// Provides interface addressing, a kernel-style RouteTable with ECMP
// selection by flow hash, TTL handling, and local delivery demux to TCP/UDP.
// BGP routers and traffic-generating servers both derive from this; MR-MTP
// routers do not (the paper's point is that MTP replaces the IP routing
// machinery entirely).
#pragma once

#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "ip/packet.hpp"
#include "ip/route_table.hpp"
#include "net/network.hpp"
#include "transport/tcp_lite.hpp"
#include "transport/udp.hpp"

namespace mrmtp::transport {

class L3Node : public net::Node, public IpSender {
 public:
  L3Node(net::SimContext& ctx, std::string name, std::uint32_t tier)
      : net::Node(ctx, std::move(name), tier), tcp_(*this) {}

  /// Assigns `addr`/`prefix_len` to a port and installs the connected route.
  /// A /31 port also enters the link-peer table under its peer's address.
  void configure_port(std::uint32_t port, ip::Ipv4Addr addr,
                      std::uint8_t prefix_len);

  [[nodiscard]] std::optional<ip::Ipv4Addr> port_addr(std::uint32_t port) const;
  [[nodiscard]] bool is_local_addr(ip::Ipv4Addr addr) const;

  [[nodiscard]] ip::RouteTable& routes() { return routes_; }
  [[nodiscard]] const ip::RouteTable& routes() const { return routes_; }
  [[nodiscard]] TcpStack& tcp() { return tcp_; }

  /// The next hop a packet to `dst` with flow hash `hash` leaves on, nullptr
  /// if no route covers `dst`: cached LPM, then pick_egress over the route's
  /// next hops keyed by NextHop::hrw_key (so a member loss remaps only the
  /// flows that member carried) and weighted by NextHop::weight, which the
  /// BGP speaker stamps when WCMP is enabled before start().
  [[nodiscard]] const ip::NextHop* select_next_hop(ip::Ipv4Addr dst,
                                                   std::uint64_t hash);

  /// The port of the connected route the FIB's longest-prefix match picks
  /// for `addr`, 0 if that route is not connected or none covers `addr`.
  /// A link peer is answered from the link-peer table without an LPM walk.
  [[nodiscard]] std::uint32_t connected_port(ip::Ipv4Addr addr) const;

  /// UDP receive hook: (src, dst, udp header, payload).
  using UdpHandler =
      std::function<void(ip::Ipv4Addr, ip::Ipv4Addr, const UdpHeader&,
                         std::span<const std::uint8_t>)>;
  void bind_udp(std::uint16_t port, UdpHandler handler) {
    udp_handlers_[port] = std::move(handler);
  }

  /// Sends a UDP datagram (routed like any other packet). Move a uniquely
  /// owned buffer in and the UDP + IP headers prepend into its headroom
  /// without copying the payload.
  void send_udp(ip::Ipv4Addr src, ip::Ipv4Addr dst, std::uint16_t src_port,
                std::uint16_t dst_port, net::Buffer payload,
                net::TrafficClass tc);

  // --- IpSender ---
  void send_ip(ip::Ipv4Addr src, ip::Ipv4Addr dst, ip::IpProto proto,
               net::Buffer payload, net::TrafficClass traffic_class) override;
  net::SimContext& sim() override { return ctx_; }

  // --- net::Node ---
  void handle_frame(net::Port& in, net::Frame&& frame) override;

  struct ForwardingStats {
    std::uint64_t forwarded = 0;
    std::uint64_t delivered_local = 0;
    std::uint64_t dropped_no_route = 0;
    std::uint64_t dropped_ttl = 0;
    std::uint64_t dropped_iface_down = 0;
  };
  [[nodiscard]] const ForwardingStats& forwarding_stats() const { return fwd_stats_; }

  /// True if the most recent locally-delivered packet arrived ECN CE-marked
  /// (valid during the synchronous TCP/UDP dispatch it triggered).
  [[nodiscard]] bool last_rx_ce() const { return last_rx_ce_; }

 protected:
  /// Routes a serialized IP packet: local delivery or ECMP forwarding.
  /// `header` is the already-parsed view of `packet`'s leading bytes. On the
  /// transit path the packet buffer is forwarded as-is (TTL and checksum
  /// patched in place) — the bytes are never re-serialized. A packet this
  /// node sends to a link peer leaves on the peer's port directly, unless
  /// the FIB could send it elsewhere (see link_peer_port).
  void route_packet(const ip::Ipv4Header& header, net::Buffer packet,
                    net::TrafficClass tc, bool from_self);

  /// 5-tuple flow hash used for ECMP selection (FNV-1a over src, dst,
  /// proto, and the first 4 payload bytes, i.e. the ports).
  [[nodiscard]] static std::uint64_t flow_hash(
      const ip::Ipv4Header& header, std::span<const std::uint8_t> payload);

  ForwardingStats fwd_stats_;

 private:
  /// The far end of a /31 port: the peer's address (this port's ^ 1).
  struct LinkPeer {
    ip::Ipv4Addr peer;
    std::uint32_t port = 0;
    /// The routes_ host_epoch `fib_agrees` was computed at; 0 = never (the
    /// table's epochs start at 1).
    std::uint64_t epoch = 0;
    bool fib_agrees = false;
  };

  void emit_frame(std::uint32_t port, net::Buffer packet, net::TrafficClass tc);
  /// The /31 port `addr` is the link peer of, if the FIB's answer for
  /// `addr` is exactly that port: no /32 route for `addr`, and the /31 is
  /// still the connected route on that port (a BGP or static route set on
  /// the same prefix replaces it). 0 otherwise, and for any other address.
  /// The check is redone only when a /31 or /32 route of routes_ has
  /// changed since the last one (RouteTable::host_epoch).
  [[nodiscard]] std::uint32_t link_peer_port(ip::Ipv4Addr addr) const;

  ip::RouteTable routes_;
  std::unordered_map<std::uint32_t, ip::Ipv4Addr> port_addrs_;
  /// Every port address, sorted: the per-packet local-delivery check.
  std::vector<ip::Ipv4Addr> local_addrs_;
  /// Every /31 port's LinkPeer, sorted by peer. Mutable for the lazily
  /// refreshed fib_agrees stamps.
  mutable std::vector<LinkPeer> link_peers_;
  std::unordered_map<std::uint16_t, UdpHandler> udp_handlers_;
  TcpStack tcp_;
  std::uint16_t next_ip_id_ = 1;
  bool last_rx_ce_ = false;
};

}  // namespace mrmtp::transport
