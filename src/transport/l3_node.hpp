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
#include "util/hash.hpp"

namespace mrmtp::transport {

class L3Node : public net::Node, public IpSender {
 public:
  L3Node(net::SimContext& ctx, std::string name, std::uint32_t tier)
      : net::Node(ctx, std::move(name), tier), tcp_(*this) {}

  /// Assigns `addr`/`prefix_len` to a port and installs the connected route.
  void configure_port(std::uint32_t port, ip::Ipv4Addr addr,
                      std::uint8_t prefix_len);

  [[nodiscard]] std::optional<ip::Ipv4Addr> port_addr(std::uint32_t port) const;
  [[nodiscard]] bool is_local_addr(ip::Ipv4Addr addr) const;

  [[nodiscard]] ip::RouteTable& routes() { return routes_; }
  [[nodiscard]] const ip::RouteTable& routes() const { return routes_; }
  [[nodiscard]] TcpStack& tcp() { return tcp_; }

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
  [[nodiscard]] std::string endpoint_name() const override { return name(); }

  // --- net::Node ---
  void handle_frame(net::Port& in, net::Frame frame) override;

  struct ForwardingStats {
    std::uint64_t forwarded = 0;
    std::uint64_t delivered_local = 0;
    std::uint64_t dropped_no_route = 0;
    std::uint64_t dropped_ttl = 0;
    std::uint64_t dropped_iface_down = 0;
    /// Existing flows that re-drew their weighted choice onto a different
    /// egress after an idle gap (kWcmpFlowlet only).
    std::uint64_t flowlet_reroutes = 0;
  };
  [[nodiscard]] const ForwardingStats& forwarding_stats() const { return fwd_stats_; }

  /// Switches this node's ECMP selection to weighted (WCMP) or
  /// WCMP+flowlet mode. Next-hop weights come from the RouteTable (the BGP
  /// speaker installs link-capacity weights when this is enabled before
  /// sessions come up). `flowlet_gap` = idle gap that closes a flowlet;
  /// zero keeps the 500 µs default.
  void enable_path_select(util::PathSelect mode, sim::Duration flowlet_gap = {});
  [[nodiscard]] util::PathSelect path_select() const { return path_select_; }

  /// True if the most recent locally-delivered packet arrived ECN CE-marked
  /// (valid during the synchronous TCP/UDP dispatch it triggered).
  [[nodiscard]] bool last_rx_ce() const { return last_rx_ce_; }

 protected:
  /// Routes a serialized IP packet: local delivery or ECMP forwarding.
  /// `header` is the already-parsed view of `packet`'s leading bytes. On the
  /// transit path the packet buffer is forwarded as-is (TTL and checksum
  /// patched in place) — the bytes are never re-serialized.
  void route_packet(const ip::Ipv4Header& header, net::Buffer packet,
                    net::TrafficClass tc, bool from_self);

  /// Local delivery for protocols beyond TCP/UDP demux; default drops.
  virtual void deliver_local(const ip::Ipv4Header& header,
                             std::span<const std::uint8_t> payload,
                             net::TrafficClass tc);

  /// 5-tuple flow hash used for ECMP selection (FNV-1a over src, dst,
  /// proto, and the first 4 payload bytes, i.e. the ports).
  [[nodiscard]] static std::uint64_t flow_hash(
      const ip::Ipv4Header& header, std::span<const std::uint8_t> payload);

  ForwardingStats fwd_stats_;

 private:
  void emit_frame(std::uint32_t port, net::Buffer packet, net::TrafficClass tc);
  /// ECMP/WCMP/flowlet next-hop choice for a transit/self-originated packet.
  [[nodiscard]] const ip::NextHop* select_next_hop(
      const ip::Ipv4Header& header, std::span<const std::uint8_t> payload);
  /// Congestion feedback multiplier for WCMP+flowlet picks (PFC pause 0.05,
  /// ECN-level backlog 0.25, clear 1.0).
  [[nodiscard]] double egress_discount(std::uint32_t port) const;

  ip::RouteTable routes_;
  std::unordered_map<std::uint32_t, ip::Ipv4Addr> port_addrs_;
  /// Every port address, sorted: the per-packet local-delivery check.
  std::vector<ip::Ipv4Addr> local_addrs_;
  std::unordered_map<std::uint16_t, UdpHandler> udp_handlers_;
  TcpStack tcp_;
  std::uint16_t next_ip_id_ = 1;
  bool last_rx_ce_ = false;
  util::PathSelect path_select_ = util::PathSelect::kHrw;
  std::int64_t flowlet_gap_ns_ = 500'000;
  net::FlowletTable* flowlets_ = nullptr;  // non-null only under kWcmpFlowlet
};

}  // namespace mrmtp::transport
