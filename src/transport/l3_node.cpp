#include "transport/l3_node.hpp"

#include <algorithm>

namespace mrmtp::transport {

void L3Node::configure_port(std::uint32_t port_number, ip::Ipv4Addr addr,
                            std::uint8_t prefix_len) {
  port_addrs_[port_number] = addr;
  // Rebuilt rather than patched: a port may be re-addressed, and ports are
  // configured once per deployment, not per packet.
  local_addrs_.clear();
  for (const auto& [port, a] : port_addrs_) local_addrs_.push_back(a);
  std::sort(local_addrs_.begin(), local_addrs_.end());
  std::erase_if(link_peers_, [port_number](const LinkPeer& lp) {
    return lp.port == port_number;
  });
  if (prefix_len == 31) {
    const LinkPeer lp{ip::Ipv4Addr(addr.value() ^ 1u), port_number};
    link_peers_.insert(
        std::upper_bound(link_peers_.begin(), link_peers_.end(), lp,
                         [](const LinkPeer& a, const LinkPeer& b) {
                           return a.peer < b.peer;
                         }),
        lp);
  }
  routes_.add_connected(ip::Ipv4Prefix(addr, prefix_len), port_number, addr);
}

std::uint32_t L3Node::link_peer_port(ip::Ipv4Addr addr) const {
  auto it = std::lower_bound(
      link_peers_.begin(), link_peers_.end(), addr,
      [](const LinkPeer& lp, ip::Ipv4Addr a) { return lp.peer < a; });
  if (it == link_peers_.end() || it->peer != addr) return 0;
  if (it->epoch != routes_.epoch()) {
    const ip::Route* r = routes_.exact(ip::Ipv4Prefix(addr, 31));
    it->fib_agrees = routes_.exact(ip::Ipv4Prefix(addr, 32)) == nullptr &&
                     r != nullptr && r->proto == ip::RouteProto::kConnected &&
                     r->nexthops.size() == 1 &&
                     r->nexthops.front().port == it->port;
    it->epoch = routes_.epoch();
  }
  return it->fib_agrees ? it->port : 0;
}

std::uint32_t L3Node::connected_port(ip::Ipv4Addr addr) const {
  if (const std::uint32_t port_number = link_peer_port(addr); port_number != 0) {
    return port_number;
  }
  const ip::Route* r = routes_.lookup(addr);
  if (r == nullptr || r->proto != ip::RouteProto::kConnected) return 0;
  return r->nexthops.front().port;
}

std::optional<ip::Ipv4Addr> L3Node::port_addr(std::uint32_t port_number) const {
  auto it = port_addrs_.find(port_number);
  if (it == port_addrs_.end()) return std::nullopt;
  return it->second;
}

bool L3Node::is_local_addr(ip::Ipv4Addr addr) const {
  return std::binary_search(local_addrs_.begin(), local_addrs_.end(), addr);
}

void L3Node::send_udp(ip::Ipv4Addr src, ip::Ipv4Addr dst,
                      std::uint16_t src_port, std::uint16_t dst_port,
                      net::Buffer payload, net::TrafficClass tc) {
  UdpHeader h{src_port, dst_port};
  send_ip(src, dst, ip::IpProto::kUdp, h.encapsulate(std::move(payload)), tc);
}

void L3Node::send_ip(ip::Ipv4Addr src, ip::Ipv4Addr dst, ip::IpProto proto,
                     net::Buffer payload, net::TrafficClass traffic_class) {
  ip::Ipv4Header header;
  header.src = src;
  header.dst = dst;
  header.protocol = proto;
  header.identification = next_ip_id_++;
  route_packet(header, header.encapsulate(std::move(payload)), traffic_class,
               /*from_self=*/true);
}

void L3Node::handle_frame(net::Port& in, net::Frame&& frame) {
  if (frame.ethertype != net::EtherType::kIpv4) return;  // not ours
  (void)in;
  std::span<const std::uint8_t> payload;
  ip::Ipv4Header header;
  try {
    header = ip::Ipv4Header::parse(frame.payload, payload);
  } catch (const util::CodecError&) {
    return;  // malformed; counted nowhere, as a NIC would discard it
  }
  net::Buffer packet = std::move(frame.payload);
  // Trim any bytes past total_length so a forwarded packet carries exactly
  // what re-serialization used to (none occur on this fabric's links).
  const std::size_t total = header.header_length() + payload.size();
  if (packet.size() != total) packet = packet.slice(0, total);
  route_packet(header, std::move(packet), frame.traffic_class,
               /*from_self=*/false);
}

void L3Node::route_packet(const ip::Ipv4Header& header, net::Buffer packet,
                          net::TrafficClass tc, bool from_self) {
  const std::span<const std::uint8_t> payload =
      packet.span().subspan(header.header_length());

  if (is_local_addr(header.dst)) {
    ++fwd_stats_.delivered_local;
    // ECN CE applied by a finite-buffer switch en route; exposed to TCP
    // directly and to UDP handlers via last_rx_ce() for the duration of the
    // (synchronous) dispatch below.
    last_rx_ce_ = (header.tos & 0x03) == 0x03;
    switch (header.protocol) {
      case ip::IpProto::kTcp:
        tcp_.handle_packet(header.src, header.dst,
                           packet.slice(header.header_length()), last_rx_ce_);
        return;
      case ip::IpProto::kUdp: {
        std::span<const std::uint8_t> udp_payload;
        UdpHeader uh = UdpHeader::parse(payload, udp_payload);
        auto it = udp_handlers_.find(uh.dst_port);
        if (it != udp_handlers_.end()) {
          it->second(header.src, header.dst, uh, udp_payload);
        }
        return;
      }
    }
    return;  // no handler for other protocols: dropped
  }

  // Every BGP and BFD session runs between link neighbors, so most packets
  // a router sends go to the peer on one of its /31s. Such a packet leaves
  // on that port without a flow hash, LPM lookup or egress pick; under
  // kWcmpFlowlet it still takes the FIB path, whose pick also writes the
  // flowlet table.
  if (from_self && path_select() != util::PathSelect::kWcmpFlowlet) {
    if (const std::uint32_t port_number = link_peer_port(header.dst);
        port_number != 0) {
      emit_frame(port_number, std::move(packet), tc);
      return;
    }
  }

  if (!from_self && header.ttl <= 1) {
    ++fwd_stats_.dropped_ttl;
    return;
  }

  const ip::NextHop* nh =
      select_next_hop(header.dst, flow_hash(header, payload));
  if (nh == nullptr) {
    ++fwd_stats_.dropped_no_route;
    return;
  }
  if (!from_self) {
    // Transit fast path: patch TTL + checksum in the buffer we received and
    // forward the same bytes — no parse-and-reserialize per hop. The patch
    // copies first only if a pcap tap still shares the slab.
    ip::Ipv4Header::decrement_ttl(packet);
    ++fwd_stats_.forwarded;
  }
  emit_frame(nh->port, std::move(packet), tc);
}

const ip::NextHop* L3Node::select_next_hop(ip::Ipv4Addr dst,
                                           std::uint64_t hash) {
  const ip::Route* r = routes_.lookup_cached(dst);
  if (r == nullptr || r->nexthops.empty()) return nullptr;
  const auto& nhs = r->nexthops;
  return &nhs[pick_egress(
      hash, nhs.size(),
      [&](std::size_t i) { return nhs[i].hrw_key(); },
      [&](std::size_t i) { return nhs[i].weight; },
      [&](std::size_t i) { return nhs[i].port; })];
}

std::uint64_t L3Node::flow_hash(const ip::Ipv4Header& header,
                                std::span<const std::uint8_t> payload) {
  std::uint64_t h = 1469598103934665603ull;  // FNV offset basis
  auto mix = [&h](std::uint8_t b) {
    h ^= b;
    h *= 1099511628211ull;
  };
  for (int i = 0; i < 4; ++i) mix(header.src.octet(i));
  for (int i = 0; i < 4; ++i) mix(header.dst.octet(i));
  mix(static_cast<std::uint8_t>(header.protocol));
  for (std::size_t i = 0; i < 4 && i < payload.size(); ++i) mix(payload[i]);
  return h;
}

void L3Node::emit_frame(std::uint32_t port_number, net::Buffer packet,
                        net::TrafficClass tc) {
  net::Port& out = port(port_number);
  if (!out.admin_up() || !out.connected()) {
    ++fwd_stats_.dropped_iface_down;
    return;
  }
  net::Frame frame;
  frame.dst = net::MacAddr::broadcast();  // p2p links; no ARP (paper §VII.F)
  frame.src = out.mac();
  frame.ethertype = net::EtherType::kIpv4;
  frame.payload = std::move(packet);
  frame.traffic_class = tc;
  transmit(out, std::move(frame));
}

}  // namespace mrmtp::transport
