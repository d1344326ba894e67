#include "transport/l3_node.hpp"

#include <algorithm>

#include "net/link.hpp"
#include "net/switch_buffer.hpp"

namespace mrmtp::transport {

void L3Node::enable_path_select(util::PathSelect mode,
                                sim::Duration flowlet_gap) {
  path_select_ = mode;
  if (flowlet_gap.ns() > 0) flowlet_gap_ns_ = flowlet_gap.ns();
  if (mode == util::PathSelect::kWcmpFlowlet && flowlets_ == nullptr) {
    flowlets_ = &ctx_.stats.alloc_flowlets();
  }
}

void L3Node::configure_port(std::uint32_t port_number, ip::Ipv4Addr addr,
                            std::uint8_t prefix_len) {
  port_addrs_[port_number] = addr;
  // Rebuilt rather than patched: a port may be re-addressed, and ports are
  // configured once per deployment, not per packet.
  local_addrs_.clear();
  for (const auto& [port, a] : port_addrs_) local_addrs_.push_back(a);
  std::sort(local_addrs_.begin(), local_addrs_.end());
  routes_.add_connected(ip::Ipv4Prefix(addr, prefix_len), port_number, addr);
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

void L3Node::handle_frame(net::Port& in, net::Frame frame) {
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
    deliver_local(header, payload, tc);
    return;
  }

  if (!from_self && header.ttl <= 1) {
    ++fwd_stats_.dropped_ttl;
    return;
  }

  const ip::NextHop* nh = select_next_hop(header, payload);
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

const ip::NextHop* L3Node::select_next_hop(
    const ip::Ipv4Header& header, std::span<const std::uint8_t> payload) {
  const std::uint64_t h = flow_hash(header, payload);
  if (path_select_ == util::PathSelect::kHrw) {
    return routes_.select(header.dst, h);
  }
  const ip::Route* r = routes_.lookup_cached(header.dst);
  if (r == nullptr || r->nexthops.empty()) return nullptr;
  const auto& nhs = r->nexthops;
  auto key_of = [&](std::size_t i) {
    return (static_cast<std::uint64_t>(nhs[i].via.value()) << 32) | nhs[i].port;
  };
  auto redraw = [&]() -> std::size_t {
    auto weight_of = [&](std::size_t i) {
      double w = static_cast<double>(nhs[i].weight);
      if (path_select_ == util::PathSelect::kWcmpFlowlet) {
        w *= egress_discount(nhs[i].port);
      }
      return w;
    };
    return util::hrw_pick_weighted(h, nhs.size(), key_of, weight_of);
  };
  if (path_select_ == util::PathSelect::kWcmp || flowlets_ == nullptr) {
    return &nhs[redraw()];
  }
  const std::uint64_t key = util::mix64(h);
  const std::int64_t now_ns = ctx_.now().ns();
  net::FlowletTable::Slot& s = flowlets_->probe(key);
  if (s.key == key && s.last_ns >= 0 &&
      now_ns - s.last_ns <= flowlet_gap_ns_) {
    for (const ip::NextHop& cand : nhs) {
      if (cand.port == s.port) {  // flowlet still open and port still valid
        s.last_ns = now_ns;
        return &cand;
      }
    }
  }
  const std::size_t pick = redraw();
  const std::uint32_t chosen = nhs[pick].port;
  if (s.key == key && s.last_ns >= 0 && chosen != s.port) {
    ++fwd_stats_.flowlet_reroutes;
    const net::Port& out = port(chosen);
    if (out.connected()) out.link()->note_flowlet_reroute(out);
  }
  s.key = key;
  s.last_ns = now_ns;
  s.port = chosen;
  return &nhs[pick];
}

double L3Node::egress_discount(std::uint32_t port_number) const {
  const net::Port& out = port(port_number);
  net::Link* l = out.link();
  if (l == nullptr) return 1.0;
  const auto dir = l->direction_from(out);
  if (l->data_paused(dir)) return 0.05;
  std::uint64_t threshold = 64 * 1024;  // ECN default when no SwitchBuffer
  if (const net::SwitchBuffer* sb = switch_buffer(); sb != nullptr) {
    threshold = sb->params().ecn_data_threshold;
  }
  if (l->queued_data_bytes(dir) > threshold) return 0.25;
  return 1.0;
}

void L3Node::deliver_local(const ip::Ipv4Header& header,
                           std::span<const std::uint8_t> payload,
                           net::TrafficClass tc) {
  (void)header;
  (void)payload;
  (void)tc;
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
