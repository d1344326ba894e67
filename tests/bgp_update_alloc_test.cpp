// Heap allocations of UPDATE handling. A counting global operator new sees
// every allocation in this binary, and each check brackets exactly one
// BgpRouter::handle_frame call carrying an UPDATE that repeats an
// announcement the router already holds: it must cost the same number of
// allocations however many prefixes the router knows and however many peers
// it has. This binary has no sanitizer variant: the sanitizers supply their
// own operator new.
#include <gtest/gtest.h>

#include <cstdlib>
#include <new>

#include "bgp/router.hpp"
#include "ip/packet.hpp"
#include "net/network.hpp"

namespace {
std::size_t g_allocs = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++g_allocs;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace mrmtp::bgp {
namespace {

/// A hub speaker (AS 65000) with `peers` spokes, one /31 link each. Spoke 0
/// (AS 65001) originates `prefixes` /24s; the others originate nothing and
/// only receive the hub's advertisements. After convergence the hub is
/// handed two copies of spoke 0's announcement of one of its prefixes, as
/// the next in-order TCP segment on that session; returns the allocations
/// made while handling the second.
std::size_t repeated_update_allocs(std::size_t prefixes, std::size_t peers) {
  net::SimContext ctx(9);
  net::Network network(ctx);
  auto addr = [](std::size_t link, std::uint8_t side) {
    return ip::Ipv4Addr(172, 16, static_cast<std::uint8_t>(link), side);
  };

  BgpConfig hub_cfg;
  hub_cfg.asn = 65000;
  hub_cfg.router_id = 1;
  for (std::size_t l = 0; l < peers; ++l) {
    hub_cfg.neighbors.push_back(
        {addr(l, 1), addr(l, 0), static_cast<std::uint32_t>(65001 + l)});
  }
  auto& hub = network.add_node<BgpRouter>("hub", 2, hub_cfg);
  std::vector<BgpRouter*> spokes;
  for (std::size_t l = 0; l < peers; ++l) {
    BgpConfig cfg;
    cfg.asn = static_cast<std::uint32_t>(65001 + l);
    cfg.router_id = static_cast<std::uint32_t>(l + 2);
    cfg.neighbors.push_back({addr(l, 0), addr(l, 1), 65000});
    if (l == 0) {
      for (std::size_t p = 0; p < prefixes; ++p) {
        cfg.originate.emplace_back(
            ip::Ipv4Addr(10, static_cast<std::uint8_t>(p / 256),
                         static_cast<std::uint8_t>(p % 256), 0),
            24);
      }
    }
    spokes.push_back(
        &network.add_node<BgpRouter>("spoke" + std::to_string(l), 1, cfg));
  }
  std::vector<net::Link*> links;
  for (std::size_t l = 0; l < peers; ++l) {
    links.push_back(&network.connect(*spokes[l], hub));
    spokes[l]->configure_port(1, addr(l, 0), 31);
    hub.configure_port(static_cast<std::uint32_t>(l + 1), addr(l, 1), 31);
  }

  // The spoke's side of its session: ports and the next sequence number,
  // from the last data segment it sent to the hub.
  transport::TcpSegment last;
  std::uint32_t next_seq = 0;
  const net::MacAddr spoke_mac = spokes[0]->port(1).mac();
  links[0]->set_tap([&](sim::Time, const net::Frame& f) {
    if (f.src != spoke_mac || f.ethertype != net::EtherType::kIpv4) return;
    std::span<const std::uint8_t> tcp;
    ip::Ipv4Header::parse(f.payload, tcp);
    transport::TcpSegment seg = transport::TcpSegment::parse(
        std::vector<std::uint8_t>(tcp.begin(), tcp.end()));
    if (seg.payload.empty()) return;
    next_seq = seg.seq + static_cast<std::uint32_t>(seg.payload.size());
    last = seg;
  });

  network.start_all();
  ctx.sched.run_until(ctx.now() + sim::Duration::seconds(2));
  EXPECT_EQ(hub.established_sessions(), peers);
  const ip::Ipv4Prefix known(
      ip::Ipv4Addr(10, 0, static_cast<std::uint8_t>(prefixes / 2), 0), 24);
  EXPECT_NE(hub.routes().exact(known), nullptr);
  EXPECT_NE(next_seq, 0u);

  UpdateMessage update;
  update.as_path = {65001};
  update.next_hop = addr(0, 0);
  update.nlri = {known};
  auto repeat = [&] {
    transport::TcpSegment seg;
    seg.src_port = last.src_port;
    seg.dst_port = last.dst_port;
    seg.seq = next_seq;
    seg.ack = last.ack;
    seg.flags.ack = true;
    seg.payload = encode(update);
    next_seq += static_cast<std::uint32_t>(seg.payload.size());
    ip::Ipv4Header ih;
    ih.src = addr(0, 0);
    ih.dst = addr(0, 1);
    ih.protocol = ip::IpProto::kTcp;
    net::Frame f;
    f.src = spoke_mac;
    f.dst = net::MacAddr::broadcast();
    f.ethertype = net::EtherType::kIpv4;
    f.traffic_class = net::TrafficClass::kBgpUpdate;
    f.payload = ih.serialize(seg.serialize());
    return f;
  };
  net::Frame first = repeat();
  net::Frame second = repeat();
  const std::uint64_t received = hub.bgp_stats().updates_received;

  hub.handle_frame(hub.port(1), std::move(first));
  const std::size_t before = g_allocs;
  hub.handle_frame(hub.port(1), std::move(second));
  const std::size_t allocs = g_allocs - before;

  EXPECT_EQ(hub.bgp_stats().updates_received, received + 2);
  EXPECT_NE(hub.routes().exact(known), nullptr);
  return allocs;
}

TEST(UpdateAllocations, RepeatedUpdateCostIsIndependentOfPrefixCount) {
  EXPECT_EQ(repeated_update_allocs(4, 2), repeated_update_allocs(64, 2));
}

TEST(UpdateAllocations, RepeatedUpdateCostIsIndependentOfPeerCount) {
  EXPECT_EQ(repeated_update_allocs(4, 2), repeated_update_allocs(4, 8));
}

}  // namespace
}  // namespace mrmtp::bgp
