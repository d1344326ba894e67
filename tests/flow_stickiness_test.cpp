// Flow-stickiness regression tests for the rendezvous-hash path selection:
// when one member of an ECMP/uplink group dies, only the flows that member
// was carrying may move — every other flow must keep its path. The old
// `hash % n` pick remapped (n-1)/n of all flows on any membership change,
// which reordered nearly every TCP stream in the fabric on a single uplink
// failure.
#include <gtest/gtest.h>

#include <map>

#include "harness/deploy.hpp"
#include "harness/report.hpp"
#include "ip/route_table.hpp"
#include "transport/l3_node.hpp"

namespace mrmtp {
namespace {

using harness::Deployment;
using harness::Proto;

// The route-table cases drive the IP forwarding choice itself,
// L3Node::select_next_hop, on a router in its default (hrw) path-select mode.
TEST(HrwRouteTableTest, MemberLossRemapsOnlyItsFlows) {
  net::SimContext ctx;
  transport::L3Node router(ctx, "r", 1);
  ip::RouteTable& table = router.routes();
  const auto pfx = ip::Ipv4Prefix::parse("192.168.14.0/24");
  const auto dst = ip::Ipv4Addr::parse("192.168.14.1");
  std::vector<ip::NextHop> group{{ip::Ipv4Addr::parse("172.16.0.1"), 1},
                                 {ip::Ipv4Addr::parse("172.16.1.1"), 2},
                                 {ip::Ipv4Addr::parse("172.16.2.1"), 3},
                                 {ip::Ipv4Addr::parse("172.16.3.1"), 4}};
  table.set(pfx, ip::RouteProto::kBgp, group);

  constexpr std::uint64_t kFlows = 4096;
  std::vector<std::uint32_t> before(kFlows);
  for (std::uint64_t f = 0; f < kFlows; ++f) {
    before[f] = router.select_next_hop(dst, f * 0x9e3779b9u + 7)->port;
  }

  // Kill member 3 (port 3): re-install the route without it.
  std::vector<ip::NextHop> survivors{group[0], group[1], group[3]};
  table.set(pfx, ip::RouteProto::kBgp, survivors);

  std::uint64_t moved = 0;
  std::uint64_t orphaned = 0;
  for (std::uint64_t f = 0; f < kFlows; ++f) {
    std::uint32_t after = router.select_next_hop(dst, f * 0x9e3779b9u + 7)->port;
    if (before[f] == 3) {
      ++orphaned;
      EXPECT_NE(after, 3u);
    } else if (after != before[f]) {
      ++moved;
    }
  }
  // The dead member carried roughly a quarter of the flows, and nothing else
  // moved — the property `hash % n` cannot provide.
  EXPECT_EQ(moved, 0u);
  EXPECT_GT(orphaned, kFlows / 8);
  EXPECT_LT(orphaned, kFlows / 2);
}

TEST(HrwRouteTableTest, MemberReturnReclaimsOnlyItsFlows) {
  net::SimContext ctx;
  transport::L3Node router(ctx, "r", 1);
  ip::RouteTable& table = router.routes();
  const auto pfx = ip::Ipv4Prefix::parse("10.0.0.0/8");
  const auto dst = ip::Ipv4Addr::parse("10.1.2.3");
  std::vector<ip::NextHop> survivors{{ip::Ipv4Addr::parse("172.16.0.1"), 1},
                                     {ip::Ipv4Addr::parse("172.16.1.1"), 2}};
  table.set(pfx, ip::RouteProto::kBgp, survivors);

  constexpr std::uint64_t kFlows = 2048;
  std::vector<std::uint32_t> before(kFlows);
  for (std::uint64_t f = 0; f < kFlows; ++f) {
    before[f] = router.select_next_hop(dst, f * 1315423911u)->port;
  }

  // The third member comes (back) up.
  std::vector<ip::NextHop> full = survivors;
  full.push_back({ip::Ipv4Addr::parse("172.16.2.1"), 3});
  table.set(pfx, ip::RouteProto::kBgp, full);

  std::uint64_t claimed = 0;
  for (std::uint64_t f = 0; f < kFlows; ++f) {
    std::uint32_t after = router.select_next_hop(dst, f * 1315423911u)->port;
    if (after == 3) {
      ++claimed;
    } else {
      // Flows the newcomer did not claim must not have moved at all.
      EXPECT_EQ(after, before[f]);
    }
  }
  EXPECT_GT(claimed, kFlows / 8);
  EXPECT_LT(claimed, kFlows / 2);
}

/// Maps each of `flows` source ports to the ToR uplink it rides, by sending
/// each flow's probes alone and diffing L-1-1's per-uplink tx counters.
std::map<std::uint16_t, std::uint32_t> map_flows_to_uplinks(
    net::SimContext& ctx, Deployment& dep, const topo::ClosBlueprint& bp,
    const std::vector<std::uint16_t>& flows, net::TrafficClass tc) {
  auto& sender = dep.host(0);
  auto last = static_cast<std::uint32_t>(dep.host_count() - 1);
  auto& receiver = dep.host(last);
  net::Node& tor = dep.router(bp.leaf(1, 1));
  const std::uint32_t uplinks = bp.params().spines_per_pod;

  std::map<std::uint16_t, std::uint32_t> mapping;
  for (std::uint16_t src_port : flows) {
    std::vector<std::uint64_t> snap(uplinks + 1);
    for (std::uint32_t p = 1; p <= uplinks; ++p) {
      snap[p] = tor.port(p).tx_stats().of(tc).frames;
    }
    constexpr int kProbes = 3;
    for (int i = 0; i < kProbes; ++i) {
      traffic::ProbePacket probe;
      probe.seq = static_cast<std::uint64_t>(src_port) * 100 +
                  static_cast<std::uint64_t>(i);
      sender.send_udp(sender.addr(), receiver.addr(), src_port, 7001,
                      probe.serialize(64), net::TrafficClass::kIpData);
    }
    ctx.sched.run_until(ctx.now() + sim::Duration::millis(20));
    for (std::uint32_t p = 1; p <= uplinks; ++p) {
      std::uint64_t delta = tor.port(p).tx_stats().of(tc).frames - snap[p];
      if (delta == 0) continue;
      EXPECT_EQ(delta, static_cast<std::uint64_t>(kProbes))
          << "flow " << src_port << " split across uplinks";
      EXPECT_FALSE(mapping.contains(src_port));
      mapping[src_port] = p;
    }
    EXPECT_TRUE(mapping.contains(src_port)) << "flow " << src_port
                                            << " left no uplink trace";
  }
  return mapping;
}

class FabricStickinessTest : public ::testing::TestWithParam<Proto> {};

TEST_P(FabricStickinessTest, UplinkFailureRemapsOnlyItsFlows) {
  const Proto proto = GetParam();
  topo::ClosParams params = topo::ClosParams::paper_2pod();
  params.spines_per_pod = 4;
  params.top_spines = 8;

  net::SimContext ctx(17);
  topo::ClosBlueprint bp(params);
  Deployment dep(ctx, bp, proto, {});
  dep.host(static_cast<std::uint32_t>(dep.host_count() - 1)).listen();
  dep.start();
  ctx.sched.run_until(sim::Time::from_ns(sim::Duration::seconds(5).ns()));
  ASSERT_TRUE(dep.converged());

  std::vector<std::uint16_t> flows;
  for (std::uint16_t f = 0; f < 48; ++f) {
    flows.push_back(static_cast<std::uint16_t>(9000 + f));
  }
  const auto tc = proto == Proto::kMtp ? net::TrafficClass::kMtpData
                                       : net::TrafficClass::kIpData;
  auto before = map_flows_to_uplinks(ctx, dep, bp, flows, tc);

  // Pick a loaded uplink and fail it at the ToR side; wait out detection and
  // reconvergence (BGP needs its 3 s hold timer without BFD).
  std::uint32_t dead = before.begin()->second;
  dep.router(bp.leaf(1, 1)).set_interface_down(dead);
  ctx.sched.run_until(ctx.now() + sim::Duration::seconds(4));

  auto after = map_flows_to_uplinks(ctx, dep, bp, flows, tc);

  std::uint64_t moved = 0;
  std::uint64_t orphaned = 0;
  for (std::uint16_t f : flows) {
    ASSERT_TRUE(before.contains(f) && after.contains(f));
    EXPECT_NE(after[f], dead) << "flow " << f << " still on the dead uplink";
    if (before[f] == dead) {
      ++orphaned;
    } else if (after[f] != before[f]) {
      ++moved;
    }
  }
  EXPECT_EQ(moved, 0u) << "flows not on the failed uplink were remapped";
  EXPECT_GT(orphaned, 0u);

  // The hot-path report stays renderable after a failure (smoke check).
  std::string report = harness::hot_path_table(dep).str();
  EXPECT_NE(report.find("[scheduler]"), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(Protocols, FabricStickinessTest,
                         ::testing::Values(Proto::kMtp, Proto::kBgp),
                         [](const auto& param_info) {
                           return param_info.param == Proto::kMtp
                                      ? std::string("Mtp")
                                      : std::string("Bgp");
                         });

}  // namespace
}  // namespace mrmtp
