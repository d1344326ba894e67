// Unit tests: IPv4 addressing, header codec/checksum, and the LPM/ECMP route
// table — including a randomized LPM-vs-linear-scan oracle property test.
#include <gtest/gtest.h>

#include <set>

#include "ip/packet.hpp"
#include "ip/route_table.hpp"
#include "sim/random.hpp"
#include "transport/l3_node.hpp"

namespace mrmtp::ip {
namespace {

TEST(AddrTest, ParseAndFormat) {
  Ipv4Addr a = Ipv4Addr::parse("192.168.11.1");
  EXPECT_EQ(a.str(), "192.168.11.1");
  EXPECT_EQ(a.octet(0), 192);
  EXPECT_EQ(a.third_octet(), 11);  // the MR-MTP VID derivation byte
  EXPECT_EQ(Ipv4Addr(10, 0, 0, 1).value(), 0x0a000001u);
}

TEST(AddrTest, ParseRejectsMalformed) {
  EXPECT_THROW(Ipv4Addr::parse("1.2.3"), util::CodecError);
  EXPECT_THROW(Ipv4Addr::parse("1.2.3.4.5"), util::CodecError);
  EXPECT_THROW(Ipv4Addr::parse("1.2.3.256"), util::CodecError);
  EXPECT_THROW(Ipv4Addr::parse("a.b.c.d"), util::CodecError);
  EXPECT_THROW(Ipv4Addr::parse(""), util::CodecError);
}

TEST(PrefixTest, NormalizesHostBits) {
  Ipv4Prefix p(Ipv4Addr::parse("192.168.11.77"), 24);
  EXPECT_EQ(p.str(), "192.168.11.0/24");
  EXPECT_TRUE(p.contains(Ipv4Addr::parse("192.168.11.200")));
  EXPECT_FALSE(p.contains(Ipv4Addr::parse("192.168.12.1")));
  EXPECT_EQ(p.host(254).str(), "192.168.11.254");
}

TEST(PrefixTest, EdgeLengths) {
  Ipv4Prefix all(Ipv4Addr::parse("1.2.3.4"), 0);
  EXPECT_TRUE(all.contains(Ipv4Addr::parse("255.255.255.255")));
  Ipv4Prefix host(Ipv4Addr::parse("10.0.0.1"), 32);
  EXPECT_TRUE(host.contains(Ipv4Addr::parse("10.0.0.1")));
  EXPECT_FALSE(host.contains(Ipv4Addr::parse("10.0.0.2")));
  Ipv4Prefix p2p(Ipv4Addr::parse("172.16.0.0"), 31);
  EXPECT_TRUE(p2p.contains(Ipv4Addr::parse("172.16.0.1")));
  EXPECT_FALSE(p2p.contains(Ipv4Addr::parse("172.16.0.2")));
}

TEST(PrefixTest, ParseForm) {
  Ipv4Prefix p = Ipv4Prefix::parse("10.1.0.0/16");
  EXPECT_EQ(p.length(), 16);
  EXPECT_THROW(Ipv4Prefix::parse("10.1.0.0"), util::CodecError);
  EXPECT_THROW(Ipv4Prefix::parse("10.1.0.0/33"), util::CodecError);
}

TEST(PrefixHashTest, AdjacentPrefixesSpreadAcrossBuckets) {
  // The old `network * 33 + length` hash stepped by 33 * 256 = 8448 between
  // adjacent /24s — a multiple of 64, so every rack prefix landed in the
  // same low-bit bucket class of an unordered_map. The mixed hash must
  // spread them.
  std::set<std::size_t> buckets;
  std::set<std::size_t> hashes;
  std::hash<Ipv4Prefix> h;
  for (std::uint32_t i = 0; i < 256; ++i) {
    Ipv4Prefix p(Ipv4Addr(10, 0, static_cast<std::uint8_t>(i), 0), 24);
    std::size_t v = h(p);
    hashes.insert(v);
    buckets.insert(v % 64);
  }
  EXPECT_EQ(hashes.size(), 256u);
  EXPECT_GT(buckets.size(), 48u);
  // Same network, different length -> different hash.
  EXPECT_NE(h(Ipv4Prefix(Ipv4Addr(10, 0, 0, 0), 24)),
            h(Ipv4Prefix(Ipv4Addr(10, 0, 0, 0), 25)));
}

TEST(HeaderTest, SerializeParseRoundTrip) {
  Ipv4Header h;
  h.src = Ipv4Addr::parse("192.168.11.1");
  h.dst = Ipv4Addr::parse("192.168.14.1");
  h.protocol = IpProto::kUdp;
  h.ttl = 17;
  h.identification = 999;
  std::vector<std::uint8_t> payload{1, 2, 3, 4, 5};
  auto bytes = h.serialize(payload);
  ASSERT_EQ(bytes.size(), Ipv4Header::kSize + payload.size());

  std::span<const std::uint8_t> out_payload;
  Ipv4Header parsed = Ipv4Header::parse(bytes, out_payload);
  EXPECT_EQ(parsed.src, h.src);
  EXPECT_EQ(parsed.dst, h.dst);
  EXPECT_EQ(parsed.protocol, IpProto::kUdp);
  EXPECT_EQ(parsed.ttl, 17);
  EXPECT_EQ(parsed.identification, 999);
  ASSERT_EQ(out_payload.size(), 5u);
  EXPECT_EQ(out_payload[4], 5);
}

TEST(HeaderTest, ChecksumValidates) {
  Ipv4Header h;
  h.src = Ipv4Addr::parse("1.2.3.4");
  h.dst = Ipv4Addr::parse("5.6.7.8");
  auto bytes = h.serialize({});
  // Verify: checksum over the header must be zero.
  EXPECT_EQ(internet_checksum(std::span(bytes).subspan(0, 20)), 0);
  // Corrupt a byte -> parse must throw.
  bytes[8] ^= 0xff;
  std::span<const std::uint8_t> p;
  EXPECT_THROW(Ipv4Header::parse(bytes, p), util::CodecError);
}

TEST(HeaderTest, RejectsTruncationAndBadVersion) {
  Ipv4Header h;
  auto bytes = h.serialize({});
  std::span<const std::uint8_t> p;
  EXPECT_THROW(
      Ipv4Header::parse(std::span(bytes).subspan(0, 10), p), util::CodecError);
  bytes[0] = 0x65;  // version 6
  EXPECT_THROW(Ipv4Header::parse(bytes, p), util::CodecError);
}

TEST(HeaderTest, OptionsRoundTripAndShiftPayload) {
  Ipv4Header h;
  h.src = Ipv4Addr::parse("192.168.11.1");
  h.dst = Ipv4Addr::parse("192.168.14.1");
  h.protocol = IpProto::kUdp;
  h.options = {0x94, 0x04, 0x00, 0x00,   // router alert
               0x01, 0x01, 0x01, 0x01};  // NOP padding
  std::vector<std::uint8_t> payload{9, 8, 7, 6};
  auto bytes = h.serialize(payload);
  ASSERT_EQ(bytes.size(), Ipv4Header::kSize + 8 + payload.size());
  EXPECT_EQ(bytes[0], 0x47);  // version 4, IHL 7

  std::span<const std::uint8_t> out_payload;
  Ipv4Header parsed = Ipv4Header::parse(bytes, out_payload);
  EXPECT_EQ(parsed.options, h.options);
  EXPECT_EQ(parsed.header_length(), 28u);
  // The payload span must start after the options, so the transport ports a
  // flow hash reads are the real ports, not option bytes.
  ASSERT_EQ(out_payload.size(), payload.size());
  EXPECT_EQ(out_payload[0], 9);
  EXPECT_EQ(Ipv4Header::payload_offset(bytes), 28u);
}

TEST(HeaderTest, RejectsMalformedOptions) {
  Ipv4Header h;
  h.options = {0x01, 0x01, 0x01};  // not a multiple of 4
  EXPECT_THROW(h.serialize({}), util::CodecError);
  h.options.assign(44, 0x01);  // over the 40-byte cap
  EXPECT_THROW(h.serialize({}), util::CodecError);

  h.options.clear();
  auto bytes = h.serialize({});
  bytes[0] = 0x44;  // IHL 4 < minimum 5
  std::span<const std::uint8_t> p;
  EXPECT_THROW(Ipv4Header::parse(bytes, p), util::CodecError);
  EXPECT_THROW(static_cast<void>(Ipv4Header::payload_offset(bytes)),
               util::CodecError);
  EXPECT_THROW(static_cast<void>(Ipv4Header::payload_offset({})),
               util::CodecError);
}

class RouteTableTest : public ::testing::Test {
 protected:
  RouteTable table_;
};

TEST_F(RouteTableTest, LongestPrefixWins) {
  table_.set(Ipv4Prefix::parse("10.0.0.0/8"), RouteProto::kBgp,
             {{Ipv4Addr::parse("1.1.1.1"), 1}});
  table_.set(Ipv4Prefix::parse("10.1.0.0/16"), RouteProto::kBgp,
             {{Ipv4Addr::parse("2.2.2.2"), 2}});
  table_.set(Ipv4Prefix::parse("10.1.2.0/24"), RouteProto::kBgp,
             {{Ipv4Addr::parse("3.3.3.3"), 3}});

  EXPECT_EQ(table_.lookup(Ipv4Addr::parse("10.1.2.9"))->nexthops[0].port, 3u);
  EXPECT_EQ(table_.lookup(Ipv4Addr::parse("10.1.9.9"))->nexthops[0].port, 2u);
  EXPECT_EQ(table_.lookup(Ipv4Addr::parse("10.9.9.9"))->nexthops[0].port, 1u);
  EXPECT_EQ(table_.lookup(Ipv4Addr::parse("11.0.0.1")), nullptr);
}

TEST_F(RouteTableTest, DefaultRouteMatchesEverything) {
  table_.set(Ipv4Prefix::parse("0.0.0.0/0"), RouteProto::kStatic,
             {{Ipv4Addr::parse("9.9.9.9"), 7}});
  EXPECT_EQ(table_.lookup(Ipv4Addr::parse("200.1.2.3"))->nexthops[0].port, 7u);
}

TEST(EcmpSelectTest, EcmpSelectIsDeterministicPerHash) {
  // The forwarding choice itself: an IP router's select_next_hop in its
  // default (hrw) path-select mode.
  net::SimContext ctx;
  transport::L3Node router(ctx, "r", 1);
  router.routes().set(Ipv4Prefix::parse("192.168.14.0/24"), RouteProto::kBgp,
                      {{Ipv4Addr::parse("172.16.0.1"), 3},
                       {Ipv4Addr::parse("172.16.8.1"), 4}});
  auto dst = Ipv4Addr::parse("192.168.14.1");
  EXPECT_EQ(router.select_next_hop(Ipv4Addr::parse("10.0.0.1"), 1), nullptr);
  // Same flow hash always lands on the same member (flow affinity), and
  // across many hashes the rendezvous pick uses every member.
  std::set<std::uint32_t> ports;
  for (std::uint64_t f = 0; f < 64; ++f) {
    const NextHop* pick = router.select_next_hop(dst, f);
    ASSERT_NE(pick, nullptr);
    EXPECT_EQ(router.select_next_hop(dst, f)->port, pick->port);
    ports.insert(pick->port);
  }
  EXPECT_EQ(ports, (std::set<std::uint32_t>{3, 4}));
}

TEST_F(RouteTableTest, ReplaceAndRemove) {
  auto p = Ipv4Prefix::parse("10.0.0.0/24");
  table_.set(p, RouteProto::kBgp, {{Ipv4Addr::parse("1.1.1.1"), 1}});
  EXPECT_EQ(table_.size(), 1u);
  table_.set(p, RouteProto::kBgp, {{Ipv4Addr::parse("2.2.2.2"), 2}});
  EXPECT_EQ(table_.size(), 1u);
  EXPECT_EQ(table_.exact(p)->nexthops[0].port, 2u);
  EXPECT_TRUE(table_.remove(p));
  EXPECT_FALSE(table_.remove(p));
  EXPECT_EQ(table_.size(), 0u);
  // Setting with an empty next-hop set removes.
  table_.set(p, RouteProto::kBgp, {{Ipv4Addr::parse("1.1.1.1"), 1}});
  table_.set(p, RouteProto::kBgp, {});
  EXPECT_EQ(table_.size(), 0u);
}

TEST_F(RouteTableTest, HostEpochMovesOnlyForHostAndLinkRoutes) {
  // A link peer's answer depends only on /31 and /32 routes, so BGP's /24
  // installs and removals must leave host_epoch() alone while epoch()
  // moves; any /31 or /32 change, and clear(), move both.
  const auto h0 = table_.host_epoch();
  const auto e0 = table_.epoch();
  const auto rack = Ipv4Prefix::parse("192.168.11.0/24");
  table_.set(rack, RouteProto::kBgp, {{Ipv4Addr::parse("172.16.0.1"), 1}});
  table_.set(rack, RouteProto::kBgp, {{Ipv4Addr::parse("172.16.0.3"), 2}});
  EXPECT_TRUE(table_.remove(rack));
  EXPECT_EQ(table_.host_epoch(), h0);
  EXPECT_EQ(table_.epoch(), e0 + 3);

  auto moves = [this](auto&& change) {
    const auto before = table_.host_epoch();
    change();
    return table_.host_epoch() > before;
  };
  const auto link = Ipv4Prefix::parse("172.16.0.0/31");
  const auto host = Ipv4Prefix::parse("172.16.0.1/32");
  EXPECT_TRUE(moves([&] {
    table_.add_connected(link, 1, Ipv4Addr::parse("172.16.0.0"));
  }));
  EXPECT_TRUE(moves([&] {
    table_.set(link, RouteProto::kStatic, {{Ipv4Addr::parse("10.0.0.1"), 2}});
  }));
  EXPECT_TRUE(moves([&] { table_.remove(link); }));
  EXPECT_TRUE(moves([&] {
    table_.set(host, RouteProto::kBgp, {{Ipv4Addr::parse("10.0.0.1"), 2}});
  }));
  EXPECT_TRUE(moves([&] { table_.set(host, RouteProto::kBgp, {}); }));
  EXPECT_FALSE(moves([&] { table_.remove(host); }));  // already gone
  EXPECT_TRUE(moves([&] { table_.clear(); }));
}

TEST_F(RouteTableTest, DumpMatchesListing3Format) {
  table_.add_connected(Ipv4Prefix::parse("172.16.0.0/24"), 3,
                       Ipv4Addr::parse("172.16.0.2"));
  table_.set(Ipv4Prefix::parse("192.168.2.0/24"), RouteProto::kBgp,
             {{Ipv4Addr::parse("172.16.0.1"), 3},
              {Ipv4Addr::parse("172.16.8.1"), 4}});
  table_.set(Ipv4Prefix::parse("192.168.0.0/24"), RouteProto::kBgp,
             {{Ipv4Addr::parse("172.16.16.2"), 2}});
  std::string dump = table_.dump();
  EXPECT_NE(dump.find("172.16.0.0/24 dev eth3 proto kernel scope link src "
                      "172.16.0.2"),
            std::string::npos);
  EXPECT_NE(dump.find("192.168.0.0/24 via 172.16.16.2 dev eth2 proto bgp "
                      "metric 20"),
            std::string::npos);
  EXPECT_NE(dump.find("192.168.2.0/24 proto bgp metric 20"), std::string::npos);
  EXPECT_NE(dump.find("\tnexthop via 172.16.0.1 dev eth3 weight 1"),
            std::string::npos);
}

TEST_F(RouteTableTest, MemoryBytesGrowWithRoutes) {
  std::size_t empty = table_.memory_bytes();
  for (int i = 0; i < 16; ++i) {
    table_.set(Ipv4Prefix(Ipv4Addr(10, 0, static_cast<std::uint8_t>(i), 0), 24),
               RouteProto::kBgp, {{Ipv4Addr::parse("1.1.1.1"), 1}});
  }
  EXPECT_GT(table_.memory_bytes(), empty);
}

// Property test: LPM agrees with a brute-force linear scan oracle on
// randomized tables and lookups.
class LpmOracleTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LpmOracleTest, MatchesLinearScan) {
  sim::Rng rng(GetParam());
  RouteTable table;
  std::vector<Route> oracle;

  for (int i = 0; i < 200; ++i) {
    auto len = static_cast<std::uint8_t>(rng.range(0, 32));
    Ipv4Prefix prefix(Ipv4Addr(static_cast<std::uint32_t>(rng.next())), len);
    std::vector<NextHop> hops{
        {Ipv4Addr(static_cast<std::uint32_t>(rng.next())),
         static_cast<std::uint32_t>(rng.range(1, 8))}};
    table.set(prefix, RouteProto::kBgp, hops);
    std::erase_if(oracle, [&](const Route& r) { return r.prefix == prefix; });
    oracle.push_back(Route{prefix, RouteProto::kBgp, 20, {}, hops});
  }

  for (int i = 0; i < 500; ++i) {
    Ipv4Addr dst(static_cast<std::uint32_t>(rng.next()));
    const Route* got = table.lookup(dst);
    const Route* want = nullptr;
    for (const Route& r : oracle) {
      if (r.prefix.contains(dst) &&
          (want == nullptr || r.prefix.length() > want->prefix.length())) {
        want = &r;
      }
    }
    if (want == nullptr) {
      EXPECT_EQ(got, nullptr);
    } else {
      ASSERT_NE(got, nullptr) << dst.str();
      EXPECT_EQ(got->prefix, want->prefix) << dst.str();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, LpmOracleTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace mrmtp::ip
