// Unit tests: BGP message codecs (RFC 4271 wire format, exact sizes), the
// stream reassembler, config-text generation (paper Listing 1), and the
// order in which a speaker emits UPDATEs.
#include <gtest/gtest.h>

#include "bgp/message.hpp"
#include "bgp/router.hpp"
#include "ip/packet.hpp"
#include "net/network.hpp"

namespace mrmtp::bgp {
namespace {

TEST(BgpCodecTest, KeepaliveIs19Bytes) {
  auto bytes = encode(KeepaliveMessage{});
  EXPECT_EQ(bytes.size(), kHeaderSize);
  // Marker of all ones.
  for (int i = 0; i < 16; ++i) EXPECT_EQ(bytes[static_cast<size_t>(i)], 0xff);
  EXPECT_EQ(bytes[18], 4);  // type
}

TEST(BgpCodecTest, OpenRoundTrip) {
  OpenMessage open{64512, 3, 0x0a0b0c0d};
  auto bytes = encode(open);
  EXPECT_EQ(bytes.size(), 29u);

  MessageReader reader;
  reader.append(bytes);
  BgpMessage msg;
  ASSERT_TRUE(reader.next(msg));
  const auto* parsed = std::get_if<OpenMessage>(&msg);
  ASSERT_NE(parsed, nullptr);
  EXPECT_EQ(parsed->asn, 64512u);
  EXPECT_EQ(parsed->hold_time_s, 3);
  EXPECT_EQ(parsed->bgp_id, 0x0a0b0c0du);
}

TEST(BgpCodecTest, UpdateWithNlriRoundTrip) {
  UpdateMessage u;
  u.as_path = {64513, 64600};
  u.next_hop = ip::Ipv4Addr::parse("172.16.0.1");
  u.nlri = {ip::Ipv4Prefix::parse("192.168.11.0/24"),
            ip::Ipv4Prefix::parse("192.168.12.0/24")};
  auto bytes = encode(u);

  MessageReader reader;
  reader.append(bytes);
  BgpMessage msg;
  ASSERT_TRUE(reader.next(msg));
  const auto* parsed = std::get_if<UpdateMessage>(&msg);
  ASSERT_NE(parsed, nullptr);
  EXPECT_EQ(parsed->as_path, (std::vector<std::uint32_t>{64513, 64600}));
  EXPECT_EQ(parsed->next_hop, u.next_hop);
  ASSERT_EQ(parsed->nlri.size(), 2u);
  EXPECT_EQ(parsed->nlri[0].str(), "192.168.11.0/24");
  EXPECT_TRUE(parsed->withdrawn.empty());
}

TEST(BgpCodecTest, WithdrawOnlyUpdate) {
  UpdateMessage u;
  u.withdrawn = {ip::Ipv4Prefix::parse("192.168.11.0/24")};
  auto bytes = encode(u);
  // 19 header + 2 withdrawn-len + 4 prefix + 2 attr-len = 27 bytes.
  EXPECT_EQ(bytes.size(), 27u);

  MessageReader reader;
  reader.append(bytes);
  BgpMessage msg;
  ASSERT_TRUE(reader.next(msg));
  const auto& parsed = std::get<UpdateMessage>(msg);
  ASSERT_EQ(parsed.withdrawn.size(), 1u);
  EXPECT_EQ(parsed.withdrawn[0].str(), "192.168.11.0/24");
  EXPECT_FALSE(parsed.has_nlri());
}

TEST(BgpCodecTest, PrefixEncodingUsesMinimalOctets) {
  UpdateMessage u;
  u.withdrawn = {ip::Ipv4Prefix::parse("10.0.0.0/8"),
                 ip::Ipv4Prefix::parse("10.1.0.0/16"),
                 ip::Ipv4Prefix::parse("0.0.0.0/0")};
  auto bytes = encode(u);
  // 19 + 2 + (1+1) + (1+2) + (1+0) + 2 = 29.
  EXPECT_EQ(bytes.size(), 29u);
  MessageReader reader;
  reader.append(bytes);
  BgpMessage msg;
  ASSERT_TRUE(reader.next(msg));
  const auto& parsed = std::get<UpdateMessage>(msg);
  EXPECT_EQ(parsed.withdrawn[0].str(), "10.0.0.0/8");
  EXPECT_EQ(parsed.withdrawn[1].str(), "10.1.0.0/16");
  EXPECT_EQ(parsed.withdrawn[2].str(), "0.0.0.0/0");
}

TEST(BgpCodecTest, NotificationRoundTrip) {
  auto bytes = encode(NotificationMessage{6, 2});
  EXPECT_EQ(bytes.size(), 21u);
  MessageReader reader;
  reader.append(bytes);
  BgpMessage msg;
  ASSERT_TRUE(reader.next(msg));
  const auto& parsed = std::get<NotificationMessage>(msg);
  EXPECT_EQ(parsed.code, 6);
  EXPECT_EQ(parsed.subcode, 2);
}

TEST(MessageReaderTest, ReassemblesSplitStream) {
  auto k = encode(KeepaliveMessage{});
  auto o = encode(OpenMessage{64512, 3, 1});
  std::vector<std::uint8_t> stream;
  stream.insert(stream.end(), k.begin(), k.end());
  stream.insert(stream.end(), o.begin(), o.end());

  MessageReader reader;
  // Feed in 5-byte pieces, as TCP segmentation might.
  for (std::size_t i = 0; i < stream.size(); i += 5) {
    std::size_t n = std::min<std::size_t>(5, stream.size() - i);
    reader.append(std::span(stream).subspan(i, n));
  }
  BgpMessage msg;
  ASSERT_TRUE(reader.next(msg));
  EXPECT_TRUE(std::holds_alternative<KeepaliveMessage>(msg));
  ASSERT_TRUE(reader.next(msg));
  EXPECT_TRUE(std::holds_alternative<OpenMessage>(msg));
  EXPECT_FALSE(reader.next(msg));
}

TEST(MessageReaderTest, IncompleteMessageReturnsNullopt) {
  auto k = encode(KeepaliveMessage{});
  MessageReader reader;
  reader.append(std::span(k).subspan(0, 10));
  BgpMessage msg;
  EXPECT_FALSE(reader.next(msg));
  reader.append(std::span(k).subspan(10));
  EXPECT_TRUE(reader.next(msg));
}

TEST(MessageReaderTest, ReusedMessageHoldsOnlyTheLatestUpdate) {
  // One BgpMessage takes an UPDATE, a KEEPALIVE and a shorter UPDATE: the
  // second UPDATE reuses the first's vectors and keeps none of its entries.
  UpdateMessage big;
  big.withdrawn = {ip::Ipv4Prefix::parse("10.9.0.0/16")};
  big.as_path = {64513, 64600, 64700};
  big.next_hop = ip::Ipv4Addr::parse("172.16.0.1");
  big.nlri = {ip::Ipv4Prefix::parse("192.168.11.0/24"),
              ip::Ipv4Prefix::parse("192.168.12.0/24")};
  UpdateMessage small;
  small.as_path = {64514};
  small.next_hop = ip::Ipv4Addr::parse("172.16.0.3");
  small.nlri = {ip::Ipv4Prefix::parse("192.168.13.0/24")};
  MessageReader reader;
  for (const net::Buffer& b :
       {encode(big), encode(KeepaliveMessage{}), encode(small)}) {
    reader.append(b);
  }
  BgpMessage msg;
  ASSERT_TRUE(reader.next(msg));
  EXPECT_EQ(std::get<UpdateMessage>(msg).nlri.size(), 2u);
  ASSERT_TRUE(reader.next(msg));
  EXPECT_TRUE(std::holds_alternative<KeepaliveMessage>(msg));
  ASSERT_TRUE(reader.next(msg));
  const auto& parsed = std::get<UpdateMessage>(msg);
  EXPECT_TRUE(parsed.withdrawn.empty());
  EXPECT_EQ(parsed.as_path, (std::vector<std::uint32_t>{64514}));
  EXPECT_EQ(parsed.next_hop, small.next_hop);
  ASSERT_EQ(parsed.nlri.size(), 1u);
  EXPECT_EQ(parsed.nlri[0].str(), "192.168.13.0/24");
  EXPECT_GE(parsed.as_path.capacity(), 3u);
  EXPECT_FALSE(reader.next(msg));
}

TEST(MessageReaderTest, BadMarkerThrows) {
  auto bytes = encode(KeepaliveMessage{});
  std::vector<std::uint8_t> k(bytes.begin(), bytes.end());
  k[3] = 0x00;
  MessageReader reader;
  reader.append(k);
  BgpMessage msg;
  EXPECT_THROW(reader.next(msg), util::CodecError);
}

TEST(MessageReaderTest, BadLengthThrows) {
  std::vector<std::uint8_t> bogus(19, 0xff);
  bogus[16] = 0;
  bogus[17] = 5;  // length 5 < header size
  MessageReader reader;
  reader.append(bogus);
  BgpMessage msg;
  EXPECT_THROW(reader.next(msg), util::CodecError);
}

TEST(BgpConfigTest, ConfigTextMatchesListing1Shape) {
  net::SimContext ctx(1);
  BgpConfig cfg;
  cfg.asn = 64512;
  cfg.enable_bfd = true;
  cfg.neighbors = {
      {ip::Ipv4Addr::parse("172.16.0.1"), ip::Ipv4Addr::parse("172.16.0.2"),
       64513},
      {ip::Ipv4Addr::parse("172.16.1.1"), ip::Ipv4Addr::parse("172.16.1.2"),
       64514},
  };
  BgpRouter router(ctx, "T-1", 3, cfg);
  std::string text = router.config_text();
  EXPECT_NE(text.find("frr defaults datacenter"), std::string::npos);
  EXPECT_NE(text.find("hostname T-1"), std::string::npos);
  EXPECT_NE(text.find("router bgp 64512"), std::string::npos);
  EXPECT_NE(text.find("timers bgp 1 3"), std::string::npos);
  EXPECT_NE(text.find("neighbor 172.16.0.2 remote-as 64513"),
            std::string::npos);
  EXPECT_NE(text.find("neighbor 172.16.0.2 bfd"), std::string::npos);
  EXPECT_NE(text.find("maximum-paths"), std::string::npos);
}

TEST(BgpConfigTest, ConfigGrowsWithNeighborCount) {
  net::SimContext ctx(1);
  auto make = [&ctx](int neighbors) {
    BgpConfig cfg;
    cfg.asn = 64512;
    for (int i = 0; i < neighbors; ++i) {
      cfg.neighbors.push_back(
          {ip::Ipv4Addr(static_cast<std::uint32_t>(2 * i)),
           ip::Ipv4Addr(static_cast<std::uint32_t>(2 * i + 1)),
           64600u + static_cast<std::uint32_t>(i)});
    }
    return cfg;
  };
  BgpRouter small(ctx, "small", 2, make(2));
  BgpRouter big(ctx, "big", 2, make(8));
  // The paper's configuration-burden point: per-router config scales with
  // interface count for BGP.
  EXPECT_GT(big.config_text().size(), small.config_text().size());
}

/// BGP speakers on hand-wired point-to-point /31 links, each started when a
/// test says, and a transcript of the UPDATEs one of them sends over one
/// link. Link i joins speakers (a, b) with a on 172.16.i.0 and b on
/// 172.16.i.1; the lower address opens the session, so listing the
/// late-starting side first lets its session come up as soon as it starts.
class Speakers {
 public:
  struct Spec {
    Spec(std::uint32_t asn_, std::vector<const char*> originate_ = {},
         sim::Duration mrai_ = {})
        : asn(asn_), originate(std::move(originate_)), mrai(mrai_) {}
    std::uint32_t asn;
    std::vector<const char*> originate;
    sim::Duration mrai;
  };

  Speakers(const std::vector<Spec>& specs,
           const std::vector<std::pair<std::size_t, std::size_t>>& links)
      : links_(links) {
    std::vector<BgpConfig> cfgs(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      cfgs[i].asn = specs[i].asn;
      cfgs[i].router_id = static_cast<std::uint32_t>(i + 1);
      cfgs[i].timers.mrai = specs[i].mrai;
      for (const char* p : specs[i].originate) {
        cfgs[i].originate.push_back(ip::Ipv4Prefix::parse(p));
      }
    }
    for (std::size_t l = 0; l < links.size(); ++l) {
      const auto [a, b] = links[l];
      cfgs[a].neighbors.push_back({addr(l, 0), addr(l, 1), specs[b].asn});
      cfgs[b].neighbors.push_back({addr(l, 1), addr(l, 0), specs[a].asn});
    }
    for (std::size_t i = 0; i < specs.size(); ++i) {
      routers_.push_back(&network_.add_node<BgpRouter>(
          "R" + std::to_string(i), 2, cfgs[i]));
    }
    for (std::size_t l = 0; l < links.size(); ++l) {
      const auto [a, b] = links[l];
      link_objs_.push_back(&network_.connect(*routers_[a], *routers_[b]));
      routers_[a]->configure_port(routers_[a]->port_count(), addr(l, 0), 31);
      routers_[b]->configure_port(routers_[b]->port_count(), addr(l, 1), 31);
    }
  }

  /// Records every UPDATE speaker `from` sends over link `link`, one line
  /// each: "W <prefixes>" for withdrawals, "A <AS path> : <prefixes>" for
  /// NLRI.
  void watch(std::size_t link, std::size_t from) {
    const net::MacAddr mac = port_toward(from, link).mac();
    link_objs_[link]->set_tap([this, mac](sim::Time, const net::Frame& f) {
      if (f.src != mac || f.ethertype != net::EtherType::kIpv4) return;
      std::span<const std::uint8_t> tcp;
      ip::Ipv4Header::parse(f.payload, tcp);
      auto seg = transport::TcpSegment::parse(
          std::vector<std::uint8_t>(tcp.begin(), tcp.end()));
      reader_.append(seg.payload);
      BgpMessage msg;
      while (reader_.next(msg)) {
        const auto* u = std::get_if<UpdateMessage>(&msg);
        if (u == nullptr) continue;
        if (!u->withdrawn.empty()) {
          std::string line = "W";
          for (const auto& p : u->withdrawn) line += " " + p.str();
          transcript.push_back(line);
        }
        if (u->has_nlri()) {
          std::string line = "A";
          for (std::uint32_t asn : u->as_path) line += " " + std::to_string(asn);
          line += " :";
          for (const auto& p : u->nlri) line += " " + p.str();
          transcript.push_back(line);
        }
      }
    });
  }

  void start_at(std::size_t router, sim::Duration at) {
    ctx_.sched.schedule_at(sim::Time::zero() + at,
                           [this, router] { routers_[router]->start(); });
  }
  void fail_at(std::size_t router, std::size_t link, sim::Duration at) {
    const std::uint32_t port = port_toward(router, link).number();
    ctx_.sched.schedule_at(sim::Time::zero() + at, [this, router, port] {
      routers_[router]->set_interface_down(port);
    });
  }
  void run_until(sim::Duration t) {
    ctx_.sched.run_until(sim::Time::zero() + t);
  }

  std::vector<std::string> transcript;

 private:
  static ip::Ipv4Addr addr(std::size_t link, std::uint8_t side) {
    return {172, 16, static_cast<std::uint8_t>(link), side};
  }
  net::Port& port_toward(std::size_t router, std::size_t link) {
    std::uint32_t port = 0;
    for (std::size_t l = 0; l <= link; ++l) {
      if (links_[l].first == router || links_[l].second == router) ++port;
    }
    return routers_[router]->port(port);
  }

  net::SimContext ctx_{5};
  net::Network network_{ctx_};
  std::vector<std::pair<std::size_t, std::size_t>> links_;
  std::vector<BgpRouter*> routers_;
  std::vector<net::Link*> link_objs_;
  MessageReader reader_;
};

// One MRAI-batched flush carrying withdrawals and NLRI under two AS paths:
// the withdrawals come first in ascending prefix order, then one UPDATE per
// AS path in lexicographic path order ([..., 65003, 65004] sorts before the
// shorter [..., 65005]), NLRI ascending. Each group's prefixes were first
// heard in descending order, so order of arrival cannot pass for either.
TEST(BgpEmissionOrderTest, FlushOrdersWithdrawalsThenPathsLexicographically) {
  enum : std::size_t { kHub, kObserver, kA1, kA2, kB1, kB2, kC, kE };
  const auto ms = [](std::int64_t v) { return sim::Duration::millis(v); };
  Speakers s({{65000, {}, sim::Duration::seconds(5)},
              {65009},
              {65001, {"10.0.9.0/24"}},
              {65001, {"10.0.1.0/24"}},
              {65005, {"10.0.7.0/24"}},
              {65005, {"10.0.2.0/24"}},
              {65003},
              {65004, {"10.0.5.0/24"}}},
             {{kObserver, kHub},
              {kA1, kHub},
              {kA2, kHub},
              {kB1, kHub},
              {kB2, kHub},
              {kC, kHub},
              {kE, kC}});
  s.watch(0, kHub);
  for (std::size_t r : {kHub, kObserver, kA1}) s.start_at(r, ms(0));
  s.start_at(kA2, ms(1000));
  // The hub's MRAI window that opened with A2's prefix (about t = 5 s)
  // closes at about t = 10 s; everything below lands inside it.
  s.start_at(kB1, ms(5500));
  s.fail_at(kHub, 1, ms(6000));
  s.fail_at(kHub, 2, ms(6000));
  s.start_at(kB2, ms(6500));
  s.start_at(kC, ms(7000));
  s.start_at(kE, ms(7000));
  s.run_until(ms(12000));

  EXPECT_EQ(s.transcript,
            (std::vector<std::string>{
                "A 65000 65001 : 10.0.9.0/24",
                "A 65000 65001 : 10.0.1.0/24",
                "W 10.0.1.0/24 10.0.9.0/24",
                "A 65000 65003 65004 : 10.0.5.0/24",
                "A 65000 65005 : 10.0.2.0/24 10.0.7.0/24",
            }));
}

// A session drop re-decides every prefix learned over it in ascending prefix
// order, although they were first heard as 10.0.5 and 10.0.9 together, then
// 10.0.1; with MRAI 0 each decision goes out at once. 10.0.5.0/24 also has
// equal-length paths via B (peer index 2) and C (peer index 3): the ECMP set
// lists candidates in peer-index order and its first is the best, so A's
// path (peer index 1) is advertised until the drop and B's after it, though
// C's session came up first.
TEST(BgpEmissionOrderTest, SessionDropRedecidesPrefixesInAscendingOrder) {
  enum : std::size_t { kHub, kObserver, kA, kB, kC, kG };
  const auto ms = [](std::int64_t v) { return sim::Duration::millis(v); };
  Speakers s({{65000},
              {65009},
              {65001, {"10.0.9.0/24", "10.0.5.0/24"}},
              {65002, {"10.0.5.0/24"}},
              {65003, {"10.0.5.0/24"}},
              {65007, {"10.0.1.0/24"}}},
             {{kObserver, kHub}, {kA, kHub}, {kB, kHub}, {kC, kHub}, {kG, kA}});
  s.watch(0, kHub);
  for (std::size_t r : {kHub, kObserver, kA}) s.start_at(r, ms(0));
  s.start_at(kG, ms(1000));
  s.start_at(kC, ms(1500));
  s.start_at(kB, ms(2000));
  s.fail_at(kHub, 1, ms(3000));
  s.run_until(ms(4000));

  EXPECT_EQ(s.transcript,
            (std::vector<std::string>{
                "A 65000 65001 : 10.0.5.0/24",
                "A 65000 65001 : 10.0.9.0/24",
                "A 65000 65001 65007 : 10.0.1.0/24",
                "W 10.0.1.0/24",
                "A 65000 65002 : 10.0.5.0/24",
                "W 10.0.9.0/24",
            }));
}

}  // namespace
}  // namespace mrmtp::bgp
