// Unit tests: UDP codec and TCP-lite — handshake, segmentation, delayed
// ACKs, retransmission under loss/reorder (property-tested), reset handling,
// and the 85-byte BGP-keepalive frame arithmetic the paper reports.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "net/network.hpp"
#include "transport/l3_node.hpp"

namespace mrmtp::transport {
namespace {

/// Two endpoints joined by an in-memory channel with configurable loss,
/// duplication, and jitter; packets travel as scheduled events.
struct ChannelParams {
  sim::Duration delay = sim::Duration::micros(50);
  double loss = 0.0;
  sim::Duration jitter{};
};

class Channel {
 public:
  class Endpoint : public IpSender {
   public:
    Endpoint(Channel& channel, int side)
        : channel_(channel), side_(side), tcp_(*this) {}

    void send_ip(ip::Ipv4Addr src, ip::Ipv4Addr dst, ip::IpProto proto,
                 net::Buffer payload,
                 net::TrafficClass traffic_class) override {
      (void)proto;
      channel_.deliver(side_, src, dst, std::move(payload), traffic_class);
    }
    net::SimContext& sim() override { return channel_.ctx_; }

    TcpStack& tcp() { return tcp_; }
    std::uint64_t frames_sent = 0;
    std::uint64_t ack_frames_sent = 0;

   private:
    Channel& channel_;
    int side_;
    TcpStack tcp_;
  };

  explicit Channel(std::uint64_t seed, ChannelParams params = {})
      : ctx_(seed),
        params_(params),
        a_(*this, 0),
        b_(*this, 1) {}

  void deliver(int from_side, ip::Ipv4Addr src, ip::Ipv4Addr dst,
               net::Buffer payload, net::TrafficClass tc) {
    Endpoint& sender = from_side == 0 ? a_ : b_;
    ++sender.frames_sent;
    if (tc == net::TrafficClass::kTcpAck) ++sender.ack_frames_sent;
    if (from_side == 0 && tc == net::TrafficClass::kBgpUpdate) {
      update_refcounts.push_back(payload.refcount());
    }
    if (from_side == 0 && drop_next_from_a && !payload.empty() &&
        tc != net::TrafficClass::kTcpAck) {
      drop_next_from_a = false;
      return;
    }
    if (params_.loss > 0 && ctx_.rng.chance(params_.loss)) return;
    sim::Duration d = params_.delay;
    if (params_.jitter > sim::Duration{}) {
      d = d + sim::Duration::nanos(static_cast<std::int64_t>(
                  ctx_.rng.below(static_cast<std::uint64_t>(params_.jitter.ns()))));
    }
    Endpoint& to = from_side == 0 ? b_ : a_;
    ctx_.sched.schedule_after(d, [&to, src, dst, payload = std::move(payload)] {
      to.tcp().handle_packet(src, dst, payload);
    });
  }

  net::SimContext ctx_;
  ChannelParams params_;
  bool drop_next_from_a = false;
  /// Slab reference count of every UPDATE-class frame side a sent.
  std::vector<std::uint32_t> update_refcounts;
  Endpoint a_;
  Endpoint b_;
};

const auto kAddrA = ip::Ipv4Addr::parse("172.16.0.0");
const auto kAddrB = ip::Ipv4Addr::parse("172.16.0.1");

TEST(UdpTest, HeaderRoundTrip) {
  UdpHeader h{1234, 3784};
  std::vector<std::uint8_t> payload{9, 8, 7};
  auto bytes = h.serialize(payload);
  ASSERT_EQ(bytes.size(), 11u);
  std::span<const std::uint8_t> out;
  UdpHeader parsed = UdpHeader::parse(bytes, out);
  EXPECT_EQ(parsed.src_port, 1234);
  EXPECT_EQ(parsed.dst_port, 3784);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0], 9);
}

TEST(TcpSegmentTest, HeaderIs32Bytes) {
  TcpSegment seg;
  seg.src_port = 20000;
  seg.dst_port = 179;
  seg.flags.ack = true;
  auto bytes = seg.serialize();
  EXPECT_EQ(bytes.size(), TcpSegment::kHeaderSize);
  // A 19-byte BGP KEEPALIVE under Ethernet+IP+TCP: 14+20+32+19 = 85 bytes,
  // the exact frame size the paper reports (Section VII.F).
  EXPECT_EQ(14 + 20 + TcpSegment::kHeaderSize + 19, 85u);
}

TEST(TcpSegmentTest, RoundTripFlagsAndPayload) {
  TcpSegment seg;
  seg.src_port = 7;
  seg.dst_port = 8;
  seg.seq = 111;
  seg.ack = 222;
  seg.flags.syn = true;
  seg.flags.ack = true;
  seg.payload = {1, 2, 3};
  TcpSegment parsed = TcpSegment::parse(seg.serialize());
  EXPECT_EQ(parsed.seq, 111u);
  EXPECT_EQ(parsed.ack, 222u);
  EXPECT_TRUE(parsed.flags.syn);
  EXPECT_TRUE(parsed.flags.ack);
  EXPECT_FALSE(parsed.flags.rst);
  EXPECT_EQ(parsed.payload, (std::vector<std::uint8_t>{1, 2, 3}));
}

struct Collected {
  std::vector<std::uint8_t> data;
  bool established = false;
  bool closed = false;
};

TcpConnection::Callbacks collect(Collected& c) {
  return {
      .on_established = [&c] { c.established = true; },
      .on_data =
          [&c](std::span<const std::uint8_t> d) {
            c.data.insert(c.data.end(), d.begin(), d.end());
          },
      .on_closed = [&c] { c.closed = true; },
  };
}

TEST(TcpLiteTest, HandshakeAndBidirectionalData) {
  Channel ch(1);
  Collected ca, cb;
  ch.b_.tcp().listen(179, [&cb](TcpConnection& conn) {
    conn.set_callbacks(collect(cb));
  });
  TcpConnection& conn =
      ch.a_.tcp().connect(kAddrA, 20000, kAddrB, 179, collect(ca));
  ch.ctx_.sched.run();
  ASSERT_TRUE(ca.established);
  ASSERT_TRUE(cb.established);

  conn.send({'h', 'i'}, net::TrafficClass::kBgpUpdate);
  ch.ctx_.sched.run();
  EXPECT_EQ(cb.data, (std::vector<std::uint8_t>{'h', 'i'}));
  EXPECT_EQ(ch.b_.tcp().connection_count(), 1u);
}

TEST(TcpLiteTest, LargeTransferSegmentsAtMss) {
  Channel ch(2);
  Collected ca, cb;
  ch.b_.tcp().listen(179, [&cb](TcpConnection& conn) {
    conn.set_callbacks(collect(cb));
  });
  TcpConnection& conn =
      ch.a_.tcp().connect(kAddrA, 20000, kAddrB, 179, collect(ca));
  ch.ctx_.sched.run();

  std::vector<std::uint8_t> blob(10000);
  for (std::size_t i = 0; i < blob.size(); ++i) {
    blob[i] = static_cast<std::uint8_t>(i * 7);
  }
  conn.send(blob, net::TrafficClass::kBgpUpdate);
  ch.ctx_.sched.run();
  EXPECT_EQ(cb.data, blob);
}

// A segment that is exactly one queued message copies the message once, as
// its TCP header is prepended: the send queue keeps the original for
// retransmission, and the frame handed to the IP layer owns its slab alone
// (a sharded run passes it to another thread). The retransmission does the
// same, and neither copy changes the queued bytes.
TEST(TcpLiteTest, SentSegmentsNeverShareTheQueuedSlab) {
  Channel ch(12);
  Collected ca, cb;
  ch.b_.tcp().listen(179, [&cb](TcpConnection& conn) {
    conn.set_callbacks(collect(cb));
  });
  TcpConnection& conn =
      ch.a_.tcp().connect(kAddrA, 20000, kAddrB, 179, collect(ca));
  ch.ctx_.sched.run();

  const std::vector<std::uint8_t> message(40, 0x5a);
  ch.drop_next_from_a = true;
  const net::BufferPoolStats before = net::BufferPool::instance().stats();
  conn.send(net::Buffer::copy_of(message), net::TrafficClass::kBgpUpdate);
  const net::BufferPoolStats& now = net::BufferPool::instance().stats();
  EXPECT_EQ(now.prepend_copies - before.prepend_copies, 1u);
  EXPECT_EQ(ch.update_refcounts, (std::vector<std::uint32_t>{1}));

  ch.ctx_.sched.run();  // the first copy is dropped; the RTO resends it
  EXPECT_EQ(now.prepend_copies - before.prepend_copies, 2u);
  EXPECT_EQ(ch.update_refcounts, (std::vector<std::uint32_t>{1, 1}));
  EXPECT_EQ(cb.data, message);
}

TEST(TcpLiteTest, SendBeforeEstablishedIsQueued) {
  Channel ch(3);
  Collected ca, cb;
  ch.b_.tcp().listen(179, [&cb](TcpConnection& conn) {
    conn.set_callbacks(collect(cb));
  });
  TcpConnection& conn =
      ch.a_.tcp().connect(kAddrA, 20000, kAddrB, 179, collect(ca));
  conn.send({'x'}, net::TrafficClass::kBgpUpdate);  // still in handshake
  ch.ctx_.sched.run();
  EXPECT_EQ(cb.data, (std::vector<std::uint8_t>{'x'}));
}

TEST(TcpLiteTest, PureAcksAreClassifiedSeparately) {
  Channel ch(4);
  Collected ca, cb;
  ch.b_.tcp().listen(179, [&cb](TcpConnection& conn) {
    conn.set_callbacks(collect(cb));
  });
  TcpConnection& conn =
      ch.a_.tcp().connect(kAddrA, 20000, kAddrB, 179, collect(ca));
  ch.ctx_.sched.run();
  std::uint64_t acks_before = ch.b_.ack_frames_sent;
  conn.send({'d'}, net::TrafficClass::kBgpKeepalive);
  ch.ctx_.sched.run();
  // The receiver produced a delayed pure ACK for the data.
  EXPECT_GT(ch.b_.ack_frames_sent, acks_before);
}

TEST(TcpLiteTest, ResetClosesPeer) {
  Channel ch(5);
  Collected ca, cb;
  ch.b_.tcp().listen(179, [&cb](TcpConnection& conn) {
    conn.set_callbacks(collect(cb));
  });
  TcpConnection& conn =
      ch.a_.tcp().connect(kAddrA, 20000, kAddrB, 179, collect(ca));
  ch.ctx_.sched.run();
  conn.reset();
  ch.ctx_.sched.run();
  EXPECT_TRUE(cb.closed);
  EXPECT_EQ(conn.state(), TcpConnection::State::kClosed);
}

TEST(TcpLiteTest, RetransmissionExhaustionFailsConnection) {
  // No listener and 100% loss: the SYN can never complete.
  Channel ch(6, {.loss = 1.0});
  Collected ca;
  TcpConnection& conn = ch.a_.tcp().connect(
      kAddrA, 20000, kAddrB, 179, collect(ca),
      TcpTuning{.rto = sim::Duration::millis(10), .max_retransmits = 3});
  ch.ctx_.sched.run();
  EXPECT_TRUE(ca.closed);
  EXPECT_EQ(conn.state(), TcpConnection::State::kClosed);
}

TEST(TcpLiteTest, FastRetransmitRecoversBeforeRto) {
  // One lost data segment followed by later segments: the receiver's
  // duplicate ACKs must trigger retransmission well before the (huge) RTO.
  Channel ch(8, {.delay = sim::Duration::micros(100)});
  Collected ca, cb;
  ch.b_.tcp().listen(179, [&cb](TcpConnection& conn) {
    conn.set_callbacks(collect(cb));
  });
  TcpConnection& conn = ch.a_.tcp().connect(
      kAddrA, 20000, kAddrB, 179, collect(ca),
      TcpTuning{.rto = sim::Duration::seconds(30), .mss = 100});
  ch.ctx_.sched.run();
  ASSERT_TRUE(ca.established);

  // Drop exactly the next a->b data segment.
  ch.drop_next_from_a = true;
  std::vector<std::uint8_t> blob(500);
  for (std::size_t i = 0; i < blob.size(); ++i) {
    blob[i] = static_cast<std::uint8_t>(i);
  }
  conn.send(blob, net::TrafficClass::kBgpUpdate);
  // Run only 1 simulated second — far below the 30 s RTO.
  ch.ctx_.sched.run_until(ch.ctx_.sched.now() + sim::Duration::seconds(1));
  EXPECT_EQ(cb.data, blob);
}

TEST(TcpLiteTest, DestroyRemovesConnection) {
  Channel ch(7);
  Collected ca;
  TcpConnection& conn =
      ch.a_.tcp().connect(kAddrA, 20000, kAddrB, 179, collect(ca));
  EXPECT_EQ(ch.a_.tcp().connection_count(), 1u);
  ch.a_.tcp().destroy(conn);
  ch.ctx_.sched.run();
  EXPECT_EQ(ch.a_.tcp().connection_count(), 0u);
}

/// An IpSender that records every data segment a connection emits, as
/// (sequence number, payload length), and checks each payload against the
/// stream it should carry.
class SegmentLog : public IpSender {
 public:
  explicit SegmentLog(const std::vector<std::uint8_t>& stream, std::uint32_t isn)
      : stream_(stream), isn_(isn) {}

  void send_ip(ip::Ipv4Addr /*src*/, ip::Ipv4Addr /*dst*/,
               ip::IpProto /*proto*/, net::Buffer payload,
               net::TrafficClass /*traffic_class*/) override {
    TcpSegment seg = TcpSegment::parse(payload);
    if (seg.payload.empty()) return;
    const std::size_t at = seg.seq - isn_;
    ASSERT_LE(at + seg.payload.size(), stream_.size());
    EXPECT_TRUE(std::equal(seg.payload.span().begin(), seg.payload.span().end(),
                           stream_.begin() + static_cast<std::ptrdiff_t>(at)))
        << "segment at seq " << seg.seq << " carries the wrong bytes";
    sent_.emplace_back(seg.seq, seg.payload.size());
  }
  net::SimContext& sim() override { return ctx; }

  /// Segments sent since the last call.
  std::vector<std::pair<std::uint32_t, std::size_t>> take() {
    return std::exchange(sent_, {});
  }

  net::SimContext ctx{1};

 private:
  const std::vector<std::uint8_t>& stream_;
  std::uint32_t isn_;
  std::vector<std::pair<std::uint32_t, std::size_t>> sent_;
};

// A long send queue of uneven messages, some longer than a window, drained
// through partial ACKs that end mid-segment and mid-message, a fast
// retransmit with a partial ACK in recovery, and an RTO: every segment starts
// at the first unsent (or, for a retransmit, the first unacked) byte and
// carries exactly the queued bytes there. The expected segments are those of
// a sender that walks the queue from its head for every segment.
TEST(TcpLiteTest, SendCursorFollowsAcksAndRetransmits) {
  std::vector<std::uint8_t> stream;
  std::vector<std::size_t> sizes;
  for (std::size_t i = 0; i < 40; ++i) {
    sizes.push_back(i % 8 == 5 ? 1500 : 10 + (i * 37) % 90);
  }
  for (std::size_t n : sizes) {
    for (std::size_t j = 0; j < n; ++j) {
      stream.push_back(static_cast<std::uint8_t>(stream.size() * 7 + 3));
    }
  }
  constexpr std::uint32_t kFirst = 1001;  // the byte after our SYN
  SegmentLog log(stream, kFirst);
  TcpStack stack(log);
  TcpConnection& conn = stack.connect(
      kAddrA, 20000, kAddrB, 179, {},
      TcpTuning{.rto = sim::Duration::seconds(1),
                .mss = 100,
                .rto_jitter = 0.0,
                .init_cwnd_segments = 4,
                .ecn_enabled = false});
  // Queue everything during the handshake, so the first flight gathers
  // segments across message boundaries.
  auto next = stream.begin();
  for (std::size_t n : sizes) {
    auto end = next + static_cast<std::ptrdiff_t>(n);
    conn.send(std::vector<std::uint8_t>(next, end),
              net::TrafficClass::kBgpUpdate);
    next = end;
  }
  auto reply = [&conn](std::uint32_t ack, bool syn = false) {
    TcpSegment seg;
    seg.seq = syn ? 5000 : 5001;
    seg.ack = ack;
    seg.flags = {.syn = syn, .ack = true};
    conn.handle_segment(seg);
  };
  using Sent = std::vector<std::pair<std::uint32_t, std::size_t>>;
  reply(kFirst, /*syn=*/true);  // a four-segment window
  EXPECT_EQ(log.take(),
            (Sent{{1001, 100}, {1101, 100}, {1201, 100}, {1301, 100}}));
  reply(kFirst + 150);  // mid-segment, mid-message
  EXPECT_EQ(log.take(), (Sent{{1401, 100}, {1501, 100}}));
  reply(kFirst + 400);
  EXPECT_EQ(log.take(), (Sent{{1601, 100}, {1701, 100}, {1801, 100}}));
  for (int i = 0; i < 3; ++i) reply(kFirst + 400);  // fast retransmit
  EXPECT_EQ(log.take(), (Sent{{1401, 100}}));
  reply(kFirst + 450);  // a partial ACK in recovery resends the new head
  EXPECT_EQ(log.take(), (Sent{{1451, 100}}));
  log.ctx.sched.run_until(log.ctx.sched.now() + sim::Duration::seconds(2));
  EXPECT_EQ(log.take(), (Sent{{1451, 100}}));  // the RTO resends it once
  // Then acknowledge 130 bytes at a time, never on a segment boundary,
  // until the stream is drained.
  const auto end_seq = static_cast<std::uint32_t>(kFirst + stream.size());
  std::uint32_t top = kFirst + 900;  // snd_nxt after the first flights
  Sent rest;
  for (std::uint32_t acked = kFirst + 450; acked < end_seq;) {
    ASSERT_LT(acked, top) << "the sender stalled";
    acked = std::min(acked + 130, top);
    reply(acked);
    for (auto [seq, len] : log.take()) {
      rest.emplace_back(seq, len);
      top = std::max(top, seq + static_cast<std::uint32_t>(len));
    }
  }
  // Recovery resends of the head (1581, 1711, 1841) interleave with new
  // data from where the first flights stopped; then full segments run to
  // the end of the stream.
  Sent want{{1581, 100}, {1711, 100}, {1901, 100}, {1841, 100}};
  for (std::uint32_t seq = 2001; seq < end_seq; seq += 100) {
    want.emplace_back(seq, std::min<std::uint32_t>(100, end_seq - seq));
  }
  EXPECT_EQ(rest, want);
  EXPECT_EQ(top, end_seq);
}

// Property: the byte stream is delivered completely and in order across
// random loss and reordering jitter.
class TcpLossProperty
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, double>> {};

TEST_P(TcpLossProperty, ReliableInOrderDelivery) {
  auto [seed, loss] = GetParam();
  Channel ch(seed, {.delay = sim::Duration::micros(100),
                    .loss = loss,
                    .jitter = sim::Duration::micros(30)});
  Collected ca, cb;
  ch.b_.tcp().listen(179, [&cb](TcpConnection& conn) {
    conn.set_callbacks(collect(cb));
  });
  TcpConnection& conn = ch.a_.tcp().connect(
      kAddrA, 20000, kAddrB, 179, collect(ca),
      TcpTuning{.rto = sim::Duration::millis(20), .max_retransmits = 30});
  ch.ctx_.sched.run();
  ASSERT_TRUE(ca.established);

  std::vector<std::uint8_t> blob(5000);
  sim::Rng payload_rng(seed * 97);
  for (auto& b : blob) b = static_cast<std::uint8_t>(payload_rng.next());
  // Several sends interleaved in time.
  for (int chunk = 0; chunk < 5; ++chunk) {
    std::vector<std::uint8_t> piece(blob.begin() + chunk * 1000,
                                    blob.begin() + (chunk + 1) * 1000);
    ch.ctx_.sched.schedule_after(
        sim::Duration::millis(chunk * 3),
        [&conn, piece = std::move(piece)]() mutable {
          conn.send(std::move(piece), net::TrafficClass::kBgpUpdate);
        });
  }
  ch.ctx_.sched.run();
  EXPECT_EQ(cb.data, blob) << "seed=" << seed << " loss=" << loss;
  EXPECT_FALSE(cb.closed);
}

INSTANTIATE_TEST_SUITE_P(
    LossSweep, TcpLossProperty,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5),
                       ::testing::Values(0.0, 0.05, 0.2)));

TEST(L3NodeTest, ForwardsAcrossRouterWithEcmp) {
  net::SimContext ctx(9);
  net::Network network(ctx);

  // h1 -- r -- h2 with a second parallel path r->h2 to exercise ECMP install.
  auto& h1 = network.add_node<L3Node>("h1", 0);
  auto& r = network.add_node<L3Node>("r", 1);
  auto& h2 = network.add_node<L3Node>("h2", 0);
  network.connect(h1, r);
  network.connect(r, h2);

  h1.configure_port(1, ip::Ipv4Addr::parse("10.0.1.1"), 24);
  r.configure_port(1, ip::Ipv4Addr::parse("10.0.1.254"), 24);
  r.configure_port(2, ip::Ipv4Addr::parse("10.0.2.254"), 24);
  h2.configure_port(1, ip::Ipv4Addr::parse("10.0.2.1"), 24);
  h1.routes().set(ip::Ipv4Prefix::parse("0.0.0.0/0"), ip::RouteProto::kStatic,
                  {{ip::Ipv4Addr::parse("10.0.1.254"), 1}});
  h2.routes().set(ip::Ipv4Prefix::parse("0.0.0.0/0"), ip::RouteProto::kStatic,
                  {{ip::Ipv4Addr::parse("10.0.2.254"), 1}});

  int got = 0;
  h2.bind_udp(5000, [&](ip::Ipv4Addr src, ip::Ipv4Addr, const UdpHeader&,
                        std::span<const std::uint8_t> payload) {
    EXPECT_EQ(src, ip::Ipv4Addr::parse("10.0.1.1"));
    EXPECT_EQ(payload.size(), 4u);
    ++got;
  });
  h1.send_udp(ip::Ipv4Addr::parse("10.0.1.1"), ip::Ipv4Addr::parse("10.0.2.1"),
              4000, 5000, {1, 2, 3, 4}, net::TrafficClass::kIpData);
  ctx.sched.run();
  EXPECT_EQ(got, 1);
  EXPECT_EQ(r.forwarding_stats().forwarded, 1u);
}

TEST(L3NodeTest, TtlExpiryDropsTransit) {
  net::SimContext ctx(10);
  net::Network network(ctx);
  // Two routers forwarding to each other creates a loop; TTL must kill it.
  auto& r1 = network.add_node<L3Node>("r1", 1);
  auto& r2 = network.add_node<L3Node>("r2", 1);
  network.connect(r1, r2);
  r1.configure_port(1, ip::Ipv4Addr::parse("10.0.0.0"), 31);
  r2.configure_port(1, ip::Ipv4Addr::parse("10.0.0.1"), 31);
  r1.routes().set(ip::Ipv4Prefix::parse("99.0.0.0/8"), ip::RouteProto::kStatic,
                  {{ip::Ipv4Addr::parse("10.0.0.1"), 1}});
  r2.routes().set(ip::Ipv4Prefix::parse("99.0.0.0/8"), ip::RouteProto::kStatic,
                  {{ip::Ipv4Addr::parse("10.0.0.0"), 1}});

  r1.send_ip(ip::Ipv4Addr::parse("10.0.0.0"), ip::Ipv4Addr::parse("99.1.1.1"),
             ip::IpProto::kUdp, {0, 0, 0, 0}, net::TrafficClass::kIpData);
  ctx.sched.run();  // must terminate
  EXPECT_EQ(r1.forwarding_stats().dropped_ttl +
                r2.forwarding_stats().dropped_ttl,
            1u);
}

TEST(L3NodeTest, NoRouteDropIsCounted) {
  net::SimContext ctx(11);
  net::Network network(ctx);
  auto& r = network.add_node<L3Node>("r", 1);
  r.add_port();
  r.send_ip(ip::Ipv4Addr::parse("1.1.1.1"), ip::Ipv4Addr::parse("2.2.2.2"),
            ip::IpProto::kUdp, {}, net::TrafficClass::kIpData);
  EXPECT_EQ(r.forwarding_stats().dropped_no_route, 1u);
}

// The local-delivery check covers every configured port, in any
// configuration order, and follows a port that is re-addressed.
TEST(L3NodeTest, MultiPortNodeDeliversToEveryLocalAddress) {
  net::SimContext ctx(12);
  net::Network network(ctx);
  auto& hub = network.add_node<L3Node>("hub", 2);
  const char* hub_addrs[] = {"10.0.4.1", "10.0.1.1", "10.0.9.1", "10.0.2.1",
                             "10.0.7.1"};
  std::vector<L3Node*> spokes;
  for (std::uint32_t i = 0; i < 5; ++i) {
    std::string name = "s";
    name += std::to_string(i);
    auto& spoke = network.add_node<L3Node>(name, 1);
    network.connect(spoke, hub);
    const auto addr = ip::Ipv4Addr::parse(hub_addrs[i]);
    hub.configure_port(i + 1, addr, 24);
    spoke.configure_port(1, ip::Ipv4Addr(addr.value() + 1), 24);
    spokes.push_back(&spoke);
  }
  for (const char* a : hub_addrs) {
    EXPECT_TRUE(hub.is_local_addr(ip::Ipv4Addr::parse(a))) << a;
  }
  EXPECT_FALSE(hub.is_local_addr(ip::Ipv4Addr::parse("10.0.4.2")));
  EXPECT_FALSE(hub.is_local_addr(ip::Ipv4Addr::parse("10.0.3.1")));

  int got = 0;
  hub.bind_udp(5000, [&](ip::Ipv4Addr, ip::Ipv4Addr, const UdpHeader&,
                         std::span<const std::uint8_t>) { ++got; });
  for (std::uint32_t i = 0; i < 5; ++i) {
    const auto dst = ip::Ipv4Addr::parse(hub_addrs[i]);
    spokes[i]->send_udp(ip::Ipv4Addr(dst.value() + 1), dst, 4000, 5000,
                        {1, 2}, net::TrafficClass::kIpData);
  }
  ctx.sched.run();
  EXPECT_EQ(got, 5);
  EXPECT_EQ(hub.forwarding_stats().delivered_local, 5u);
  EXPECT_EQ(hub.forwarding_stats().forwarded, 0u);

  hub.configure_port(3, ip::Ipv4Addr::parse("10.0.3.1"), 24);
  EXPECT_FALSE(hub.is_local_addr(ip::Ipv4Addr::parse("10.0.9.1")));
  EXPECT_TRUE(hub.is_local_addr(ip::Ipv4Addr::parse("10.0.3.1")));
  EXPECT_EQ(hub.port_addr(3), ip::Ipv4Addr::parse("10.0.3.1"));
}

/// r1 joined to two neighbors by /31s: r2 on port 1 (10.0.0.0/31) and r3
/// on port 2 (10.0.1.0/31). r1's sends to 10.0.0.1, its link peer on
/// port 1, may skip the FIB only where the FIB would pick port 1 too.
struct LinkPeerFabric {
  LinkPeerFabric()
      : r1(network.add_node<L3Node>("r1", 1)),
        r2(network.add_node<L3Node>("r2", 1)),
        r3(network.add_node<L3Node>("r3", 1)) {
    network.connect(r1, r2);
    network.connect(r1, r3);
    r1.configure_port(1, self, 31);
    r2.configure_port(1, peer, 31);
    r1.configure_port(2, ip::Ipv4Addr::parse("10.0.1.0"), 31);
    r3.configure_port(1, other, 31);
  }

  void send_to_peer() {
    r1.send_udp(self, peer, 4000, 5000, {1, 2, 3, 4},
                net::TrafficClass::kIpData);
  }
  [[nodiscard]] std::uint64_t sent_on(std::uint32_t port) const {
    return r1.port(port).tx_stats().of(net::TrafficClass::kIpData).frames;
  }
  [[nodiscard]] std::uint64_t lookups() const {
    return r1.routes().select_stats().lookups;
  }

  net::SimContext ctx{13};
  net::Network network{ctx};
  L3Node& r1;
  L3Node& r2;
  L3Node& r3;
  ip::Ipv4Addr self = ip::Ipv4Addr::parse("10.0.0.0");
  ip::Ipv4Addr peer = ip::Ipv4Addr::parse("10.0.0.1");
  ip::Ipv4Addr other = ip::Ipv4Addr::parse("10.0.1.1");
  ip::Ipv4Prefix link = ip::Ipv4Prefix::parse("10.0.0.0/31");
};

TEST(L3NodeTest, SendToLinkPeerSkipsTheFib) {
  LinkPeerFabric f;
  int got = 0;
  f.r2.bind_udp(5000, [&](ip::Ipv4Addr src, ip::Ipv4Addr, const UdpHeader&,
                          std::span<const std::uint8_t> payload) {
    EXPECT_EQ(src, f.self);
    EXPECT_EQ(payload.size(), 4u);
    ++got;
  });
  f.send_to_peer();
  f.send_to_peer();
  f.ctx.sched.run();
  EXPECT_EQ(got, 2);
  EXPECT_EQ(f.sent_on(1), 2u);
  EXPECT_EQ(f.sent_on(2), 0u);
  EXPECT_EQ(f.lookups(), 0u);

  // Any other destination still takes the FIB.
  f.r1.routes().set(ip::Ipv4Prefix::parse("99.0.0.0/8"),
                    ip::RouteProto::kStatic, {{f.other, 2}});
  f.r1.send_udp(f.self, ip::Ipv4Addr::parse("99.1.1.1"), 4000, 5000, {1},
                net::TrafficClass::kIpData);
  EXPECT_EQ(f.lookups(), 1u);
  EXPECT_EQ(f.sent_on(2), 1u);
}

TEST(L3NodeTest, SendToLinkPeerOnDownPortCountsIfaceDrop) {
  LinkPeerFabric f;
  f.r1.set_interface_down(1);
  f.send_to_peer();
  f.ctx.sched.run();
  EXPECT_EQ(f.r1.forwarding_stats().dropped_iface_down, 1u);
  EXPECT_EQ(f.r1.forwarding_stats().dropped_no_route, 0u);
  EXPECT_EQ(f.sent_on(1), 0u);
  EXPECT_EQ(f.sent_on(2), 0u);
  EXPECT_EQ(f.r2.forwarding_stats().delivered_local, 0u);

  f.r1.set_interface_up(1);
  f.send_to_peer();
  EXPECT_EQ(f.sent_on(1), 1u);
  EXPECT_EQ(f.r1.forwarding_stats().dropped_iface_down, 1u);
}

TEST(L3NodeTest, HostRouteToLinkPeerWins) {
  LinkPeerFabric f;
  f.send_to_peer();  // stamps the link-peer entry at this table epoch
  EXPECT_EQ(f.sent_on(1), 1u);
  f.r1.routes().set(ip::Ipv4Prefix(f.peer, 32), ip::RouteProto::kStatic,
                    {{f.other, 2}});
  f.send_to_peer();
  EXPECT_EQ(f.sent_on(1), 1u);
  EXPECT_EQ(f.sent_on(2), 1u);
  EXPECT_EQ(f.lookups(), 1u);

  f.r1.routes().remove(ip::Ipv4Prefix(f.peer, 32));
  f.send_to_peer();
  EXPECT_EQ(f.sent_on(1), 2u);
  EXPECT_EQ(f.lookups(), 1u);
}

TEST(L3NodeTest, RouteReplacingConnectedLinkWins) {
  LinkPeerFabric f;
  f.send_to_peer();
  EXPECT_EQ(f.sent_on(1), 1u);
  // RouteTable::set overwrites the connected /31 in its slot.
  f.r1.routes().set(f.link, ip::RouteProto::kBgp, {{f.other, 2}});
  f.send_to_peer();
  EXPECT_EQ(f.sent_on(1), 1u);
  EXPECT_EQ(f.sent_on(2), 1u);

  // Without the /31 nothing covers the peer.
  f.r1.routes().remove(f.link);
  f.send_to_peer();
  EXPECT_EQ(f.r1.forwarding_stats().dropped_no_route, 1u);
  EXPECT_EQ(f.sent_on(1) + f.sent_on(2), 2u);
}

// Under kWcmpFlowlet a send to a link peer takes the FIB path, whose egress
// pick records the flow's port in the flowlet table. The record shows when
// the peer then gains a second, far heavier, next hop: inside the flowlet
// gap the flow stays on its recorded port instead of being redrawn.
TEST(L3NodeTest, FlowletModeSendToLinkPeerKeepsFlowletWrites) {
  LinkPeerFabric f;
  f.r1.enable_path_select(util::PathSelect::kWcmpFlowlet);
  f.send_to_peer();
  EXPECT_EQ(f.sent_on(1), 1u);
  EXPECT_EQ(f.lookups(), 1u);

  f.r1.routes().set(ip::Ipv4Prefix(f.peer, 32), ip::RouteProto::kStatic,
                    {{f.peer, 1, 1}, {f.other, 2, 1'000'000}});
  f.send_to_peer();
  EXPECT_EQ(f.sent_on(1), 2u) << "the flowlet recorded on port 1 stays open";
  EXPECT_EQ(f.sent_on(2), 0u);

  // A fresh flow is drawn by weight: the heavy member wins.
  f.r1.send_udp(f.self, f.peer, 4001, 5000, {1, 2, 3, 4},
                net::TrafficClass::kIpData);
  EXPECT_EQ(f.sent_on(2), 1u);
}

// Two ports configured on one /31 (a misconfiguration) both list the same
// peer; the connected route, and so every send, follows the later one.
TEST(L3NodeTest, DuplicateLinkSubnetFollowsTheLaterPort) {
  LinkPeerFabric f;
  f.r1.configure_port(2, f.self, 31);
  EXPECT_EQ(f.r1.connected_port(f.peer), 2u);
  f.send_to_peer();
  EXPECT_EQ(f.sent_on(1), 0u);
  EXPECT_EQ(f.sent_on(2), 1u);
}

TEST(L3NodeTest, ConnectedPortFollowsTheFib) {
  LinkPeerFabric f;
  EXPECT_EQ(f.r1.connected_port(f.peer), 1u);
  EXPECT_EQ(f.r1.connected_port(f.other), 2u);
  EXPECT_EQ(f.r1.connected_port(f.self), 1u);  // covered, not a link peer
  EXPECT_EQ(f.r1.connected_port(ip::Ipv4Addr::parse("10.0.2.1")), 0u);

  // A peer whose /31 is no longer the connected route has no port, even
  // when the route that replaced it leaves on the same port.
  f.r1.routes().set(f.link, ip::RouteProto::kBgp, {{f.peer, 1}});
  EXPECT_EQ(f.r1.connected_port(f.peer), 0u);
  f.r1.routes().set(f.link, ip::RouteProto::kBgp, {{f.other, 2}});
  EXPECT_EQ(f.r1.connected_port(f.peer), 0u);
  f.r1.routes().remove(f.link);
  EXPECT_EQ(f.r1.connected_port(f.peer), 0u);
  f.r1.configure_port(1, f.self, 31);
  EXPECT_EQ(f.r1.connected_port(f.peer), 1u);
  f.r1.routes().set(ip::Ipv4Prefix(f.peer, 32), ip::RouteProto::kStatic,
                    {{f.other, 2}});
  EXPECT_EQ(f.r1.connected_port(f.peer), 0u);

  // Re-addressing port 2 onto a /24 takes its old peer out of the table;
  // the FIB still holds the old connected /31.
  f.r1.configure_port(2, ip::Ipv4Addr::parse("10.0.5.1"), 24);
  EXPECT_EQ(f.r1.connected_port(f.other), 2u);
  EXPECT_EQ(f.r1.connected_port(ip::Ipv4Addr::parse("10.0.5.9")), 2u);
}

}  // namespace
}  // namespace mrmtp::transport
