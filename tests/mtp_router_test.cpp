// Behavioral unit tests for MtpRouter: Quick-to-Detect / Slow-to-Accept
// liveness, hello suppression, keep-alive wire size, reliability
// retransmission, a parameterized tree-establishment property on
// randomized Clos sizes (every VID is a real loop-free path), the
// stale-assignment rule, how received ADVERTISEs are read (whole or past
// the statement held from the same port), and the ADVERTISE bytes a router
// puts on the wire.
#include <gtest/gtest.h>

#include "harness/deploy.hpp"
#include "mtp/router.hpp"

namespace mrmtp::mtp {
namespace {

/// Leaf (VID 11) <-> spine pair on one link.
class MtpPairTest : public ::testing::Test {
 protected:
  void wire(MtpTimers timers = {}) {
    MtpConfig leaf_cfg;
    leaf_cfg.tier = 1;
    leaf_cfg.timers = timers;
    leaf_cfg.server_subnet = ip::Ipv4Prefix::parse("192.168.11.0/24");
    leaf_ = &network_.add_node<MtpRouter>("leaf", leaf_cfg);

    MtpConfig spine_cfg;
    spine_cfg.tier = 2;
    spine_cfg.timers = timers;
    spine_ = &network_.add_node<MtpRouter>("spine", spine_cfg);

    network_.connect(*leaf_, *spine_);
    network_.start_all();
  }

  void run_for(sim::Duration d) { ctx_.sched.run_until(ctx_.now() + d); }

  net::SimContext ctx_{31};
  net::Network network_{ctx_};
  MtpRouter* leaf_ = nullptr;
  MtpRouter* spine_ = nullptr;
};

TEST_F(MtpPairTest, LeafDerivesVidFromThirdOctet) {
  wire();
  EXPECT_TRUE(leaf_->is_leaf());
  EXPECT_EQ(leaf_->own_vid(), 11);
  EXPECT_FALSE(spine_->is_leaf());
  EXPECT_EQ(spine_->own_vid(), 0);
}

TEST_F(MtpPairTest, SlowToAcceptNeedsThreeKeepalives) {
  wire();
  // Two hello intervals in: at most 2 keep-alives seen, not yet accepted.
  run_for(sim::Duration::millis(80));
  EXPECT_FALSE(spine_->neighbor_alive(1));
  run_for(sim::Duration::millis(200));
  EXPECT_TRUE(spine_->neighbor_alive(1));
  EXPECT_TRUE(leaf_->neighbor_alive(1));
}

TEST_F(MtpPairTest, WithoutSlowToAcceptFirstMessageSuffices) {
  MtpTimers timers;
  timers.slow_to_accept = false;
  wire(timers);
  run_for(sim::Duration::millis(5));
  EXPECT_TRUE(spine_->neighbor_alive(1));
}

TEST_F(MtpPairTest, SpineJoinsLeafTree) {
  wire();
  run_for(sim::Duration::millis(500));
  EXPECT_TRUE(spine_->vid_table().contains(Vid::parse("11.1")));
  EXPECT_EQ(spine_->vid_table().size(), 1u);
}

TEST_F(MtpPairTest, QuickToDetectDeclaresDownWithinDeadInterval) {
  wire();
  run_for(sim::Duration::millis(500));
  ASSERT_TRUE(spine_->neighbor_alive(1));

  leaf_->set_interface_down(1);
  // The spine hears nothing; dead interval is 100 ms.
  run_for(sim::Duration::millis(120));
  EXPECT_FALSE(spine_->neighbor_alive(1));
  EXPECT_FALSE(spine_->vid_table().has_root(11));
  EXPECT_EQ(spine_->mtp_stats().neighbors_lost, 1u);
}

TEST_F(MtpPairTest, HelloIsSuppressedWhileTrafficFlows) {
  wire();
  run_for(sim::Duration::millis(500));
  std::uint64_t hellos_before = spine_->mtp_stats().hellos_sent;

  // Keep the spine's transmit path busy with data frames every 10 ms
  // (< hello interval), addressed down to the leaf's subnet.
  for (int i = 0; i < 100; ++i) {
    ctx_.sched.schedule_after(sim::Duration::millis(10 * i), [this] {
      DataMsg msg;
      msg.src_root = 12;
      msg.dst_root = 11;
      ip::Ipv4Header h;
      h.src = ip::Ipv4Addr::parse("192.168.12.1");
      h.dst = ip::Ipv4Addr::parse("192.168.11.1");
      msg.ip_packet = h.serialize({});
      // Inject via the public frame path as if arriving from above.
      net::Frame f;
      f.ethertype = net::EtherType::kMtp;
      f.payload = encode(MtpMessage{msg});
      f.traffic_class = net::TrafficClass::kMtpData;
      spine_->handle_frame(spine_->port(1), std::move(f));  // loops right back down
    });
  }
  run_for(sim::Duration::seconds(1));
  std::uint64_t hellos_during = spine_->mtp_stats().hellos_sent - hellos_before;
  // Every MTP frame is a keep-alive, so almost no 1-byte hellos were needed.
  EXPECT_LE(hellos_during, 5u);
}

TEST_F(MtpPairTest, KeepaliveFrameIs15BytesRawPadded60) {
  wire();
  run_for(sim::Duration::seconds(1));
  const auto& c = leaf_->port(1).tx_stats().of(net::TrafficClass::kMtpHello);
  ASSERT_GT(c.frames, 0u);
  EXPECT_EQ(c.bytes / c.frames, 15u);          // 14B Ethernet + 1B payload
  EXPECT_EQ(c.padded_bytes / c.frames, 60u);   // NIC minimum
}

TEST_F(MtpPairTest, HelloRateMatchesTimer) {
  wire();
  run_for(sim::Duration::seconds(1));
  std::uint64_t before = leaf_->mtp_stats().hellos_sent;
  run_for(sim::Duration::seconds(1));
  std::uint64_t per_second = leaf_->mtp_stats().hellos_sent - before;
  EXPECT_NEAR(static_cast<double>(per_second), 20.0, 2.0);  // 50 ms timer
}

TEST_F(MtpPairTest, FlappingNeighborIsDampened) {
  wire();
  run_for(sim::Duration::millis(500));
  ASSERT_TRUE(spine_->neighbor_alive(1));
  std::uint64_t accepted_before = spine_->mtp_stats().neighbors_accepted;

  // Flap the leaf interface every 60 ms (ending down): up periods are too
  // short for three consecutive keep-alives, so the spine never re-accepts
  // while the flapping lasts.
  for (int i = 0; i < 19; ++i) {
    ctx_.sched.schedule_after(sim::Duration::millis(100 + 60 * i), [this, i] {
      if (i % 2 == 0) {
        leaf_->set_interface_down(1);
      } else {
        leaf_->set_interface_up(1);
      }
    });
  }
  run_for(sim::Duration::millis(1300));  // just past the final down toggle
  EXPECT_EQ(spine_->mtp_stats().neighbors_accepted, accepted_before);
  EXPECT_FALSE(spine_->neighbor_alive(1));

  // Once the interface stays up, the neighbor is re-accepted exactly once
  // and the tree rebuilt.
  leaf_->set_interface_up(1);
  run_for(sim::Duration::seconds(1));
  EXPECT_EQ(spine_->mtp_stats().neighbors_accepted, accepted_before + 1);
  EXPECT_TRUE(spine_->neighbor_alive(1));
  EXPECT_TRUE(spine_->vid_table().contains(Vid::parse("11.1")));
}

TEST_F(MtpPairTest, ReliableOffersSurviveFrameLoss) {
  // 15% random loss: advertises, join requests, offers and acks all get
  // dropped sometimes; retransmission must still establish the tree. The
  // dead interval is widened so random hello loss does not flap liveness
  // (the paper tuned these timers to its environment, Section VI.F).
  MtpConfig leaf_cfg;
  leaf_cfg.tier = 1;
  leaf_cfg.timers.dead = sim::Duration::millis(300);
  leaf_cfg.server_subnet = ip::Ipv4Prefix::parse("192.168.11.0/24");
  leaf_ = &network_.add_node<MtpRouter>("leaf", leaf_cfg);
  MtpConfig spine_cfg;
  spine_cfg.tier = 2;
  spine_cfg.timers.dead = sim::Duration::millis(300);
  spine_ = &network_.add_node<MtpRouter>("spine", spine_cfg);
  net::Link& link = network_.connect(*leaf_, *spine_);
  link.set_loss(net::Link::Dir::kAToB, 0.15);
  link.set_loss(net::Link::Dir::kBToA, 0.15);
  network_.start_all();

  run_for(sim::Duration::seconds(5));
  EXPECT_TRUE(spine_->vid_table().contains(Vid::parse("11.1")));
}

// A leaf that loses the first JOIN_REQUEST it receives, as if the wire had
// dropped it.
class RequestDroppingLeaf : public MtpRouter {
 public:
  using MtpRouter::MtpRouter;
  void handle_frame(net::Port& in, net::Frame&& frame) override {
    if (!dropped && frame.ethertype == net::EtherType::kMtp &&
        !frame.payload.empty() &&
        frame.payload[0] == static_cast<std::uint8_t>(MsgType::kJoinRequest)) {
      dropped = true;
      return;
    }
    MtpRouter::handle_frame(in, std::move(frame));
  }
  bool dropped = false;
};

// The lost request is re-sent by the spine's join-retry timer: the leaf's
// later statements repeat a root the spine already has a join pending for,
// so nothing else asks again.
TEST(MtpJoinRetry, LostJoinRequestIsRetried) {
  net::SimContext ctx(31);
  net::Network network(ctx);
  MtpConfig leaf_cfg;
  leaf_cfg.tier = 1;
  leaf_cfg.server_subnet = ip::Ipv4Prefix::parse("192.168.11.0/24");
  auto& leaf = network.add_node<RequestDroppingLeaf>("leaf", leaf_cfg);
  MtpConfig spine_cfg;
  spine_cfg.tier = 2;
  auto& spine = network.add_node<MtpRouter>("spine", spine_cfg);
  network.connect(leaf, spine);
  network.start_all();

  ctx.sched.run_until(ctx.now() + sim::Duration::seconds(1));
  EXPECT_TRUE(leaf.dropped);
  EXPECT_TRUE(spine.vid_table().contains(Vid::parse("11.1")));
}

TEST_F(MtpPairTest, NeighborSummaryShowsState) {
  wire();
  run_for(sim::Duration::millis(500));
  std::string leaf_view = leaf_->neighbor_summary();
  EXPECT_NE(leaf_view.find("root VID 11"), std::string::npos);
  EXPECT_NE(leaf_view.find("eth1  tier 2  up"), std::string::npos);
  EXPECT_NE(leaf_view.find("assigned 11.1"), std::string::npos);

  std::string spine_view = spine_->neighbor_summary();
  EXPECT_NE(spine_view.find("holds 11.1"), std::string::npos);

  leaf_->set_interface_down(1);
  run_for(sim::Duration::millis(200));
  EXPECT_NE(spine_->neighbor_summary().find("down"), std::string::npos);
}

TEST(MtpMisconfigTest, DuplicateRootVidsAreRejected) {
  // Two ToRs misconfigured with the same subnet third octet (both derive
  // VID 11): the spine must join exactly one tree and flag the other, so
  // rack traffic never silently splits between the two racks.
  net::SimContext ctx(63);
  net::Network network(ctx);

  MtpConfig leaf_cfg;
  leaf_cfg.tier = 1;
  leaf_cfg.server_subnet = ip::Ipv4Prefix::parse("192.168.11.0/24");
  auto& leaf_a = network.add_node<MtpRouter>("leafA", leaf_cfg);
  auto& leaf_b = network.add_node<MtpRouter>("leafB", leaf_cfg);  // collision

  MtpConfig spine_cfg;
  spine_cfg.tier = 2;
  auto& spine = network.add_node<MtpRouter>("spine", spine_cfg);
  network.connect(leaf_a, spine);
  network.connect(leaf_b, spine);
  network.start_all();
  ctx.sched.run_until(sim::Time::from_ns(sim::Duration::seconds(2).ns()));

  EXPECT_EQ(spine.vid_table().entries_for_root(11).size(), 1u);
  EXPECT_GT(spine.mtp_stats().duplicate_roots_rejected, 0u);
}

// ---------------------------------------------------------------------------
// Property: on randomized Clos sizes, tree establishment gives every device
// exactly one VID per (ToR tree x downstream branch), and every VID is a
// real path: following its labels as port numbers from the root ToR lands on
// the device that owns it.
// ---------------------------------------------------------------------------

struct ClosCase {
  topo::ClosParams params;
  std::uint64_t seed;
};

class TreeEstablishmentProperty : public ::testing::TestWithParam<ClosCase> {};

TEST_P(TreeEstablishmentProperty, VidsAreRealPaths) {
  const auto& [params, seed] = GetParam();
  net::SimContext ctx(seed);
  topo::ClosBlueprint bp(params);
  harness::Deployment dep(ctx, bp, harness::Proto::kMtp, {});
  dep.start();
  ctx.sched.run_until(sim::Time::from_ns(sim::Duration::seconds(3).ns()));
  ASSERT_TRUE(dep.converged());

  std::uint32_t tors = params.pods * params.tors_per_pod;
  for (std::uint32_t d = 0; d < bp.devices().size(); ++d) {
    const auto& spec = bp.device(d);
    auto& router = dep.mtp(d);

    if (spec.role == topo::Role::kTopSpine) {
      // One VID per ToR tree.
      ASSERT_EQ(router.vid_table().size(), tors) << spec.name;
    } else if (spec.role == topo::Role::kPodSpine) {
      ASSERT_EQ(router.vid_table().size(), params.tors_per_pod) << spec.name;
    }

    // Walk each VID from its root; it must terminate at this device.
    for (const auto& entry : router.vid_table().entries()) {
      std::uint16_t root = entry.vid.root();
      net::Node* cursor = nullptr;
      for (const auto& leaf_spec : bp.devices()) {
        if (leaf_spec.role == topo::Role::kLeaf && leaf_spec.vid == root) {
          cursor = &dep.network().find(leaf_spec.name);
        }
      }
      ASSERT_NE(cursor, nullptr);
      for (std::size_t i = 1; i < entry.vid.depth(); ++i) {
        std::uint16_t port_number = entry.vid.label(i);
        ASSERT_LE(port_number, cursor->port_count());
        net::Port* peer = cursor->port(port_number).peer();
        ASSERT_NE(peer, nullptr);
        cursor = &peer->owner();
      }
      EXPECT_EQ(cursor->name(), spec.name)
          << "VID " << entry.vid.str() << " does not lead to its owner";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ClosSizes, TreeEstablishmentProperty,
    ::testing::Values(ClosCase{topo::ClosParams::paper_2pod(), 1},
                      ClosCase{topo::ClosParams::paper_4pod(), 2},
                      ClosCase{{3, 2, 2, 4, 1}, 3},
                      ClosCase{{2, 4, 2, 4, 1}, 4},
                      ClosCase{{4, 2, 4, 8, 1}, 5},
                      ClosCase{{6, 3, 2, 6, 1}, 6},
                      ClosCase{{8, 2, 4, 16, 1}, 7}));

// A VID already holding Vid::kMaxDepth labels has no child the wire can
// carry. A router holding one (here planted, on the wire a crafted
// JOIN_OFFER) neither advertises nor extends it, so the keep-alive slot and
// the upstream neighbor carry on as if it were absent.
TEST(MtpDepthLimit, VidAtMaxDepthIsNeverExtended) {
  net::SimContext ctx(5);
  net::Network network(ctx);
  MtpConfig leaf_cfg;
  leaf_cfg.tier = 1;
  leaf_cfg.server_subnet = ip::Ipv4Prefix::parse("192.168.11.0/24");
  MtpConfig spine_cfg;
  spine_cfg.tier = 2;
  MtpConfig top_cfg;
  top_cfg.tier = 3;
  auto& leaf = network.add_node<MtpRouter>("leaf", leaf_cfg);
  auto& spine = network.add_node<MtpRouter>("spine", spine_cfg);
  auto& top = network.add_node<MtpRouter>("top", top_cfg);
  network.connect(leaf, spine);
  network.connect(spine, top);
  network.start_all();
  ctx.sched.run_until(ctx.now() + sim::Duration::millis(500));
  ASSERT_EQ(top.vid_table().size(), 1u);

  spine.debug_add_vid_entry(Vid::parse("11.1.1.1.1.1.1.1"), 1);
  ctx.sched.run_until(ctx.now() + sim::Duration::millis(500));
  EXPECT_EQ(top.vid_table().size(), 1u);
  EXPECT_TRUE(top.vid_table().contains(Vid::parse("11.1.2")));
  EXPECT_TRUE(spine.neighbor_alive(2));
}

// An upstream statement lists every tree the neighbor holds, so a child VID
// it omits was pruned on the neighbor's side and our assignment goes too —
// unless a JOIN_OFFER naming the child still awaits its ack, because then the
// neighbor has not seen that child yet.
TEST(MtpStaleAssignment, OmittedChildIsPrunedUnlessItsOfferIsUnacked) {
  net::SimContext ctx(5);
  net::Network network(ctx);
  MtpConfig leaf_cfg;
  leaf_cfg.tier = 1;
  leaf_cfg.server_subnet = ip::Ipv4Prefix::parse("192.168.11.0/24");
  MtpConfig spine_cfg;
  spine_cfg.tier = 2;
  MtpConfig top_cfg;
  top_cfg.tier = 3;
  auto& leaf = network.add_node<MtpRouter>("leaf", leaf_cfg);
  auto& spine = network.add_node<MtpRouter>("spine", spine_cfg);
  auto& top = network.add_node<MtpRouter>("top", top_cfg);
  network.connect(leaf, spine);  // spine port 1
  network.connect(spine, top);   // spine port 2
  network.start_all();
  ctx.sched.run_until(ctx.now() + sim::Duration::millis(500));
  ASSERT_TRUE(top.vid_table().contains(Vid::parse("11.1.2")));

  auto from_top = [&](MtpMessage msg) {
    net::Frame f;
    f.dst = net::MacAddr::broadcast();
    f.ethertype = net::EtherType::kMtp;
    f.payload = encode(std::move(msg));
    spine.handle_frame(spine.port(2), std::move(f));
  };
  auto assigned = [&] {
    return spine.neighbor_summary().find("assigned 11.1.2") != std::string::npos;
  };
  const AdvertiseMsg holds_nothing{.tier = 3, .seq = 1'000'000, .vids = {}};
  ASSERT_TRUE(assigned());

  // Every offer is acked by now: the omission prunes the child.
  from_top(holds_nothing);
  EXPECT_FALSE(assigned());

  // The top asks to join again, and the offer is still in flight when the
  // next statement omitting the child arrives: the child stays.
  from_top(JoinRequestMsg{{Vid::parse("11.1")}});
  ASSERT_TRUE(assigned());
  AdvertiseMsg still_nothing = holds_nothing;
  still_nothing.seq += 1;
  from_top(still_nothing);
  EXPECT_TRUE(assigned());

  // A statement that lists the child keeps it too.
  from_top(AdvertiseMsg{
      .tier = 3, .seq = still_nothing.seq + 1, .vids = {Vid::parse("11.1.2")}});
  EXPECT_TRUE(assigned());
}


/// Records every frame delivered to it and sends nothing.
class Recorder : public net::Node {
 public:
  Recorder(net::SimContext& ctx, std::string name)
      : net::Node(ctx, std::move(name), 0) {}
  void handle_frame(net::Port& /*in*/, net::Frame&& frame) override {
    frames.push_back(std::move(frame));
  }
  std::vector<net::Frame> frames;
};

/// leaf (VID 11) on spine port 1, two tops on ports 2 and 3 and a silent
/// recorder on port 4, converged; statements are handed to the spine as if
/// they arrived on a port.
class SpineFabric {
 public:
  SpineFabric() {
    MtpConfig leaf_cfg;
    leaf_cfg.tier = 1;
    leaf_cfg.server_subnet = ip::Ipv4Prefix::parse("192.168.11.0/24");
    auto& leaf = network_.add_node<MtpRouter>("leaf", leaf_cfg);
    MtpConfig spine_cfg;
    spine_cfg.tier = 2;
    spine = &network_.add_node<MtpRouter>("spine", spine_cfg);
    MtpConfig top_cfg;
    top_cfg.tier = 3;
    top1 = &network_.add_node<MtpRouter>("top1", top_cfg);
    top2 = &network_.add_node<MtpRouter>("top2", top_cfg);
    rec = &network_.add_node<Recorder>("rec");
    network_.connect(leaf, *spine);   // spine port 1
    network_.connect(*spine, *top1);  // spine port 2
    network_.connect(*spine, *top2);  // spine port 3
    network_.connect(*spine, *rec);   // spine port 4
    spine->enable_path_select(util::PathSelect::kWcmp);
    network_.start_all();
    run_for(sim::Duration::millis(500));
  }

  void run_for(sim::Duration d) { ctx_.sched.run_until(ctx_.now() + d); }

  void deliver(std::uint32_t port, net::Buffer payload) {
    net::Frame f;
    f.dst = net::MacAddr::broadcast();
    f.ethertype = net::EtherType::kMtp;
    f.payload = std::move(payload);
    spine->handle_frame(spine->port(port), std::move(f));
  }

  void hello(std::uint32_t port) { deliver(port, encode(MtpMessage{HelloMsg{}})); }

  /// ADVERTISE bytes: type, `tier`, `seq`, then `list` as given.
  static std::vector<std::uint8_t> statement(
      std::uint8_t tier, std::uint32_t seq,
      std::initializer_list<std::uint8_t> list) {
    std::vector<std::uint8_t> out{static_cast<std::uint8_t>(MsgType::kAdvertise),
                                  tier,
                                  static_cast<std::uint8_t>(seq >> 24),
                                  static_cast<std::uint8_t>(seq >> 16),
                                  static_cast<std::uint8_t>(seq >> 8),
                                  static_cast<std::uint8_t>(seq)};
    out.insert(out.end(), list);
    return out;
  }

  /// Every VID the recorder was asked to join so far.
  [[nodiscard]] std::vector<Vid> join_requests_seen() const {
    std::vector<Vid> out;
    for (const net::Frame& f : rec->frames) {
      const MtpMessage msg = decode(f.payload);
      if (const auto* req = std::get_if<JoinRequestMsg>(&msg)) {
        out.insert(out.end(), req->vids.begin(), req->vids.end());
      }
    }
    return out;
  }

  MtpRouter* spine = nullptr;
  MtpRouter* top1 = nullptr;
  MtpRouter* top2 = nullptr;
  Recorder* rec = nullptr;

 private:
  net::SimContext ctx_{17};
  net::Network network_{ctx_};
};

using Ports = std::vector<std::uint32_t>;

// A malformed statement is dropped whole: nothing in it counts, not even
// the valid VID (root 50) in front of its defect, and it earns no liveness
// credit. Each case goes to a not-yet-alive port, then from below (the
// recorder, once accepted) and from above (top1); newer statements (seq
// 1'500'000) are still accepted after the malformed ones (seq 2'000'000).
TEST(AdvertiseRx, MalformedStatementIsDroppedWhole) {
  constexpr std::uint32_t kBad = 2'000'000;
  constexpr std::uint32_t kNext = 1'500'000;
  struct Case {
    const char* name;
    std::vector<std::uint8_t> below;
    std::vector<std::uint8_t> above;
  };
  auto both = [&](const char* name, std::initializer_list<std::uint8_t> list) {
    return Case{name, SpineFabric::statement(1, kBad, list),
                SpineFabric::statement(3, kBad, list)};
  };
  auto truncated = [](std::uint8_t tier) {
    return std::vector<std::uint8_t>{
        static_cast<std::uint8_t>(MsgType::kAdvertise), tier, 0x00, 0x1e};
  };
  const std::vector<Case> cases = {
      both("zero-label VID", {2, 1, 0, 50, 0}),
      both("9-label VID", {2, 1, 0, 50, 9, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0,
                           6, 0, 7, 0, 8, 0, 9}),
      both("count past the end", {3, 1, 0, 50, 1, 0, 51}),
      Case{"truncated header", truncated(1), truncated(3)},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    SpineFabric fabric;
    MtpRouter& spine = *fabric.spine;

    // Slow-to-Accept: two HELLOs, the malformed statements, one HELLO.
    ASSERT_FALSE(spine.neighbor_alive(4));
    fabric.hello(4);
    fabric.hello(4);
    fabric.deliver(4, c.below);
    fabric.deliver(4, c.above);
    EXPECT_FALSE(spine.neighbor_alive(4));
    fabric.hello(4);
    ASSERT_TRUE(spine.neighbor_alive(4));

    const std::string summary = spine.neighbor_summary();
    ASSERT_NE(summary.find("assigned 11.1.2"), std::string::npos);
    ASSERT_EQ(spine.eligible_up_ports(11), (Ports{2, 3}));
    ASSERT_EQ(spine.eligible_up_ports(50), (Ports{2, 3}));

    // From below: no join is requested.
    fabric.deliver(4, c.below);
    fabric.run_for(sim::Duration::millis(1));
    EXPECT_TRUE(fabric.join_requests_seen().empty());
    // From above: no root is recorded and no assignment is pruned.
    fabric.deliver(2, c.above);
    EXPECT_EQ(spine.neighbor_summary(), summary);
    EXPECT_EQ(spine.eligible_up_ports(11), (Ports{2, 3}));
    EXPECT_EQ(spine.eligible_up_ports(50), (Ports{2, 3}));

    // The statement counters did not move: a newer statement below the
    // malformed seq is handled on both sides.
    fabric.deliver(4, SpineFabric::statement(1, kNext, {1, 1, 0, 50}));
    fabric.run_for(sim::Duration::millis(1));
    EXPECT_EQ(fabric.join_requests_seen(), std::vector<Vid>{Vid(50)});
    fabric.deliver(2, SpineFabric::statement(3, kNext, {1, 1, 0, 50}));
    EXPECT_EQ(spine.eligible_up_ports(50), (Ports{2}));
    EXPECT_EQ(spine.eligible_up_ports(11), (Ports{3}));
    EXPECT_EQ(spine.neighbor_summary().find("assigned 11.1.2"),
              std::string::npos);
  }
}

// The uplink load balancer binary-searches the roots a neighbor advertised
// and weighs it (under WCMP) by how many there are, so a statement listing
// its roots out of order and repeatedly is stored sorted and unique.
TEST(AdvertiseRx, AdvertisedRootsAreSortedAndUnique) {
  SpineFabric fabric;
  auto vids_msg = [](std::uint32_t seq, std::initializer_list<const char*> vids) {
    AdvertiseMsg m{.tier = 3, .seq = seq, .vids = {}};
    for (const char* v : vids) m.vids.push_back(Vid::parse(v));
    return encode(MtpMessage{m});
  };
  // Roots 30, 12, 11, 30, 20, 12: four distinct.
  fabric.deliver(2, vids_msg(1'000'000, {"30.1.2", "12.1.2", "11.1.2", "30.1.9",
                                  "20.1.2", "12.1.9"}));
  for (const int root : {12, 20, 30}) {
    EXPECT_EQ(fabric.spine->eligible_up_ports(static_cast<std::uint16_t>(root)), (Ports{2})) << root;
  }
  for (const int root : {11, 13, 25, 31}) {
    EXPECT_EQ(fabric.spine->eligible_up_ports(static_cast<std::uint16_t>(root)), (Ports{2, 3})) << root;
  }

  // top2 advertises the same four roots once each, so both uplinks weigh
  // the same and upward DATA toward root 20 splits evenly between them. A
  // stored duplicate would weigh top1 6:4.
  fabric.deliver(3, vids_msg(1'000'000, {"11.1.3", "12.1.3", "20.1.3", "30.1.3"}));
  ASSERT_EQ(fabric.spine->eligible_up_ports(20), (Ports{2, 3}));
  constexpr int kFlows = 2000;
  for (int i = 0; i < kFlows; ++i) {
    DataMsg d;
    d.src_root = static_cast<std::uint16_t>(1000 + i);
    d.dst_root = 20;
    d.ip_packet = std::vector<std::uint8_t>(20, 0);
    fabric.deliver(1, encode(MtpMessage{std::move(d)}));
  }
  fabric.run_for(sim::Duration::millis(50));
  const auto up1 = static_cast<int>(fabric.top1->mtp_stats().data_dropped_no_path);
  const auto up2 = static_cast<int>(fabric.top2->mtp_stats().data_dropped_no_path);
  EXPECT_EQ(up1 + up2, kFlows);
  EXPECT_LT(std::abs(up1 - up2), kFlows / 10) << up1 << " vs " << up2;
}

// A neighbor re-sends its whole statement on every table change, and the
// spine reads only what a statement appends to the one it holds from that
// port. These cases check that reading a statement that way leaves exactly
// the state reading it whole would.

/// SpineFabric with the recorder on port 4 accepted as a tier-3 neighbor
/// that asked to join trees 11.1 and 12.1 (12.1 planted in the spine's
/// table): the spine assigned it 11.1.4 and 12.1.4 in one JOIN_OFFER, not
/// yet acked.
class RecorderAbove : public SpineFabric {
 public:
  RecorderAbove() {
    spine->debug_add_vid_entry(Vid::parse("12.1"), 1);
    for (int i = 0; i < 3; ++i) hello(4);
    advertise(4, 1, {});
    deliver(4, encode(MtpMessage{JoinRequestMsg{
                   {Vid::parse("11.1"), Vid::parse("12.1")}}}));
  }

  /// A tier-3 statement of `vids` with `seq` from `port`.
  void advertise(std::uint32_t port, std::uint32_t seq,
                 const std::vector<const char*>& vids) {
    AdvertiseMsg m{.tier = 3, .seq = seq, .vids = {}};
    for (const char* v : vids) m.vids.push_back(Vid::parse(v));
    deliver(port, encode(MtpMessage{m}));
  }

  /// Acks every JOIN_OFFER the recorder has received 1 ms from now.
  void ack_offers() {
    run_for(sim::Duration::millis(1));
    std::vector<std::uint16_t> ids;
    for (const net::Frame& f : rec->frames) {
      const MtpMessage msg = decode(f.payload);
      if (const auto* offer = std::get_if<JoinOfferMsg>(&msg)) {
        ids.push_back(offer->msg_id);
      }
    }
    for (const std::uint16_t id : ids) {
      deliver(4, encode(MtpMessage{CtrlAckMsg{id}}));
    }
  }

  /// What a statement from above can change: the spine's ports, holdings
  /// and assignments, the uplinks it picks toward each root involved, and
  /// every JOIN the recorder has seen.
  [[nodiscard]] std::string state() const {
    std::string out = spine->neighbor_summary();
    for (const std::uint16_t root :
         std::initializer_list<std::uint16_t>{11, 12, 50, 60, 70}) {
      out += "root ";
      out += std::to_string(root);
      out += ':';
      for (const std::uint32_t p : spine->eligible_up_ports(root)) {
        out += ' ';
        out += std::to_string(p);
      }
      out += "\n";
    }
    for (const net::Frame& f : rec->frames) {
      const MtpMessage msg = decode(f.payload);
      if (const auto* offer = std::get_if<JoinOfferMsg>(&msg)) {
        out += "offer";
        for (const Vid& v : offer->vids) {
          out += ' ';
          out += v.str();
        }
        out += "\n";
      } else if (const auto* req = std::get_if<JoinRequestMsg>(&msg)) {
        out += "request";
        for (const Vid& v : req->vids) {
          out += ' ';
          out += v.str();
        }
        out += "\n";
      }
    }
    return out;
  }
};

// Statements that each extend the last leave the state the last one alone
// leaves on a fresh router. The chain covers a child kept only by its
// unacked offer, pruned once acked on an extension that still omits it,
// repeated and new roots, and a statement repeated unchanged.
TEST(AdvertiseRx, ExtendingStatementsLeaveTheLastStatementsState) {
  const std::vector<std::vector<const char*>> chain = {
      {"11.1.4"},
      {"11.1.4", "50.1.2"},
      {"11.1.4", "50.1.2", "50.1.3", "60.1.2"},
      {"11.1.4", "50.1.2", "50.1.3", "60.1.2"},
      {"11.1.4", "50.1.2", "50.1.3", "60.1.2", "11.2.4", "70.1.2"},
  };
  RecorderAbove extended;
  for (std::size_t i = 0; i < chain.size(); ++i) {
    if (i == 1) extended.ack_offers();
    extended.advertise(4, static_cast<std::uint32_t>(10 + i), chain[i]);
  }
  RecorderAbove fresh;
  fresh.ack_offers();
  fresh.advertise(4, static_cast<std::uint32_t>(10 + chain.size() - 1),
                  chain.back());

  const std::string state = extended.state();
  EXPECT_EQ(state, fresh.state());
  EXPECT_NE(state.find("assigned 11.1.4\n"), std::string::npos) << state;
  for (const std::uint16_t root : std::initializer_list<std::uint16_t>{50, 60, 70}) {
    EXPECT_EQ(extended.spine->eligible_up_ports(root), (Ports{4})) << root;
  }
}

// An extension whose appended VIDs are malformed is dropped whole, as any
// malformed statement is: no root of the valid VID appended in front of the
// defect is recorded, its seq is not consumed, it earns no keep-alive or
// Slow-to-Accept credit, and the held statement stays what later
// extensions are read against.
TEST(AdvertiseRx, MalformedExtensionIsDroppedWhole) {
  constexpr std::uint32_t kBad = 2'000'000;
  // VIDs 50.1 (held), 60.1 and 70.1 (appended later).
  const std::vector<std::uint8_t> v50 = {2, 0, 50, 0, 1};
  const std::vector<std::uint8_t> v60 = {2, 0, 60, 0, 1};
  const std::vector<std::uint8_t> v70 = {2, 0, 70, 0, 1};
  auto list = [](std::uint8_t count,
                 std::initializer_list<std::vector<std::uint8_t>> parts) {
    std::vector<std::uint8_t> out{count};
    for (const auto& part : parts) out.insert(out.end(), part.begin(), part.end());
    return out;
  };
  auto statement = [](std::uint32_t seq, const std::vector<std::uint8_t>& l) {
    std::vector<std::uint8_t> out = SpineFabric::statement(3, seq, {});
    out.insert(out.end(), l.begin(), l.end());
    return out;
  };
  struct Case {
    const char* name;
    // The malformed list after the held 50.1 (and then after 50.1, 60.1).
    std::vector<std::uint8_t> after_held;
    std::vector<std::uint8_t> after_extension;
  };
  const std::vector<std::uint8_t> zero_labels = {0};
  const std::vector<std::uint8_t> nine_labels = {9, 0, 1, 0, 2, 0, 3, 0, 4, 0,
                                                 5, 0, 6, 0, 7, 0, 8, 0, 9};
  const std::vector<Case> cases = {
      {"zero-label VID", list(3, {v50, v60, zero_labels}),
       list(4, {v50, v60, v70, zero_labels})},
      {"9-label VID", list(3, {v50, v60, nine_labels}),
       list(4, {v50, v60, v70, nine_labels})},
      {"count past the end", list(3, {v50, v60}), list(4, {v50, v60, v70})},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    SpineFabric fabric;
    MtpRouter& spine = *fabric.spine;
    for (int i = 0; i < 3; ++i) fabric.hello(4);
    ASSERT_TRUE(spine.neighbor_alive(4));
    fabric.deliver(4, statement(10, list(1, {v50})));
    ASSERT_EQ(spine.eligible_up_ports(50), (Ports{4}));
    const std::string summary = spine.neighbor_summary();

    // Nothing of the malformed extension counts, not even 60.1.
    fabric.deliver(4, statement(kBad, c.after_held));
    EXPECT_EQ(spine.neighbor_summary(), summary);
    EXPECT_EQ(spine.eligible_up_ports(50), (Ports{4}));
    EXPECT_EQ(spine.eligible_up_ports(60), (Ports{2, 3, 4}));

    // A valid extension of the held statement, numbered below the
    // malformed one, is read.
    fabric.deliver(4, statement(20, list(2, {v50, v60})));
    EXPECT_EQ(spine.eligible_up_ports(50), (Ports{4}));
    EXPECT_EQ(spine.eligible_up_ports(60), (Ports{4}));

    // No keep-alive credit: the dead interval runs from the valid one.
    fabric.run_for(sim::Duration::millis(60));
    fabric.deliver(4, statement(kBad, c.after_extension));
    EXPECT_EQ(spine.eligible_up_ports(70), (Ports{2, 3, 4}));
    fabric.run_for(sim::Duration::millis(45));
    EXPECT_FALSE(spine.neighbor_alive(4));

    // No Slow-to-Accept credit either, now that nothing is held.
    fabric.hello(4);
    fabric.hello(4);
    fabric.deliver(4, statement(kBad, c.after_extension));
    EXPECT_FALSE(spine.neighbor_alive(4));
    fabric.hello(4);
    EXPECT_TRUE(spine.neighbor_alive(4));
  }
}

// A statement that does not extend the held one is searched whole: an
// assigned child the held statement listed and this one omits is pruned,
// whether the new list is shorter, reordered, or repeats the held bytes
// under a smaller count.
TEST(AdvertiseRx, StatementNotExtendingTheHeldOnePrunesOmittedChildren) {
  struct Case {
    const char* name;
    std::vector<std::uint8_t> list;
    const char* kept;
  };
  // 11.1.4 then 12.1.4, as the held statement lists them.
  const std::vector<std::uint8_t> held = {2, 3, 0, 11, 0, 1, 0, 4,
                                          3, 0, 12, 0, 1, 0, 4};
  std::vector<std::uint8_t> smaller_count = held;
  smaller_count[0] = 1;
  const std::vector<Case> cases = {
      {"shorter", {1, 3, 0, 11, 0, 1, 0, 4}, "11.1.4"},
      {"reordered", {2, 3, 0, 12, 0, 1, 0, 4, 2, 0, 50, 0, 2}, "12.1.4"},
      {"smaller count", smaller_count, "11.1.4"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    RecorderAbove fabric;
    fabric.ack_offers();
    std::vector<std::uint8_t> first = SpineFabric::statement(3, 10, {});
    first.insert(first.end(), held.begin(), held.end());
    fabric.deliver(4, first);
    const std::string before = fabric.spine->neighbor_summary();
    ASSERT_NE(before.find("assigned 11.1.4,12.1.4\n"), std::string::npos)
        << before;

    std::vector<std::uint8_t> next = SpineFabric::statement(3, 11, {});
    next.insert(next.end(), c.list.begin(), c.list.end());
    fabric.deliver(4, next);
    const std::string after = fabric.spine->neighbor_summary();
    EXPECT_NE(after.find("assigned " + std::string(c.kept) + "\n"),
              std::string::npos)
        << after;
  }
}

// A neighbor that went down is read afresh when it comes back. It restarts
// its statement numbers from 1 and is re-accepted on three statements
// (Slow-to-Accept), the third of which is handled. Re-sending a prefix of
// its old statement brings back none of the roots it dropped, and a
// statement that extends the one held before the failure is still read
// whole.
TEST(AdvertiseRx, NeighborDownReleasesTheHeldStatement) {
  RecorderAbove fabric;
  MtpRouter& spine = *fabric.spine;
  auto fail_and_return_with = [&](const std::vector<const char*>& vids) {
    fabric.run_for(sim::Duration::millis(150));
    ASSERT_FALSE(spine.neighbor_alive(4));
    for (std::uint32_t seq = 1; seq <= 3; ++seq) fabric.advertise(4, seq, vids);
    ASSERT_TRUE(spine.neighbor_alive(4));
  };
  fabric.advertise(4, 10, {"50.1.2", "70.1.2"});
  ASSERT_EQ(spine.eligible_up_ports(70), (Ports{4}));

  fail_and_return_with({"50.1.2"});
  EXPECT_EQ(spine.eligible_up_ports(50), (Ports{4}));
  EXPECT_EQ(spine.eligible_up_ports(70), (Ports{2, 3, 4}));

  fail_and_return_with({"50.1.2", "60.1.2"});
  EXPECT_EQ(spine.eligible_up_ports(50), (Ports{4}));
  EXPECT_EQ(spine.eligible_up_ports(60), (Ports{4}));
  EXPECT_EQ(spine.eligible_up_ports(70), (Ports{2, 3, 4}));
}

// A late duplicate that extends the held statement is as stale as any other
// old statement: it changes nothing, and the next statement is still read
// against the one held before it.
TEST(AdvertiseRx, StaleExtensionChangesNothing) {
  RecorderAbove fabric;
  fabric.ack_offers();
  fabric.advertise(4, 10, {"11.1.4", "50.1.2"});
  const std::string before = fabric.state();

  fabric.advertise(4, 9, {"11.1.4", "50.1.2", "60.1.2"});
  EXPECT_EQ(fabric.state(), before);

  fabric.advertise(4, 11, {"11.1.4", "50.1.2", "60.1.2", "70.1.2"});
  for (const std::uint16_t root : std::initializer_list<std::uint16_t>{50, 60, 70}) {
    EXPECT_EQ(fabric.spine->eligible_up_ports(root), (Ports{4})) << root;
  }
}

// Routers encode their VID list once per table change and reuse the bytes
// for every ADVERTISE until it changes. Whatever state the router is in, the
// ADVERTISE on the wire must be exactly what the codec makes of its tier,
// its seq and the VIDs it offers.
class AdvertiseWireTest : public ::testing::Test {
 protected:
  AdvertiseWireTest() {
    MtpConfig leaf_cfg;
    leaf_cfg.tier = 1;
    leaf_cfg.server_subnet = ip::Ipv4Prefix::parse("192.168.11.0/24");
    leaf11_ = &network_.add_node<MtpRouter>("leaf11", leaf_cfg);
    leaf_cfg.server_subnet = ip::Ipv4Prefix::parse("192.168.12.0/24");
    auto& leaf12 = network_.add_node<MtpRouter>("leaf12", leaf_cfg);
    MtpConfig spine_cfg;
    spine_cfg.tier = 2;
    spine_ = &network_.add_node<MtpRouter>("spine", spine_cfg);
    MtpConfig top_cfg;
    top_cfg.tier = 3;
    auto& top = network_.add_node<MtpRouter>("top", top_cfg);
    leaf_rec_ = &network_.add_node<Recorder>("leaf_rec");
    spine_rec_ = &network_.add_node<Recorder>("spine_rec");
    network_.connect(*leaf11_, *spine_);     // spine port 1
    network_.connect(leaf12, *spine_);       // spine port 2
    network_.connect(*spine_, top);          // spine port 3
    network_.connect(*spine_, *spine_rec_);  // spine port 4
    network_.connect(*leaf11_, *leaf_rec_);  // leaf11 port 2
    network_.start_all();
    run_for(sim::Duration::millis(500));
  }

  void run_for(sim::Duration d) { ctx_.sched.run_until(ctx_.now() + d); }

  /// Three HELLOs at one instant pass Slow-to-Accept, so `router` takes the
  /// recorder on `port` as a new neighbor and sends it an ADVERTISE.
  static void accept_recorder(MtpRouter& router, std::uint32_t port) {
    for (int i = 0; i < 3; ++i) {
      net::Frame hello;
      hello.ethertype = net::EtherType::kMtp;
      hello.payload = encode(MtpMessage{HelloMsg{}});
      router.handle_frame(router.port(port), std::move(hello));
    }
  }

  /// Lets an earlier acceptance time out, accepts the recorder again and
  /// delivers the ADVERTISE that triggers.
  void poke(MtpRouter& router, std::uint32_t port, Recorder& rec) {
    run_for(sim::Duration::millis(150));
    ASSERT_FALSE(router.neighbor_alive(port));
    rec.frames.clear();
    accept_recorder(router, port);
    ASSERT_TRUE(router.neighbor_alive(port));
    run_for(sim::Duration::millis(1));
  }

  /// The one ADVERTISE `rec` received must equal encode() of `router`'s
  /// tier, the seq it carries and `vids`.
  static void expect_wire_matches_codec(const Recorder& rec,
                                        const MtpRouter& router,
                                        const std::vector<Vid>& vids) {
    std::vector<const net::Frame*> adverts;
    for (const net::Frame& f : rec.frames) {
      if (type_of(decode(f.payload)) == MsgType::kAdvertise) {
        adverts.push_back(&f);
      }
    }
    ASSERT_EQ(adverts.size(), 1u);
    AdvertiseMsg expected;
    expected.tier = static_cast<std::uint8_t>(router.config().tier);
    expected.seq = std::get<AdvertiseMsg>(decode(adverts[0]->payload)).seq;
    expected.vids = vids;
    EXPECT_EQ(adverts[0]->payload, encode(MtpMessage{expected}));
  }

  /// The table in order: what a spine that is not draining offers.
  [[nodiscard]] std::vector<Vid> spine_table() const {
    std::vector<Vid> vids;
    for (const VidEntry& e : spine_->vid_table().entries()) vids.push_back(e.vid);
    return vids;
  }

  net::SimContext ctx_{13};
  net::Network network_{ctx_};
  MtpRouter* leaf11_ = nullptr;
  MtpRouter* spine_ = nullptr;
  Recorder* leaf_rec_ = nullptr;
  Recorder* spine_rec_ = nullptr;
};

TEST_F(AdvertiseWireTest, Leaf) {
  poke(*leaf11_, 2, *leaf_rec_);
  expect_wire_matches_codec(*leaf_rec_, *leaf11_, {Vid::parse("11")});
}

TEST_F(AdvertiseWireTest, Spine) {
  ASSERT_EQ(spine_->vid_table().size(), 2u);
  poke(*spine_, 4, *spine_rec_);
  expect_wire_matches_codec(*spine_rec_, *spine_, spine_table());
}

TEST_F(AdvertiseWireTest, DrainingRouterOffersNothing) {
  spine_->drain();
  poke(*spine_, 4, *spine_rec_);
  expect_wire_matches_codec(*spine_rec_, *spine_, {});
}

TEST_F(AdvertiseWireTest, AfterVidAdd) {
  poke(*spine_, 4, *spine_rec_);
  spine_->debug_add_vid_entry(Vid::parse("13.7"), 1);
  poke(*spine_, 4, *spine_rec_);
  ASSERT_EQ(spine_table().back(), Vid::parse("13.7"));
  expect_wire_matches_codec(*spine_rec_, *spine_, spine_table());
}

TEST_F(AdvertiseWireTest, AfterPortVidsRemoved) {
  spine_->set_interface_down(1);
  ASSERT_EQ(spine_table(), std::vector<Vid>{Vid::parse("12.1")});
  poke(*spine_, 4, *spine_rec_);
  expect_wire_matches_codec(*spine_rec_, *spine_, spine_table());
}

TEST_F(AdvertiseWireTest, AfterStopAndStart) {
  spine_->drain();
  spine_->stop();
  spine_rec_->frames.clear();
  spine_->start();  // advertises on every port at once, holding nothing
  run_for(sim::Duration::millis(1));
  expect_wire_matches_codec(*spine_rec_, *spine_, {});

  run_for(sim::Duration::millis(500));  // rejoins both trees
  ASSERT_EQ(spine_->vid_table().size(), 2u);
  poke(*spine_, 4, *spine_rec_);
  expect_wire_matches_codec(*spine_rec_, *spine_, spine_table());
}

// The cached VID list has the same one-byte count as every other list: a
// router holding more than 255 advertisable VIDs refuses to send a wrapped
// count.
TEST_F(AdvertiseWireTest, MoreThan255VidsThrowInsteadOfWrapping) {
  for (std::uint16_t root = 100; spine_->vid_table().size() <= kMaxListEntries;
       ++root) {
    spine_->debug_add_vid_entry(Vid(root).child(1), 1);
  }
  EXPECT_THROW(accept_recorder(*spine_, 4), util::CodecError);
}

}  // namespace
}  // namespace mrmtp::mtp
