// Behavioral unit tests for MtpRouter: Quick-to-Detect / Slow-to-Accept
// liveness, hello suppression, keep-alive wire size, reliability
// retransmission, and a parameterized tree-establishment property on
// randomized Clos sizes (every VID is a real loop-free path).
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
      spine_->handle_frame(spine_->port(1), f);  // loops right back down
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
  network_.connect(*leaf_, *spine_, {.loss_probability = 0.15});
  network_.start_all();

  run_for(sim::Duration::seconds(5));
  EXPECT_TRUE(spine_->vid_table().contains(Vid::parse("11.1")));
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

}  // namespace
}  // namespace mrmtp::mtp
