// MR-MTP failure-plane semantics on hand-built mini topologies: withdraw
// pruning, DEST_UNREACH/CLEAR exclusion life cycle, the wildcard "lost my
// default route" rule, the valley-freedom guard, and reliable-control
// retransmission behavior.
#include <gtest/gtest.h>

#include "harness/deploy.hpp"
#include "topo/failure.hpp"

namespace mrmtp::mtp {
namespace {

using harness::Deployment;
using harness::Proto;

class MtpFailureTest : public ::testing::Test {
 protected:
  void deploy(topo::ClosParams params = topo::ClosParams::paper_2pod(),
              std::uint64_t seed = 51) {
    // The deployment must die before the SimContext its timers point at
    // (matters when a test deploys more than once).
    dep_.reset();
    bp_.reset();
    ctx_ = std::make_unique<net::SimContext>(seed);
    bp_ = std::make_unique<topo::ClosBlueprint>(params);
    dep_ = std::make_unique<Deployment>(*ctx_, *bp_, Proto::kMtp,
                                        harness::DeployOptions{});
    dep_->start();
    run_for(sim::Duration::seconds(2));
    ASSERT_TRUE(dep_->converged());
  }

  void run_for(sim::Duration d) { ctx_->sched.run_until(ctx_->now() + d); }

  MtpRouter& router(const char* name) {
    return dep_->mtp(bp_->device_index(name));
  }

  std::unique_ptr<net::SimContext> ctx_;
  std::unique_ptr<topo::ClosBlueprint> bp_;
  std::unique_ptr<Deployment> dep_;
};

TEST_F(MtpFailureTest, WithdrawPrunesExactlyTheDeadBranch) {
  deploy();
  // TC2: S-1-1 loses its ToR-11 link; the 11.1 branch dies everywhere but
  // the 11.2 branch (via S-1-2) must be untouched.
  dep_->network().find("S-1-1").set_interface_down(3);
  run_for(sim::Duration::millis(300));

  EXPECT_FALSE(router("S-1-1").vid_table().contains(Vid::parse("11.1")));
  EXPECT_TRUE(router("S-1-1").vid_table().contains(Vid::parse("12.1")));
  EXPECT_FALSE(router("T-1").vid_table().contains(Vid::parse("11.1.1")));
  EXPECT_TRUE(router("T-1").vid_table().contains(Vid::parse("12.1.1")));
  EXPECT_TRUE(router("T-2").vid_table().contains(Vid::parse("11.2.1")));
  EXPECT_TRUE(router("T-4").vid_table().contains(Vid::parse("11.2.2")));
}

TEST_F(MtpFailureTest, DestUnreachCascadeReachesAllOtherTors) {
  deploy();
  dep_->network().find("L-1-1").set_interface_down(1);  // TC1
  run_for(sim::Duration::millis(500));

  // Every other ToR recorded an exclusion for destination 11 (the paper's
  // blast-radius-3 claim), and none for any other root.
  for (const char* tor : {"L-1-2", "L-2-1", "L-2-2"}) {
    const auto& ex = router(tor).exclusions();
    bool any_for_11 = ex.is_excluded(11, 1) || ex.is_excluded(11, 2);
    EXPECT_TRUE(any_for_11) << tor;
    EXPECT_FALSE(ex.is_excluded(12, 1) || ex.is_excluded(12, 2)) << tor;
    EXPECT_FALSE(ex.is_excluded(13, 1) || ex.is_excluded(13, 2)) << tor;
  }
}

TEST_F(MtpFailureTest, DestClearRestoresExclusionsOnRecovery) {
  deploy();
  topo::FailureInjector injector(dep_->network(), *bp_);
  injector.schedule_failure(topo::TestCase::kTC1,
                            ctx_->now() + sim::Duration::millis(10));
  run_for(sim::Duration::millis(500));
  ASSERT_GT(router("L-2-1").exclusions().size(), 0u);

  injector.schedule_recovery(ctx_->now() + sim::Duration::millis(10));
  run_for(sim::Duration::seconds(1));
  EXPECT_EQ(router("L-2-1").exclusions().size(), 0u);
  EXPECT_EQ(router("L-1-2").exclusions().size(), 0u);
  EXPECT_TRUE(dep_->converged());
}

TEST_F(MtpFailureTest, WildcardWhenSpineLosesAllUplinks) {
  deploy();
  // Kill both of S-1-1's uplinks: it keeps its ToR links but cannot carry
  // anything beyond the pod; the ToRs must stop using it for remote roots
  // yet keep using it for the intra-pod shortcut.
  auto& s11 = dep_->network().find("S-1-1");
  s11.set_interface_down(1);
  s11.set_interface_down(2);
  run_for(sim::Duration::millis(500));

  // L-1-1 excludes port 1 (to S-1-1) via the wildcard root.
  EXPECT_TRUE(router("L-1-1").exclusions().is_excluded(0, 1));

  // Remote traffic from H-1-1 still flows (via S-1-2)...
  auto& sender = dep_->host(0);
  auto& receiver = dep_->host(3);
  receiver.listen();
  traffic::FlowConfig flow;
  flow.dst = receiver.addr();
  flow.count = 100;
  flow.gap = sim::Duration::millis(1);
  sender.start_flow(flow);
  run_for(sim::Duration::seconds(1));
  EXPECT_EQ(receiver.sink_stats().unique_received, 100u);

  // ... and the intra-pod shortcut through S-1-1 still works: H-1-1 to
  // H-1-2 may use either pod spine.
  auto& pod_receiver = dep_->host(1);
  pod_receiver.listen();
  traffic::FlowConfig pod_flow;
  pod_flow.dst = pod_receiver.addr();
  pod_flow.count = 50;
  pod_flow.gap = sim::Duration::millis(1);
  sender.start_flow(pod_flow);
  run_for(sim::Duration::seconds(1));
  EXPECT_EQ(pod_receiver.sink_stats().unique_received, 50u);

  // Wildcard clears once an uplink returns.
  s11.set_interface_up(1);
  run_for(sim::Duration::seconds(1));
  EXPECT_FALSE(router("L-1-1").exclusions().is_excluded(0, 1));
}

TEST_F(MtpFailureTest, ValleyGuardDropsDownThenUpPackets) {
  deploy();
  // Craft a DATA frame for an unknown root arriving at a top spine: with
  // no VID and no uplinks it must be dropped, not bounced back down.
  auto& t1 = router("T-1");
  std::uint64_t drops_before = t1.mtp_stats().data_dropped_no_path;

  DataMsg msg;
  msg.src_root = 11;
  msg.dst_root = 99;  // no such tree
  msg.ttl = 16;
  ip::Ipv4Header h;
  h.src = ip::Ipv4Addr::parse("192.168.11.1");
  h.dst = ip::Ipv4Addr::parse("192.168.99.1");
  msg.ip_packet = h.serialize({});

  net::Frame frame;
  frame.ethertype = net::EtherType::kMtp;
  frame.payload = encode(MtpMessage{msg});
  frame.traffic_class = net::TrafficClass::kMtpData;
  t1.handle_frame(t1.port(1), net::Frame{frame});

  EXPECT_EQ(t1.mtp_stats().data_dropped_no_path, drops_before + 1);

  // Same at a pod spine when the packet came from ABOVE (downstream-only
  // rule): S-1-1's port 1 faces T-1.
  auto& s11 = router("S-1-1");
  drops_before = s11.mtp_stats().data_dropped_no_path;
  s11.handle_frame(s11.port(1), std::move(frame));
  EXPECT_EQ(s11.mtp_stats().data_dropped_no_path, drops_before + 1);
}

TEST_F(MtpFailureTest, TtlBackstopKillsCraftedLoops) {
  deploy();
  auto& s11 = router("S-1-1");
  DataMsg msg;
  msg.src_root = 13;
  msg.dst_root = 11;
  msg.ttl = 1;  // about to expire
  ip::Ipv4Header h;
  h.src = ip::Ipv4Addr::parse("192.168.13.1");
  h.dst = ip::Ipv4Addr::parse("192.168.11.1");
  msg.ip_packet = h.serialize({});
  net::Frame frame;
  frame.ethertype = net::EtherType::kMtp;
  frame.payload = encode(MtpMessage{msg});
  s11.handle_frame(s11.port(1), std::move(frame));  // transit with ttl 1 -> dropped
  EXPECT_EQ(s11.mtp_stats().data_dropped_ttl, 1u);
}

TEST_F(MtpFailureTest, UpdatesAreIdempotentUnderDuplication) {
  // Duplicate every frame on the TC2 link path: reliability acks get
  // duplicated, withdraws get re-delivered — state must converge identically.
  auto params = topo::ClosParams::paper_2pod();
  ctx_ = std::make_unique<net::SimContext>(77);
  bp_ = std::make_unique<topo::ClosBlueprint>(params);
  harness::DeployOptions options;
  options.link.duplicate_probability = 0.5;
  dep_ = std::make_unique<Deployment>(*ctx_, *bp_, Proto::kMtp, options);
  dep_->start();
  run_for(sim::Duration::seconds(3));
  ASSERT_TRUE(dep_->converged());

  dep_->network().find("S-1-1").set_interface_down(3);
  run_for(sim::Duration::seconds(1));

  EXPECT_FALSE(router("T-1").vid_table().contains(Vid::parse("11.1.1")));
  EXPECT_TRUE(router("T-1").vid_table().contains(Vid::parse("12.1.1")));
  // Exactly one exclusion for dest 11 at L-1-2 despite duplicated updates.
  EXPECT_TRUE(router("L-1-2").exclusions().is_excluded(11, 1));
  EXPECT_EQ(router("L-1-2").exclusions().size(), 1u);
}

TEST_F(MtpFailureTest, DeterministicReplay) {
  // Two simulations with identical seeds produce bit-identical protocol
  // outcomes — the property the whole experiment harness rests on.
  auto run_once = [](std::uint64_t seed) {
    net::SimContext ctx(seed);
    topo::ClosBlueprint bp(topo::ClosParams::paper_2pod());
    Deployment dep(ctx, bp, Proto::kMtp, {});
    dep.start();
    ctx.sched.run_until(sim::Time::from_ns(sim::Duration::seconds(2).ns()));
    topo::FailureInjector injector(dep.network(), bp);
    injector.schedule_failure(topo::TestCase::kTC1,
                              ctx.now() + sim::Duration::millis(5));
    ctx.sched.run_until(ctx.now() + sim::Duration::seconds(1));

    std::string state;
    for (std::uint32_t d = 0; d < dep.router_count(); ++d) {
      state += dep.mtp(d).vid_table().dump();
      state += dep.mtp(d).exclusions().dump();
      state += std::to_string(dep.mtp(d).mtp_stats().updates_sent) + ";";
      state += std::to_string(ctx.sched.events_fired()) + "|";
    }
    return state;
  };
  EXPECT_EQ(run_once(123), run_once(123));
  // Note: MR-MTP itself uses no randomness (deterministic timers and a
  // deterministic flow hash), so different seeds also replay identically —
  // seeds only drive BGP/BFD jitter and link impairments.
  EXPECT_EQ(run_once(123), run_once(456));
}

}  // namespace
}  // namespace mrmtp::mtp
