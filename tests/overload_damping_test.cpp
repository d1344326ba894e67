// Overload-protection behavior: priority egress queues sparing control
// frames under a data flood, Slow-to-Accept edge cases (a late-but-alive
// hello restarts the streak; damping decay re-admits a stabilized neighbor),
// BGP flap damping deferring reconnects, MTP withdrawal batching, and the
// ChaosEngine's full-timeline (onset + heal/ramp-complete) event records.
#include <gtest/gtest.h>

#include "harness/deploy.hpp"
#include "mtp/router.hpp"
#include "bgp/router.hpp"
#include "topo/chaos.hpp"

namespace mrmtp {
namespace {

// --------------------------------------------------------------- net::Link

class PriorityLinkTest : public ::testing::Test {
 protected:
  class Sink : public net::Node {
   public:
    using Node::Node;
    void handle_frame(net::Port&, net::Frame&& frame) override {
      classes.push_back(frame.traffic_class);
    }
    std::vector<net::TrafficClass> classes;
  };

  void wire(bool priority) {
    net::Link::Params params;
    params.bandwidth_bps = 1'000'000'000ull;
    params.max_queue = sim::Duration::micros(100);
    params.priority_queues = priority;
    a_ = &network_.add_node<Sink>("a", 1);
    b_ = &network_.add_node<Sink>("b", 1);
    link_ = &network_.connect(*a_, *b_, params);
  }

  void flood_then_hellos() {
    // ~1.66 ms of data admitted against a 100 us queue, then 5 hellos.
    for (int i = 0; i < 200; ++i) {
      net::Frame f;
      f.ethertype = net::EtherType::kIpv4;
      f.payload.assign(1000, 0xab);
      f.traffic_class = net::TrafficClass::kIpData;
      a_->transmit(a_->port(1), std::move(f));
    }
    for (int i = 0; i < 5; ++i) {
      net::Frame f;
      f.ethertype = net::EtherType::kMtp;
      f.payload.assign(20, 0xcd);
      f.traffic_class = net::TrafficClass::kMtpHello;
      a_->transmit(a_->port(1), std::move(f));
    }
    ctx_.sched.run();
  }

  net::SimContext ctx_{123};
  net::Network network_{ctx_};
  Sink* a_ = nullptr;
  Sink* b_ = nullptr;
  net::Link* link_ = nullptr;
};

TEST_F(PriorityLinkTest, SharedFifoTailDropsControlBehindDataFlood) {
  wire(/*priority=*/false);
  flood_then_hellos();
  const net::Link::DirStats& s = link_->stats().ab;
  EXPECT_GT(s.dropped_queue_full, 0u);
  // All 5 hellos arrived behind a full queue and died with the data; a
  // dropped frame never records a high-water mark, so only the admitted
  // data saw the backlog grow.
  EXPECT_EQ(s.dropped_queue_control, 5u);
  EXPECT_EQ(s.control_backlog_hw_ns, 0u);
  EXPECT_GT(s.data_backlog_hw_ns, 0u);
  for (net::TrafficClass tc : b_->classes) {
    EXPECT_NE(tc, net::TrafficClass::kMtpHello);
  }
}

TEST_F(PriorityLinkTest, PriorityBandSparesControlAndJumpsTheQueue) {
  wire(/*priority=*/true);
  flood_then_hellos();
  const net::Link::DirStats& s = link_->stats().ab;
  EXPECT_GT(s.dropped_queue_full, 0u);            // data still tail-drops
  EXPECT_EQ(s.dropped_queue_control, 0u);         // control never does
  ASSERT_FALSE(b_->classes.empty());
  // All 5 hellos delivered, and ahead of the tail of the data backlog: the
  // last delivery must be data that the control band overtook.
  int hellos = 0;
  for (net::TrafficClass tc : b_->classes) {
    if (tc == net::TrafficClass::kMtpHello) ++hellos;
  }
  EXPECT_EQ(hellos, 5);
  EXPECT_EQ(b_->classes.back(), net::TrafficClass::kIpData);
}

TEST_F(PriorityLinkTest, ControlBandHasItsOwnDepthLimit) {
  wire(/*priority=*/true);
  // 200 hellos back-to-back: ~0.15 us wire time each on top of a 100 us
  // guaranteed band — the band itself must eventually tail-drop (a control
  // storm cannot monopolize the wire unboundedly).
  for (int i = 0; i < 2000; ++i) {
    net::Frame f;
    f.ethertype = net::EtherType::kMtp;
    f.payload.assign(60, 0xcd);
    f.traffic_class = net::TrafficClass::kMtpHello;
    a_->transmit(a_->port(1), std::move(f));
  }
  ctx_.sched.run();
  const net::Link::DirStats& s = link_->stats().ab;
  EXPECT_GT(s.dropped_queue_control, 0u);
  EXPECT_EQ(s.dropped_queue_control, s.dropped_queue_full);
}

// ------------------------------------------------------- mtp Slow-to-Accept

/// Leaf <-> spine pair where each side can run different timers.
class MtpAsymTest : public ::testing::Test {
 protected:
  void wire(mtp::MtpTimers leaf_timers, mtp::MtpTimers spine_timers) {
    mtp::MtpConfig leaf_cfg;
    leaf_cfg.tier = 1;
    leaf_cfg.timers = leaf_timers;
    leaf_cfg.server_subnet = ip::Ipv4Prefix::parse("192.168.11.0/24");
    leaf_ = &network_.add_node<mtp::MtpRouter>("leaf", leaf_cfg);

    mtp::MtpConfig spine_cfg;
    spine_cfg.tier = 2;
    spine_cfg.timers = spine_timers;
    spine_ = &network_.add_node<mtp::MtpRouter>("spine", spine_cfg);

    network_.connect(*leaf_, *spine_);
    network_.start_all();
  }

  void run_for(sim::Duration d) { ctx_.sched.run_until(ctx_.now() + d); }

  net::SimContext ctx_{31};
  net::Network network_{ctx_};
  mtp::MtpRouter* leaf_ = nullptr;
  mtp::MtpRouter* spine_ = nullptr;
};

TEST_F(MtpAsymTest, LateButAliveHelloRestartsAcceptStreak) {
  // The leaf hellos every 80 ms: later than the spine's streak tolerance
  // (1.5 x 50 ms = 75 ms) but well inside its own liveness — every hello
  // arrives, none is "dead", yet each gap restarts Slow-to-Accept. The
  // spine must never accept such a neighbor.
  mtp::MtpTimers slow;
  slow.hello = sim::Duration::millis(80);
  wire(slow, mtp::MtpTimers{});
  run_for(sim::Duration::seconds(2));
  EXPECT_FALSE(spine_->neighbor_alive(1));
  EXPECT_EQ(spine_->mtp_stats().neighbors_accepted, 0u);
  // The spine's own 50 ms hellos pass the leaf's (80 ms-based) tolerance.
  EXPECT_TRUE(leaf_->neighbor_alive(1));
}

TEST_F(MtpAsymTest, DampingSuppressesFlapperUntilPenaltyDecays) {
  mtp::MtpTimers damped;
  damped.damping_penalty = 1500;
  wire(damped, damped);
  run_for(sim::Duration::millis(400));
  ASSERT_TRUE(spine_->neighbor_alive(1));

  // Two flaps ~300 ms apart: 1500 + 1500 * 2^-0.15 ~ 2852 >= 2500 (the
  // suppress threshold) -> the spine suppresses the leaf even though its
  // hellos now flow steadily.
  leaf_->set_interface_down(1);
  run_for(sim::Duration::millis(120));  // dead timer (100 ms) declares #1
  leaf_->set_interface_up(1);
  run_for(sim::Duration::millis(180));  // 3-keepalive streak re-accepts
  ASSERT_TRUE(spine_->neighbor_alive(1));
  leaf_->set_interface_down(1);
  run_for(sim::Duration::millis(120));  // declares #2 -> suppressed
  leaf_->set_interface_up(1);

  run_for(sim::Duration::millis(500));
  EXPECT_FALSE(spine_->neighbor_alive(1));  // stable but still suppressed
  EXPECT_TRUE(spine_->port_damping_suppressed(1));
  EXPECT_GT(spine_->mtp_stats().accepts_suppressed, 0u);
  EXPECT_GT(spine_->port_damping_penalty(1), sim::kDampingReuse);

  // Penalty halves every two seconds; ~3.9 s after the last flap it crosses
  // the reuse threshold (750) and the very next keep-alive re-admits the
  // neighbor.
  run_for(sim::Duration::seconds(4));
  EXPECT_TRUE(spine_->neighbor_alive(1));
  EXPECT_FALSE(spine_->port_damping_suppressed(1));
  EXPECT_LT(spine_->port_damping_penalty(1), sim::kDampingReuse);
}

// ---------------------------------------------------- mtp update batching

// Fails every leaf-facing port of spine `r` in the same instant.
void fail_leaf_ports(mtp::MtpRouter& r) {
  for (std::uint32_t p = 1; p <= r.port_count(); ++p) {
    const net::Port* peer = r.port(p).peer();
    if (peer != nullptr && peer->owner().name().starts_with("L-")) {
      r.set_interface_down(p);
    }
  }
}

TEST(MtpUpdateBatching, SimultaneousVidLossesShareTheInterval) {
  net::SimContext ctx(7);
  topo::ClosBlueprint bp(topo::ClosParams::paper_2pod());
  harness::DeployOptions options;
  options.mtp_timers.update_min_interval = sim::Duration::millis(2);
  harness::Deployment dep(ctx, bp, harness::Proto::kMtp, options);
  dep.start();
  ctx.sched.run_until(sim::Time::zero() + sim::Duration::seconds(3));
  ASSERT_TRUE(dep.converged());

  // Kill both leaf-facing ports of one spine in the same instant: the two
  // VID_WITHDRAW originations toward the cores land inside one min-interval
  // window, so the second is batched behind the first flush.
  std::uint32_t spine = dep.blueprint().device_index("S-1-1");
  mtp::MtpRouter& r = dep.mtp(spine);
  std::uint64_t batched_before = r.mtp_stats().updates_batched;
  fail_leaf_ports(r);
  ctx.sched.run_until(ctx.now() + sim::Duration::millis(200));
  EXPECT_GT(r.mtp_stats().updates_batched, batched_before);
}

// With the default zero interval the same failure leaves through the same
// queue, flushed at once: nothing is deferred or absorbed, yet the failure
// updates still go out.
TEST(MtpUpdateBatching, ZeroIntervalFlushesAtOnce) {
  net::SimContext ctx(7);
  topo::ClosBlueprint bp(topo::ClosParams::paper_2pod());
  harness::Deployment dep(ctx, bp, harness::Proto::kMtp, {});
  dep.start();
  ctx.sched.run_until(sim::Time::zero() + sim::Duration::seconds(3));
  ASSERT_TRUE(dep.converged());

  std::uint32_t spine = dep.blueprint().device_index("S-1-1");
  mtp::MtpRouter& r = dep.mtp(spine);
  std::uint64_t sent_before = r.mtp_stats().updates_sent;
  fail_leaf_ports(r);
  ctx.sched.run_until(ctx.now() + sim::Duration::millis(200));
  EXPECT_GT(r.mtp_stats().updates_sent, sent_before);
  for (std::uint32_t d = 0; d < dep.router_count(); ++d) {
    EXPECT_EQ(dep.mtp(d).mtp_stats().updates_batched, 0u) << d;
    EXPECT_EQ(dep.mtp(d).mtp_stats().updates_deduped, 0u) << d;
  }
}

// ------------------------------------------------------------ bgp damping

TEST(BgpDamping, FlapDefersRetryUntilPenaltyDecays) {
  net::SimContext ctx(41);
  net::Network network(ctx);
  auto a_addr = ip::Ipv4Addr::parse("172.16.0.0");
  auto b_addr = ip::Ipv4Addr::parse("172.16.0.1");

  bgp::BgpTimers timers;
  timers.damping_penalty = 2600;  // one flap >= suppress (2500): defer at once
  bgp::BgpConfig ca;
  ca.asn = 64600;
  ca.router_id = 1;
  ca.timers = timers;
  ca.neighbors = {{a_addr, b_addr, 64601}};
  ca.originate = {ip::Ipv4Prefix::parse("192.168.11.0/24")};
  auto& a = network.add_node<bgp::BgpRouter>("A", 1, ca);

  bgp::BgpConfig cb;
  cb.asn = 64601;
  cb.router_id = 2;
  cb.timers = timers;
  cb.neighbors = {{b_addr, a_addr, 64600}};
  auto& b = network.add_node<bgp::BgpRouter>("B", 1, cb);

  net::Link& link = network.connect(a, b);
  a.configure_port(1, a_addr, 31);
  b.configure_port(1, b_addr, 31);
  network.start_all();
  ctx.sched.run_until(ctx.now() + sim::Duration::seconds(2));
  ASSERT_EQ(a.session_state(b_addr), bgp::BgpRouter::SessionState::kEstablished);

  // A gray blackhole (both directions) starves the hold timers; the session
  // flap charges the full damping penalty and the reconnect is deferred far
  // beyond connect_retry.
  link.set_blackhole(net::Link::Dir::kAToB, true);
  link.set_blackhole(net::Link::Dir::kBToA, true);
  ctx.sched.run_until(ctx.now() + sim::Duration::seconds(4));
  EXPECT_NE(a.session_state(b_addr), bgp::BgpRouter::SessionState::kEstablished);
  EXPECT_GE(a.bgp_stats().sessions_flapped, 1u);
  EXPECT_GE(a.bgp_stats().retries_damped, 1u);
  EXPECT_GT(a.peer_damping_penalty(b_addr), 0.0);

  // Heal the link; the deferred retry (half_life * log2(pen/reuse) ~ 3.6 s
  // after the flap) still re-establishes the session once it fires.
  link.set_blackhole(net::Link::Dir::kAToB, false);
  link.set_blackhole(net::Link::Dir::kBToA, false);
  ctx.sched.run_until(ctx.now() + sim::Duration::seconds(8));
  EXPECT_EQ(a.session_state(b_addr), bgp::BgpRouter::SessionState::kEstablished);
  EXPECT_EQ(b.session_state(a_addr), bgp::BgpRouter::SessionState::kEstablished);
}

// ------------------------------------------------- chaos timeline records

TEST(ChaosTimeline, OnsetsCarryTheirTerminalPhases) {
  net::SimContext ctx(7);
  topo::ClosBlueprint bp(topo::ClosParams::paper_2pod());
  harness::Deployment dep(ctx, bp, harness::Proto::kMtp, {});
  dep.start();
  ctx.sched.run_until(sim::Time::zero() + sim::Duration::seconds(3));

  topo::ChaosEngine chaos(dep.network(), bp, 7);
  topo::FailurePoint fp = bp.failure_point(topo::TestCase::kTC1);
  chaos.degradation_ramp(fp, /*toward_device=*/true, 0.8, ctx.now(),
                         sim::Duration::millis(200));
  chaos.heal(fp, ctx.now() + sim::Duration::millis(400),
             topo::GrayKind::kDegradationRamp);
  ctx.sched.run_until(ctx.now() + sim::Duration::seconds(1));

  ASSERT_EQ(chaos.log().size(), 3u);
  EXPECT_EQ(chaos.log()[0].phase, topo::ChaosPhase::kOnset);
  EXPECT_EQ(chaos.log()[1].phase, topo::ChaosPhase::kRampComplete);
  EXPECT_EQ(chaos.log()[2].phase, topo::ChaosPhase::kHeal);
  EXPECT_EQ(chaos.log()[2].kind, topo::GrayKind::kDegradationRamp);
  // first_onset() is phase-aware: heal records never shift it.
  ASSERT_TRUE(chaos.first_onset().has_value());
  EXPECT_EQ(*chaos.first_onset(), chaos.log()[0].at);
}

}  // namespace
}  // namespace mrmtp
