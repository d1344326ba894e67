// ChaosEngine + FabricAuditor: gray failures are injected per direction,
// the auditor stays silent on healthy fabrics, flags hand-crafted stale
// state, and the detection-latency metric orders the three stacks the way
// their timer designs predict.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "harness/auditor.hpp"
#include "harness/experiment.hpp"
#include "harness/report.hpp"
#include "net/switch_buffer.hpp"
#include "topo/chaos.hpp"

namespace mrmtp {
namespace {

using harness::Deployment;
using harness::FabricAuditor;
using harness::InvariantKind;
using harness::Proto;

constexpr auto kSettle = sim::Duration::seconds(3);

struct Converged {
  net::SimContext ctx;
  topo::ClosBlueprint bp;
  Deployment dep;

  explicit Converged(Proto proto, std::uint64_t seed = 1)
      : ctx(seed), bp(topo::ClosParams::paper_2pod()), dep(ctx, bp, proto) {
    dep.start();
    ctx.sched.run_until(sim::Time::zero() + kSettle);
  }
};

/// Violation::str() of every entry the latest sweep appended, in order.
std::vector<std::string> last_sweep(const FabricAuditor& auditor) {
  const std::vector<harness::Violation>& log = auditor.violations();
  std::vector<std::string> out;
  for (std::size_t i = log.size() - auditor.last_sweep_violations();
       i < log.size(); ++i) {
    out.push_back(log[i].str());
  }
  return out;
}

/// Index of the blueprint's first pod-spine -> top-spine link.
std::uint32_t first_spine_top_link(const topo::ClosBlueprint& bp) {
  for (std::uint32_t i = 0; i < bp.links().size(); ++i) {
    const topo::LinkSpec& l = bp.links()[i];
    if (bp.device(l.lower).tier == 2 && bp.device(l.upper).tier == 3) return i;
  }
  throw std::logic_error("blueprint has no pod-spine -> top link");
}

TEST(FabricAuditor, CleanOnConvergedMtp) {
  Converged f(Proto::kMtp);
  ASSERT_TRUE(f.dep.converged());
  FabricAuditor auditor(f.dep);
  EXPECT_EQ(auditor.sweep(), 0u);
  EXPECT_TRUE(auditor.violations().empty());
  EXPECT_EQ(auditor.sweeps(), 1u);
}

// A sweep only reads forwarding state: it must not move any router counter
// that experiments and perfbench report after an audited run.
TEST(FabricAuditor, SweepLeavesMtpStatsAlone) {
  Converged f(Proto::kMtp);
  ASSERT_TRUE(f.dep.converged());
  std::vector<mtp::MtpRouter::MtpStats> before;
  for (std::uint32_t d = 0; d < f.dep.router_count(); ++d) {
    before.push_back(f.dep.mtp(d).mtp_stats());
  }
  FabricAuditor auditor(f.dep);
  ASSERT_EQ(auditor.sweep(), 0u);
  for (std::uint32_t d = 0; d < f.dep.router_count(); ++d) {
    EXPECT_TRUE(f.dep.mtp(d).mtp_stats() == before[d])
        << f.dep.router(d).name();
  }
}

TEST(FabricAuditor, CleanOnConvergedBgp) {
  for (Proto proto : {Proto::kBgp, Proto::kBgpBfd}) {
    Converged f(proto);
    ASSERT_TRUE(f.dep.converged());
    FabricAuditor auditor(f.dep);
    EXPECT_EQ(auditor.sweep(), 0u) << to_string(proto);
  }
}

TEST(FabricAuditor, FlagsHandCraftedStaleVidEntry) {
  Converged f(Proto::kMtp);
  ASSERT_TRUE(f.dep.converged());

  // Admin-down the spine side of L-1-1 <-> S-1-1 (TC2), let the withdraws
  // settle, then plant an entry pointing at the dead port — exactly the
  // stale state a lost withdraw would leave behind.
  topo::FailurePoint fp = f.bp.failure_point(topo::TestCase::kTC2);
  std::uint32_t spine = f.bp.device_index(fp.device);
  f.dep.router(spine).set_interface_down(fp.port);
  f.ctx.sched.run_until(f.ctx.now() + sim::Duration::seconds(1));

  FabricAuditor auditor(f.dep);
  ASSERT_EQ(auditor.sweep(), 0u) << "clean failure must fully converge";

  f.dep.mtp(spine).debug_add_vid_entry(mtp::Vid::parse("77.9"), fp.port);
  ASSERT_EQ(auditor.sweep(), 1u);
  const harness::Violation& v = auditor.violations().back();
  EXPECT_EQ(v.kind, InvariantKind::kStaleVidEntry);
  EXPECT_EQ(v.device, fp.device);
  EXPECT_NE(v.detail.find("77.9"), std::string::npos) << v.str();
}

TEST(FabricAuditor, FlagsStaleBgpNextHop) {
  Converged f(Proto::kBgp);
  ASSERT_TRUE(f.dep.converged());

  topo::FailurePoint fp = f.bp.failure_point(topo::TestCase::kTC2);
  std::uint32_t spine = f.bp.device_index(fp.device);
  f.dep.router(spine).set_interface_down(fp.port);

  FabricAuditor auditor(f.dep);
  // Mid-convergence the auditor rightly sees blackholes: the leaf keeps
  // ECMP-ing into the dead link until its 3 s hold timer fires.
  f.ctx.sched.run_until(f.ctx.now() + sim::Duration::seconds(1));
  auditor.sweep();
  EXPECT_EQ(last_sweep(auditor), (std::vector<std::string>{
      "[4.000000s] L-1-1 forwarding-blackhole: probe toward 192.168.12.1 "
      "died on the wire at port 1",
      "[4.000000s] L-1-1 forwarding-blackhole: probe toward 192.168.13.1 "
      "died on the wire at port 1",
      "[4.000000s] L-1-1 forwarding-blackhole: probe toward 192.168.14.1 "
      "died on the wire at port 1",
  }));
  // Past the hold timer the fabric must be clean again.
  f.ctx.sched.run_until(f.ctx.now() + sim::Duration::seconds(3));
  ASSERT_EQ(auditor.sweep(), 0u);

  // A BGP route whose only next-hop egresses the dead interface.
  f.dep.bgp(spine).routes().set(
      ip::Ipv4Prefix::parse("10.99.0.0/24"), ip::RouteProto::kBgp,
      {ip::NextHop{ip::Ipv4Addr::parse("10.99.0.1"), fp.port}});
  ASSERT_EQ(auditor.sweep(), 1u);
  EXPECT_EQ(auditor.violations().back().kind, InvariantKind::kStaleNextHop);
}

// Two-hop loops planted on both ends of one pod-spine <-> top link: each
// end forwards a pod-2 destination to the other. The probe walk must name
// the hop where it came back around.
TEST(FabricAuditor, FlagsPlantedMtpLoop) {
  Converged f(Proto::kMtp);
  ASSERT_TRUE(f.dep.converged());
  const std::uint32_t li = first_spine_top_link(f.bp);
  const topo::LinkSpec& link = f.bp.links()[li];
  const mtp::Vid vid =
      mtp::Vid::parse(std::to_string(f.bp.tor_vid(2, 1)) + ".9");
  for (std::uint32_t end : {link.lower, link.upper}) {
    f.dep.mtp(end).debug_add_vid_entry(vid, f.bp.port_on(end, li));
  }

  FabricAuditor auditor(f.dep);
  auditor.sweep();
  EXPECT_EQ(last_sweep(auditor),
            (std::vector<std::string>{"[3.000000s] T-1 forwarding-loop: probe "
                                      "toward root 13 revisited this hop"}));
}

TEST(FabricAuditor, FlagsPlantedBgpLoop) {
  Converged f(Proto::kBgp);
  ASSERT_TRUE(f.dep.converged());
  const std::uint32_t li = first_spine_top_link(f.bp);
  const topo::LinkSpec& link = f.bp.links()[li];
  const std::uint32_t dst_leaf = f.bp.leaf(2, 1);
  ip::Ipv4Addr dst;
  for (const topo::HostSpec& hs : f.bp.hosts()) {
    if (hs.leaf == dst_leaf) dst = hs.addr;
  }
  f.dep.bgp(link.lower).routes().set(
      ip::Ipv4Prefix(dst, 32), ip::RouteProto::kStatic,
      {ip::NextHop{link.upper_addr, f.bp.port_on(link.lower, li)}});
  f.dep.bgp(link.upper).routes().set(
      ip::Ipv4Prefix(dst, 32), ip::RouteProto::kStatic,
      {ip::NextHop{link.lower_addr, f.bp.port_on(link.upper, li)}});

  FabricAuditor auditor(f.dep);
  auditor.sweep();
  EXPECT_EQ(last_sweep(auditor),
            (std::vector<std::string>{
                "[3.000000s] S-1-1 forwarding-loop: probe toward "
                "192.168.13.1 revisited this hop"}));
}

/// Violations of `kind` in the auditor's log.
std::size_t count_kind(const FabricAuditor& auditor, InvariantKind kind) {
  return static_cast<std::size_t>(std::count_if(
      auditor.violations().begin(), auditor.violations().end(),
      [kind](const harness::Violation& v) { return v.kind == kind; }));
}

// A leaf whose control plane goes silent while its links stay up is
// declared dead by both spines above it over links that are wired, admin-up
// and unimpaired: two false-dead declarations, each logged at its spine.
TEST(FabricAuditor, WatchLivenessFlagsDeadDeclarationOverHealthyLink) {
  Converged f(Proto::kMtp);
  ASSERT_TRUE(f.dep.converged());
  FabricAuditor auditor(f.dep);
  auditor.watch_liveness();

  f.dep.mtp(f.bp.device_index("L-1-1")).stop();
  f.ctx.sched.run_until(f.ctx.now() + sim::Duration::millis(300));

  EXPECT_EQ(auditor.down_declarations(), 2u);
  EXPECT_EQ(auditor.false_dead_count(), 2u);
  EXPECT_EQ(count_kind(auditor, InvariantKind::kFalseDeadNeighbor), 2u);
  EXPECT_GE(auditor.max_cascade_depth(), 1);
  for (const harness::Violation& v : auditor.violations()) {
    if (v.kind != InvariantKind::kFalseDeadNeighbor) continue;
    EXPECT_TRUE(v.device.starts_with("S-1-")) << v.str();
  }
}

// The same declaration over a blackholed link is a detected gray failure,
// not a false dead: the watcher counts it and flags nothing.
TEST(FabricAuditor, WatchLivenessForgivesDeadDeclarationOverBlackholedLink) {
  Converged f(Proto::kMtp);
  ASSERT_TRUE(f.dep.converged());
  FabricAuditor auditor(f.dep);
  auditor.watch_liveness();

  topo::ChaosEngine chaos(f.dep.network(), f.bp, /*seed=*/7);
  chaos.blackhole_one_way(f.bp.failure_point(topo::TestCase::kTC1),
                          /*toward_device=*/true, f.ctx.now());
  f.ctx.sched.run_until(f.ctx.now() + sim::Duration::millis(300));

  EXPECT_GE(auditor.down_declarations(), 1u);
  EXPECT_EQ(auditor.false_dead_count(), 0u);
  EXPECT_EQ(count_kind(auditor, InvariantKind::kFalseDeadNeighbor), 0u);
}

// Two adjacent switches that PAUSE each other while each has data queued
// toward the other wait on each other forever: the sweep's pause-wait graph
// has a cycle and it is reported as one PFC deadlock.
TEST(FabricAuditor, FlagsPauseWaitCycleAsPfcDeadlock) {
  net::SimContext ctx(1);
  const topo::ClosBlueprint bp(topo::ClosParams::paper_2pod());
  harness::DeployOptions options;
  options.switch_buffer = net::SwitchBufferParams{};
  Deployment dep(ctx, bp, Proto::kMtp, options);
  dep.start();
  ctx.sched.run_until(sim::Time::zero() + kSettle);
  FabricAuditor auditor(dep);
  ASSERT_EQ(auditor.sweep(), 0u);

  const topo::FailurePoint fp = bp.failure_point(topo::TestCase::kTC1);
  net::Node& a = dep.network().find(fp.device);
  net::Port& a_port = a.port(fp.port);
  net::Node& b = a_port.peer()->owner();
  const std::uint32_t b_port = a_port.peer()->number();
  // Crossing the xoff threshold of each side's ingress account sends a
  // PAUSE to the other side.
  a.switch_buffer()->charge_ingress(fp.port, 1u << 20);
  b.switch_buffer()->charge_ingress(b_port, 1u << 20);
  ctx.sched.run_until(ctx.now() + sim::Duration::micros(50));
  for (net::Node* n : {&a, &b}) {
    net::Frame f;
    f.ethertype = net::EtherType::kIpv4;
    f.payload.assign(1000, 0);
    f.traffic_class = net::TrafficClass::kIpData;
    n->transmit(n == &a ? a_port : b.port(b_port), std::move(f));
  }
  const net::Link& link = *a_port.link();
  ASSERT_TRUE(link.data_paused(net::Link::Dir::kAToB));
  ASSERT_TRUE(link.data_paused(net::Link::Dir::kBToA));

  auditor.sweep();
  EXPECT_EQ(auditor.pfc_deadlocks(), 1u);
  EXPECT_EQ(count_kind(auditor, InvariantKind::kPfcDeadlock), 1u);
}

TEST(ChaosEngine, BlackholeIsUnidirectional) {
  Converged f(Proto::kMtp);
  ASSERT_TRUE(f.dep.converged());

  topo::ChaosEngine chaos(f.dep.network(), f.bp, /*seed=*/7);
  topo::FailurePoint fp = f.bp.failure_point(topo::TestCase::kTC1);
  chaos.blackhole_one_way(fp, /*toward_device=*/true, f.ctx.now());
  f.ctx.sched.run_until(f.ctx.now() + sim::Duration::seconds(1));

  net::Link& link = chaos.link_of(fp);
  net::Link::Dir in = chaos.dir_of(fp, /*toward_device=*/true);
  net::Link::Dir out = net::Link::reverse(in);
  EXPECT_GT(link.stats().dir(in).dropped_blackhole, 0u);
  EXPECT_EQ(link.stats().dir(out).dropped_blackhole, 0u);
  // The healthy direction keeps delivering (that is what makes it gray).
  std::uint64_t out_delivered = link.stats().dir(out).delivered;
  EXPECT_GT(out_delivered, 0u);

  // The per-direction report surfaces the asymmetry.
  harness::Table table = harness::link_direction_table(f.dep.network());
  EXPECT_NE(table.csv().find(fp.device), std::string::npos);

  // heal() restores both directions.
  chaos.heal(fp, f.ctx.now());
  f.ctx.sched.run_until(f.ctx.now() + sim::Duration::millis(1));
  EXPECT_TRUE(link.deliverable(in));
  EXPECT_TRUE(link.deliverable(out));
}

TEST(ChaosEngine, CampaignIsDeterministicPerSeed) {
  Converged f(Proto::kMtp);
  topo::ChaosEngine a(f.dep.network(), f.bp, 42);
  topo::ChaosEngine b(f.dep.network(), f.bp, 42);
  topo::ChaosEngine c(f.dep.network(), f.bp, 43);

  topo::ChaosEngine::CampaignSpec spec;
  spec.events = 12;
  spec.start = f.ctx.now();
  a.run_campaign(spec);
  b.run_campaign(spec);
  c.run_campaign(spec);

  ASSERT_EQ(a.log().size(), b.log().size());
  bool all_same_as_c = a.log().size() == c.log().size();
  for (std::size_t i = 0; i < a.log().size(); ++i) {
    EXPECT_EQ(a.log()[i].at, b.log()[i].at);
    EXPECT_EQ(a.log()[i].kind, b.log()[i].kind);
    EXPECT_EQ(a.log()[i].description, b.log()[i].description);
    if (all_same_as_c && (a.log()[i].kind != c.log()[i].kind ||
                          a.log()[i].description != c.log()[i].description)) {
      all_same_as_c = false;
    }
  }
  EXPECT_FALSE(all_same_as_c) << "different seeds should differ";
  EXPECT_TRUE(a.first_onset().has_value());
}

// An incast storm draws its victim from the engine's seed, logs its onset
// and heal, and starts one flow from every host outside the victim's rack
// (the sender count caps above the nine candidates), none from inside it.
TEST(ChaosEngine, CongestionStormSendsFromOtherRacksOnly) {
  topo::ClosParams params = topo::ClosParams::paper_2pod();
  params.hosts_per_tor = 3;
  const topo::ClosBlueprint bp(params);
  topo::ChaosEngine::StormSpec storm;
  storm.senders = 16;
  storm.duration = sim::Duration::millis(200);
  storm.gap = sim::Duration::micros(100);

  // The victim depends on the seed alone.
  auto victim_of = [&](std::uint64_t seed) {
    net::SimContext ctx(1);
    Deployment dep(ctx, bp, Proto::kMtp);
    topo::ChaosEngine chaos(dep.network(), bp, seed);
    return chaos.congestion_storm(storm, sim::Time::zero());
  };
  EXPECT_EQ(victim_of(5), victim_of(5));
  std::set<std::string> victims;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    victims.insert(victim_of(seed));
  }
  EXPECT_GT(victims.size(), 1u);

  net::SimContext ctx(1);
  Deployment dep(ctx, bp, Proto::kMtp);
  dep.start();
  ctx.sched.run_until(sim::Time::zero() + kSettle);
  ASSERT_TRUE(dep.converged());
  topo::ChaosEngine chaos(dep.network(), bp, /*seed=*/5);
  const sim::Time at = ctx.now() + sim::Duration::millis(10);
  const std::string victim = chaos.congestion_storm(storm, at);
  ASSERT_EQ(victim, victim_of(5));

  ASSERT_EQ(chaos.log().size(), 2u);
  EXPECT_EQ(chaos.log()[0].kind, topo::GrayKind::kCongestionStorm);
  EXPECT_EQ(chaos.log()[0].phase, topo::ChaosPhase::kOnset);
  EXPECT_EQ(chaos.log()[0].at, at);
  EXPECT_EQ(chaos.log()[1].kind, topo::GrayKind::kCongestionStorm);
  EXPECT_EQ(chaos.log()[1].phase, topo::ChaosPhase::kHeal);
  EXPECT_EQ(chaos.log()[1].at, at + storm.duration);
  EXPECT_NE(chaos.log()[0].description.find(victim), std::string::npos);

  ctx.sched.run_until(at + storm.duration / 2);
  std::uint32_t victim_leaf = 0;
  for (const topo::HostSpec& h : bp.hosts()) {
    if (h.name == victim) victim_leaf = h.leaf;
  }
  int senders = 0;
  for (std::uint32_t i = 0; i < bp.hosts().size(); ++i) {
    const bool same_rack = bp.hosts()[i].leaf == victim_leaf;
    EXPECT_EQ(dep.host(i).packets_sent() > 0, !same_rack)
        << bp.hosts()[i].name;
    if (dep.host(i).active_flows() > 0) ++senders;
  }
  EXPECT_EQ(senders, 9);
  auto& sink = dynamic_cast<traffic::Host&>(dep.network().find(victim));
  EXPECT_GT(sink.sink_stats().received, 0u);

  // The heal stops every flow.
  ctx.sched.run_until(at + storm.duration + sim::Duration::millis(1));
  for (std::uint32_t i = 0; i < bp.hosts().size(); ++i) {
    EXPECT_EQ(dep.host(i).active_flows(), 0u) << bp.hosts()[i].name;
  }
}

// A flap storm takes the interface down and back up once per period.
TEST(ChaosEngine, FlapStormTogglesTheInterface) {
  Converged f(Proto::kMtp);
  topo::ChaosEngine chaos(f.dep.network(), f.bp, /*seed=*/7);
  const topo::FailurePoint fp = f.bp.failure_point(topo::TestCase::kTC1);
  const net::Port& port = f.dep.network().find(fp.device).port(fp.port);
  const sim::Time at = f.ctx.now() + sim::Duration::millis(10);
  const sim::Duration period = sim::Duration::millis(100);
  chaos.flap_storm(fp, at, /*flaps=*/3, period);
  for (int k = 0; k < 3; ++k) {
    f.ctx.sched.run_until(at + period * k + period / 4);
    EXPECT_FALSE(port.admin_up()) << "flap " << k;
    f.ctx.sched.run_until(at + period * k + period * 3 / 4);
    EXPECT_TRUE(port.admin_up()) << "flap " << k;
  }
}

// On a sharded fabric a link whose ends live on different shards heals each
// direction on its own sender's shard.
TEST(ChaosEngine, HealAcrossShardsClearsBothDirections) {
  const topo::ClosBlueprint bp(topo::ClosParams::paper_2pod());
  harness::ShardedFabric fabric(bp, /*threads=*/2, /*seed=*/3);
  Deployment dep(fabric, Proto::kMtp);
  sim::ShardedEngine& engine = fabric.engine();
  dep.start();
  engine.run_until(sim::Time::zero() + kSettle);

  std::optional<topo::FailurePoint> fp;
  for (std::uint32_t li = 0; li < bp.links().size() && !fp; ++li) {
    const topo::LinkSpec& l = bp.links()[li];
    if (fabric.plan().shard_of(l.lower) != fabric.plan().shard_of(l.upper)) {
      fp = topo::FailurePoint{bp.device(l.lower).name, bp.port_on(l.lower, li),
                              bp.device(l.upper).name};
    }
  }
  ASSERT_TRUE(fp.has_value()) << "no link crosses the two shards";

  topo::ChaosEngine chaos(dep.network(), bp, /*seed=*/7);
  net::Link& link = chaos.link_of(*fp);
  const sim::Time now = fabric.ctx(0).now();
  chaos.blackhole_one_way(*fp, /*toward_device=*/true, now);
  chaos.loss_one_way(*fp, /*toward_device=*/false, 0.5, now);
  engine.run_until(now + sim::Duration::millis(50));
  EXPECT_FALSE(link.deliverable(chaos.dir_of(*fp, true)));
  EXPECT_GT(link.effective_loss(chaos.dir_of(*fp, false)), 0.0);

  chaos.heal(*fp, now + sim::Duration::millis(100));
  engine.run_until(now + sim::Duration::millis(150));
  for (net::Link::Dir dir : {net::Link::Dir::kAToB, net::Link::Dir::kBToA}) {
    EXPECT_FALSE(link.blackholed(dir));
    EXPECT_EQ(link.effective_loss(dir), 0.0);
  }
}

TEST(ChaosEngine, RampReachesTargetLoss) {
  Converged f(Proto::kMtp);
  topo::ChaosEngine chaos(f.dep.network(), f.bp, 7);
  topo::FailurePoint fp = f.bp.failure_point(topo::TestCase::kTC3);
  net::Link& link = chaos.link_of(fp);
  net::Link::Dir dir = chaos.dir_of(fp, /*toward_device=*/true);

  chaos.degradation_ramp(fp, /*toward_device=*/true, 1.0, f.ctx.now(),
                         sim::Duration::millis(500));
  f.ctx.sched.run_until(f.ctx.now() + sim::Duration::millis(250));
  double halfway = link.effective_loss(dir);
  EXPECT_GT(halfway, 0.2);
  EXPECT_LT(halfway, 0.8);
  f.ctx.sched.run_until(f.ctx.now() + sim::Duration::millis(300));
  EXPECT_DOUBLE_EQ(link.effective_loss(dir), 1.0);
  EXPECT_FALSE(link.deliverable(dir));
  EXPECT_TRUE(link.deliverable(net::Link::reverse(dir)));
}

// The headline acceptance metric: MR-MTP must notice a unidirectional
// blackhole within its dead interval (2 x 50 ms hello); BFD within ~300 ms;
// plain BGP only at its 3 s hold timer.
TEST(GrayDetection, MtpWithinDeadInterval) {
  harness::ExperimentSpec spec;
  spec.proto = Proto::kMtp;
  spec.gray.kind = harness::ExperimentSpec::GraySpec::Kind::kUnidirBlackhole;
  spec.with_traffic = false;
  spec.post_failure = sim::Duration::seconds(1);
  harness::ExperimentResult r = harness::run_failure_experiment(spec);
  ASSERT_TRUE(r.initial_converged);
  ASSERT_TRUE(r.failure_detected);
  EXPECT_LE(r.detection_latency.ns(), sim::Duration::millis(100).ns());
}

TEST(GrayDetection, StackOrderingUnderBlackhole) {
  auto detect = [](Proto proto) {
    harness::ExperimentSpec spec;
    spec.proto = proto;
    spec.gray.kind =
        harness::ExperimentSpec::GraySpec::Kind::kUnidirBlackhole;
    spec.with_traffic = false;
    spec.post_failure = sim::Duration::seconds(5);
    harness::ExperimentResult r = harness::run_failure_experiment(spec);
    EXPECT_TRUE(r.failure_detected) << to_string(proto);
    return r.detection_latency;
  };
  sim::Duration mtp = detect(Proto::kMtp);
  sim::Duration bfd = detect(Proto::kBgpBfd);
  sim::Duration bgp = detect(Proto::kBgp);
  EXPECT_LT(mtp.ns(), bfd.ns());
  EXPECT_LT(bfd.ns(), bgp.ns());
  EXPECT_LE(bfd.ns(), sim::Duration::millis(500).ns());
  EXPECT_GE(bgp.ns(), sim::Duration::seconds(1).ns());
}

// A TC1 interface failure is declared dead by exactly the two routers on
// the failed link, each naming its own port on it: the owner at once
// (Quick-to-Detect / fast external fallover) and the peer when its dead,
// hold or BFD timer runs out. For BGP that port carries the session's /31.
TEST(NeighborDown, FiresOnBothEndsOfTheFailedLinkOnly) {
  for (Proto proto : harness::kAllProtos) {
    Converged f(proto);
    ASSERT_TRUE(f.dep.converged()) << to_string(proto);
    std::vector<std::pair<std::uint32_t, std::uint32_t>> downs;
    for (std::uint32_t d = 0; d < f.dep.router_count(); ++d) {
      f.dep.router(d).on_neighbor_down = [&downs, d](sim::Time,
                                                     std::uint32_t port) {
        downs.emplace_back(d, port);
      };
    }
    const topo::FailurePoint fp = f.bp.failure_point(topo::TestCase::kTC1);
    const std::uint32_t owner = f.bp.device_index(fp.device);
    const std::uint32_t peer = f.bp.device_index(fp.peer);
    const std::uint32_t peer_port =
        f.dep.router(owner).port(fp.port).peer()->number();
    if (proto != Proto::kMtp) {
      auto mine = f.dep.bgp(owner).port_addr(fp.port);
      auto theirs = f.dep.bgp(peer).port_addr(peer_port);
      ASSERT_TRUE(mine && theirs) << to_string(proto);
      EXPECT_EQ(mine->value() ^ theirs->value(), 1u) << to_string(proto);
    }

    topo::FailureInjector injector(f.dep.network(), f.bp);
    injector.schedule_failure(topo::TestCase::kTC1,
                              f.ctx.now() + sim::Duration::millis(10));
    f.ctx.sched.run_until(f.ctx.now() + sim::Duration::seconds(5));

    std::sort(downs.begin(), downs.end());
    std::vector<std::pair<std::uint32_t, std::uint32_t>> want = {
        {owner, fp.port}, {peer, peer_port}};
    std::sort(want.begin(), want.end());
    EXPECT_EQ(downs, want) << to_string(proto);
  }
}

// Regression for the FailureInjector lifetime bugs: recovery before failure
// must throw instead of dereferencing an empty optional, and a second
// scheduled failure must not clobber the first one's capture.
TEST(FailureInjector, RecoveryBeforeFailureThrows) {
  net::SimContext ctx(1);
  topo::ClosBlueprint bp(topo::ClosParams::paper_2pod());
  Deployment dep(ctx, bp, Proto::kMtp);
  topo::FailureInjector injector(dep.network(), bp);
  EXPECT_THROW(injector.schedule_recovery(sim::Time::zero()),
               std::logic_error);
}

TEST(FailureInjector, SecondFailureDoesNotClobberFirst) {
  net::SimContext ctx(1);
  topo::ClosBlueprint bp(topo::ClosParams::paper_2pod());
  Deployment dep(ctx, bp, Proto::kMtp);
  dep.start();

  topo::FailureInjector injector(dep.network(), bp);
  injector.schedule_failure(topo::TestCase::kTC1,
                            sim::Time::zero() + sim::Duration::seconds(1));
  topo::FailurePoint first = *injector.point();
  injector.schedule_failure(topo::TestCase::kTC3,
                            sim::Time::zero() + sim::Duration::seconds(2));
  topo::FailurePoint second = *injector.point();
  ASSERT_NE(first.device, second.device);

  ctx.sched.run_until(sim::Time::zero() + sim::Duration::seconds(3));
  // Both interfaces must be down — before the fix the first callback
  // captured `point_` by pointer and failed the *second* point twice.
  EXPECT_FALSE(dep.network()
                   .find(first.device)
                   .port(first.port)
                   .admin_up());
  EXPECT_FALSE(dep.network()
                   .find(second.device)
                   .port(second.port)
                   .admin_up());
}

}  // namespace
}  // namespace mrmtp
