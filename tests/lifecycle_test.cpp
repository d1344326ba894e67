// LifecycleEngine: rolling upgrades (drain -> wipe -> cold rejoin), live
// pod expansion, and the misconfiguration suite, audited end to end. The
// invariants under test:
//   * planned maintenance leaks zero auditor violations outside each
//     phase's declared reconvergence window;
//   * a draining router is healthy by definition — violations attributed
//     to it during the drain interval are failures;
//   * a cold-booted router rejoins with a fully wiped control plane and
//     the fabric re-converges inside the window;
//   * rebooting mid-handshake must not wedge the surviving neighbor.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "harness/auditor.hpp"
#include "harness/lifecycle.hpp"

namespace mrmtp {
namespace {

using harness::Deployment;
using harness::DeployOptions;
using harness::FabricAuditor;
using harness::LifecycleEngine;
using harness::Proto;

constexpr auto kSettle = sim::Duration::seconds(3);

struct Converged {
  net::SimContext ctx;
  topo::ClosBlueprint bp;
  Deployment dep;

  explicit Converged(Proto proto, std::uint64_t seed = 1,
                     topo::ClosParams params = topo::ClosParams::paper_2pod(),
                     DeployOptions opts = {})
      : ctx(seed), bp(params), dep(ctx, bp, proto, std::move(opts)) {
    dep.start();
    ctx.sched.run_until(sim::Time::zero() + kSettle);
  }

  /// Runs the fabric until `end` plus a little margin.
  void run_to(sim::Time end) {
    ctx.sched.run_until(end + sim::Duration::millis(100));
  }
};

/// Drives a rolling upgrade over `targets` and returns the engine for
/// post-run assertions. The auditor sweeps every 50 ms throughout.
sim::Time drive_upgrade(Converged& f, LifecycleEngine& engine,
                        const std::vector<std::uint32_t>& targets) {
  LifecycleEngine::Options opts;  // engine was built with defaults
  sim::Time t0 = f.ctx.now() + sim::Duration::millis(100);
  engine.rolling_upgrade(targets, t0);
  sim::Time end = t0;
  for (std::size_t i = 0; i < targets.size(); ++i) {
    end = end + opts.drain_grace + opts.reboot_hold + opts.reconverge_window;
  }
  f.run_to(end);
  return end;
}

TEST(Lifecycle, CanaryUpgradeMtp) {
  Converged f(Proto::kMtp);
  ASSERT_TRUE(f.dep.converged());
  FabricAuditor auditor(f.dep);
  auditor.start(sim::Duration::millis(50));
  LifecycleEngine engine(f.dep, auditor);

  std::vector<std::uint32_t> canary = engine.canary();
  ASSERT_EQ(canary.size(), 1u);
  drive_upgrade(f, engine, canary);
  auditor.stop();

  ASSERT_EQ(engine.phases().size(), 1u);
  EXPECT_TRUE(engine.all_reconverged());
  EXPECT_TRUE(engine.out_of_window_violations().empty());
  EXPECT_TRUE(engine.drain_violations().empty());
  EXPECT_TRUE(f.dep.converged());
  // The cold boot wiped the control plane and the router rejoined: it must
  // again hold VID state for every reachable leaf.
  EXPECT_EQ(auditor.sweep(), 0u);
}

TEST(Lifecycle, OnePodUpgradeMtp) {
  Converged f(Proto::kMtp);
  ASSERT_TRUE(f.dep.converged());
  FabricAuditor auditor(f.dep);
  auditor.start(sim::Duration::millis(50));
  LifecycleEngine engine(f.dep, auditor);

  std::vector<std::uint32_t> pod = engine.pod_routers(1);
  ASSERT_EQ(pod.size(), 4u);  // 2 ToRs + 2 pod spines in paper_2pod
  drive_upgrade(f, engine, pod);
  auditor.stop();

  EXPECT_EQ(engine.phases().size(), pod.size());
  EXPECT_TRUE(engine.all_reconverged());
  EXPECT_TRUE(engine.out_of_window_violations().empty());
  EXPECT_TRUE(engine.drain_violations().empty());
  EXPECT_TRUE(f.dep.converged());

  // One in-window sweep pinned entry by entry, in report order: while the
  // first ToR reboots, the others' exclusions rule out every live uplink
  // toward its tree, and the rebooting ToR has no uplink at all.
  std::vector<std::string> sweep;
  for (const harness::Violation& v : auditor.violations()) {
    if (v.at == sim::Time::zero() + sim::Duration::millis(3500)) {
      sweep.push_back(v.str());
    }
  }
  EXPECT_EQ(sweep, (std::vector<std::string>{
      "[3.500000s] L-1-2 exclusion-blackhole: no eligible uplink toward "
      "root 11 (live uplinks excluded)",
      "[3.500000s] L-2-1 exclusion-blackhole: no eligible uplink toward "
      "root 11 (live uplinks excluded)",
      "[3.500000s] L-2-2 exclusion-blackhole: no eligible uplink toward "
      "root 11 (live uplinks excluded)",
      "[3.500000s] L-1-1 forwarding-blackhole: no eligible uplink toward "
      "root 12",
      "[3.500000s] L-1-1 forwarding-blackhole: no eligible uplink toward "
      "root 13",
      "[3.500000s] L-1-1 forwarding-blackhole: no eligible uplink toward "
      "root 14",
  }));
}

// The acceptance scenario: every spine (pod and top tier) of the 8-PoD
// fabric upgraded serially, on the symmetric and the asymmetric variant.
TEST(Lifecycle, AllSpinesUpgradeMtp8Pod) {
  for (bool asymmetric : {false, true}) {
    topo::ClosParams params = asymmetric
                                  ? topo::ClosParams::asymmetric_8pod()
                                  : topo::ClosParams{8, 2, 2, 4, 1};
    Converged f(Proto::kMtp, /*seed=*/1, params);
    ASSERT_TRUE(f.dep.converged()) << (asymmetric ? "asym" : "sym");
    FabricAuditor auditor(f.dep);
    auditor.start(sim::Duration::millis(50));
    LifecycleEngine engine(f.dep, auditor);

    std::vector<std::uint32_t> spines = engine.all_spines();
    ASSERT_EQ(spines.size(), 20u);  // 8x2 pod spines + 4 top spines
    drive_upgrade(f, engine, spines);
    auditor.stop();

    EXPECT_TRUE(engine.all_reconverged()) << (asymmetric ? "asym" : "sym");
    EXPECT_TRUE(engine.out_of_window_violations().empty())
        << (asymmetric ? "asym" : "sym");
    EXPECT_TRUE(engine.drain_violations().empty())
        << (asymmetric ? "asym" : "sym");
    EXPECT_TRUE(f.dep.converged());
    EXPECT_EQ(auditor.sweep(), 0u);
  }
}

TEST(Lifecycle, CanaryUpgradeBgpBfd) {
  Converged f(Proto::kBgpBfd);
  ASSERT_TRUE(f.dep.converged());
  FabricAuditor auditor(f.dep);
  auditor.start(sim::Duration::millis(50));
  LifecycleEngine engine(f.dep, auditor);

  std::vector<std::uint32_t> canary = engine.canary();
  drive_upgrade(f, engine, canary);
  auditor.stop();

  EXPECT_TRUE(engine.all_reconverged());
  EXPECT_TRUE(engine.out_of_window_violations().empty());
  EXPECT_TRUE(engine.drain_violations().empty());
  EXPECT_TRUE(f.dep.converged());
  EXPECT_EQ(auditor.sweep(), 0u);
}

// A drained router is costed out, not broken: with a spine held in drain
// the fabric stays converged and the auditor stays silent.
TEST(Lifecycle, DrainedRouterIsHealthyByDefinition) {
  Converged f(Proto::kMtp);
  ASSERT_TRUE(f.dep.converged());
  std::uint32_t spine = f.bp.device_index("S-1-1");

  f.dep.drain_router(spine);
  f.ctx.sched.run_until(f.ctx.now() + sim::Duration::seconds(1));

  FabricAuditor auditor(f.dep);
  EXPECT_EQ(auditor.sweep(), 0u);
  EXPECT_TRUE(f.dep.converged());
}

TEST(Lifecycle, LiveExpansionMtp) {
  DeployOptions opts;
  opts.deferred_pods = {4};
  Converged f(Proto::kMtp, /*seed=*/1, topo::ClosParams::paper_4pod(), opts);
  ASSERT_TRUE(f.dep.converged());

  // The dark pod's routers are wired but powered off.
  std::vector<std::uint32_t> dark;
  for (std::uint32_t d = 0; d < f.bp.devices().size(); ++d) {
    if (f.bp.device(d).pod == 4) dark.push_back(d);
  }
  ASSERT_FALSE(dark.empty());
  for (std::uint32_t d : dark) EXPECT_FALSE(f.dep.router_active(d));

  FabricAuditor auditor(f.dep);
  auditor.start(sim::Duration::millis(50));
  ASSERT_EQ(auditor.sweep(), 0u) << "dark pod must not trip the auditor";

  LifecycleEngine::Options lopts;
  LifecycleEngine engine(f.dep, auditor);
  sim::Time t0 = f.ctx.now() + sim::Duration::millis(100);
  engine.expand_pod(4, t0);
  f.run_to(t0 + lopts.reconverge_window);
  auditor.stop();

  EXPECT_TRUE(engine.all_reconverged());
  EXPECT_TRUE(engine.out_of_window_violations().empty());
  for (std::uint32_t d : dark) EXPECT_TRUE(f.dep.router_active(d));
  EXPECT_TRUE(f.dep.converged());
  EXPECT_EQ(auditor.sweep(), 0u);

  // The merge is real: a host in the new pod reaches a host in pod 1.
  std::uint32_t new_host = 0;
  bool found = false;
  for (std::uint32_t h = 0; h < f.dep.host_count(); ++h) {
    if (f.bp.device(f.bp.hosts()[h].leaf).pod == 4) {
      new_host = h;
      found = true;
      break;
    }
  }
  ASSERT_TRUE(found);
  auto& dst = f.dep.host(0);
  dst.listen();
  traffic::FlowConfig flow;
  flow.dst = dst.addr();
  f.dep.host(new_host).start_flow(flow);
  f.ctx.sched.run_until(f.ctx.now() + sim::Duration::millis(500));
  f.dep.host(new_host).stop_flow();
  EXPECT_GT(dst.sink_stats().unique_received, 0u);
}

TEST(Lifecycle, LiveExpansionBgpBfd) {
  DeployOptions opts;
  opts.deferred_pods = {4};
  Converged f(Proto::kBgpBfd, /*seed=*/1, topo::ClosParams::paper_4pod(),
              opts);
  ASSERT_TRUE(f.dep.converged());

  FabricAuditor auditor(f.dep);
  ASSERT_EQ(auditor.sweep(), 0u);

  LifecycleEngine::Options lopts;
  LifecycleEngine engine(f.dep, auditor);
  sim::Time t0 = f.ctx.now() + sim::Duration::millis(100);
  engine.expand_pod(4, t0);
  f.run_to(t0 + lopts.reconverge_window);

  EXPECT_TRUE(engine.all_reconverged());
  EXPECT_TRUE(f.dep.converged());
  EXPECT_EQ(auditor.sweep(), 0u);
}

TEST(Lifecycle, MisconfigAsymmetricDown) {
  for (Proto proto : {Proto::kMtp, Proto::kBgpBfd}) {
    Converged f(proto);
    ASSERT_TRUE(f.dep.converged()) << to_string(proto);
    FabricAuditor auditor(f.dep);
    auditor.start(sim::Duration::millis(50));
    LifecycleEngine::Options lopts;
    LifecycleEngine engine(f.dep, auditor);

    // One-sided shutdown of L-1-1's first uplink; S-1-1 is never told.
    std::uint32_t leaf = f.bp.device_index("L-1-1");
    sim::Time t0 = f.ctx.now() + sim::Duration::millis(100);
    engine.misconfig_asymmetric_down(leaf, 1, t0);
    f.run_to(t0 + lopts.reconverge_window);
    auditor.stop();

    EXPECT_TRUE(engine.all_reconverged()) << to_string(proto);
    EXPECT_TRUE(engine.out_of_window_violations().empty()) << to_string(proto);
    EXPECT_TRUE(f.dep.converged()) << to_string(proto);
  }
}

// A rack deployed with another rack's subnet: the fabric must reject the
// duplicate root (MR-MTP names trees by the rack VID) and keep every other
// tree clean. The victim is excluded from convergence scopes by design.
TEST(Lifecycle, MisconfigDuplicateSubnetMtp) {
  DeployOptions opts;
  std::uint32_t source = 0;
  std::uint32_t victim = 0;
  {
    topo::ClosBlueprint probe(topo::ClosParams::paper_2pod());
    source = probe.device_index("L-1-1");
    victim = probe.device_index("L-2-1");
  }
  opts.duplicate_subnet_of = std::make_pair(victim, source);
  Converged f(Proto::kMtp, /*seed=*/1, topo::ClosParams::paper_2pod(), opts);

  EXPECT_TRUE(f.dep.converged());
  std::uint64_t rejected = 0;
  for (std::uint32_t d = 0; d < f.dep.router_count(); ++d) {
    rejected += f.dep.mtp(d).mtp_stats().duplicate_roots_rejected;
  }
  EXPECT_GT(rejected, 0u);
  FabricAuditor auditor(f.dep);
  EXPECT_EQ(auditor.sweep(), 0u) << "containment: other trees stay clean";
}

// BGP mode refuses the duplicate-subnet knob: overlapping rack prefixes
// would silently anycast instead of being detected.
TEST(Lifecycle, DuplicateSubnetRejectedUnderBgp) {
  net::SimContext ctx(1);
  topo::ClosBlueprint bp(topo::ClosParams::paper_2pod());
  DeployOptions opts;
  opts.duplicate_subnet_of = std::make_pair(3u, 0u);
  EXPECT_THROW(Deployment(ctx, bp, Proto::kBgp, opts), std::invalid_argument);
}

// Two seeded stripe miswires: reachability is preserved, so the fabric must
// still converge and audit clean even though the wiring violates the rule.
TEST(Lifecycle, MisconfigMiswiredStripeStillConverges) {
  topo::ClosParams params{8, 2, 2, 4, 1};
  params.miswires = 2;
  params.miswire_seed = 7;
  Converged f(Proto::kMtp, /*seed=*/1, params);

  // Each seeded swap crosses two cables, so both ends of the swap report.
  EXPECT_EQ(f.bp.miswired_links().size(), 2u * 2);
  EXPECT_TRUE(f.dep.converged());
  FabricAuditor auditor(f.dep);
  EXPECT_EQ(auditor.sweep(), 0u);
}

// Reboot while the neighbor is mid BGP handshake: the stop() teardown RSTs
// half-open connections, and the surviving peer must fall back to its
// connect-retry loop instead of wedging on a dead session.
TEST(Lifecycle, RebootMidHandshakeDoesNotWedgeBgpNeighbor) {
  net::SimContext ctx(1);
  topo::ClosBlueprint bp(topo::ClosParams::paper_2pod());
  Deployment dep(ctx, bp, Proto::kBgp);
  dep.start();

  // 10 ms in: SYNs and OPENs are in flight, nothing is established yet.
  ctx.sched.run_until(sim::Time::zero() + sim::Duration::millis(10));
  std::uint32_t spine = bp.device_index("S-1-1");
  dep.stop_router(spine);
  ctx.sched.run_until(ctx.now() + sim::Duration::seconds(2));
  dep.restart_router(spine);
  ctx.sched.run_until(ctx.now() + sim::Duration::seconds(8));

  EXPECT_TRUE(dep.converged());
  FabricAuditor auditor(dep);
  EXPECT_EQ(auditor.sweep(), 0u);
}

// A stopped BGP+BFD router parks a sink on the BFD port: a control packet
// still in flight from a neighbor lands there, not in the destroyed session
// manager (the sanitized variant faults on the latter).
TEST(Lifecycle, LateBfdPacketReachesStoppedRouterHarmlessly) {
  Converged f(Proto::kBgpBfd);
  ASSERT_TRUE(f.dep.converged());
  const topo::FailurePoint fp = f.bp.failure_point(topo::TestCase::kTC1);
  bgp::BgpRouter& owner = f.dep.bgp(f.bp.device_index(fp.device));
  bgp::BgpRouter& peer = f.dep.bgp(f.bp.device_index(fp.peer));
  const auto owner_addr = owner.port_addr(fp.port);
  const auto peer_addr =
      peer.port_addr(owner.port(fp.port).peer()->number());
  ASSERT_TRUE(owner_addr && peer_addr);

  owner.stop();
  const std::uint64_t delivered = owner.forwarding_stats().delivered_local;
  peer.send_udp(*peer_addr, *owner_addr, bfd::kBfdPort, bfd::kBfdPort,
                bfd::BfdPacket{}.serialize(), net::TrafficClass::kBfd);
  f.ctx.sched.run_until(f.ctx.now() + sim::Duration::millis(1));
  EXPECT_GT(owner.forwarding_stats().delivered_local, delivered);
  EXPECT_EQ(owner.established_sessions(), 0u);
}

// Reboot mid MTP bring-up (ADVERTISE/JOIN exchange in flight): the wiped
// router must rejoin from nothing and the neighbor must not keep phantom
// state from the half-finished exchange.
TEST(Lifecycle, RebootMidAdvertiseMtp) {
  net::SimContext ctx(1);
  topo::ClosBlueprint bp(topo::ClosParams::paper_2pod());
  Deployment dep(ctx, bp, Proto::kMtp);
  dep.start();

  ctx.sched.run_until(sim::Time::zero() + sim::Duration::millis(2));
  std::uint32_t spine = bp.device_index("S-1-1");
  dep.stop_router(spine);
  ctx.sched.run_until(ctx.now() + sim::Duration::millis(500));
  dep.restart_router(spine);
  ctx.sched.run_until(ctx.now() + sim::Duration::seconds(3));

  EXPECT_TRUE(dep.converged());
  FabricAuditor auditor(dep);
  EXPECT_EQ(auditor.sweep(), 0u);
}

// Asymmetric fabrics (non-uniform rack counts, mixed uplink speeds) must
// converge and audit clean under both stacks before any lifecycle runs.
TEST(Lifecycle, AsymmetricFabricConverges) {
  for (Proto proto : {Proto::kMtp, Proto::kBgpBfd}) {
    Converged f(proto, /*seed=*/1, topo::ClosParams::asymmetric_8pod());
    EXPECT_TRUE(f.dep.converged()) << to_string(proto);
    FabricAuditor auditor(f.dep);
    EXPECT_EQ(auditor.sweep(), 0u) << to_string(proto);
  }
}

// The engine's event log mirrors into an attached ChaosEngine so lifecycle
// actions line up with chaos events on one timeline.
TEST(Lifecycle, EventsMirrorIntoChaosLog) {
  Converged f(Proto::kMtp);
  ASSERT_TRUE(f.dep.converged());
  FabricAuditor auditor(f.dep);
  topo::ChaosEngine chaos(f.dep.network(), f.bp, /*seed=*/5);
  LifecycleEngine engine(f.dep, auditor);
  engine.attach_chaos(chaos);

  drive_upgrade(f, engine, engine.canary());

  EXPECT_FALSE(engine.events().empty());
  EXPECT_GE(chaos.log().size(), engine.events().size());
  bool saw_maintenance = false;
  for (const auto& ev : chaos.log()) {
    if (ev.kind == topo::GrayKind::kMaintenance) saw_maintenance = true;
  }
  EXPECT_TRUE(saw_maintenance);
}

}  // namespace
}  // namespace mrmtp
