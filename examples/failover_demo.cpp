// Failover walkthrough: watch MR-MTP's Quick-to-Detect / Slow-to-Accept
// failure handling live. Fails the ToR-side interface of the L-1-1 <-> S-1-1
// link (the paper's TC1) under traffic, narrates each dead-neighbor
// declaration, dumps the tables the withdrawal and destination-exclusion
// updates left behind, then heals the link and shows the tree rebuild.
//
//   $ ./failover_demo
#include <cstdio>

#include "harness/deploy.hpp"
#include "topo/failure.hpp"

int main() {
  using namespace mrmtp;

  net::SimContext ctx(7);
  topo::ClosBlueprint blueprint(topo::ClosParams::paper_2pod());
  harness::Deployment dep(ctx, blueprint, harness::Proto::kMtp, {});
  dep.start();

  // Quiet period: initial neighbor acceptance + tree establishment.
  ctx.sched.run_until(sim::Time::from_ns(sim::Duration::seconds(2).ns()));
  std::printf("--- fabric converged; starting traffic 11 -> 14 ---\n");

  auto& sender = dep.host(0);
  auto& receiver = dep.host(3);
  receiver.listen();
  traffic::FlowConfig flow;
  flow.dst = receiver.addr();
  flow.gap = sim::Duration::millis(2);
  sender.start_flow(flow);
  ctx.sched.run_until(ctx.now() + sim::Duration::seconds(1));

  // Narrate every dead-neighbor declaration from here on: Quick-to-Detect
  // at L-1-1 (its own interface) and, a dead interval later, at S-1-1.
  for (std::uint32_t d = 0; d < dep.router_count(); ++d) {
    net::Node& router = dep.router(d);
    router.on_neighbor_down = [&router](sim::Time at, std::uint32_t port) {
      std::printf("[%s] %s: neighbor on port %u declared DOWN\n",
                  at.str().c_str(), router.name().c_str(), port);
    };
  }

  // TC1: L-1-1's uplink interface to S-1-1 goes down.
  topo::FailureInjector injector(dep.network(), blueprint);
  auto fp = blueprint.failure_point(topo::TestCase::kTC1);
  std::printf("\n--- failing %s port %u (link to %s) — paper TC1 ---\n",
              fp.device.c_str(), fp.port, fp.peer.c_str());
  injector.schedule_failure(topo::TestCase::kTC1,
                            ctx.now() + sim::Duration::millis(10));
  ctx.sched.run_until(ctx.now() + sim::Duration::millis(500));

  auto& s11 = dep.mtp(blueprint.device_index("S-1-1"));
  auto& t1 = dep.mtp(blueprint.device_index("T-1"));
  auto& tor12 = dep.mtp(blueprint.device_index("L-1-2"));
  std::printf("\nafter failure:\n");
  std::printf("  S-1-1 VID table (lost 11.1):\n%s",
              s11.vid_table().dump().c_str());
  std::printf("  T-1 VID table (11.1.1 withdrawn):\n%s",
              t1.vid_table().dump().c_str());
  std::printf("  L-1-2 exclusions (destination 11 avoids the dead branch):\n%s",
              tor12.exclusions().dump().c_str());

  // Heal the interface; Slow-to-Accept takes three hellos, then the branch
  // re-joins with the same derived VIDs.
  std::printf("\n--- healing the interface ---\n");
  injector.schedule_recovery(ctx.now() + sim::Duration::millis(10));
  ctx.sched.run_until(ctx.now() + sim::Duration::seconds(1));

  std::printf("\nafter recovery:\n");
  std::printf("  T-1 VID table:\n%s", t1.vid_table().dump().c_str());
  std::printf("  L-1-2 exclusions: %s\n",
              tor12.exclusions().size() == 0 ? "(cleared)"
                                             : tor12.exclusions().dump().c_str());

  sender.stop_flow();
  ctx.sched.run_until(ctx.now() + sim::Duration::millis(100));
  const auto& sink = receiver.sink_stats();
  std::printf("\ntraffic across the whole episode: sent %llu, lost %llu "
              "(longest gap %s)\n",
              static_cast<unsigned long long>(sender.packets_sent()),
              static_cast<unsigned long long>(sink.lost(sender.packets_sent())),
              sink.max_gap.str().c_str());
  return 0;
}
