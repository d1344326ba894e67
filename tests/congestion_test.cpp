// Congestion behavior with finite link queues: tail-drop accounting, incast
// onto a single rack link, and queue sizing effects — substrate realism the
// paper's testbed had implicitly (kernel queues) but never measured.
#include <gtest/gtest.h>

#include "harness/deploy.hpp"

namespace mrmtp {
namespace {

using harness::Deployment;
using harness::DeployOptions;
using harness::Proto;

TEST(LinkQueueTest, TailDropWhenBacklogExceedsLimit) {
  net::SimContext ctx(1);
  net::Network network(ctx);

  class Sink : public net::Node {
   public:
    using Node::Node;
    void handle_frame(net::Port&, net::Frame&&) override { ++received; }
    int received = 0;
  };
  auto& a = network.add_node<Sink>("a", 1);
  auto& b = network.add_node<Sink>("b", 1);
  // 1 Gb/s with a 100 us queue: ~12.5 kB of buffer, i.e. ~12 full frames.
  auto& link = network.connect(
      a, b, {.bandwidth_bps = 1'000'000'000, .max_queue = sim::Duration::micros(100)});

  net::Frame f;
  f.payload.assign(1000, 0xaa);
  for (int i = 0; i < 100; ++i) a.transmit(a.port(1), net::Frame{f});
  ctx.sched.run();

  EXPECT_GT(link.stats().dropped_queue_full(), 0u);
  EXPECT_EQ(static_cast<std::uint64_t>(b.received) +
                link.stats().dropped_queue_full(),
            100u);
  // Roughly the backlog window worth of frames got through the queue.
  EXPECT_GT(b.received, 8);
  EXPECT_LT(b.received, 30);
}

TEST(LinkQueueTest, LargerQueueAbsorbsBurst) {
  for (auto [queue_us, expect_all] :
       {std::pair{50, false}, std::pair{10000, true}}) {
    net::SimContext ctx(1);
    net::Network network(ctx);
    class Sink : public net::Node {
     public:
      using Node::Node;
      void handle_frame(net::Port&, net::Frame&&) override { ++received; }
      int received = 0;
    };
    auto& a = network.add_node<Sink>("a", 1);
    auto& b = network.add_node<Sink>("b", 1);
    network.connect(a, b,
                    {.bandwidth_bps = 1'000'000'000,
                     .max_queue = sim::Duration::micros(queue_us)});
    net::Frame f;
    f.payload.assign(1000, 0xaa);
    for (int i = 0; i < 50; ++i) a.transmit(a.port(1), net::Frame{f});
    ctx.sched.run();
    EXPECT_EQ(b.received == 50, expect_all) << queue_us << "us queue";
  }
}

/// Incast: every other server blasts one victim server simultaneously; the
/// victim's rack link must tail-drop rather than queue unboundedly, and the
/// fabric itself must stay unharmed (keep-alives never starve).
class IncastTest : public ::testing::TestWithParam<harness::Proto> {};

TEST_P(IncastTest, VictimRackLinkDropsFabricSurvives) {
  harness::Proto proto = GetParam();
  net::SimContext ctx(19);
  topo::ClosBlueprint bp(topo::ClosParams::paper_4pod());
  DeployOptions options;
  // Slow host links with shallow buffers; fast fabric.
  options.host_link.bandwidth_bps = 100'000'000;  // 100 Mb/s access
  options.host_link.max_queue = sim::Duration::micros(500);
  Deployment dep(ctx, bp, proto, options);
  dep.start();
  ctx.sched.run_until(sim::Time::from_ns(
      (proto == Proto::kMtp ? sim::Duration::seconds(2)
                            : sim::Duration::seconds(5))
          .ns()));
  ASSERT_TRUE(dep.converged());

  auto& victim = dep.host(0);
  victim.listen();
  // 7 senders x 1000B x 1 ms gap = 56 Mb/s aggregate into a 100 Mb/s link —
  // bursts collide and overflow the shallow queue.
  for (std::uint32_t h = 1; h < dep.host_count(); ++h) {
    traffic::FlowConfig flow;
    flow.dst = victim.addr();
    flow.count = 800;
    flow.gap = sim::Duration::micros(300);
    flow.payload_size = 1000;
    dep.host(h).start_flow(flow);
  }
  ctx.sched.run_until(ctx.now() + sim::Duration::seconds(2));

  // All seven senders reuse the same sequence space, so count raw arrivals
  // (the dedup counter collapses concurrent flows by design).
  std::uint64_t sent = 7 * 800;
  std::uint64_t got = victim.sink_stats().received;
  EXPECT_LT(got, sent);      // some incast loss is expected
  EXPECT_GT(got, sent / 2);  // but the link still moves most of it

  // The fabric's control plane must have stayed converged through it all.
  EXPECT_TRUE(dep.converged());
}

INSTANTIATE_TEST_SUITE_P(Protocols, IncastTest,
                         ::testing::Values(Proto::kMtp, Proto::kBgp));

TEST(RackLanTest, MultipleHostsPerRackSwitchLocally) {
  // hosts_per_tor = 2: intra-rack traffic must hairpin through the ToR's
  // rack ports without ever entering the fabric (MR-MTP local switching).
  net::SimContext ctx(29);
  topo::ClosParams params = topo::ClosParams::paper_2pod();
  params.hosts_per_tor = 2;
  topo::ClosBlueprint bp(params);
  Deployment dep(ctx, bp, Proto::kMtp, {});
  dep.start();
  ctx.sched.run_until(sim::Time::from_ns(sim::Duration::seconds(2).ns()));
  ASSERT_TRUE(dep.converged());
  ASSERT_EQ(dep.host_count(), 8u);

  // Hosts 0 and 1 share rack L-1-1 (192.168.11.1 / .2).
  auto& a = dep.host(0);
  auto& b = dep.host(1);
  ASSERT_EQ(b.addr().str(), "192.168.11.2");
  b.listen();
  traffic::FlowConfig flow;
  flow.dst = b.addr();
  flow.count = 100;
  flow.gap = sim::Duration::millis(1);
  a.start_flow(flow);
  ctx.sched.run_until(ctx.now() + sim::Duration::seconds(1));

  EXPECT_EQ(b.sink_stats().unique_received, 100u);
  // Nothing intra-rack touched the fabric.
  auto& tor = dep.mtp(bp.leaf(1, 1));
  EXPECT_EQ(tor.mtp_stats().data_forwarded, 0u);
  EXPECT_EQ(tor.mtp_stats().data_delivered, 0u);

  // Cross-rack from the second host also works (rack port mapping is per
  // host address).
  auto& far = dep.host(7);
  far.listen();
  traffic::FlowConfig flow2;
  flow2.dst = far.addr();
  flow2.count = 50;
  flow2.gap = sim::Duration::millis(1);
  b.start_flow(flow2);
  ctx.sched.run_until(ctx.now() + sim::Duration::seconds(1));
  EXPECT_EQ(far.sink_stats().unique_received, 50u);
}

}  // namespace
}  // namespace mrmtp
