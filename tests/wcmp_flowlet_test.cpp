// Weighted multipath (WCMP) + flowlet switching.
//
// Unit tier: the weighted rendezvous primitives must deliver the advertised
// w_i / Σw split (chi-square against expected counts), never pick a
// zero-weight member, stay stable under member loss, and agree in
// distribution with the integer-replication reference. The FlowletTable is
// exercised standalone for hit/evict/collision behavior, and the RouteTable's
// cached-LPM fast path for epoch invalidation.
//
// Picker tier: net::Node::pick_egress, the one egress choice of MR-MTP and
// IP forwarding, must apply the exact congestion discounts (PFC pause x0.05,
// ECN-level backlog x0.25, none with ECN marking off), keep forwarding when
// every egress is discounted, stick a flow inside its flowlet gap and count
// one reroute on the new egress when it redraws, and split IP flows by the
// installed next-hop weights.
//
// Integration tier: a full WCMP+flowlet campaign on the 2:1 oversubscribed
// asymmetric fabric must produce a bit-identical FlowStats table at 1 shard
// and 4 shards — flowlet state is per-shard and sim-time driven, so thread
// interleaving must never show through.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/workload.hpp"
#include "ip/route_table.hpp"
#include "net/link.hpp"
#include "net/network.hpp"
#include "net/stats.hpp"
#include "net/switch_buffer.hpp"
#include "transport/l3_node.hpp"
#include "util/hash.hpp"

namespace mrmtp {
namespace {

// ---------------------------------------------------------------------------
// Weighted rendezvous hashing.

/// Distributes `flows` pseudo-flows over `weights` and returns the counts.
template <typename Picker>
std::vector<std::uint64_t> spread(const std::vector<double>& weights,
                                  std::uint64_t flows, Picker&& pick) {
  std::vector<std::uint64_t> counts(weights.size(), 0);
  for (std::uint64_t f = 0; f < flows; ++f) {
    // mix64 decorrelates the sequential flow ids the same way real flow
    // hashes are produced.
    ++counts[pick(util::mix64(f ^ 0xf1043a5ull), weights)];
  }
  return counts;
}

std::size_t pick_weighted(std::uint64_t flow,
                          const std::vector<double>& weights) {
  return util::hrw_pick_weighted(
      flow, weights.size(), [](std::size_t i) { return 0x1000 + i; },
      [&](std::size_t i) { return weights[i]; });
}

/// Pearson chi-square statistic of observed vs w_i/Σw-expected counts.
double chi_square(const std::vector<std::uint64_t>& counts,
                  const std::vector<double>& weights) {
  double wsum = 0;
  std::uint64_t n = 0;
  for (double w : weights) wsum += w;
  for (auto c : counts) n += c;
  double chi = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const double expect = static_cast<double>(n) * weights[i] / wsum;
    if (expect <= 0) continue;
    const double d = static_cast<double>(counts[i]) - expect;
    chi += d * d / expect;
  }
  return chi;
}

TEST(WeightedHrwTest, SplitsProportionallyToWeights) {
  const std::vector<double> weights{1.0, 2.0, 4.0};
  const std::uint64_t kFlows = 20000;
  auto counts = spread(weights, kFlows, pick_weighted);
  // 2 degrees of freedom: chi-square < 13.8 is the p=0.001 bound — a correct
  // implementation fails this about once per thousand reseeds, and the flow
  // ids here are fixed, so this never flakes.
  EXPECT_LT(chi_square(counts, weights), 13.8)
      << counts[0] << "/" << counts[1] << "/" << counts[2];
  // Gross ordering sanity on top of the statistic.
  EXPECT_LT(counts[0], counts[1]);
  EXPECT_LT(counts[1], counts[2]);
}

TEST(WeightedHrwTest, ZeroWeightMemberNeverChosen) {
  const std::vector<double> weights{1.0, 0.0, 3.0};
  auto counts = spread(weights, 5000, pick_weighted);
  EXPECT_EQ(counts[1], 0u);
  EXPECT_GT(counts[0], 0u);
  EXPECT_GT(counts[2], 0u);
}

TEST(WeightedHrwTest, AllZeroWeightsFallBackToPlainHrw) {
  // A fully-discounted candidate set must still forward (anti-blackhole):
  // the pick degenerates to the unweighted HRW winner.
  const std::vector<double> weights{0.0, 0.0, 0.0};
  for (std::uint64_t f = 0; f < 64; ++f) {
    const std::uint64_t flow = util::mix64(f);
    const std::size_t got = pick_weighted(flow, weights);
    const std::size_t want = util::hrw_pick(
        flow, weights.size(), [](std::size_t i) { return 0x1000 + i; });
    EXPECT_EQ(got, want);
  }
}

TEST(WeightedHrwTest, SingleMemberDegenerate) {
  const std::vector<double> weights{7.5};
  for (std::uint64_t f = 0; f < 100; ++f) {
    EXPECT_EQ(pick_weighted(util::mix64(f), weights), 0u);
  }
}

TEST(WeightedHrwTest, ReplicatedVariantMatchesProportions) {
  // The integer-replication reference must produce the same 1:2:4 split in
  // distribution (not per-flow — the two schemes draw different hashes).
  const std::vector<double> weights{1.0, 2.0, 4.0};
  auto counts = spread(weights, 20000, [](std::uint64_t flow,
                                          const std::vector<double>& w) {
    return util::hrw_pick_replicated(
        flow, w.size(), [](std::size_t i) { return 0x2000 + i; },
        [&](std::size_t i) { return static_cast<std::uint64_t>(w[i]); });
  });
  EXPECT_LT(chi_square(counts, weights), 13.8)
      << counts[0] << "/" << counts[1] << "/" << counts[2];
}

TEST(WeightedHrwTest, MemberLossOnlyMovesOrphanedFlows) {
  // HRW stability: removing the last member must not move any flow that
  // wasn't mapped to it. With weights {2,1,1} drop member 2.
  const std::vector<double> full{2.0, 1.0, 1.0};
  const std::vector<double> reduced{2.0, 1.0};
  for (std::uint64_t f = 0; f < 4000; ++f) {
    const std::uint64_t flow = util::mix64(f * 977 + 13);
    const std::size_t before = pick_weighted(flow, full);
    const std::size_t after = pick_weighted(flow, reduced);
    if (before != 2) {
      EXPECT_EQ(after, before) << "flow " << f << " moved";
    }
  }
}

// ---------------------------------------------------------------------------
// FlowletTable.

TEST(FlowletTableTest, HitUpdatesAndMissEvictsStalest) {
  net::FlowletTable t;
  const std::uint64_t key = 0x1234;
  auto& s = t.probe(key);
  EXPECT_NE(s.key, key);  // cold table: miss
  s.key = key;
  s.last_ns = 100;
  s.port = 7;

  auto& again = t.probe(key);
  EXPECT_EQ(&again, &s);  // same slot on hit
  EXPECT_EQ(again.port, 7u);
}

TEST(FlowletTableTest, CollisionRunEvictsOldestEntry) {
  net::FlowletTable t;
  // Five keys landing on the same base slot exceed the probe run of 4; the
  // fifth must evict the stalest of the first four.
  const std::size_t base = 37;
  std::array<std::uint64_t, 5> keys{};
  for (std::size_t i = 0; i < keys.size(); ++i) {
    // Same low bits -> same base slot; distinct high bits keep keys unique.
    keys[i] = base | (static_cast<std::uint64_t>(i + 1) << 32);
  }
  for (std::size_t i = 0; i < 4; ++i) {
    auto& s = t.probe(keys[i]);
    s.key = keys[i];
    s.last_ns = static_cast<std::int64_t>(1000 + i);  // keys[0] is stalest
    s.port = static_cast<std::uint32_t>(i);
  }
  // All four still resident.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(t.probe(keys[i]).key, keys[i]);
  }
  auto& victim = t.probe(keys[4]);
  EXPECT_EQ(victim.key, keys[0]);  // stalest evicted, not an arbitrary slot
  victim.key = keys[4];
  victim.last_ns = 2000;
  EXPECT_EQ(t.probe(keys[4]).key, keys[4]);
  EXPECT_NE(t.probe(keys[0]).key, keys[0]);  // the old entry is gone
}

// ---------------------------------------------------------------------------
// RouteTable cached-LPM fast path.

TEST(RouteTableCacheTest, CacheHitsCountAndInvalidateOnChange) {
  ip::RouteTable rt;
  const auto dst = ip::Ipv4Addr::parse("10.1.2.3");
  rt.set(ip::Ipv4Prefix::parse("10.1.2.0/24"), ip::RouteProto::kBgp,
         {ip::NextHop{ip::Ipv4Addr::parse("10.0.0.1"), 1}});

  const ip::Route* first = rt.lookup_cached(dst);
  ASSERT_NE(first, nullptr);
  const ip::Route* second = rt.lookup_cached(dst);
  EXPECT_EQ(second, first);
  EXPECT_EQ(rt.select_stats().cache_hits, 1u);
  EXPECT_EQ(rt.select_stats().cache_misses, 1u);
  EXPECT_EQ(rt.select_stats().allocs_avoided, 1u);

  // Any table mutation bumps the epoch: the next lookup must miss, not
  // serve the stale Route pointer.
  rt.set(ip::Ipv4Prefix::parse("10.9.0.0/16"), ip::RouteProto::kBgp,
         {ip::NextHop{ip::Ipv4Addr::parse("10.0.0.2"), 2}});
  (void)rt.lookup_cached(dst);
  EXPECT_EQ(rt.select_stats().cache_misses, 2u);

  rt.clear();
  EXPECT_EQ(rt.lookup_cached(dst), nullptr);
}

// ---------------------------------------------------------------------------
// net::Node::pick_egress.

class SinkNode : public net::Node {
 public:
  using Node::Node;
  void handle_frame(net::Port& in, net::Frame&& frame) override {
    (void)in;
    (void)frame;
    ++received;
  }
  std::uint64_t received = 0;
};

/// A switch whose ports 1 and 2 lead to two sinks over 1 Gb/s links; its
/// picks run over two candidates, candidate i leaving through port i + 1.
class PickEgressTest : public ::testing::Test {
 protected:
  PickEgressTest() {
    const net::Link::Params slow{.bandwidth_bps = 1'000'000'000ull};
    links_[0] = &network_.connect(sw_, sink_a_, slow);
    links_[1] = &network_.connect(sw_, sink_b_, slow);
  }

  /// The discount-free weighted pick for base weights `w`.
  static std::size_t reference(std::uint64_t flow, std::array<double, 2> w) {
    return util::hrw_pick_weighted(
        flow, 2, [](std::size_t i) { return 0x1000 + i; },
        [&](std::size_t i) { return w[i]; });
  }

  std::size_t pick(std::uint64_t flow, std::array<double, 2> w) {
    return sw_.pick_egress(
        flow, 2, [](std::size_t i) { return 0x1000 + i; },
        [&](std::size_t i) { return w[i]; },
        [](std::size_t i) { return static_cast<std::uint32_t>(i + 1); });
  }

  /// Sends `frames` 1000 B data frames out `port` at the current instant:
  /// the first goes on the wire, the rest wait in its data band.
  void queue_data(std::uint32_t port, int frames) {
    for (int i = 0; i < frames; ++i) {
      net::Frame f;
      f.dst = net::MacAddr::broadcast();
      f.ethertype = net::EtherType::kIpv4;
      f.traffic_class = net::TrafficClass::kIpData;
      f.payload.assign(1000, 0);
      sw_.transmit(sw_.port(port), std::move(f));
    }
  }

  /// `sink` PAUSEs the switch's data band toward it (delivered by the next
  /// scheduler run).
  static void send_pause(SinkNode& sink) {
    net::Frame pause;
    pause.dst = net::MacAddr::broadcast();
    pause.ethertype = net::EtherType::kFlowControl;
    pause.payload.assign(1, 1);
    sink.transmit(sink.port(1), std::move(pause));
  }

  [[nodiscard]] const net::LinkDirStats& egress_stats(std::uint32_t port) {
    const net::Link& l = *links_[port - 1];
    return l.stats().dir(l.direction_from(sw_.port(port)));
  }

  /// Every fresh flow lands where the weighted pick over the equal base
  /// weights scaled by (`f1`, `f2`) sends it — and those factors move some
  /// flows, so the check is not vacuous.
  void expect_discounts(double f1, double f2) {
    std::size_t moved = 0;
    for (std::uint64_t f = 0; f < 2000; ++f) {
      const std::uint64_t flow = util::mix64(f ^ 0x5eedull);
      const std::size_t want = reference(flow, {f1, f2});
      EXPECT_EQ(pick(flow, {1.0, 1.0}), want) << "flow " << f;
      if (want != reference(flow, {1.0, 1.0})) ++moved;
    }
    if (f1 != f2) {
      EXPECT_GT(moved, 0u);
    }
  }

  net::SimContext ctx_{7};
  net::Network network_{ctx_};
  SinkNode& sw_ = network_.add_node<SinkNode>("sw", 1);
  SinkNode& sink_a_ = network_.add_node<SinkNode>("a", 2);
  SinkNode& sink_b_ = network_.add_node<SinkNode>("b", 2);
  std::array<net::Link*, 2> links_{};
};

TEST_F(PickEgressTest, PfcPausedEgressWeighsOneTwentieth) {
  sw_.enable_path_select(util::PathSelect::kWcmpFlowlet);
  send_pause(sink_a_);
  ctx_.sched.run();
  const net::Link& l = *links_[0];
  ASSERT_TRUE(l.data_paused(l.direction_from(sw_.port(1))));
  expect_discounts(0.05, 1.0);
}

TEST_F(PickEgressTest, BacklogAboveEcnThresholdWeighsOneQuarter) {
  net::SwitchBufferParams params;
  params.ecn_data_threshold = 2000;
  params.pfc_xoff_bytes = 0;
  sw_.enable_switch_buffer(params);
  sw_.enable_path_select(util::PathSelect::kWcmpFlowlet);
  queue_data(2, 4);
  const net::Link& l = *links_[1];
  ASSERT_GT(l.queued_data_bytes(l.direction_from(sw_.port(2))), 2000u);
  expect_discounts(1.0, 0.25);
}

// ecn_data_threshold == 0 means "mark nothing", not "every byte is above
// the threshold": a tail-drop buffer judges backlog against the 64 KiB
// default, so one small queued frame leaves the weight alone.
TEST_F(PickEgressTest, TailDropBufferWithSmallBacklogIsNotDiscounted) {
  net::SwitchBufferParams params;
  params.ecn_data_threshold = 0;
  params.pfc_xoff_bytes = 0;
  sw_.enable_switch_buffer(params);
  sw_.enable_path_select(util::PathSelect::kWcmpFlowlet);
  queue_data(1, 2);
  const net::Link& l = *links_[0];
  ASSERT_GT(l.queued_data_bytes(l.direction_from(sw_.port(1))), 0u);
  expect_discounts(1.0, 1.0);
}

// The pause discount is a factor, not a zero: with every egress paused the
// flows still split by base weight instead of falling back to the unweighted
// pick that an all-zero candidate set gets.
TEST_F(PickEgressTest, AllPausedSetKeepsItsWeightedSplit) {
  sw_.enable_path_select(util::PathSelect::kWcmpFlowlet);
  send_pause(sink_a_);
  send_pause(sink_b_);
  ctx_.sched.run();
  std::size_t unweighted_differs = 0;
  for (std::uint64_t f = 0; f < 2000; ++f) {
    const std::uint64_t flow = util::mix64(f ^ 0x5eedull);
    const std::size_t want = reference(flow, {1.0, 3.0});
    EXPECT_EQ(pick(flow, {1.0, 3.0}), want) << "flow " << f;
    const std::size_t unweighted =
        util::hrw_pick(flow, 2, [](std::size_t i) { return 0x1000 + i; });
    if (want != unweighted) ++unweighted_differs;
  }
  EXPECT_GT(unweighted_differs, 0u);
}

TEST_F(PickEgressTest, FlowSticksInsideGapAndRedrawsAfterIt) {
  sw_.enable_path_select(util::PathSelect::kWcmpFlowlet,
                         sim::Duration::micros(500));
  const std::uint64_t flow = util::mix64(42);
  const std::size_t first = pick(flow, {1.0, 1.0});
  const std::size_t other = 1 - first;
  // Zero base weight: a redraw could only choose `other`.
  std::array<double, 2> away{};
  away[other] = 1.0;
  auto advance = [&](sim::Duration d) {
    ctx_.sched.run_until(ctx_.now() + d);
  };

  advance(sim::Duration::micros(400));
  EXPECT_EQ(pick(flow, away), first) << "flowlet still open";
  advance(sim::Duration::micros(400));  // 400 us after the last departure
  EXPECT_EQ(pick(flow, away), first) << "each departure extends the flowlet";
  advance(sim::Duration::micros(501));
  EXPECT_EQ(pick(flow, away), other) << "gap expired: redraw";
  EXPECT_EQ(pick(flow, {1.0, 1.0}), other) << "new flowlet sticks";

  const auto new_port = static_cast<std::uint32_t>(other + 1);
  const auto old_port = static_cast<std::uint32_t>(first + 1);
  EXPECT_EQ(egress_stats(new_port).flowlet_reroutes, 1u);
  EXPECT_EQ(egress_stats(old_port).flowlet_reroutes, 0u);
  const net::Link& l = *links_[other];
  EXPECT_EQ(l.stats().dir(net::Link::reverse(l.direction_from(
                              sw_.port(new_port)))).flowlet_reroutes,
            0u);
}

// IP forwarding picks through the same picker: under kWcmp a next hop with
// four times the weight carries about four fifths of the flows.
TEST(PathSelectTest, WeightedIpSelectHonorsInstalledWeights) {
  net::SimContext ctx(5);
  net::Network network(ctx);
  auto& router = network.add_node<transport::L3Node>("r", 1);
  auto& slow_sink = network.add_node<SinkNode>("slow", 2);
  auto& fast_sink = network.add_node<SinkNode>("fast", 2);
  network.connect(router, slow_sink);
  network.connect(router, fast_sink);
  router.enable_path_select(util::PathSelect::kWcmp);

  ip::NextHop slow{ip::Ipv4Addr::parse("10.0.0.1"), 1};
  slow.weight = 1;
  ip::NextHop fast{ip::Ipv4Addr::parse("10.0.0.2"), 2};
  fast.weight = 4;
  router.routes().set(ip::Ipv4Prefix::parse("10.1.0.0/16"),
                      ip::RouteProto::kBgp, {slow, fast});
  EXPECT_GE(router.routes().select_stats().weight_updates, 1u);

  const auto src = ip::Ipv4Addr::parse("10.9.0.1");
  const auto dst = ip::Ipv4Addr::parse("10.1.2.3");
  const std::uint64_t kFlows = 4000;
  for (std::uint64_t f = 0; f < kFlows; ++f) {
    router.send_udp(src, dst, static_cast<std::uint16_t>(1024 + f), 80,
                    net::Buffer{}, net::TrafficClass::kIpData);
  }
  ctx.sched.run();
  ASSERT_EQ(slow_sink.received + fast_sink.received, kFlows);
  // Expect ~4/5 on the fast hop; accept a generous band.
  EXPECT_GT(fast_sink.received, kFlows * 7 / 10);
  EXPECT_LT(fast_sink.received, kFlows * 9 / 10);
}

}  // namespace
}  // namespace mrmtp

// ---------------------------------------------------------------------------
// Integration: shard-count determinism with flowlets enabled.

namespace mrmtp::harness {
namespace {

WorkloadRunSpec flowlet_campaign() {
  WorkloadRunSpec spec;
  spec.topo = topo::ClosParams::asymmetric_8pod_oversub();
  spec.proto = Proto::kMtp;
  spec.seed = 11;
  spec.options.host_link.bandwidth_bps = 100'000'000ull;
  spec.options.host_link.max_queue = sim::Duration::millis(50);
  spec.options.path_select = util::PathSelect::kWcmpFlowlet;
  spec.workload.load = 0.3;
  spec.workload.size_scale = 0.05;
  spec.workload.payload_size = 1000;
  spec.launch_window = sim::Duration::millis(400);
  spec.drain = sim::Duration::seconds(1);
  return spec;
}

// The flowlet table lives per shard and keys on sim time only, so the full
// FlowStats table — including flowlet_reroutes and wcmp_weight_updates —
// must be identical at any shard count.
TEST(WcmpFlowletHarnessTest, FlowStatsIdenticalAcrossShardCounts) {
  WorkloadRunSpec spec = flowlet_campaign();
  spec.threads = 1;
  WorkloadRunResult one = run_workload(spec);
  spec.threads = 4;
  WorkloadRunResult four = run_workload(spec);

  ASSERT_TRUE(one.initial_converged);
  ASSERT_TRUE(four.initial_converged);
  EXPECT_GE(four.threads_used, 2u);
  ASSERT_GT(one.flows.flows_started, 0u);
  EXPECT_EQ(one.flows, four.flows);
}

// WCMP on the oversubscribed fabric must actually engage: weights get
// installed (the 0.5-rate stripe differs from the 1.0 stripe inside every
// candidate set) and the campaign still delivers everything it schedules.
TEST(WcmpFlowletHarnessTest, WeightedCampaignDeliversFlows) {
  WorkloadRunSpec spec = flowlet_campaign();
  WorkloadRunResult r = run_workload(spec);
  ASSERT_TRUE(r.initial_converged);
  ASSERT_GT(r.flows.flows_started, 10u);
  EXPECT_EQ(r.flows.flows_delivered, r.flows.flows_started);
  EXPECT_GT(r.flows.wcmp_weight_updates, 0u);
}

// Rendezvous hashing makes flowlet redraws sticky: with an unchanged
// candidate set and unchanged weights, a gap-expired redraw re-picks the
// same port, so flowlet_reroutes stays 0 on a stable fabric (that is the
// no-spurious-reorder property). The counter must fire when the candidate
// set actually churns: the convergence probe sends one packet per 3 ms —
// every packet re-draws (gap > 500 us) — so when TC1 removes the probe's
// uplink from the ToR's candidate set, the very next redraw lands on a
// different port and counts. Scan flow identities until one rides the
// failed link (path choice is a deterministic property of the flow hash).
TEST(WcmpFlowletHarnessTest, FailureRedrawCountsReroute) {
  ExperimentSpec spec;
  spec.proto = Proto::kMtp;
  spec.tc = topo::TestCase::kTC1;
  spec.options.path_select = util::PathSelect::kWcmpFlowlet;
  bool rerouted = false;
  for (std::uint16_t src = 7000; src < 7016 && !rerouted; ++src) {
    spec.traffic_src_port = src;
    ExperimentResult r = run_failure_experiment(spec);
    ASSERT_TRUE(r.initial_converged) << "src_port " << src;
    rerouted = r.flowlet_reroutes >= 1;
  }
  EXPECT_TRUE(rerouted) << "no probe flow redrew across the TC1 failure";
}

}  // namespace
}  // namespace mrmtp::harness
