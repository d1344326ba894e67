// The multi-flow traffic model and the workload engine.
//
// The first block pins the three traffic::Host bugfixes: concurrent flows
// no longer clobber each other's generator state (the old host kept ONE
// sequence counter and ONE timer, so a second start_flow() silently hijacked
// the first flow), restarts are explicit and counted, sink tracking memory
// is bounded by *concurrent* flows rather than flow totals, and max_gap is
// per flow so silence between flows is no longer reported as an outage.
//
// The second block checks the WorkloadEngine's statistics: sampled CDF means
// against the analytic table mean, the Poisson arrival process against its
// configured rate, scenario schedule shapes, and the determinism contract —
// the same seed must produce an identical FlowStats table at 1 shard and at
// 4 shards of the parallel fabric engine.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>

#include "harness/workload.hpp"
#include "traffic/workload.hpp"

namespace mrmtp::traffic {
namespace {

class WorkloadPairTest : public ::testing::Test {
 protected:
  void SetUp() override {
    a_ = &network_.add_node<Host>("a", ip::Ipv4Addr::parse("192.168.11.1"), 24,
                                  ip::Ipv4Addr::parse("192.168.11.2"));
    b_ = &network_.add_node<Host>("b", ip::Ipv4Addr::parse("192.168.11.2"), 24,
                                  ip::Ipv4Addr::parse("192.168.11.1"));
    network_.connect(*a_, *b_);
    network_.start_all();
    b_->listen();
  }

  void run_for(sim::Duration d) { ctx_.sched.run_until(ctx_.now() + d); }

  net::SimContext ctx_{77};
  net::Network network_{ctx_};
  Host* a_ = nullptr;
  Host* b_ = nullptr;
};

// The headline bugfix: starting a second flow while the first is active must
// not disturb the first. The old single-flow host reset the shared sequence
// counter and replaced the shared timer, so the first flow's remaining
// packets were never sent and the sink double-counted restarted sequences.
TEST_F(WorkloadPairTest, ConcurrentFlowsDoNotClobberEachOther) {
  FlowConfig f1;
  f1.dst = b_->addr();
  f1.src_port = 7100;
  f1.count = 200;
  f1.gap = sim::Duration::millis(1);
  std::uint64_t id1 = a_->start_flow(f1);

  run_for(sim::Duration::millis(50));  // flow 1 mid-stream

  FlowConfig f2 = f1;
  f2.src_port = 7200;
  f2.count = 100;
  std::uint64_t id2 = a_->start_flow(f2);
  EXPECT_NE(id1, id2);
  EXPECT_EQ(a_->active_flows(), 2u);

  run_for(sim::Duration::seconds(1));
  EXPECT_EQ(a_->packets_sent(), 300u);
  EXPECT_EQ(a_->flows_started(), 2u);
  EXPECT_EQ(a_->flows_finished(), 2u);
  EXPECT_EQ(a_->flow_restarts(), 0u);

  const FlowRecord* r1 = b_->flow_record(id1);
  const FlowRecord* r2 = b_->flow_record(id2);
  ASSERT_NE(r1, nullptr);
  ASSERT_NE(r2, nullptr);
  EXPECT_EQ(r1->unique, 200u);
  EXPECT_EQ(r2->unique, 100u);
  EXPECT_TRUE(r1->complete());
  EXPECT_TRUE(r2->complete());
  EXPECT_EQ(r1->src_port, 7100u);
  EXPECT_EQ(r2->src_port, 7200u);
  EXPECT_EQ(b_->sink_stats().duplicates, 0u);
}

// Restarting an active flow id is an explicit, counted operation: the old
// incarnation's pending send dies, the sequence restarts at zero (so the
// sink classifies the re-sent range as duplicates), and emission never
// double-paces.
TEST_F(WorkloadPairTest, RestartOfActiveFlowIsExplicit) {
  FlowConfig f;
  f.dst = b_->addr();
  f.flow_id = 42;
  f.count = 0;  // open-ended
  f.gap = sim::Duration::millis(2);
  a_->start_flow(f);
  run_for(sim::Duration::millis(100));  // ~50 packets
  const std::uint64_t before = a_->packets_sent();

  EXPECT_EQ(a_->start_flow(f), 42u);  // same id => restart
  EXPECT_EQ(a_->flow_restarts(), 1u);
  EXPECT_EQ(a_->active_flows(), 1u);

  run_for(sim::Duration::millis(100));
  a_->stop_flow(42);
  // One incarnation's pacing at a time: ~50 more packets, not ~100.
  EXPECT_NEAR(static_cast<double>(a_->packets_sent() - before), 50.0, 5.0);
  // The restarted sequence range 0..~50 re-arrived and was classified as
  // duplicate delivery, not as fresh traffic.
  EXPECT_GT(b_->sink_stats().duplicates, 30u);
}

// Sink tracking memory is bounded by concurrent flows: windows die with
// their flow, so ten sequential flows never hold more than one window, and
// the high-water counter proves it.
TEST_F(WorkloadPairTest, TrackerMemoryBoundedByConcurrency) {
  for (int i = 0; i < 10; ++i) {
    ctx_.sched.schedule_at(sim::Time::zero() + sim::Duration::millis(100 * i),
                           [this] {
                             FlowConfig f;
                             f.dst = b_->addr();
                             f.count = 20;
                             f.gap = sim::Duration::millis(1);
                             a_->start_flow(f);
                           });
  }
  run_for(sim::Duration::seconds(2));

  const SinkStats& s = b_->sink_stats();
  EXPECT_EQ(s.flows_seen, 10u);
  EXPECT_EQ(s.flows_complete, 10u);
  EXPECT_EQ(s.unique_received, 200u);
  EXPECT_EQ(s.tracker_windows_hw, 1u);  // never two live windows
  EXPECT_EQ(b_->tracker_bytes(), 0u);   // all freed on completion
}

// A long-lived flow keeps exactly one bounded window regardless of how many
// packets it carries.
TEST_F(WorkloadPairTest, TrackerMemoryConstantPerFlow) {
  FlowConfig f;
  f.dst = b_->addr();
  f.count = 0;
  f.gap = sim::Duration::micros(200);
  a_->start_flow(f);
  run_for(sim::Duration::seconds(1));  // ~5000 packets
  EXPECT_GT(b_->sink_stats().unique_received, 4000u);
  EXPECT_EQ(b_->tracker_bytes(), sizeof(SeqWindow));
  a_->stop_flow();
}

// max_gap is per flow: half a second of silence between two different flows
// must not appear in either flow's gap (the old host-level tally reported
// inter-flow idle time as a 500 ms outage).
TEST_F(WorkloadPairTest, InterFlowSilenceDoesNotPolluteMaxGap) {
  FlowConfig f1;
  f1.dst = b_->addr();
  f1.count = 25;
  f1.gap = sim::Duration::millis(2);
  std::uint64_t id1 = a_->start_flow(f1);

  std::uint64_t id2 = 0;
  ctx_.sched.schedule_at(sim::Time::zero() + sim::Duration::millis(550),
                         [this, &id2] {
                           FlowConfig f2;
                           f2.dst = b_->addr();
                           f2.count = 25;
                           f2.gap = sim::Duration::millis(2);
                           id2 = a_->start_flow(f2);
                         });
  run_for(sim::Duration::seconds(1));

  const FlowRecord* r1 = b_->flow_record(id1);
  const FlowRecord* r2 = b_->flow_record(id2);
  ASSERT_NE(r1, nullptr);
  ASSERT_NE(r2, nullptr);
  EXPECT_LT(r1->max_gap, sim::Duration::millis(10));
  EXPECT_LT(r2->max_gap, sim::Duration::millis(10));
  EXPECT_LT(b_->sink_stats().max_gap, sim::Duration::millis(10));
}

// ---------------------------------------------------------------------------
// Workload engine statistics (no fabric needed: schedule generation only).

class WorkloadScheduleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int i = 0; i < 16; ++i) {
      char addr[32];
      std::snprintf(addr, sizeof(addr), "10.0.%d.1", i);
      char gw[32];
      std::snprintf(gw, sizeof(gw), "10.0.%d.2", i);
      std::string name = "h";
      name += std::to_string(i);
      hosts_.push_back(&network_.add_node<Host>(
          name, ip::Ipv4Addr::parse(addr), 24, ip::Ipv4Addr::parse(gw)));
    }
  }

  net::SimContext ctx_{5};
  net::Network network_{ctx_};
  std::vector<Host*> hosts_;
};

TEST(FlowSizeCdfTest, SampledMeanMatchesAnalyticMean) {
  for (const FlowSizeCdf& cdf :
       {FlowSizeCdf::websearch(), FlowSizeCdf::hadoop()}) {
    sim::Rng rng(42);
    const int n = 20000;
    double sum = 0;
    for (int i = 0; i < n; ++i) sum += cdf.sample(rng);
    const double sampled = sum / n;
    const double analytic = cdf.mean_bytes();
    EXPECT_NEAR(sampled, analytic, 0.05 * analytic) << cdf.name();
  }
}

// The names the workload bench writes into BENCH_workload.json.
TEST(FlowSizeCdfTest, NamesLabelTheArtifactRows) {
  EXPECT_EQ(FlowSizeCdf::websearch().name(), "websearch");
  EXPECT_EQ(FlowSizeCdf::hadoop().name(), "hadoop");
  EXPECT_EQ(to_string(Scenario::kRandomPairs), "random_pairs");
  EXPECT_EQ(to_string(Scenario::kIncast), "incast");
  EXPECT_EQ(to_string(Scenario::kAllToAll), "all_to_all");
}

TEST(FlowSizeCdfTest, RejectsMalformedTables) {
  EXPECT_THROW(FlowSizeCdf("x", {{0, 0.0}}), std::invalid_argument);
  EXPECT_THROW(FlowSizeCdf("x", {{0, 0.1}, {10, 1.0}}), std::invalid_argument);
  EXPECT_THROW(FlowSizeCdf("x", {{0, 0.0}, {10, 0.8}, {5, 1.0}}),
               std::invalid_argument);
}

TEST(QuantileTest, NearestRank) {
  std::vector<double> v{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_DOUBLE_EQ(quantile_sorted(v, 0.50), 5.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(v, 0.99), 10.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile_sorted({}, 0.5), 0.0);
}

TEST_F(WorkloadScheduleTest, PoissonArrivalRateMatchesLoad) {
  WorkloadSpec spec;
  spec.cdf = FlowSizeCdf::websearch();
  spec.load = 0.5;
  spec.edge_bw_bps = 1'000'000'000ull;
  WorkloadEngine engine(hosts_, spec, /*seed=*/7);
  const sim::Duration window = sim::Duration::seconds(4);
  engine.build_schedule(sim::Time::zero(), window);

  const double lambda = 16.0 * spec.load * 1e9 / (8.0 * spec.cdf.mean_bytes());
  const double expected = lambda * window.to_seconds();
  const auto actual = static_cast<double>(engine.schedule().size());
  // Poisson sd is sqrt(expected) (~2%); 10% is five sigmas of headroom.
  EXPECT_NEAR(actual, expected, 0.10 * expected);

  std::set<std::uint64_t> ids;
  for (const ScheduledFlow& f : engine.schedule()) {
    EXPECT_NE(f.src, f.dst);
    EXPECT_LT(f.src, 16u);
    EXPECT_LT(f.dst, 16u);
    EXPECT_GE(f.start, sim::Time::zero());
    EXPECT_LT(f.start, sim::Time::zero() + window);
    EXPECT_GE(f.bytes, 1u);
    EXPECT_TRUE(ids.insert(f.id).second);
  }

  // Same seed => identical schedule, draw for draw.
  WorkloadEngine twin(hosts_, spec, /*seed=*/7);
  twin.build_schedule(sim::Time::zero(), window);
  ASSERT_EQ(twin.schedule().size(), engine.schedule().size());
  for (std::size_t i = 0; i < twin.schedule().size(); ++i) {
    EXPECT_EQ(twin.schedule()[i].id, engine.schedule()[i].id);
    EXPECT_EQ(twin.schedule()[i].src, engine.schedule()[i].src);
    EXPECT_EQ(twin.schedule()[i].dst, engine.schedule()[i].dst);
    EXPECT_EQ(twin.schedule()[i].bytes, engine.schedule()[i].bytes);
    EXPECT_EQ(twin.schedule()[i].start.ns(), engine.schedule()[i].start.ns());
  }
}

TEST_F(WorkloadScheduleTest, IncastTargetsOneVictimInRounds) {
  WorkloadSpec spec;
  spec.scenario = Scenario::kIncast;
  spec.incast_fanin = 8;
  spec.edge_bw_bps = 1'000'000'000ull;
  WorkloadEngine engine(hosts_, spec, 3);
  engine.build_schedule(sim::Time::zero(), sim::Duration::seconds(1));

  ASSERT_FALSE(engine.schedule().empty());
  std::map<std::int64_t, int> rounds;
  for (const ScheduledFlow& f : engine.schedule()) {
    EXPECT_EQ(f.dst, 15u);  // the last host is the victim
    EXPECT_NE(f.src, 15u);
    ++rounds[f.start.ns()];
  }
  for (const auto& [at, senders] : rounds) EXPECT_EQ(senders, 8);
}

TEST_F(WorkloadScheduleTest, AllToAllCoversEveryOrderedPair) {
  WorkloadSpec spec;
  spec.scenario = Scenario::kAllToAll;
  spec.edge_bw_bps = 1'000'000'000ull;
  WorkloadEngine engine(hosts_, spec, 3);
  const sim::Duration window = sim::Duration::seconds(1);
  engine.build_schedule(sim::Time::zero(), window);

  EXPECT_EQ(engine.schedule().size(), 16u * 15u);
  std::set<std::pair<std::uint32_t, std::uint32_t>> pairs;
  for (const ScheduledFlow& f : engine.schedule()) {
    EXPECT_TRUE(pairs.insert({f.src, f.dst}).second);
    EXPECT_LT(f.start, sim::Time::zero() + window);
  }
}

TEST_F(WorkloadScheduleTest, RejectsBadSpecs) {
  WorkloadSpec spec;
  EXPECT_THROW(WorkloadEngine(hosts_, spec, 1),
               std::invalid_argument);  // edge_bw unset
  spec.edge_bw_bps = 1'000'000'000ull;
  spec.load = 0.0;
  EXPECT_THROW(WorkloadEngine(hosts_, spec, 1), std::invalid_argument);
  spec.load = 0.5;
  EXPECT_THROW(WorkloadEngine({hosts_[0]}, spec, 1), std::invalid_argument);
}

}  // namespace
}  // namespace mrmtp::traffic

namespace mrmtp::harness {
namespace {

WorkloadRunSpec small_campaign() {
  WorkloadRunSpec spec;
  spec.topo = {8, 2, 2, 4, 1};
  spec.proto = Proto::kMtp;
  spec.seed = 11;
  spec.options.host_link.bandwidth_bps = 100'000'000ull;
  spec.options.host_link.max_queue = sim::Duration::millis(50);
  spec.workload.load = 0.3;
  spec.workload.size_scale = 0.05;
  spec.workload.payload_size = 1000;
  spec.launch_window = sim::Duration::millis(400);
  spec.drain = sim::Duration::seconds(1);
  return spec;
}

// The tentpole determinism claim: the same seeded campaign produces an
// identical FlowStats table — every counter and every quantile — whether the
// fabric runs on one shard or four. FCTs derive from simulated time only, so
// thread interleaving must never show through.
TEST(WorkloadHarnessTest, FlowStatsIdenticalAcrossShardCounts) {
  WorkloadRunSpec spec = small_campaign();
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

// End-to-end sanity on a healthy fabric: every scheduled flow is delivered
// and (at this light load) completes within the drain window.
TEST(WorkloadHarnessTest, HealthyFabricCompletesFlows) {
  WorkloadRunSpec spec = small_campaign();
  WorkloadRunResult r = run_workload(spec);
  ASSERT_TRUE(r.initial_converged);
  ASSERT_GT(r.flows.flows_started, 10u);
  EXPECT_EQ(r.flows.flows_delivered, r.flows.flows_started);
  EXPECT_GE(r.flows.flows_completed, r.flows.flows_started * 9 / 10);
  EXPECT_GT(r.flows.fct_p50_ms, 0.0);
  EXPECT_LE(r.flows.fct_p50_ms, r.flows.fct_p99_ms);
  EXPECT_LE(r.flows.fct_p99_ms, r.flows.fct_p999_ms);
  EXPECT_LE(r.flows.fct_p999_ms, r.flows.fct_max_ms);
}

// A TC1 failure mid-campaign separates the protocols: MR-MTP's local reroute
// keeps nearly every flow completing, while BGP/ECMP strands the flows hashed
// onto the dead path behind its 3 s hold timer.
TEST(WorkloadHarnessTest, FailureSeparatesProtocolTails) {
  WorkloadRunSpec spec = small_campaign();
  spec.inject_failure = true;
  WorkloadRunResult mtp = run_workload(spec);
  spec.proto = Proto::kBgp;
  WorkloadRunResult bgp = run_workload(spec);

  ASSERT_TRUE(mtp.initial_converged);
  ASSERT_TRUE(bgp.initial_converged);
  ASSERT_GT(mtp.flows.flows_started, 0u);
  EXPECT_LE(mtp.flows.fct_p99_ms, bgp.flows.fct_p99_ms);
  EXPECT_LE(mtp.flows.flows_incomplete, bgp.flows.flows_incomplete);
}

}  // namespace
}  // namespace mrmtp::harness
