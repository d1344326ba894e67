// Parallel fabric engine: ShardBus/ShardedEngine unit behavior, and the
// determinism contract — an N-shard run must reproduce the 1-shard sharded
// run counter-for-counter (per-link Link::Stats, per-router VID tables,
// traffic outcomes, FabricAuditor verdicts) on a chaotic 8-PoD fabric under
// both MR-MTP and BGP/ECMP/BFD.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <utility>
#include <vector>

#include "harness/auditor.hpp"
#include "harness/deploy.hpp"
#include "harness/experiment.hpp"
#include "sim/parallel.hpp"
#include "sim/scheduler.hpp"
#include "topo/chaos.hpp"
#include "topo/failure.hpp"
#include "traffic/host.hpp"

namespace mrmtp {
namespace {

using sim::Duration;
using sim::Time;

TEST(ShardBus, DrainsInTimeOrderKeyOrder) {
  sim::ShardBus bus(3);
  std::vector<int> order;
  const Time t1 = Time::from_ns(100);
  const Time t2 = Time::from_ns(200);
  // Same timestamp from two sources, posted in "wrong" wall-clock order: the
  // drain must honor (at, order key), never post order or source shard. Note
  // the key that contradicts source order — src 2 carries a LOWER key than
  // src 1 at the same instant.
  bus.post(1, 0, t2, /*order=*/10, [&] { order.push_back(4); });
  bus.post(1, 0, t1, /*order=*/30, [&] { order.push_back(2); });
  bus.post(2, 0, t1, /*order=*/20, [&] { order.push_back(1); });
  bus.post(2, 0, t1, /*order=*/40, [&] { order.push_back(3); });

  sim::Scheduler sched;
  EXPECT_EQ(bus.drain(0, sched), 4u);
  sched.run_until(t2);
  // (t1, key 20) before (t1, key 30) before (t1, key 40), then t2.
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(bus.posted(), 4u);
  EXPECT_EQ(bus.cross_posted(), 4u);
}

TEST(ShardBus, PostBelowSafeFloorThrows) {
  sim::ShardBus bus(2);
  bus.set_safe_floor(Time::from_ns(1000));
  EXPECT_THROW(bus.post(0, 1, Time::from_ns(999), 0, [] {}),
               std::logic_error);
  EXPECT_NO_THROW(bus.post(0, 1, Time::from_ns(1000), 0, [] {}));
}

// Two shards joined by 5 us links both ways (the diagonal is unused).
const sim::ShardedEngine::Options kTwoShards5us{
    .pair_lookahead = {Duration{}, Duration::micros(5), Duration::micros(5),
                       Duration{}}};

TEST(ShardedEngine, SingleShardRunsInline) {
  sim::Scheduler sched;
  int fired = 0;
  sched.schedule_at(Time::from_ns(50), [&] { ++fired; });
  sim::ShardedEngine engine({&sched}, {});
  engine.run_until(Time::from_ns(100));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sched.now(), Time::from_ns(100));
}

TEST(ShardedEngine, CrossShardPingPongRespectsLookahead) {
  sim::Scheduler a;
  sim::Scheduler b;
  sim::ShardedEngine engine({&a, &b}, kTwoShards5us);
  std::vector<std::pair<int, std::int64_t>> log;  // (shard, fired at ns)

  // a -> b -> a -> ... each hop one lookahead later, like frames bouncing
  // across a cross-shard link.
  std::function<void(int, Time)> hop = [&](int on, Time at) {
    log.emplace_back(on, at.ns());
    if (log.size() >= 6) return;
    int next = 1 - on;
    Time when = at + Duration::micros(5);
    engine.bus().post(static_cast<std::uint32_t>(on),
                      static_cast<std::uint32_t>(next), when,
                      /*order=*/log.size(),
                      [&, next, when] { hop(next, when); });
  };
  a.schedule_at(Time::from_ns(0), [&] { hop(0, Time::from_ns(0)); });

  engine.run_until(Time::zero() + Duration::micros(100));
  ASSERT_EQ(log.size(), 6u);
  for (std::size_t i = 0; i < log.size(); ++i) {
    EXPECT_EQ(log[i].first, static_cast<int>(i % 2));
    EXPECT_EQ(log[i].second, static_cast<std::int64_t>(i) * 5000);
  }
  EXPECT_GT(engine.stats().windows, 0u);
  EXPECT_EQ(engine.stats().cross_events, 5u);
  EXPECT_EQ(a.now(), Time::zero() + Duration::micros(100));
  EXPECT_EQ(b.now(), Time::zero() + Duration::micros(100));
}

TEST(ShardedEngine, RepeatedRunUntilResumes) {
  sim::Scheduler a;
  sim::Scheduler b;
  sim::ShardedEngine engine({&a, &b}, kTwoShards5us);
  int fired = 0;
  a.schedule_at(Time::from_ns(10), [&] { ++fired; });
  b.schedule_at(Time::from_ns(2000), [&] { ++fired; });
  engine.run_until(Time::from_ns(1000));
  EXPECT_EQ(fired, 1);
  engine.run_until(Time::from_ns(3000));
  EXPECT_EQ(fired, 2);
}

TEST(ShardPlan, PodAffineAndClamped) {
  topo::ClosBlueprint bp(topo::ClosParams{8, 2, 2, 4, 1});
  topo::ShardPlan plan = topo::make_shard_plan(bp, 64);
  EXPECT_EQ(plan.shards, 8u);  // clamped to the PoD count
  for (std::uint32_t d = 0; d < bp.devices().size(); ++d) {
    const auto& spec = bp.device(d);
    if (spec.pod == 0) continue;  // top spines round-robin
    // Every device of one PoD shares a shard.
    EXPECT_EQ(plan.shard_of(d),
              plan.shard_of(bp.leaf(spec.pod, 1)))
        << spec.name;
  }
}

// On an asymmetric fabric the planner must balance by device weight, not
// PoD count: pods with 3 ToRs weigh more than pods with 1. Pod affinity
// still holds, and the heaviest shard can exceed the lightest by at most
// one pod's weight (the greedy bound).
TEST(ShardPlan, WeightBalancedOnAsymmetricFabric) {
  topo::ClosBlueprint bp(topo::ClosParams::asymmetric_8pod());
  topo::ShardPlan plan = topo::make_shard_plan(bp, 4);
  ASSERT_EQ(plan.shards, 4u);

  std::vector<std::uint32_t> load(plan.shards, 0);
  std::uint32_t heaviest_pod = 0;
  std::vector<std::uint32_t> pod_weight(9, 0);  // 1-based global pods
  for (std::uint32_t d = 0; d < bp.devices().size(); ++d) {
    const auto& spec = bp.device(d);
    ++load[plan.shard_of(d)];
    if (spec.pod != 0) {
      ++pod_weight[spec.pod];
      EXPECT_EQ(plan.shard_of(d), plan.shard_of(bp.leaf(spec.pod, 1)))
          << spec.name;
    }
  }
  for (std::uint32_t w : pod_weight) heaviest_pod = std::max(heaviest_pod, w);
  auto [lo, hi] = std::minmax_element(load.begin(), load.end());
  EXPECT_GT(*lo, 0u) << "no shard may sit idle";
  EXPECT_LE(*hi - *lo, heaviest_pod)
      << "greedy balance bound violated: " << *hi << " vs " << *lo;
}

// Identical inputs must yield an identical plan (the engine relies on this
// for resumable runs), and 1 shard degenerates to everything-on-shard-0.
TEST(ShardPlan, DeterministicAndSingleShardDegenerate) {
  topo::ClosBlueprint bp(topo::ClosParams::asymmetric_8pod());
  topo::ShardPlan a = topo::make_shard_plan(bp, 4);
  topo::ShardPlan b = topo::make_shard_plan(bp, 4);
  ASSERT_EQ(a.shards, b.shards);
  for (std::uint32_t d = 0; d < bp.devices().size(); ++d) {
    EXPECT_EQ(a.shard_of(d), b.shard_of(d)) << bp.device(d).name;
  }
  topo::ShardPlan one = topo::make_shard_plan(bp, 1);
  EXPECT_EQ(one.shards, 1u);
  for (std::uint32_t d = 0; d < bp.devices().size(); ++d) {
    EXPECT_EQ(one.shard_of(d), 0u);
  }
}

// ---------------------------------------------------------------------------
// The determinism contract. One scenario, run at different shard counts,
// snapshotting every counter the fabric exposes.

struct FabricSnapshot {
  std::vector<std::vector<std::uint64_t>> link_stats;  // per link, flattened
  std::vector<std::vector<std::pair<std::string, std::uint32_t>>> vid_tables;
  std::uint64_t packets_sent = 0;
  std::uint64_t packets_received = 0;
  std::uint64_t duplicates = 0;
  std::size_t final_violations = 0;
  bool converged_before_fail = false;

  bool operator==(const FabricSnapshot&) const = default;
};

std::vector<std::uint64_t> flatten(const net::Link::Stats& s) {
  std::vector<std::uint64_t> out;
  for (const net::Link::DirStats* d : {&s.ab, &s.ba}) {
    out.insert(out.end(),
               {d->delivered, d->dropped_link_down, d->dropped_dst_down,
                d->dropped_impairment, d->dropped_blackhole,
                d->dropped_queue_full, d->duplicated,
                d->dropped_queue_control});
  }
  return out;
}

FabricSnapshot run_chaotic_scenario(
    harness::Proto proto, std::uint32_t threads,
    topo::ClosParams params = topo::ClosParams{8, 2, 2, 4, 1}) {
  topo::ClosBlueprint blueprint(params);
  harness::ShardedFabric fabric(blueprint, threads, /*seed=*/11);
  harness::Deployment dep(fabric, proto);
  sim::ShardedEngine& engine = fabric.engine();

  const Time t_traffic = Time::zero() + Duration::seconds(3);
  const Time t_fail = t_traffic + Duration::millis(500);
  const Time t_end = t_fail + Duration::seconds(3);

  dep.start();

  traffic::Host& sender = dep.host(0);
  traffic::Host& receiver =
      dep.host(static_cast<std::uint32_t>(dep.host_count() - 1));
  receiver.listen();
  sender.ctx().sched.schedule_at(t_traffic, [&] {
    traffic::FlowConfig flow;
    flow.dst = receiver.addr();
    flow.gap = Duration::millis(3);
    sender.start_flow(flow);
  });
  sender.ctx().sched.schedule_at(t_end, [&] { sender.stop_flow(); });

  // Chaos: a 40% gray loss toward the TC1 device plus a clean TC3
  // interface-down — cross-shard state churn under impaired links.
  topo::ChaosEngine chaos(dep.network(), blueprint, /*seed=*/11);
  chaos.loss_one_way(blueprint.failure_point(topo::TestCase::kTC1),
                     /*toward_device=*/true, 0.4, t_fail);
  topo::FailureInjector injector(dep.network(), blueprint);
  injector.schedule_failure(topo::TestCase::kTC3, t_fail);

  FabricSnapshot snap;
  engine.run_until(t_fail - Duration::nanos(1));
  snap.converged_before_fail = dep.converged();
  engine.run_until(t_end + Duration::millis(200));

  for (const auto& link : dep.network().links()) {
    snap.link_stats.push_back(flatten(link->stats()));
  }
  if (proto == harness::Proto::kMtp) {
    for (std::uint32_t d = 0; d < dep.router_count(); ++d) {
      auto entries = dep.mtp(d).vid_table().entries();
      std::sort(entries.begin(), entries.end());
      std::vector<std::pair<std::string, std::uint32_t>> table;
      for (const auto& e : entries) table.emplace_back(e.vid.str(), e.port);
      snap.vid_tables.push_back(std::move(table));
    }
  }
  snap.packets_sent = sender.packets_sent();
  snap.packets_received = receiver.sink_stats().received;
  snap.duplicates = receiver.sink_stats().duplicates;

  harness::FabricAuditor auditor(dep);
  snap.final_violations = auditor.sweep();
  return snap;
}

void expect_snapshots_equal(const FabricSnapshot& one,
                            const FabricSnapshot& four) {
  ASSERT_EQ(one.link_stats.size(), four.link_stats.size());
  for (std::size_t li = 0; li < one.link_stats.size(); ++li) {
    EXPECT_EQ(one.link_stats[li], four.link_stats[li]) << "link " << li;
  }
  ASSERT_EQ(one.vid_tables.size(), four.vid_tables.size());
  for (std::size_t d = 0; d < one.vid_tables.size(); ++d) {
    EXPECT_EQ(one.vid_tables[d], four.vid_tables[d]) << "router " << d;
  }
  EXPECT_EQ(one.packets_sent, four.packets_sent);
  EXPECT_EQ(one.packets_received, four.packets_received);
  EXPECT_EQ(one.duplicates, four.duplicates);
  EXPECT_EQ(one.final_violations, four.final_violations);
  EXPECT_EQ(one.converged_before_fail, four.converged_before_fail);
}

TEST(ParallelDeterminism, MtpFourShardsMatchOneShard) {
  FabricSnapshot one = run_chaotic_scenario(harness::Proto::kMtp, 1);
  FabricSnapshot four = run_chaotic_scenario(harness::Proto::kMtp, 4);
  EXPECT_TRUE(one.converged_before_fail);
  EXPECT_GT(one.packets_sent, 0u);
  expect_snapshots_equal(one, four);
}

TEST(ParallelDeterminism, MtpFourShardsAreRepeatable) {
  FabricSnapshot a = run_chaotic_scenario(harness::Proto::kMtp, 4);
  FabricSnapshot b = run_chaotic_scenario(harness::Proto::kMtp, 4);
  expect_snapshots_equal(a, b);
}

// Non-uniform shards (asymmetric PoD sizes and mixed uplink speeds) must
// not break the determinism contract: the weight-balanced plan gives
// shards different event loads, which stresses the barrier/lookahead logic
// far harder than the uniform fabric.
TEST(ParallelDeterminism, AsymmetricFourShardsMatchOneShard) {
  topo::ClosParams params = topo::ClosParams::asymmetric_8pod();
  FabricSnapshot one = run_chaotic_scenario(harness::Proto::kMtp, 1, params);
  FabricSnapshot four = run_chaotic_scenario(harness::Proto::kMtp, 4, params);
  EXPECT_TRUE(one.converged_before_fail);
  EXPECT_GT(one.packets_sent, 0u);
  expect_snapshots_equal(one, four);
}

TEST(ParallelDeterminism, BgpBfdFourShardsMatchOneShard) {
  FabricSnapshot one = run_chaotic_scenario(harness::Proto::kBgpBfd, 1);
  FabricSnapshot four = run_chaotic_scenario(harness::Proto::kBgpBfd, 4);
  EXPECT_TRUE(one.converged_before_fail);
  EXPECT_GT(one.packets_sent, 0u);
  expect_snapshots_equal(one, four);
}

// BGP sessions torn down right after they send, on four shards: each spine
// drains (withdrawing everything from its peers at once) and powers off a
// few microseconds later, around the instant its withdrawals reach the peers
// on other shards. Teardown releases the send queue that still holds those
// messages while the peers parse the frames that carried them, so a frame
// that crosses shards must own its slab alone, or two threads update one
// reference count at once. The tsan preset runs this test, but the engine's
// own synchronization usually orders such a pair, so the test also checks
// ownership directly: every frame a shard-crossing link delivers holds the
// only reference to its slab. The fabric must then reconverge.
TEST(ParallelDeterminism, BgpTeardownRightAfterSendAcrossShards) {
  topo::ClosBlueprint blueprint(topo::ClosParams{8, 2, 2, 4, 1});
  harness::ShardedFabric fabric(blueprint, 4, /*seed=*/5);
  harness::Deployment dep(fabric, harness::Proto::kBgpBfd);
  sim::ShardedEngine& engine = fabric.engine();

  // Relaxed counters: the taps run on the receiving shards' threads.
  std::atomic<std::uint64_t> crossed{0};
  std::atomic<std::uint64_t> shared{0};
  for (const auto& link : dep.network().links()) {
    if (link->a().owner().ctx().shard == link->b().owner().ctx().shard) {
      continue;
    }
    link->set_tap([&crossed, &shared](Time, const net::Frame& frame) {
      crossed.fetch_add(1, std::memory_order_relaxed);
      if (frame.payload.refcount() != 1) {
        shared.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  dep.start();
  const Time t_converged = Time::zero() + Duration::seconds(3);
  engine.run_until(t_converged);
  ASSERT_TRUE(dep.converged());

  std::vector<std::uint32_t> spines;
  for (std::uint32_t d = 0; d < dep.router_count(); ++d) {
    if (blueprint.device(d).role != topo::Role::kLeaf) spines.push_back(d);
  }
  ASSERT_GT(spines.size(), 4u);
  // The stop lags sweep 0 to 9.5 us in 0.5 us steps (the fabric's link delay
  // is 5 us), so some teardowns share a sync window with the delivery.
  const Time t_drain = t_converged + Duration::millis(100);
  const Time t_boot = t_drain + Duration::millis(500);
  for (std::size_t i = 0; i < spines.size(); ++i) {
    const std::uint32_t d = spines[i];
    const Duration step = Duration::millis(static_cast<std::int64_t>(i));
    const Duration lag = Duration::nanos(static_cast<std::int64_t>(500 * i));
    sim::Scheduler& sched = dep.router(d).ctx().sched;
    sched.schedule_at(t_drain + step, [&dep, d] { dep.drain_router(d); });
    sched.schedule_at(t_drain + step + lag, [&dep, d] { dep.stop_router(d); });
    sched.schedule_at(t_boot + step, [&dep, d] { dep.restart_router(d); });
  }
  engine.run_until(t_boot + Duration::seconds(5));
  EXPECT_TRUE(dep.converged());
  EXPECT_GT(crossed.load(), 0u);
  EXPECT_EQ(shared.load(), 0u);
}

// The experiment runner must report the same result at any thread count:
// threads 0 and 1 (one shard, inline) and 4 (four shards on four threads)
// agree on every merged metric — the per-shard instrumentation slots, the
// per-router and per-link sums, the probe flow and the audit verdicts —
// under both MR-MTP and BGP+BFD. Only per-scheduler internals (queue
// high-water, reschedules) and engine telemetry may differ.
TEST(ParallelDeterminism, ExperimentRunnerMergesIdentically) {
  for (harness::Proto proto : {harness::Proto::kMtp, harness::Proto::kBgpBfd}) {
    harness::ExperimentSpec spec;
    spec.topo = topo::ClosParams{8, 2, 2, 4, 1};
    spec.proto = proto;
    spec.tc = topo::TestCase::kTC2;
    spec.seed = 23;
    spec.gray.kind = harness::ExperimentSpec::GraySpec::Kind::kUnidirLoss;
    spec.gray.loss = 0.5;
    spec.audit = true;

    spec.threads = 0;
    const harness::ExperimentResult ref = harness::run_failure_experiment(spec);
    EXPECT_EQ(ref.threads_used, 1u);
    EXPECT_TRUE(ref.initial_converged);
    EXPECT_GT(ref.update_events, 0u);
    EXPECT_GT(ref.audit_sweeps, 1u);
    for (std::uint32_t threads : {1u, 4u}) {
      SCOPED_TRACE(std::string(to_string(proto)) + " threads=" +
                   std::to_string(threads));
      spec.threads = threads;
      const harness::ExperimentResult r = harness::run_failure_experiment(spec);
      EXPECT_EQ(r.threads_used, threads);
      EXPECT_EQ(r.initial_converged, ref.initial_converged);
      EXPECT_EQ(r.convergence.ns(), ref.convergence.ns());
      EXPECT_EQ(r.update_events, ref.update_events);
      EXPECT_EQ(r.blast_any, ref.blast_any);
      EXPECT_EQ(r.blast_remote, ref.blast_remote);
      EXPECT_EQ(r.blast_leaf_remote, ref.blast_leaf_remote);
      EXPECT_EQ(r.ctrl_bytes_raw, ref.ctrl_bytes_raw);
      EXPECT_EQ(r.ctrl_bytes_padded, ref.ctrl_bytes_padded);
      EXPECT_EQ(r.packets_sent, ref.packets_sent);
      EXPECT_EQ(r.packets_lost, ref.packets_lost);
      EXPECT_EQ(r.duplicates, ref.duplicates);
      EXPECT_EQ(r.out_of_order, ref.out_of_order);
      EXPECT_EQ(r.outage.ns(), ref.outage.ns());
      EXPECT_EQ(r.flow_stats, ref.flow_stats);
      EXPECT_EQ(r.failure_detected, ref.failure_detected);
      EXPECT_EQ(r.detection_latency.ns(), ref.detection_latency.ns());
      EXPECT_EQ(r.audit_sweeps, ref.audit_sweeps);
      EXPECT_EQ(r.audit_violations, ref.audit_violations);
      EXPECT_EQ(r.final_sweep_violations, ref.final_sweep_violations);
      EXPECT_EQ(r.events_fired, ref.events_fired);
      EXPECT_EQ(r.allocs_avoided, ref.allocs_avoided);
      EXPECT_EQ(r.up_cache_hits, ref.up_cache_hits);
      EXPECT_EQ(r.up_cache_misses, ref.up_cache_misses);
      EXPECT_EQ(r.ctrl_queue_drops, ref.ctrl_queue_drops);
      EXPECT_EQ(r.data_queue_drops, ref.data_queue_drops);
      EXPECT_EQ(r.ctrl_backlog_hw_ns, ref.ctrl_backlog_hw_ns);
      EXPECT_EQ(r.data_backlog_hw_ns, ref.data_backlog_hw_ns);
    }
  }
}

}  // namespace
}  // namespace mrmtp
