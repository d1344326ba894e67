// Harness tests: deployment parity across protocols, and — most importantly
// — the paper's qualitative results encoded as assertions: who converges
// faster, whose blast radius is smaller, who loses fewer packets, and how
// control overhead scales from 2-PoD to 4-PoD.
#include <gtest/gtest.h>

#include "harness/experiment.hpp"
#include "harness/report.hpp"

namespace mrmtp::harness {
namespace {

ExperimentResult run(Proto proto, topo::TestCase tc,
                     topo::ClosParams params = topo::ClosParams::paper_2pod(),
                     std::uint64_t seed = 3) {
  ExperimentSpec spec;
  spec.topo = params;
  spec.proto = proto;
  spec.tc = tc;
  spec.seed = seed;
  return run_failure_experiment(spec);
}

TEST(DeploymentTest, AllThreeStacksConvergeOnIdenticalTopology) {
  for (Proto proto : kAllProtos) {
    SCOPED_TRACE(std::string(to_string(proto)));
    net::SimContext ctx(5);
    topo::ClosBlueprint bp(topo::ClosParams::paper_2pod());
    Deployment dep(ctx, bp, proto, {});
    dep.start();
    ctx.sched.run_until(sim::Time::from_ns(sim::Duration::seconds(5).ns()));
    EXPECT_TRUE(dep.converged());
    EXPECT_EQ(dep.router_count(), 12u);
    EXPECT_EQ(dep.host_count(), 4u);
  }
}

TEST(DeploymentTest, TypedAccessorsEnforceProtocol) {
  net::SimContext ctx(5);
  topo::ClosBlueprint bp(topo::ClosParams::paper_2pod());
  Deployment dep(ctx, bp, Proto::kMtp, {});
  EXPECT_NO_THROW((void)dep.mtp(0));
  EXPECT_THROW((void)dep.bgp(0), std::logic_error);
}

TEST(ExperimentTest, InitialConvergenceIsVerified) {
  ExperimentResult r = run(Proto::kMtp, topo::TestCase::kTC1);
  EXPECT_TRUE(r.initial_converged);
  r = run(Proto::kBgpBfd, topo::TestCase::kTC1);
  EXPECT_TRUE(r.initial_converged);
}

// --- Fig. 4: convergence time -------------------------------------------

TEST(PaperShapeTest, Fig4_MtpConvergesWithinDeadTimer) {
  // TC1/TC3: the update originator waits for the 100 ms dead timer.
  for (auto tc : {topo::TestCase::kTC1, topo::TestCase::kTC3}) {
    auto r = run(Proto::kMtp, tc);
    EXPECT_GT(r.convergence.to_millis(), 50.0);
    EXPECT_LT(r.convergence.to_millis(), 150.0);
  }
  // TC2/TC4: the failing side detects instantly; convergence is dissemination
  // only ("less than the failure detection time", §VII.A).
  for (auto tc : {topo::TestCase::kTC2, topo::TestCase::kTC4}) {
    auto r = run(Proto::kMtp, tc);
    EXPECT_LT(r.convergence.to_millis(), 5.0);
  }
}

TEST(PaperShapeTest, Fig4_BgpNeedsHoldTimerAndBfdCutsIt) {
  auto bgp = run(Proto::kBgp, topo::TestCase::kTC1);
  EXPECT_GT(bgp.convergence.to_millis(), 1500.0);  // ~hold timer (3 s max)
  auto bfd = run(Proto::kBgpBfd, topo::TestCase::kTC1);
  EXPECT_LT(bfd.convergence.to_millis(), 400.0);  // ~detect time (300 ms)
  EXPECT_GT(bfd.convergence.to_millis(), 50.0);
  auto mtp = run(Proto::kMtp, topo::TestCase::kTC1);
  // The paper's headline: MTP beats BGP even with BFD enabled.
  EXPECT_LT(mtp.convergence.ns(), bfd.convergence.ns());
  EXPECT_LT(bfd.convergence.ns(), bgp.convergence.ns());
}

// --- Fig. 5: blast radius -------------------------------------------------

TEST(PaperShapeTest, Fig5_BlastRadius2Pod) {
  // MTP, ToR-link failures: the paper counts 3 updated routers (the other
  // ToRs record an exclusion); spine-link failures: 1.
  for (auto tc : {topo::TestCase::kTC1, topo::TestCase::kTC2}) {
    auto r = run(Proto::kMtp, tc);
    EXPECT_EQ(r.blast_leaf_remote, 3u) << to_string(tc);
  }
  for (auto tc : {topo::TestCase::kTC3, topo::TestCase::kTC4}) {
    auto r = run(Proto::kMtp, tc);
    EXPECT_EQ(r.blast_remote, 1u) << to_string(tc);
  }
  // BGP: 8-9 of 12 routers at TC1/TC2, 3 at TC3/TC4 (paper: 9 and 3).
  for (auto tc : {topo::TestCase::kTC1, topo::TestCase::kTC2}) {
    auto r = run(Proto::kBgp, tc);
    EXPECT_GE(r.blast_any, 7u) << to_string(tc);
    EXPECT_LE(r.blast_any, 9u) << to_string(tc);
  }
  for (auto tc : {topo::TestCase::kTC3, topo::TestCase::kTC4}) {
    auto r = run(Proto::kBgp, tc);
    EXPECT_EQ(r.blast_any, 3u) << to_string(tc);
  }
}

TEST(PaperShapeTest, Fig5_BlastRadius4Pod) {
  auto params = topo::ClosParams::paper_4pod();
  // MTP: all 7 other ToRs at TC1 (paper), 3 pod spines at TC3/TC4.
  auto r = run(Proto::kMtp, topo::TestCase::kTC1, params);
  EXPECT_EQ(r.blast_leaf_remote, 7u);
  r = run(Proto::kMtp, topo::TestCase::kTC4, params);
  EXPECT_EQ(r.blast_remote, 3u);
  // BGP touches most of the 20-router fabric at TC1 (paper: 15), 5 at TC4.
  r = run(Proto::kBgp, topo::TestCase::kTC1, params);
  EXPECT_GE(r.blast_any, 12u);
  r = run(Proto::kBgp, topo::TestCase::kTC4, params);
  EXPECT_GE(r.blast_any, 3u);
  EXPECT_LE(r.blast_any, 6u);
}

TEST(PaperShapeTest, Fig5_BfdDoesNotChangeBlastRadius) {
  // §VII.B: "BFD has no impact on the blast radius".
  for (auto tc : topo::kAllTestCases) {
    auto with = run(Proto::kBgpBfd, tc);
    auto without = run(Proto::kBgp, tc);
    EXPECT_EQ(with.blast_any, without.blast_any) << to_string(tc);
  }
}

// --- Fig. 6: control overhead ---------------------------------------------

TEST(PaperShapeTest, Fig6_MtpControlOverheadFarBelowBgp) {
  for (auto tc : topo::kAllTestCases) {
    auto mtp = run(Proto::kMtp, tc);
    auto bgp = run(Proto::kBgp, tc);
    EXPECT_LT(mtp.ctrl_bytes_raw * 2, bgp.ctrl_bytes_raw) << to_string(tc);
  }
}

TEST(PaperShapeTest, Fig6_OverheadRoughlyDoublesFrom2PodTo4Pod) {
  // Paper: MTP 120 -> 264 bytes, BGP 1023 -> 2139 ("slightly more than
  // double").
  for (Proto proto : {Proto::kMtp, Proto::kBgp}) {
    auto small = run(proto, topo::TestCase::kTC1);
    auto big = run(proto, topo::TestCase::kTC1, topo::ClosParams::paper_4pod());
    double ratio = static_cast<double>(big.ctrl_bytes_raw) /
                   static_cast<double>(small.ctrl_bytes_raw);
    EXPECT_GT(ratio, 1.5) << to_string(proto);
    EXPECT_LT(ratio, 4.0) << to_string(proto);
  }
}

// --- Figs. 7/8: packet loss ------------------------------------------------

TEST(PaperShapeTest, Fig7_LossOrderingAtDownstreamDetectedFailures) {
  // TC2/TC4 (sender-side router must wait for its dead timer): BGP loses the
  // most, BFD cuts it to roughly a third or less, MTP loses the least.
  for (auto tc : {topo::TestCase::kTC2, topo::TestCase::kTC4}) {
    auto mtp = run(Proto::kMtp, tc);
    auto bgp = run(Proto::kBgp, tc);
    auto bfd = run(Proto::kBgpBfd, tc);
    EXPECT_GT(bgp.packets_lost, 300u) << to_string(tc);
    EXPECT_LT(bfd.packets_lost * 2, bgp.packets_lost) << to_string(tc);
    EXPECT_LT(mtp.packets_lost, bfd.packets_lost) << to_string(tc);
    EXPECT_LT(mtp.packets_lost, 40u) << to_string(tc);
  }
}

TEST(PaperShapeTest, Fig7_LossTinyWhenSenderSideDetectsInstantly) {
  // TC1/TC3 with the flow from H-1-1: the ToR/pod spine switches ports on
  // local detection; loss is near zero for every protocol.
  for (auto tc : {topo::TestCase::kTC1, topo::TestCase::kTC3}) {
    for (Proto proto : kAllProtos) {
      auto r = run(proto, tc);
      EXPECT_LE(r.packets_lost, 40u)
          << to_string(proto) << "/" << to_string(tc);
    }
  }
}

TEST(PaperShapeTest, Fig8_ReverseFlowLosesMoreAtTC1TC3) {
  // Fig. 8: with the sender at the far end, TC1/TC3 failures hurt (the
  // downstream-facing router only learns via its dead timer).
  ExperimentSpec spec;
  spec.proto = Proto::kBgp;
  spec.tc = topo::TestCase::kTC1;
  spec.reverse_flow = true;
  auto reverse = run_failure_experiment(spec);
  spec.reverse_flow = false;
  auto forward = run_failure_experiment(spec);
  EXPECT_GT(reverse.packets_lost, forward.packets_lost + 100);

  spec.proto = Proto::kMtp;
  spec.reverse_flow = true;
  // The rendezvous hash pins each flow to one deterministic path, so only
  // flows that actually ride the failed link lose packets. Scan a few flow
  // identities: at least one must cross the TC1 link, and even that one
  // loses only a dead-timer's worth (paper §VII.E) — not BGP's ~1000.
  std::uint64_t worst = 0;
  for (std::uint16_t src_port = 7000; src_port < 7016; ++src_port) {
    spec.traffic_src_port = src_port;
    auto mtp_reverse = run_failure_experiment(spec);
    worst = std::max(worst, mtp_reverse.packets_lost);
    EXPECT_LT(mtp_reverse.packets_lost, 60u) << "src_port " << src_port;
  }
  EXPECT_GT(worst, 0u) << "no probe flow crossed the failed link";
}

TEST(ExperimentTest, NoDuplicatesAcrossFailures) {
  for (Proto proto : kAllProtos) {
    auto r = run(proto, topo::TestCase::kTC2);
    EXPECT_EQ(r.duplicates, 0u) << to_string(proto);
  }
}

TEST(ExperimentTest, AveragingAccumulatesRuns) {
  ExperimentSpec spec;
  spec.proto = Proto::kMtp;
  spec.tc = topo::TestCase::kTC4;
  spec.with_traffic = false;  // faster
  AveragedResult avg = run_averaged(spec, {1, 2, 3});
  EXPECT_EQ(avg.runs, 3);
  EXPECT_EQ(avg.converged_runs, 3);
  EXPECT_GT(avg.ctrl_bytes_raw, 0.0);
}

TEST(DistributionTest, WelfordStatistics) {
  Distribution d;
  EXPECT_EQ(d.count(), 0u);
  EXPECT_EQ(d.mean(), 0.0);
  EXPECT_EQ(d.stddev(), 0.0);
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) d.add(v);
  EXPECT_EQ(d.count(), 8u);
  EXPECT_DOUBLE_EQ(d.mean(), 5.0);
  EXPECT_NEAR(d.stddev(), 2.138, 0.001);  // sample stddev
  EXPECT_EQ(d.min(), 2.0);
  EXPECT_EQ(d.max(), 9.0);
  EXPECT_NE(d.str().find("5.0"), std::string::npos);
}

TEST(DistributionTest, MedianOfMergedSamples) {
  Distribution d;
  EXPECT_EQ(d.median(), 0.0);
  for (double v : {9.0, 1.0, 5.0}) d.add(v);
  EXPECT_EQ(d.median(), 5.0);
  Distribution more;
  for (double v : {100.0, 2.0, 3.0}) more.add(v);
  d.merge(more);
  EXPECT_EQ(d.count(), 6u);
  EXPECT_EQ(d.median(), 4.0);  // (3 + 5) / 2: the outlier 100 moves it little
  EXPECT_DOUBLE_EQ(d.mean(), 120.0 / 6);
  EXPECT_EQ(d.max(), 100.0);
}

TEST(DistributionTest, SingleSampleHasNoSpread) {
  Distribution d;
  d.add(42.5);
  EXPECT_DOUBLE_EQ(d.mean(), 42.5);
  EXPECT_EQ(d.stddev(), 0.0);
  EXPECT_EQ(d.str(1), "42.5");
}

TEST(ExperimentTest, FailureDuringEstablishmentStillConverges) {
  // Robustness: the TC1 interface dies while the fabric is still coming up
  // (mid-tree-establishment / mid-session-handshake); the protocols must
  // reach a consistent steady state around the hole, and traffic between
  // unaffected far hosts must flow.
  for (Proto proto : kAllProtos) {
    SCOPED_TRACE(std::string(to_string(proto)));
    net::SimContext ctx(61);
    topo::ClosBlueprint bp(topo::ClosParams::paper_2pod());
    Deployment dep(ctx, bp, proto, {});
    dep.start();
    topo::FailureInjector injector(dep.network(), bp);
    injector.schedule_failure(topo::TestCase::kTC1,
                              sim::Time::from_ns(sim::Duration::millis(60).ns()));
    ctx.sched.run_until(sim::Time::from_ns(sim::Duration::seconds(8).ns()));

    auto& sender = dep.host(1);  // L-1-2's server, unaffected by the hole
    auto& receiver = dep.host(3);
    receiver.listen();
    traffic::FlowConfig flow;
    flow.dst = receiver.addr();
    flow.count = 100;
    flow.gap = sim::Duration::millis(1);
    sender.start_flow(flow);
    ctx.sched.run_until(ctx.now() + sim::Duration::seconds(1));
    EXPECT_EQ(receiver.sink_stats().unique_received, 100u);
  }
}

TEST(ReportTest, TableAlignsAndEmitsCsv) {
  Table t({"proto", "tc", "ms"});
  t.add_row({"MR-MTP", "TC1", "99.0"});
  t.add_row({"BGP/ECMP", "TC1", "2000.1"});
  std::string s = t.str();
  EXPECT_NE(s.find("proto"), std::string::npos);
  EXPECT_NE(s.find("---"), std::string::npos);
  EXPECT_NE(s.find("BGP/ECMP"), std::string::npos);
  EXPECT_EQ(t.csv(), "proto,tc,ms\nMR-MTP,TC1,99.0\nBGP/ECMP,TC1,2000.1\n");
  EXPECT_EQ(fmt(3.14159, 2), "3.14");

  // Benches print the table and then a "CSV:" block, the block that
  // scripts/bench_diff.py compares with bench/expected/.
  ::testing::internal::CaptureStdout();
  t.print(/*with_csv=*/true);
  EXPECT_EQ(::testing::internal::GetCapturedStdout(),
            t.str() + "\nCSV:\n" + t.csv());
}

}  // namespace
}  // namespace mrmtp::harness
