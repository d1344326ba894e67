// Gray-failure detection: how long each protocol stack needs to notice a
// failure that a clean interface-down model never produces — one direction
// of a link silently eating frames while the other stays healthy.
//
// Three scenarios on the TC1 link (L-1-1 <-> S-1-1), frames toward the leaf
// impaired so the leaf is the starving side:
//   * unidirectional blackhole — 100% one-way drop;
//   * 50% one-way loss — the flaky-optics case;
//   * flap storm — six down/up cycles 120 ms apart.
//
// Expected shape: MR-MTP's dead interval (100 ms) detects the blackhole
// ~5x before BFD (~250 ms) and ~50x before BGP's 3 s hold timer — but only
// the starving side learns anything, and MR-MTP has no channel to tell the
// healthy-looking side, so the auditor's final sweep still flags the stale
// tree (BGP heals bilaterally because the starving side's NOTIFICATION
// crosses the healthy direction over TCP). Under 50% partial loss MR-MTP
// also detects in every run: the impaired direction carries only its 50 ms
// keep-alives here, and two lost in a row expire the 100 ms dead timer.
// BFD's paced control stream detects in every run too, BGP's hold timer in
// only some. The flap storm is detected instantly by everyone (admin-down is
// visible locally); what differs is data loss. The FabricAuditor runs throughout: `audit` counts
// invariant violations in periodic sweeps, `final` a steady-state sweep
// after the window.
#include "bench_common.hpp"

int main() {
  using namespace mrmtp;
  using namespace mrmtp::bench;
  using GrayKind = harness::ExperimentSpec::GraySpec::Kind;

  print_header("Gray-failure detection latency and probe loss",
               "robustness extension (not a paper figure)");

  struct Scenario {
    std::string name;
    GrayKind kind;
    double loss;
  };
  const Scenario scenarios[] = {
      {"unidir-blackhole", GrayKind::kUnidirBlackhole, 1.0},
      {"unidir-loss-50%", GrayKind::kUnidirLoss, 0.5},
      {"flap-storm", GrayKind::kFlapStorm, 0.0},
  };

  for (const Scenario& sc : scenarios) {
    std::printf("Scenario: %s (TC1 link, impaired toward the leaf)\n",
                sc.name.c_str());
    harness::Table table({"protocol", "detect ms (mean±sd)", "detected",
                          "pkts lost", "outage ms", "audit", "final"});
    for (harness::Proto proto : harness::kAllProtos) {
      harness::ExperimentSpec spec;
      spec.topo = topo::ClosParams::paper_2pod();
      spec.proto = proto;
      spec.tc = topo::TestCase::kTC1;
      spec.gray.kind = sc.kind;
      spec.gray.toward_device = true;
      spec.gray.loss = sc.loss;
      spec.audit = true;
      // Probe stream toward H-1-1 so it descends through the impaired
      // direction when ECMP hashes it onto the plane-1 spine.
      spec.reverse_flow = true;
      harness::AveragedResult r =
          harness::run_averaged(spec, default_seeds());
      table.add_row({std::string(to_string(proto)),
                     r.detected_runs > 0 ? r.detection_dist.str(1) : "-",
                     std::to_string(r.detected_runs) + "/" +
                         std::to_string(r.runs),
                     harness::fmt(r.packets_lost, 1),
                     harness::fmt(r.outage_ms, 1),
                     harness::fmt(r.audit_violations, 1),
                     harness::fmt(r.final_violations, 1)});
    }
    table.print(/*with_csv=*/true);
    std::printf("\n");
  }

  std::printf(
      "Shape check: under the one-way blackhole MR-MTP detects within its\n"
      "100 ms dead interval, BFD at ~250 ms, BGP at its ~3 s hold timer.\n"
      "Only MR-MTP's starving side learns of it, so the healthy-looking side\n"
      "keeps its stale tree (nonzero `final` audit column), while BGP heals\n"
      "bilaterally via NOTIFICATION across the healthy direction. Under 50%%\n"
      "loss MR-MTP detects in every run (two lost 50 ms keep-alives expire\n"
      "its dead timer), BFD in every run, BGP's hold timer in only some.\n");
  return 0;
}
