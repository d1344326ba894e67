// Overload-cascade gate: proves the congestion-safe control plane works.
//
// Part 1 — the cascade and its containment. A seeded incast storm (12 hosts
// from other racks swamp one victim rack over 1 GbE links) runs against a
// converged 4-PoD fabric twice per protocol: once with the shared-FIFO
// egress queue (the ablation baseline) and once with priority queues. The
// FabricAuditor's liveness watcher scores every dead declaration against the
// physical link at that instant:
//   * BGP, shared FIFO: keepalive segments and their ACKs tail-drop behind
//     the incast, TCP retransmits exhaust / hold timers expire, and sessions
//     on demonstrably healthy links flap — false dead declarations > 0 and a
//     withdrawal storm follows. This is the cascade.
//   * BGP, priority: keepalives/ACKs ride the control band; false dead == 0.
//   * MR-MTP, either mode: every data frame is a keep-alive and the storm
//     itself refreshes dead timers, so MTP rides out the overload — the
//     paper's design holds even before prioritization (a finding, not a bug).
//
// Part 2 — unchanged steady-state throughput. The 8-PoD MR-MTP scalability
// point (TC1 + TC2 averaged over the sweep seeds, as BENCH_buffer.json
// measures it) is run in both queue modes in the same process; the priority
// transmitter's analytic fast path must keep events/sec within 3% of the
// shared-FIFO (PR 3 baseline) figure.
//
// Both parts land in BENCH_overload.json; scripts/check.sh enforces the
// false-dead and throughput gates.
#include <fstream>

#include "bench_common.hpp"
#include "harness/auditor.hpp"
#include "topo/chaos.hpp"
#include "traffic/host.hpp"
#include "util/json.hpp"

namespace {

using namespace mrmtp;

struct OverloadOutcome {
  bool converged = false;
  std::uint64_t downs = 0;
  std::uint64_t false_dead = 0;
  int cascade_depth = 0;
  std::uint64_t ctrl_drops = 0;
  std::uint64_t data_drops = 0;
  std::uint64_t ctrl_hw_ns = 0;
  std::uint64_t data_hw_ns = 0;
  std::uint64_t victim_received = 0;
  // Protocol-specific containment counters.
  std::uint64_t sessions_flapped = 0;   // BGP
  std::uint64_t retries_damped = 0;     // BGP
  std::uint64_t accepts_suppressed = 0; // MTP
  std::uint64_t updates_batched = 0;    // MTP
  std::uint64_t updates_deduped = 0;    // MTP
};

OverloadOutcome run_storm(harness::Proto proto, bool priority) {
  net::SimContext ctx(7);
  topo::ClosBlueprint bp(topo::ClosParams::paper_4pod());

  harness::DeployOptions options;
  // 1 GbE everywhere so a 12-sender incast (~9.6 Gb/s toward one rack) is a
  // deep overload instead of a rounding error on the default 10 GbE.
  options.link.bandwidth_bps = 1'000'000'000ull;
  options.host_link.bandwidth_bps = 1'000'000'000ull;
  options.link.priority_queues = priority;
  options.host_link.priority_queues = priority;
  // Containment knobs on in both modes (A/B isolates the queue discipline).
  options.mtp_timers.damping_penalty = 1500;
  options.mtp_timers.update_min_interval = sim::Duration::millis(2);
  options.bgp_timers.damping_penalty = 1500;

  harness::Deployment dep(ctx, bp, proto, options);
  dep.start();
  ctx.sched.run_until(sim::Time::from_ns(sim::Duration::seconds(4).ns()));

  OverloadOutcome out;
  out.converged = dep.converged();

  harness::FabricAuditor auditor(dep);
  auditor.watch_liveness();

  topo::ChaosEngine chaos(dep.network(), bp, /*seed=*/99);
  topo::ChaosEngine::StormSpec storm;
  storm.senders = 12;
  storm.duration = sim::Duration::millis(3500);
  storm.gap = sim::Duration::micros(10);  // ~0.8 Gb/s per sender
  storm.payload_size = 1000;
  const std::string victim =
      chaos.congestion_storm(storm, sim::Time::from_ns(
                                        sim::Duration::millis(4500).ns()));

  ctx.sched.run_until(sim::Time::from_ns(sim::Duration::seconds(10).ns()));

  out.downs = auditor.down_declarations();
  out.false_dead = auditor.false_dead_count();
  out.cascade_depth = auditor.max_cascade_depth();

  const net::LinkDirStats links = harness::link_totals(dep.network());
  out.ctrl_drops = links.dropped_queue_control;
  out.data_drops = links.dropped_queue_full - links.dropped_queue_control;
  out.ctrl_hw_ns = links.control_backlog_hw_ns;
  out.data_hw_ns = links.data_backlog_hw_ns;

  auto* sink = dynamic_cast<traffic::Host*>(&dep.network().find(victim));
  if (sink != nullptr) out.victim_received = sink->sink_stats().received;

  for (std::uint32_t d = 0; d < dep.router_count(); ++d) {
    if (proto == harness::Proto::kMtp) {
      const auto& ms = dep.mtp(d).mtp_stats();
      out.accepts_suppressed += ms.accepts_suppressed;
      out.updates_batched += ms.updates_batched;
      out.updates_deduped += ms.updates_deduped;
    } else {
      const auto& bs = dep.bgp(d).bgp_stats();
      out.sessions_flapped += bs.sessions_flapped;
      out.retries_damped += bs.retries_damped;
    }
  }
  return out;
}

util::Json outcome_json(const OverloadOutcome& o, harness::Proto proto) {
  util::Json j;
  j["converged"] = o.converged;
  j["down_declarations"] = static_cast<std::int64_t>(o.downs);
  j["false_dead"] = static_cast<std::int64_t>(o.false_dead);
  j["cascade_depth"] = static_cast<std::int64_t>(o.cascade_depth);
  j["ctrl_queue_drops"] = static_cast<std::int64_t>(o.ctrl_drops);
  j["data_queue_drops"] = static_cast<std::int64_t>(o.data_drops);
  j["ctrl_backlog_hw_ns"] = static_cast<std::int64_t>(o.ctrl_hw_ns);
  j["data_backlog_hw_ns"] = static_cast<std::int64_t>(o.data_hw_ns);
  j["victim_received"] = static_cast<std::int64_t>(o.victim_received);
  if (proto == harness::Proto::kMtp) {
    j["accepts_suppressed"] = static_cast<std::int64_t>(o.accepts_suppressed);
    j["updates_batched"] = static_cast<std::int64_t>(o.updates_batched);
    j["updates_deduped"] = static_cast<std::int64_t>(o.updates_deduped);
  } else {
    j["sessions_flapped"] = static_cast<std::int64_t>(o.sessions_flapped);
    j["retries_damped"] = static_cast<std::int64_t>(o.retries_damped);
  }
  return j;
}

double steady_events_per_sec(bool priority) {
  const std::vector<std::uint64_t> seeds{11, 23, 37};
  harness::ExperimentSpec spec;
  spec.topo = topo::ClosParams{8, 2, 2, 4, 1};
  spec.proto = harness::Proto::kMtp;
  spec.settle = sim::Duration::seconds(5);
  spec.options.link.priority_queues = priority;
  spec.options.host_link.priority_queues = priority;
  spec.tc = topo::TestCase::kTC1;
  auto tc1 = harness::run_averaged(spec, seeds);
  spec.tc = topo::TestCase::kTC2;
  auto tc2 = harness::run_averaged(spec, seeds);
  return (tc1.events_per_sec + tc2.events_per_sec) / 2;
}

}  // namespace

int main() {
  using namespace mrmtp;
  using namespace mrmtp::bench;

  print_header(
      "Overload cascade — incast vs. the control plane, shared FIFO vs. "
      "priority",
      "robustness beyond the paper's clean failures (ROADMAP north star)");

  util::Json doc;
  doc["bench"] = "overload_cascade";
  stamp_campaign(doc, {11, 23, 37});

  // --- 1. the seeded incast storm, {MTP, BGP} x {shared, priority} ---
  harness::Table table({"protocol", "queue mode", "downs", "false_dead",
                        "cascade_depth", "ctrl_drops", "data_drops",
                        "victim_rx"});
  util::Json gates;  // flat keys so check.sh can grep them unambiguously
  for (harness::Proto proto : {harness::Proto::kMtp, harness::Proto::kBgp}) {
    util::Json per_proto;
    for (bool priority : {false, true}) {
      OverloadOutcome o = run_storm(proto, priority);
      const char* mode = priority ? "priority" : "shared";
      table.add_row({std::string(to_string(proto)), mode,
                     std::to_string(o.downs), std::to_string(o.false_dead),
                     std::to_string(o.cascade_depth),
                     std::to_string(o.ctrl_drops),
                     std::to_string(o.data_drops),
                     std::to_string(o.victim_received)});
      per_proto[mode] = outcome_json(o, proto);
      std::string key = std::string(proto == harness::Proto::kMtp ? "mtp"
                                                                  : "bgp") +
                        "_" + mode + "_false_dead";
      gates[key] = static_cast<std::int64_t>(o.false_dead);
    }
    doc[proto == harness::Proto::kMtp ? "mtp" : "bgp"] = std::move(per_proto);
  }
  table.print(/*with_csv=*/true);

  // --- 2. steady-state throughput, shared (PR 3 baseline path) vs priority ---
  std::printf("\n8-PoD steady-state events/sec (MR-MTP, TC1+TC2 mean):\n");
  const double ev_shared = steady_events_per_sec(/*priority=*/false);
  const double ev_priority = steady_events_per_sec(/*priority=*/true);
  const double ratio = ev_shared > 0 ? ev_priority / ev_shared : 0;
  harness::Table steady({"queue mode", "events/sec"});
  steady.add_row({"shared", harness::fmt(ev_shared, 0)});
  steady.add_row({"priority", harness::fmt(ev_priority, 0)});
  steady.print(/*with_csv=*/true);
  std::printf("priority/shared ratio: %.4f\n", ratio);

  util::Json st;
  st["events_per_sec_shared"] = ev_shared;
  st["events_per_sec_priority"] = ev_priority;
  st["priority_vs_shared_ratio"] = ratio;
  // The PR 3 scalability figure this machine produced (BENCH_buffer.json);
  // the check.sh gate holds priority-mode throughput within 3% of it.
  st["baseline_events_per_sec"] = 3.56e6;
  doc["steady_state"] = std::move(st);
  gates["events_per_sec_priority"] = ev_priority;
  doc["gates"] = std::move(gates);

  const char* out_path = "BENCH_overload.json";
  std::ofstream out(out_path);
  out << doc.dump(/*pretty=*/true) << "\n";
  std::printf("\nWrote %s.\n", out_path);

  std::printf(
      "\nShape check: BGP must show false_dead > 0 under the shared FIFO and\n"
      "exactly 0 with priority queues; MR-MTP must show 0 in both (data\n"
      "frames are keep-alives); the priority/shared events-per-sec ratio\n"
      "must stay within 3%% of 1.\n");
  return 0;
}
