// Scalability sweep (paper §IX future work: "Scaling the DCN"): the paper's
// metrics re-measured as the fabric grows from 2 to 64 PoDs, testing its
// claim that MR-MTP's advantages "increase multiplicatively as the DCN size
// increases".
//
// Besides the paper metrics, the sweep doubles as the event-core scalability
// gate: it records simulator throughput (events/sec and ns/event, from the
// median of each point's six runs) and the scheduler's queue high-water
// mark (peak pending events) at each size, and writes
// everything to BENCH_scalability.json so the perf trajectory is
// machine-tracked.
//
// The BGP rows' `allocs_avoided` and `cache_hit_rate` count only the probe
// stream's transit LPM lookups: BGP and BFD packets to a link neighbor skip
// the FIB, so those columns read 14,990-14,993 avoided walks at every
// 3-tier size from 2 to 64 PoDs and say nothing about the control plane.
#include <algorithm>
#include <fstream>

#include "bench_common.hpp"
#include "util/json.hpp"

int main(int argc, char** argv) {
  using namespace mrmtp;
  using namespace mrmtp::bench;

  BenchFlags flags =
      BenchFlags::parse(argc, argv, "BENCH_scalability.json");

  print_header("Scalability sweep — PoDs 2..64 (paper Section IX)",
               "future-work extension of Figs. 4-6");

  const std::pair<std::string, topo::ClosParams> sweeps[] = {
      {"2-PoD", topo::ClosParams::paper_2pod()},
      {"4-PoD", topo::ClosParams::paper_4pod()},
      {"8-PoD", {8, 2, 2, 4, 1}},
      {"12-PoD", {12, 2, 4, 8, 1}},
      {"16-PoD", {16, 2, 4, 8, 1}},
      {"32-PoD", {32, 2, 4, 8, 1}},
      {"64-PoD", {64, 2, 4, 8, 1}},
      {"2x4-PoD 4-tier", topo::ClosParams::four_tier_clusters(2, 8)},
  };
  const std::vector<std::uint64_t> seeds{11, 23, 37};

  harness::Table table({"topology", "routers", "protocol",
                        "convergence TC1 (ms)", "ctrl bytes TC1",
                        "blast TC1 (any)", "loss TC2 (pkts)", "events/sec",
                        "queue high-water"});
  util::Json doc;
  doc["bench"] = "scalability_sweep";
  stamp_campaign(doc, seeds);
  util::JsonArray seed_arr;
  for (std::uint64_t s : seeds) {
    seed_arr.emplace_back(static_cast<std::int64_t>(s));
  }
  doc["seeds"] = std::move(seed_arr);
  util::JsonArray points;

  for (const auto& [name, params] : sweeps) {
    for (harness::Proto proto :
         {harness::Proto::kMtp, harness::Proto::kBgp, harness::Proto::kBgpBfd}) {
      harness::ExperimentSpec spec;
      spec.topo = params;
      spec.proto = proto;
      spec.threads = flags.threads;
      spec.tc = topo::TestCase::kTC1;
      spec.settle = sim::Duration::seconds(5);  // larger fabrics need longer
      auto tc1 = harness::run_averaged(spec, seeds);
      spec.tc = topo::TestCase::kTC2;
      auto tc2 = harness::run_averaged(spec, seeds);
      // Host timing: the median of the point's six runs (3 seeds x TC1/TC2),
      // so one run slowed by the host does not move the point.
      harness::Distribution eps = tc1.events_per_sec_dist;
      eps.merge(tc2.events_per_sec_dist);
      const double events_per_sec = eps.median();
      double queue_hw = std::max(tc1.queue_high_water, tc2.queue_high_water);
      table.add_row({name, std::to_string(params.router_count()),
                     std::string(to_string(proto)),
                     harness::fmt(tc1.convergence_ms, 1),
                     harness::fmt(tc1.ctrl_bytes_raw, 0),
                     harness::fmt(tc1.blast_any, 1),
                     harness::fmt(tc2.packets_lost, 1),
                     harness::fmt(events_per_sec, 0),
                     harness::fmt(queue_hw, 0)});

      util::Json point;
      point["topology"] = name;
      point["routers"] =
          static_cast<std::int64_t>(params.router_count());
      point["protocol"] = std::string(to_string(proto));
      point["convergence_tc1_ms"] = tc1.convergence_ms;
      point["ctrl_bytes_tc1"] = tc1.ctrl_bytes_raw;
      point["blast_tc1_any"] = tc1.blast_any;
      point["loss_tc2_pkts"] = tc2.packets_lost;
      point["events_per_sec"] = events_per_sec;
      point["ns_per_event"] = events_per_sec > 0 ? 1e9 / events_per_sec : 0.0;
      point["queue_high_water"] = queue_hw;
      point["allocs_avoided"] = tc1.allocs_avoided;
      point["cache_hit_rate"] = tc1.cache_hit_rate;
      points.push_back(std::move(point));
    }
  }
  doc["points"] = std::move(points);

  table.print(/*with_csv=*/true);

  std::ofstream out(flags.json_out);
  out << doc.dump(/*pretty=*/true) << "\n";
  std::printf("\nWrote %s (%zu points).\n", flags.json_out.c_str(),
              doc["points"].as_array().size());

  std::printf(
      "\nShape check: MR-MTP convergence stays pinned at the dead timer and\n"
      "its control bytes grow mildly with fan-out, while BGP's overhead and\n"
      "blast radius grow with the router count — the paper's 'benefits\n"
      "increase with DCN size' claim. Events/sec and the queue high-water\n"
      "mark (peak pending events) gate the event core: throughput should\n"
      "fall roughly linearly with router count, not quadratically.\n");
  return 0;
}
