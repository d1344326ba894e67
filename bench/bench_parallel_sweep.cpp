// Parallel-engine sweep: the same failure experiment run on the PoD-sharded
// conservative engine at 1 shard (inline on the calling thread) and at
// 2/4/8 shards, over the 8- and 16-PoD fabrics. Records simulator
// throughput (events/sec), speedup over the 1-thread baseline, and the
// engine's own health counters (barrier windows, horizon stalls, mailbox
// traffic), and writes everything to BENCH_parallel.json.
//
// The sweep also cross-checks determinism the cheap way: per-run fabric
// counters (packets lost, control bytes, events fired, convergence) are
// recorded per thread count and must be identical across all of them;
// scripts/check.sh gates on that. The authoritative equivalence check lives
// in tests/parallel_engine_test.cpp.
//
// Note on speedup: shards run on real threads, so measured speedup is
// bounded by the host's core count (recorded as hardware_concurrency in the
// artifact). On a single-core host every thread count collapses to ~1x and
// only the overhead (windows, stalls) remains meaningful.
#include <fstream>
#include <thread>

#include "bench_common.hpp"
#include "util/json.hpp"

int main(int argc, char** argv) {
  using namespace mrmtp;
  using namespace mrmtp::bench;

  BenchFlags flags = BenchFlags::parse(argc, argv, "BENCH_parallel.json");

  print_header("Parallel fabric engine — shard-count sweep",
               "perf extension; paper Section IX 'Scaling the DCN'");
  std::printf("hardware_concurrency: %u\n\n",
              std::thread::hardware_concurrency());

  const std::pair<std::string, topo::ClosParams> sweeps[] = {
      {"8-PoD", {8, 2, 2, 4, 1}},
      {"16-PoD", {16, 2, 4, 8, 1}},
  };
  const std::uint32_t thread_counts[] = {1, 2, 4, 8};

  harness::Table table({"topology", "protocol", "threads", "shards",
                        "events/sec", "speedup", "windows", "coalesced",
                        "stalls", "cross frames", "pkts lost"});
  util::Json doc;
  doc["bench"] = "parallel_sweep";
  stamp_campaign(doc, {11});
  doc["hardware_concurrency"] =
      static_cast<std::int64_t>(std::thread::hardware_concurrency());
  util::JsonArray points;

  for (const auto& [name, params] : sweeps) {
    for (harness::Proto proto :
         {harness::Proto::kMtp, harness::Proto::kBgpBfd}) {
      double base_eps = 0;
      for (std::uint32_t threads : thread_counts) {
        harness::ExperimentSpec spec;
        spec.topo = params;
        spec.proto = proto;
        spec.tc = topo::TestCase::kTC1;
        spec.seed = 11;
        spec.settle = sim::Duration::seconds(5);
        spec.threads = threads;
        harness::ExperimentResult r = harness::run_failure_experiment(spec);

        double eps = r.wall_seconds > 0
                         ? static_cast<double>(r.events_fired) / r.wall_seconds
                         : 0;
        if (threads == 1) base_eps = eps;
        double speedup = base_eps > 0 ? eps / base_eps : 0;
        table.add_row({name, std::string(to_string(proto)),
                       std::to_string(threads),
                       std::to_string(r.threads_used), harness::fmt(eps, 0),
                       harness::fmt(speedup, 2),
                       std::to_string(r.sync_windows),
                       std::to_string(r.coalesced_windows),
                       std::to_string(r.horizon_stalls),
                       std::to_string(r.cross_shard_frames),
                       std::to_string(r.packets_lost)});

        util::Json point;
        point["topology"] = name;
        point["routers"] = static_cast<std::int64_t>(params.router_count());
        point["protocol"] = std::string(to_string(proto));
        point["threads"] = static_cast<std::int64_t>(threads);
        point["shards_used"] = static_cast<std::int64_t>(r.threads_used);
        point["events_per_sec"] = eps;
        point["speedup_vs_1"] = speedup;
        point["wall_seconds"] = r.wall_seconds;
        point["events_fired"] = static_cast<std::int64_t>(r.events_fired);
        point["sync_windows"] = static_cast<std::int64_t>(r.sync_windows);
        point["coalesced_windows"] =
            static_cast<std::int64_t>(r.coalesced_windows);
        point["pair_lookahead_min_ns"] =
            static_cast<std::int64_t>(r.pair_lookahead_min_ns);
        point["pair_lookahead_max_ns"] =
            static_cast<std::int64_t>(r.pair_lookahead_max_ns);
        point["horizon_stalls"] =
            static_cast<std::int64_t>(r.horizon_stalls);
        point["cross_shard_frames"] =
            static_cast<std::int64_t>(r.cross_shard_frames);
        point["mailbox_high_water"] =
            static_cast<std::int64_t>(r.mailbox_high_water);
        point["packets_lost"] = static_cast<std::int64_t>(r.packets_lost);
        point["ctrl_bytes_raw"] =
            static_cast<std::int64_t>(r.ctrl_bytes_raw);
        point["convergence_ms"] = r.convergence.to_millis();
        points.push_back(std::move(point));
      }
    }
  }
  doc["points"] = std::move(points);

  table.print(/*with_csv=*/true);

  std::ofstream out(flags.json_out);
  out << doc.dump(/*pretty=*/true) << "\n";
  std::printf("\nWrote %s (%zu points).\n", flags.json_out.c_str(),
              doc["points"].as_array().size());

  std::printf(
      "\nShape check: per-run fabric outcomes (events fired, pkts lost, ctrl\n"
      "bytes, convergence) must be identical across every row of a\n"
      "topology/protocol, 1 thread included — the conservative engine is\n"
      "deterministic at any shard count. Speedup is bounded by\n"
      "min(threads, PoDs, cores) and by per-shard work per lookahead\n"
      "window; small fabrics can run slower on more threads.\n");
  return 0;
}
