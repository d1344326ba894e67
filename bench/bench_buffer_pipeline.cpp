// Buffer-pipeline gate: measures the data-path cost of frame payloads.
//
// Two measurements, both written to BENCH_buffer.json:
//   1. A steady-state forwarding window on a converged 2-pod MTP fabric with
//      a running probe flow — buffer-pool counters (slab allocs, copies,
//      shares, high-water) are deltaed across the window, proving the
//      ToR->spine->ToR path allocates and copies nothing per hop.
//   2. The 8-PoD scalability point (TC1 + TC2 averaged over the sweep seeds),
//      the same protocol grid as BENCH_scalability.json, so events/sec can
//      be compared directly against the PR 2 baseline.
//      On BGP rows `allocs_avoided` counts only the probe stream's transit
//      LPM lookups: BGP and BFD packets to a link neighbor skip the FIB.
#include <fstream>

#include "bench_common.hpp"
#include "net/buffer.hpp"
#include "net/pcap.hpp"
#include "traffic/host.hpp"
#include "util/json.hpp"

int main() {
  using namespace mrmtp;
  using namespace mrmtp::bench;

  print_header("Buffer pipeline — pooled payload slabs, zero-copy forwarding",
               "event-core scaling prerequisite (paper Section IX)");

  util::Json doc;
  doc["bench"] = "buffer_pipeline";
  stamp_campaign(doc, {11, 23, 37});

  // --- 1. steady-state forwarding window on a converged 2-pod MTP fabric ---
  {
    net::SimContext ctx(7);
    topo::ClosBlueprint bp(topo::ClosParams::paper_2pod());
    harness::Deployment dep(ctx, bp, harness::Proto::kMtp, {});
    dep.start();
    ctx.sched.run_until(sim::Time::from_ns(sim::Duration::seconds(3).ns()));

    auto& src = dep.host(0);
    auto& dst = dep.host(static_cast<std::uint32_t>(dep.host_count() - 1));
    dst.listen();
    traffic::FlowConfig flow;
    flow.dst = dst.addr();
    flow.gap = sim::Duration::micros(100);
    flow.payload_size = 256;
    src.start_flow(flow);
    // Warm-up: pool freelists fill, uplink caches populate.
    ctx.sched.run_until(sim::Time::from_ns(sim::Duration::millis(3500).ns()));

    auto& pool = net::BufferPool::instance();
    // Restart the high-water at the slabs live now, so it covers the window.
    pool.reset_stats();
    const net::BufferPoolStats before = pool.stats();
    const std::uint64_t sent_before = src.packets_sent();
    ctx.sched.run_until(sim::Time::from_ns(sim::Duration::millis(4500).ns()));
    const net::BufferPoolStats after = pool.stats();
    const std::uint64_t window_pkts = src.packets_sent() - sent_before;
    src.stop_flow();

    const std::uint64_t allocs = after.slab_allocs - before.slab_allocs;
    const std::uint64_t oversize = after.oversize_allocs - before.oversize_allocs;
    const std::uint64_t copies = after.prepend_copies - before.prepend_copies;
    const std::uint64_t inplace = after.prepend_inplace - before.prepend_inplace;
    const std::uint64_t reuses = after.slab_reuses - before.slab_reuses;
    const std::uint64_t bytes_copied = after.bytes_copied - before.bytes_copied;
    const std::uint64_t bytes_shared = after.bytes_shared - before.bytes_shared;

    harness::Table t({"window pkts", "slab allocs", "oversize", "reuses",
                      "prepend in-place", "prepend copies", "bytes copied",
                      "bytes shared", "live high-water"});
    t.add_row({std::to_string(window_pkts), std::to_string(allocs),
               std::to_string(oversize), std::to_string(reuses),
               std::to_string(inplace), std::to_string(copies),
               std::to_string(bytes_copied), std::to_string(bytes_shared),
               std::to_string(after.live_high_water)});
    t.print(/*with_csv=*/true);

    util::Json steady;
    steady["window_packets"] = static_cast<std::int64_t>(window_pkts);
    steady["slab_allocs"] = static_cast<std::int64_t>(allocs);
    steady["oversize_allocs"] = static_cast<std::int64_t>(oversize);
    steady["slab_reuses"] = static_cast<std::int64_t>(reuses);
    steady["prepend_inplace"] = static_cast<std::int64_t>(inplace);
    steady["prepend_copies"] = static_cast<std::int64_t>(copies);
    steady["bytes_copied"] = static_cast<std::int64_t>(bytes_copied);
    steady["bytes_shared"] = static_cast<std::int64_t>(bytes_shared);
    steady["live_high_water"] = static_cast<std::int64_t>(after.live_high_water);
    doc["steady_state"] = std::move(steady);

    std::printf(
        "\nSteady-state window: %llu probe packets forwarded with %llu pool\n"
        "allocations and %llu payload copies (in-place prepends: %llu).\n\n",
        static_cast<unsigned long long>(window_pkts),
        static_cast<unsigned long long>(allocs),
        static_cast<unsigned long long>(copies),
        static_cast<unsigned long long>(inplace));
  }

  // --- 2. the 8-PoD scalability point, comparable to BENCH_scalability ---
  const std::vector<std::uint64_t> seeds{11, 23, 37};
  const topo::ClosParams eight_pod{8, 2, 2, 4, 1};
  harness::Table table({"topology", "protocol", "events/sec",
                        "heap high-water", "allocs avoided"});
  util::JsonArray points;
  for (harness::Proto proto :
       {harness::Proto::kMtp, harness::Proto::kBgp, harness::Proto::kBgpBfd}) {
    harness::ExperimentSpec spec;
    spec.topo = eight_pod;
    spec.proto = proto;
    spec.tc = topo::TestCase::kTC1;
    spec.settle = sim::Duration::seconds(5);
    auto tc1 = harness::run_averaged(spec, seeds);
    spec.tc = topo::TestCase::kTC2;
    auto tc2 = harness::run_averaged(spec, seeds);
    double events_per_sec = (tc1.events_per_sec + tc2.events_per_sec) / 2;
    table.add_row({"8-PoD", std::string(to_string(proto)),
                   harness::fmt(events_per_sec, 0),
                   harness::fmt(std::max(tc1.queue_high_water,
                                         tc2.queue_high_water), 0),
                   harness::fmt(tc1.allocs_avoided, 0)});

    util::Json point;
    point["topology"] = "8-PoD";
    point["protocol"] = std::string(to_string(proto));
    point["events_per_sec"] = events_per_sec;
    point["queue_high_water"] = std::max(tc1.queue_high_water,
                                        tc2.queue_high_water);
    point["allocs_avoided"] = tc1.allocs_avoided;
    points.push_back(std::move(point));
  }
  doc["points"] = std::move(points);
  table.print(/*with_csv=*/true);

  const char* out_path = "BENCH_buffer.json";
  std::ofstream out(out_path);
  out << doc.dump(/*pretty=*/true) << "\n";
  std::printf("\nWrote %s.\n", out_path);

  std::printf(
      "\nShape check: the steady-state window must show zero slab allocs and\n"
      "zero prepend copies — every hop prepends/advances over the original\n"
      "slab — and 8-PoD events/sec should beat the pre-buffer baseline.\n");
  return 0;
}
