#include "harness/experiment.hpp"

#include <algorithm>
#include <chrono>
#include <optional>

#include "harness/auditor.hpp"
#include "topo/chaos.hpp"

namespace mrmtp::harness {

namespace {

/// The protocol counters every failure metric is a change of: update
/// messages sent + received, table changes, the last update instant, and
/// update bytes at L2. Taken while the engine is paused just before the
/// failure and again after the run.
struct CounterSnapshot {
  struct Router {
    std::uint64_t updates = 0;
    /// MR-MTP: changes from the router's own detection.
    std::uint64_t changes_local = 0;
    /// MR-MTP: changes from received updates. BGP: every RIB change (local
    /// and received look alike; the failure point's two routers are
    /// excluded from the remote count instead).
    std::uint64_t changes_remote = 0;
    sim::Time last_update_at{};
  };
  std::vector<Router> routers;
  std::uint64_t bytes_raw = 0;
  std::uint64_t bytes_padded = 0;
};

CounterSnapshot snapshot(Deployment& dep) {
  CounterSnapshot snap;
  snap.routers.resize(dep.router_count());
  for (std::uint32_t d = 0; d < dep.router_count(); ++d) {
    CounterSnapshot::Router& r = snap.routers[d];
    if (dep.proto() == Proto::kMtp) {
      const auto& s = dep.mtp(d).mtp_stats();
      r.updates = s.updates_sent + s.updates_received;
      r.changes_local = s.table_changes_local;
      r.changes_remote = s.table_changes_remote;
      r.last_update_at = s.last_update_at;
      snap.bytes_raw += s.update_bytes_raw;
      snap.bytes_padded += s.update_bytes_padded;
      continue;
    }
    bgp::BgpRouter& router = dep.bgp(d);
    const auto& s = router.bgp_stats();
    r.updates = s.updates_sent + s.updates_received;
    r.changes_remote = s.rib_changes;
    r.last_update_at = s.last_update_at;
    for (std::uint32_t p = 1; p <= router.port_count(); ++p) {
      const auto& c =
          router.port(p).tx_stats().of(net::TrafficClass::kBgpUpdate);
      snap.bytes_raw += c.bytes;
      snap.bytes_padded += c.padded_bytes;
    }
  }
  return snap;
}

/// Per-flow roll-up of the probe traffic between one sender/receiver pair.
/// The probe stream is open-ended (no total-count header), so instead of a
/// schedule join the FCT samples are delivery spans: first to last arrival.
traffic::FlowStats probe_flow_stats(const traffic::Host& sender,
                                    const traffic::Host& receiver) {
  traffic::FlowStats st;
  st.flows_started = sender.flows_started();
  st.packets_sent = sender.packets_sent();
  std::vector<double> spans;
  spans.reserve(receiver.flow_records().size());
  double sum = 0;
  for (const auto& [id, rec] : receiver.flow_records()) {
    ++st.flows_delivered;
    st.packets_delivered += rec.received;
    st.unique_delivered += rec.unique;
    st.duplicates += rec.duplicates;
    st.out_of_order += rec.out_of_order;
    st.ancient += rec.ancient;
    st.bytes_delivered += rec.bytes;
    if (rec.complete()) {
      ++st.flows_completed;
    } else {
      ++st.flows_incomplete;
    }
    const double ms = (rec.last_arrival - rec.first_arrival).to_millis();
    spans.push_back(ms);
    sum += ms;
  }
  std::sort(spans.begin(), spans.end());
  st.fct_samples = spans.size();
  if (!spans.empty()) {
    st.fct_p50_ms = traffic::quantile_sorted(spans, 0.50);
    st.fct_p99_ms = traffic::quantile_sorted(spans, 0.99);
    st.fct_p999_ms = traffic::quantile_sorted(spans, 0.999);
    st.fct_mean_ms = sum / static_cast<double>(spans.size());
    st.fct_min_ms = spans.front();
    st.fct_max_ms = spans.back();
  }
  return st;
}

}  // namespace

/// Every run builds a ShardedFabric with max(threads, 1) shards; one shard
/// runs inline on the calling thread. Because shards may run on their own
/// threads, the runner never touches cross-shard state mid-window:
///
///   * Metrics are changes in the routers' own counters between a snapshot
///     taken while the engine is paused at t_fail - 1ns (run_until is
///     inclusive, so it precedes every event at t_fail) and one after the
///     run.
///   * The one event observed as it happens, a neighbor declared down,
///     writes a per-router slot, so each slot has a single writer.
///   * Auditor sweeps pause the engine at each audit tick (AuditedRun).
ExperimentResult run_failure_experiment(const ExperimentSpec& spec) {
  topo::ClosBlueprint blueprint(spec.topo);
  ShardedFabric fabric(blueprint, std::max<std::uint32_t>(spec.threads, 1),
                       spec.seed);
  Deployment dep(fabric, spec.proto, spec.options);
  sim::ShardedEngine& engine = fabric.engine();
  const std::uint32_t shards = fabric.shard_count();

  const sim::Time t_traffic = sim::Time::zero() + spec.settle;
  const sim::Time t_fail = t_traffic + spec.traffic_lead;
  const sim::Time t_end = t_fail + spec.post_failure;
  const sim::Time t_run_end = t_end + sim::Duration::millis(200);

  // Detection instant: each router's first neighbor-down at or after the
  // failure.
  std::vector<std::optional<sim::Time>> detected(dep.router_count());
  for (std::uint32_t d = 0; d < dep.router_count(); ++d) {
    dep.router(d).on_neighbor_down = [&slot = detected[d], t_fail](
                                         sim::Time at, std::uint32_t) {
      if (at >= t_fail && !slot) slot = at;
    };
  }

  dep.start();

  // --- traffic (flow control events belong to the sender's shard) ---
  traffic::Host* sender = nullptr;
  traffic::Host* receiver = nullptr;
  if (spec.with_traffic && dep.host_count() >= 2) {
    std::uint32_t first = 0;
    auto last = static_cast<std::uint32_t>(dep.host_count() - 1);
    sender = &dep.host(spec.reverse_flow ? last : first);
    receiver = &dep.host(spec.reverse_flow ? first : last);
    receiver->listen();
    sender->ctx().sched.schedule_at(t_traffic, [&, sender, receiver] {
      traffic::FlowConfig flow;
      flow.dst = receiver->addr();
      flow.src_port = spec.traffic_src_port;
      flow.gap = spec.traffic_gap;
      flow.payload_size = spec.payload_size;
      sender->start_flow(flow);
    });
    sender->ctx().sched.schedule_at(t_end, [sender] { sender->stop_flow(); });
  }

  // --- failure (the injector and chaos engine route every event to the
  // owning shard themselves) ---
  ExperimentResult result;
  const topo::FailurePoint fp = blueprint.failure_point(spec.tc);
  topo::FailureInjector injector(dep.network(), blueprint);
  topo::ChaosEngine chaos(dep.network(), blueprint, spec.seed);
  using GrayKind = ExperimentSpec::GraySpec::Kind;
  switch (spec.gray.kind) {
    case GrayKind::kNone:
      injector.schedule_failure(spec.tc, t_fail);
      break;
    case GrayKind::kUnidirBlackhole:
      chaos.blackhole_one_way(fp, spec.gray.toward_device, t_fail);
      break;
    case GrayKind::kUnidirLoss:
      chaos.loss_one_way(fp, spec.gray.toward_device, spec.gray.loss, t_fail);
      break;
    case GrayKind::kFlapStorm:
      chaos.flap_storm(fp, t_fail, spec.gray.flaps, spec.gray.flap_period);
      break;
  }

  std::optional<FabricAuditor> auditor;
  if (spec.audit) auditor.emplace(dep);
  AuditedRun run(engine, auditor ? &*auditor : nullptr, t_traffic,
                 spec.audit_period);

  auto wall_start = std::chrono::steady_clock::now();
  run.run_until(t_fail - sim::Duration::nanos(1));
  result.initial_converged = dep.converged();
  const CounterSnapshot before = snapshot(dep);
  run.run_until(t_run_end);
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  const CounterSnapshot after = snapshot(dep);
  sim::Time last_update = sim::Time::zero();
  for (std::uint32_t d = 0; d < dep.router_count(); ++d) {
    result.update_events +=
        after.routers[d].updates - before.routers[d].updates;
    last_update = std::max(last_update, after.routers[d].last_update_at);
  }
  if (result.update_events > 0) result.convergence = last_update - t_fail;
  std::optional<sim::Time> first_detect;
  for (const std::optional<sim::Time>& at : detected) {
    if (at && (!first_detect || *at < *first_detect)) first_detect = at;
  }
  if (first_detect) {
    result.failure_detected = true;
    result.detection_latency = *first_detect - t_fail;
  }

  if (auditor) {
    result.final_sweep_violations = auditor->sweep();
    result.audit_sweeps = auditor->sweeps();
    result.audit_violations =
        auditor->violations().size() - result.final_sweep_violations;
  }

  // The two routers adjacent to the failed link (interface owner and peer)
  // change tables by their own detection, not by received updates, so they
  // are not part of the remote blast radius.
  std::uint32_t owner = blueprint.device_index(fp.device);
  std::uint32_t peer = blueprint.device_index(fp.peer);
  for (std::uint32_t d = 0; d < dep.router_count(); ++d) {
    const CounterSnapshot::Router& b = before.routers[d];
    const CounterSnapshot::Router& a = after.routers[d];
    const bool remote = a.changes_remote != b.changes_remote;
    if (remote || a.changes_local != b.changes_local) ++result.blast_any;
    if (remote && d != owner && d != peer) {
      ++result.blast_remote;
      if (blueprint.device(d).role == topo::Role::kLeaf) {
        ++result.blast_leaf_remote;
      }
    }
  }
  result.ctrl_bytes_raw = after.bytes_raw - before.bytes_raw;
  result.ctrl_bytes_padded = after.bytes_padded - before.bytes_padded;

  for (std::uint32_t s = 0; s < shards; ++s) {
    const sim::Scheduler& sched = fabric.ctx(s).sched;
    result.events_fired += sched.events_fired();
    result.queue_high_water =
        std::max(result.queue_high_water, sched.queue_high_water());
    result.sched_reschedules += sched.reschedules();
  }
  if (spec.proto == Proto::kMtp) {
    for (std::uint32_t d = 0; d < dep.router_count(); ++d) {
      const auto& ms = dep.mtp(d).mtp_stats();
      result.allocs_avoided += ms.allocs_avoided;
      result.up_cache_hits += ms.up_cache_hits;
      result.up_cache_misses += ms.up_cache_misses;
    }
  } else {
    for (std::uint32_t d = 0; d < dep.router_count(); ++d) {
      const auto& ss = dep.bgp(d).routes().select_stats();
      result.allocs_avoided += ss.allocs_avoided;
      result.up_cache_hits += ss.cache_hits;
      result.up_cache_misses += ss.cache_misses;
    }
  }

  const net::LinkDirStats links = link_totals(dep.network());
  result.ctrl_queue_drops = links.dropped_queue_control;
  result.data_queue_drops =
      links.dropped_queue_full - links.dropped_queue_control;
  result.ctrl_backlog_hw_ns = links.control_backlog_hw_ns;
  result.data_backlog_hw_ns = links.data_backlog_hw_ns;
  result.ecn_marked = links.ecn_marked();
  result.pause_tx = links.pause_tx;
  result.pause_rx = links.pause_rx;
  result.buffer_drops = links.dropped_buffer;
  result.flowlet_reroutes = links.flowlet_reroutes;
  result.wcmp_weight_updates = links.wcmp_weight_updates;

  if (sender != nullptr && receiver != nullptr) {
    result.packets_sent = sender->packets_sent();
    const auto& sink = receiver->sink_stats();
    result.packets_lost = sink.lost(result.packets_sent);
    result.duplicates = sink.duplicates;
    result.out_of_order = sink.out_of_order;
    result.outage = sink.max_gap;
    result.flow_stats = probe_flow_stats(*sender, *receiver);
  }

  const sim::ShardedEngine::Stats& es = engine.stats();
  result.threads_used = shards;
  result.sync_windows = es.windows;
  result.horizon_stalls = es.horizon_stalls;
  result.cross_shard_frames = es.cross_events;
  result.mailbox_high_water = es.mailbox_high_water;
  result.coalesced_windows = es.coalesced_windows;
  for (std::uint32_t i = 0; i < shards; ++i) {
    for (std::uint32_t j = 0; j < shards; ++j) {
      if (i == j) continue;
      const auto la = engine.pair_lookahead(i, j);
      if (!la) continue;
      const auto ns = static_cast<std::uint64_t>(la->ns());
      if (result.pair_lookahead_min_ns == 0 ||
          ns < result.pair_lookahead_min_ns) {
        result.pair_lookahead_min_ns = ns;
      }
      result.pair_lookahead_max_ns = std::max(result.pair_lookahead_max_ns, ns);
    }
  }
  return result;
}

AveragedResult run_averaged(ExperimentSpec spec,
                            const std::vector<std::uint64_t>& seeds) {
  AveragedResult avg;
  double cache_hits = 0;
  double cache_misses = 0;
  for (std::uint64_t seed : seeds) {
    spec.seed = seed;
    ExperimentResult r = run_failure_experiment(spec);
    avg.convergence_ms += r.convergence.to_millis();
    avg.blast_any += static_cast<double>(r.blast_any);
    avg.blast_remote += static_cast<double>(r.blast_remote);
    avg.blast_leaf_remote += static_cast<double>(r.blast_leaf_remote);
    avg.ctrl_bytes_raw += static_cast<double>(r.ctrl_bytes_raw);
    avg.ctrl_bytes_padded += static_cast<double>(r.ctrl_bytes_padded);
    avg.packets_lost += static_cast<double>(r.packets_lost);
    avg.duplicates += static_cast<double>(r.duplicates);
    avg.out_of_order += static_cast<double>(r.out_of_order);
    avg.outage_ms += r.outage.to_millis();
    avg.audit_violations += static_cast<double>(r.audit_violations);
    avg.final_violations += static_cast<double>(r.final_sweep_violations);
    if (r.wall_seconds > 0) {
      const double eps = static_cast<double>(r.events_fired) / r.wall_seconds;
      avg.events_per_sec += eps;
      avg.events_per_sec_dist.add(eps);
    }
    avg.queue_high_water = std::max(
        avg.queue_high_water, static_cast<double>(r.queue_high_water));
    avg.allocs_avoided += static_cast<double>(r.allocs_avoided);
    avg.ctrl_queue_drops += static_cast<double>(r.ctrl_queue_drops);
    avg.data_queue_drops += static_cast<double>(r.data_queue_drops);
    avg.ecn_marked += static_cast<double>(r.ecn_marked);
    avg.pause_tx += static_cast<double>(r.pause_tx);
    avg.pause_rx += static_cast<double>(r.pause_rx);
    avg.buffer_drops += static_cast<double>(r.buffer_drops);
    avg.ctrl_backlog_hw_ns = std::max(
        avg.ctrl_backlog_hw_ns, static_cast<double>(r.ctrl_backlog_hw_ns));
    avg.data_backlog_hw_ns = std::max(
        avg.data_backlog_hw_ns, static_cast<double>(r.data_backlog_hw_ns));
    cache_hits += static_cast<double>(r.up_cache_hits);
    cache_misses += static_cast<double>(r.up_cache_misses);
    avg.convergence_dist.add(r.convergence.to_millis());
    avg.loss_dist.add(static_cast<double>(r.packets_lost));
    avg.ctrl_bytes_dist.add(static_cast<double>(r.ctrl_bytes_raw));
    if (r.failure_detected) {
      ++avg.detected_runs;
      avg.detection_ms += r.detection_latency.to_millis();
      avg.detection_dist.add(r.detection_latency.to_millis());
    }
    ++avg.runs;
    if (r.initial_converged) ++avg.converged_runs;
  }
  if (avg.detected_runs > 0) avg.detection_ms /= avg.detected_runs;
  if (avg.runs > 0) {
    double n = avg.runs;
    avg.convergence_ms /= n;
    avg.blast_any /= n;
    avg.blast_remote /= n;
    avg.blast_leaf_remote /= n;
    avg.ctrl_bytes_raw /= n;
    avg.ctrl_bytes_padded /= n;
    avg.packets_lost /= n;
    avg.duplicates /= n;
    avg.out_of_order /= n;
    avg.outage_ms /= n;
    avg.audit_violations /= n;
    avg.final_violations /= n;
    avg.events_per_sec /= n;
    avg.allocs_avoided /= n;
    avg.ctrl_queue_drops /= n;
    avg.data_queue_drops /= n;
    avg.ecn_marked /= n;
    avg.pause_tx /= n;
    avg.pause_rx /= n;
    avg.buffer_drops /= n;
  }
  if (cache_hits + cache_misses > 0) {
    avg.cache_hit_rate = cache_hits / (cache_hits + cache_misses);
  }
  return avg;
}

}  // namespace mrmtp::harness
