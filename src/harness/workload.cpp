#include "harness/workload.hpp"

#include <algorithm>
#include <chrono>
#include <optional>

#include "harness/auditor.hpp"
#include "net/switch_buffer.hpp"
#include "topo/chaos.hpp"

namespace mrmtp::harness {

WorkloadRunResult run_workload(const WorkloadRunSpec& spec) {
  topo::ClosBlueprint blueprint(spec.topo);
  ShardedFabric fabric(blueprint, std::max<std::uint32_t>(spec.threads, 1),
                       spec.seed);
  Deployment dep(fabric, spec.proto, spec.options);

  const sim::Time t_launch = sim::Time::zero() + spec.settle;
  const sim::Time t_end = t_launch + spec.launch_window + spec.drain;

  dep.start();

  std::vector<traffic::Host*> hosts;
  hosts.reserve(dep.host_count());
  for (std::uint32_t h = 0; h < dep.host_count(); ++h) {
    hosts.push_back(&dep.host(h));
  }
  traffic::WorkloadSpec w = spec.workload;
  if (w.edge_bw_bps == 0) {
    w.edge_bw_bps = spec.options.host_link.bandwidth_bps;
  }
  traffic::WorkloadEngine engine(std::move(hosts), std::move(w), spec.seed);
  engine.launch(t_launch, spec.launch_window);

  topo::FailureInjector injector(dep.network(), blueprint);
  if (spec.inject_failure) {
    injector.schedule_failure(spec.tc, t_launch + spec.failure_after);
  }

  // Seeded buffer-squeeze chaos, spread evenly across the launch window.
  std::optional<topo::ChaosEngine> chaos;
  if (spec.chaos_squeezes > 0) {
    chaos.emplace(dep.network(), blueprint, spec.seed ^ 0x53515a45ull);
    topo::ChaosEngine::CampaignSpec camp;
    camp.events = static_cast<int>(spec.chaos_squeezes);
    camp.spacing = spec.launch_window / (spec.chaos_squeezes + 1);
    camp.start = t_launch + camp.spacing;
    camp.heal_after = camp.spacing / 2;
    camp.w_blackhole = camp.w_loss = camp.w_ramp = 0;
    camp.w_flap = camp.w_congestion = 0;
    camp.w_squeeze = 1.0;
    camp.squeeze_frac = spec.squeeze_frac;
    chaos->run_campaign(camp);
  }

  std::optional<FabricAuditor> auditor;
  if (spec.audit) auditor.emplace(dep);
  AuditedRun run(fabric.engine(), auditor ? &*auditor : nullptr,
                 sim::Time::zero(), spec.audit_period);

  // Pause just before launch for the cross-shard converged() snapshot, then
  // run out the campaign.
  WorkloadRunResult result;
  auto wall_start = std::chrono::steady_clock::now();
  run.run_until(t_launch - sim::Duration::nanos(1));
  result.initial_converged = dep.converged();
  run.run_until(t_end);
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  result.flows = engine.collect(t_end);
  result.threads_used = fabric.shard_count();
  for (std::uint32_t s = 0; s < fabric.shard_count(); ++s) {
    result.events_fired += fabric.ctx(s).sched.events_fired();
  }
  const net::LinkDirStats links = link_totals(dep.network());
  result.data_queue_drops =
      links.dropped_queue_full - links.dropped_queue_control;
  result.ecn_marked = links.ecn_marked();
  result.pause_tx = links.pause_tx;
  result.pause_rx = links.pause_rx;
  result.buffer_drops = links.dropped_buffer;
  result.ctrl_queue_drops = links.dropped_queue_control;
  result.flows.flowlet_reroutes = links.flowlet_reroutes;
  result.flows.wcmp_weight_updates = links.wcmp_weight_updates;
  for (std::uint32_t d = 0; d < dep.router_count(); ++d) {
    const net::SwitchBuffer* sb = dep.router(d).switch_buffer();
    if (sb == nullptr || sb->params().pool_bytes == 0) continue;
    result.occupancy_hw_ratio =
        std::max(result.occupancy_hw_ratio,
                 static_cast<double>(sb->stats().occupancy_hw) /
                     static_cast<double>(sb->params().pool_bytes));
  }
  if (auditor) {
    // A final sweep scores the end-state invariants.
    auditor->sweep();
    result.pfc_deadlocks = auditor->pfc_deadlocks();
    result.audit_violations = auditor->violations().size();
  }
  return result;
}

}  // namespace mrmtp::harness
