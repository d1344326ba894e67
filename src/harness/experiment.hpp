// The failure-experiment runner: deploy, converge, start traffic, fail an
// interface at one of TC1..TC4, and collect the paper's §V metrics —
// convergence time, blast radius, control overhead, and packet loss.
#pragma once

#include <vector>

#include "harness/deploy.hpp"
#include "harness/stats.hpp"
#include "topo/failure.hpp"
#include "traffic/workload.hpp"

namespace mrmtp::harness {

struct ExperimentSpec {
  topo::ClosParams topo = topo::ClosParams::paper_2pod();
  Proto proto = Proto::kMtp;
  topo::TestCase tc = topo::TestCase::kTC1;
  std::uint64_t seed = 1;
  DeployOptions options;

  /// Shards of the PoD-sharded conservative engine every run goes through
  /// (clamped to the PoD count). 0 or 1 = one shard, run inline on the
  /// calling thread; >= 2 = one thread per shard. Every merged metric is
  /// identical at any shard count.
  std::uint32_t threads = 0;

  /// Initial convergence allowance before traffic starts.
  sim::Duration settle = sim::Duration::seconds(3);
  /// Traffic lead time before the failure fires.
  sim::Duration traffic_lead = sim::Duration::seconds(1);
  /// Observation window after the failure (must exceed the slowest dead
  /// timer plus dissemination; BGP's hold timer is 3 s).
  sim::Duration post_failure = sim::Duration::seconds(8);

  /// Probe stream: one packet per `traffic_gap` (3 ms ~ 333 pps, which makes
  /// a 3 s BGP hold-timer outage cost ~1000 packets as in the paper).
  sim::Duration traffic_gap = sim::Duration::millis(3);
  std::size_t payload_size = 64;
  /// Probe-flow source port. The rendezvous hash maps each flow to one
  /// deterministic path, so which flow rides the failed link is a property
  /// of the flow identity — vary this to steer the probe onto/off it.
  std::uint16_t traffic_src_port = 7000;
  /// false: sender near the failure (H-1-1 -> last host, paper Fig. 7);
  /// true: sender at the far end (last host -> H-1-1, paper Fig. 8).
  bool reverse_flow = false;
  bool with_traffic = true;

  /// Gray-failure mode: instead of the clean one-sided interface-down, apply
  /// a ChaosEngine impairment to the same TC link at the failure instant.
  struct GraySpec {
    enum class Kind : std::uint8_t {
      kNone,             // classic interface-down via FailureInjector
      kUnidirBlackhole,  // one direction drops every frame
      kUnidirLoss,       // one direction drops `loss` of frames
      kFlapStorm,        // rapid down/up cycling of the interface
    };
    Kind kind = Kind::kNone;
    /// true: frames *arriving at* the TC device are dropped (it is starved
    /// and must detect); false: frames it sends are dropped instead.
    bool toward_device = true;
    double loss = 0.5;  // kUnidirLoss
    int flaps = 6;      // kFlapStorm
    sim::Duration flap_period = sim::Duration::millis(120);
  };
  GraySpec gray;

  /// Run a FabricAuditor sweep every `audit_period` from traffic start.
  bool audit = false;
  sim::Duration audit_period = sim::Duration::millis(250);
};

struct ExperimentResult {
  bool initial_converged = false;

  /// Failure instant -> last update-message activity (0 if no updates).
  sim::Duration convergence{};
  std::uint64_t update_events = 0;

  /// Blast radius variants (see DESIGN.md §4):
  std::uint64_t blast_any = 0;          // routers whose tables changed at all
  std::uint64_t blast_remote = 0;       // ... due to *received* updates
  std::uint64_t blast_leaf_remote = 0;  // ... leaves only (paper's MTP count)

  /// Update-message bytes at L2 during convergence.
  std::uint64_t ctrl_bytes_raw = 0;
  std::uint64_t ctrl_bytes_padded = 0;

  /// Probe-stream outcome across the failure.
  std::uint64_t packets_sent = 0;
  std::uint64_t packets_lost = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t out_of_order = 0;
  sim::Duration outage{};  // longest inter-arrival gap at the receiver

  /// Per-flow view of the same probe traffic, from the receiver's flow
  /// records (delivery spans stand in for FCT on the open-ended probe).
  traffic::FlowStats flow_stats;

  /// Gray-failure detection: onset -> first neighbor/session declared down
  /// anywhere in the fabric (MTP counts local dead-timer/interface detection
  /// only; BGP counts any Established session drop).
  bool failure_detected = false;
  sim::Duration detection_latency{};

  /// FabricAuditor outcome (spec.audit): periodic sweeps during the run plus
  /// one final sweep after the observation window (steady-state check).
  std::uint64_t audit_sweeps = 0;
  std::uint64_t audit_violations = 0;
  std::uint64_t final_sweep_violations = 0;

  /// Event-core / data-path health, the scalability gate's raw inputs.
  std::uint64_t events_fired = 0;
  double wall_seconds = 0;            // host time for the full run
  std::uint64_t queue_high_water = 0;  // peak pending events on any shard
  std::uint64_t sched_reschedules = 0;
  /// Forwarding-cache counters summed over routers: MTP's VID/up-cache
  /// stats, or the BGP RouteTable's cached-LPM SelectStats — both protocols
  /// now run an epoch-validated candidate cache, so the scalability bench
  /// compares algorithms rather than cache presence.
  std::uint64_t allocs_avoided = 0;
  std::uint64_t up_cache_hits = 0;
  std::uint64_t up_cache_misses = 0;
  /// WCMP/flowlet telemetry summed over every link direction (0 under the
  /// default kHrw path selection).
  std::uint64_t flowlet_reroutes = 0;
  std::uint64_t wcmp_weight_updates = 0;

  /// Per-class egress-queue outcome summed over every link direction:
  /// control-class vs data-class tail drops, and the worst serialization
  /// backlog (ns) either class saw at admission anywhere in the fabric.
  std::uint64_t ctrl_queue_drops = 0;
  std::uint64_t data_queue_drops = 0;
  std::uint64_t ctrl_backlog_hw_ns = 0;
  std::uint64_t data_backlog_hw_ns = 0;

  /// Finite-buffer counters summed over every link direction (all zero when
  /// DeployOptions::switch_buffer is unset): ECN CE marks applied, PFC
  /// PAUSE/RESUME frames sent/received, and pool-admission drops.
  std::uint64_t ecn_marked = 0;
  std::uint64_t pause_tx = 0;
  std::uint64_t pause_rx = 0;
  std::uint64_t buffer_drops = 0;

  /// Parallel-engine health: shards actually used, barrier windows executed,
  /// windows in which some shard had no local work before the horizon (pure
  /// synchronization overhead), frames that crossed a shard mailbox, and the
  /// deepest any mailbox ever got.
  std::uint32_t threads_used = 1;
  std::uint64_t sync_windows = 0;
  std::uint64_t horizon_stalls = 0;
  std::uint64_t cross_shard_frames = 0;
  std::uint64_t mailbox_high_water = 0;
  /// Horizon segments shards executed without any rendezvous — each one
  /// would have been (at least) one barrier window under the lock-step
  /// engine, so coalesced/sync is the barrier-elision ratio.
  std::uint64_t coalesced_windows = 0;
  /// Tightest and widest transitively-closed directed-pair lookahead (ns)
  /// the engine derived from the actual shard-crossing links; 0/0 with one
  /// shard. The spread shows how much the per-pair matrix buys over
  /// one global minimum.
  std::uint64_t pair_lookahead_min_ns = 0;
  std::uint64_t pair_lookahead_max_ns = 0;
};

[[nodiscard]] ExperimentResult run_failure_experiment(const ExperimentSpec& spec);

/// Seed-averaged metrics (the paper plots multi-run averages).
struct AveragedResult {
  double convergence_ms = 0;
  double blast_any = 0;
  double blast_remote = 0;
  double blast_leaf_remote = 0;
  double ctrl_bytes_raw = 0;
  double ctrl_bytes_padded = 0;
  double packets_lost = 0;
  double duplicates = 0;
  double out_of_order = 0;
  double outage_ms = 0;
  /// Mean over *detected* runs only.
  double detection_ms = 0;
  double audit_violations = 0;
  double final_violations = 0;
  /// Hot-path aggregates: mean events/sec (sim events per host second),
  /// max heap high-water across seeds, mean allocations avoided, and the
  /// pooled uplink-candidate-cache hit rate.
  double events_per_sec = 0;
  double queue_high_water = 0;
  double allocs_avoided = 0;
  double cache_hit_rate = 0;
  /// Per-class egress-queue aggregates: mean drops per run, max high-water
  /// backlog (ns) across seeds.
  double ctrl_queue_drops = 0;
  double data_queue_drops = 0;
  double ctrl_backlog_hw_ns = 0;
  double data_backlog_hw_ns = 0;
  /// Finite-buffer aggregates: mean per-run counts (zero without switch
  /// buffers).
  double ecn_marked = 0;
  double pause_tx = 0;
  double pause_rx = 0;
  double buffer_drops = 0;
  int runs = 0;
  int converged_runs = 0;
  int detected_runs = 0;

  /// Full spread across seeds for the headline metrics (mean == the
  /// corresponding field above).
  Distribution convergence_dist;
  Distribution loss_dist;
  Distribution ctrl_bytes_dist;
  Distribution detection_dist;
  /// Events/sec of each run that measured its wall time; host timing, so
  /// one slow run can skew `events_per_sec` but hardly its median.
  Distribution events_per_sec_dist;
};

[[nodiscard]] AveragedResult run_averaged(ExperimentSpec spec,
                                          const std::vector<std::uint64_t>& seeds);

}  // namespace mrmtp::harness
