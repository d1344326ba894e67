// The benchmark's workloads and the code that runs one repetition of one.
//
// Every workload is a batch simulation driven from outside through the
// simulator's public API, the way examples/quickstart.cpp drives it: build a
// topo::ClosBlueprint, construct a harness::Deployment, start() it, advance
// the scheduler (or the sharded engine) with run_until, poll converged(),
// sweep a harness::FabricAuditor and read public counters. Nothing here
// reaches into the simulator's internals.
//
// A repetition has three timed phases:
//   setup    blueprint + deployment + start() (+ WorkloadEngine::launch);
//   bring-up run_until from t=0 in 10 ms sim-time steps until the first step
//            at which converged() holds (the polls' own cost excluded);
//   run      run_until from there to the end of the observation window, with
//            one pause just before the failure to re-check converged().
// The traced variant also advances the run phase in 10 ms slices and
// records a span with counter deltas per slice.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "harness/deploy.hpp"
#include "trace.hpp"
#include "util/json.hpp"

namespace perfbench {

struct WorkloadDef {
  std::string name;
  mrmtp::topo::ClosParams topo;
  mrmtp::harness::Proto proto = mrmtp::harness::Proto::kMtp;
  /// 0 = one SimContext driven on the calling thread; >= 1 = a
  /// harness::ShardedFabric with this many shards (one thread each).
  std::uint32_t shards = 0;
  /// Poisson websearch campaign over ECN+PFC switches instead of the single
  /// 3 ms probe stream.
  bool websearch = false;
  /// Probe start (or workload launch), TC1 failure, probe stop (or end of
  /// the launch window), and the end of the observation window.
  mrmtp::sim::Time traffic_at;
  mrmtp::sim::Time fail_at;
  mrmtp::sim::Time stop_at;
  mrmtp::sim::Time end_at;
  /// When set, the failed interface comes back up here and the fabric must
  /// have re-converged by end_at.
  std::optional<mrmtp::sim::Time> recover_at;
};

/// The named workload; `smoke` shrinks it to a 2-PoD fabric and a short
/// timeline for the benchmark's own tests. Throws std::invalid_argument for
/// an unknown name.
[[nodiscard]] WorkloadDef make_workload(std::string_view name, bool smoke);

/// Runs one repetition. Returns a JSON record with the phase times, the
/// simulated quantities the end-to-end metrics divide by, the correctness
/// checks, the simulated-output digest and, when `trace` is enabled, the
/// per-layer metrics.
[[nodiscard]] mrmtp::util::Json run_rep(const WorkloadDef& w,
                                        std::uint64_t seed, Trace& trace);

}  // namespace perfbench
