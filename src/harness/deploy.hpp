// Deployment: instantiate a ClosBlueprint as a running network under one of
// the paper's three protocol stacks — MR-MTP, BGP/ECMP, or BGP/ECMP/BFD —
// with identical topology, link parameters, and hosts (paper §VI: identical
// slices per protocol).
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <set>

#include "bgp/router.hpp"
#include "mtp/router.hpp"
#include "net/network.hpp"
#include "net/switch_buffer.hpp"
#include "sim/parallel.hpp"
#include "topo/clos.hpp"
#include "traffic/host.hpp"

namespace mrmtp::harness {

class Deployment;

/// The shard substrate of a parallel deployment: one SimContext per shard
/// (PoD-affine assignment from topo::make_shard_plan) plus the conservative
/// engine that advances them under per-shard-pair lookahead horizons.
/// Construct the fabric first, hand it to Deployment's sharded constructor,
/// then drive the simulation through engine().run_until() instead of a
/// single Scheduler.
///
/// A one-shard fabric is the determinism reference: it runs the exact same
/// per-entity RNG streams and event order as an N-shard run, inline on the
/// calling thread, so per-router counters must match bit for bit.
class ShardedFabric {
 public:
  ShardedFabric(const topo::ClosBlueprint& blueprint, std::uint32_t threads,
                std::uint64_t seed);

  [[nodiscard]] const topo::ClosBlueprint& blueprint() const {
    return *blueprint_;
  }
  [[nodiscard]] const topo::ShardPlan& plan() const { return plan_; }
  [[nodiscard]] std::uint64_t seed() const { return seed_; }
  [[nodiscard]] std::uint32_t shard_count() const {
    return static_cast<std::uint32_t>(ctxs_.size());
  }
  [[nodiscard]] net::SimContext& ctx(std::uint32_t shard) {
    return *ctxs_[shard];
  }
  /// The owning context of a blueprint device.
  [[nodiscard]] net::SimContext& device_ctx(std::uint32_t device) {
    return *ctxs_[plan_.shard_of(device)];
  }

  /// Called by Deployment once every link is wired: moves all RNG draws onto
  /// per-entity streams, measures per-directed-shard-pair lookahead from
  /// the links that actually cross each pair, and builds the engine.
  void attach(net::Network& network);

  /// Valid after attach(); throws before.
  [[nodiscard]] sim::ShardedEngine& engine();

 private:
  const topo::ClosBlueprint* blueprint_;
  std::uint64_t seed_;
  topo::ShardPlan plan_;
  std::vector<std::unique_ptr<net::SimContext>> ctxs_;
  std::unique_ptr<sim::ShardedEngine> engine_;
};

enum class Proto : std::uint8_t { kMtp, kBgp, kBgpBfd };

[[nodiscard]] std::string_view to_string(Proto p);
inline constexpr Proto kAllProtos[] = {Proto::kMtp, Proto::kBgp, Proto::kBgpBfd};

struct DeployOptions {
  mtp::MtpTimers mtp_timers;            // paper: hello 50 ms / dead 100 ms
  bgp::BgpTimers bgp_timers;            // MRAI and flap damping
  net::Link::Params link;               // fabric links
  net::Link::Params host_link;          // server-to-ToR links

  /// Global pod numbers (1-based, (cluster-1)*pods + pod) wired dark for a
  /// later live expansion: their links exist but start admin-down on both
  /// ends and their routers/hosts are not started. activate_pod() powers
  /// them into the running fabric.
  std::set<std::uint32_t> deferred_pods;
  /// Misconfiguration: the first leaf (victim, blueprint device index) is
  /// deployed with the second leaf's server subnet — the classic wrong-VID-
  /// byte copy-paste error. MR-MTP only; the victim announces a duplicate
  /// root that the fabric must reject without disturbing other trees.
  std::optional<std::pair<std::uint32_t, std::uint32_t>> duplicate_subnet_of;
  /// Finite shared-buffer switches: every router gets a SwitchBuffer with
  /// these parameters (per-port egress accounting against a shared pool,
  /// ECN marking, PFC backpressure). Unset = today's infinite time-bounded
  /// output queues — the A/B ablation switch for the congestion study.
  std::optional<net::SwitchBufferParams> switch_buffer;
  /// Multipath path selection on every router (MTP DATA and BGP/ECMP
  /// alike): kHrw keeps the PR 2 equal-share default bit-for-bit; kWcmp
  /// weights next hops by link capacity; kWcmpFlowlet adds flowlet
  /// switching with congestion feedback. The WCMP/flowlet A/B knob.
  util::PathSelect path_select = util::PathSelect::kHrw;

  /// The idle gap that closes a flowlet (kWcmpFlowlet): ~8x the propagation
  /// RTT of the longest host-to-host path, floored at 500 µs.
  [[nodiscard]] sim::Duration effective_flowlet_gap() const {
    // Longest 3-tier host-to-host path is 6 hops each way = 12 traversals.
    const std::int64_t derived = 8 * 12 * link.delay.ns();
    return sim::Duration::nanos(derived > 500'000 ? derived : 500'000);
  }
};

/// A deployed network; indices mirror the blueprint's device/host vectors.
class Deployment {
 public:
  Deployment(net::SimContext& ctx, const topo::ClosBlueprint& blueprint,
             Proto proto, DeployOptions options = {});

  /// Sharded deployment: every device is instantiated on its shard's context
  /// per the fabric's plan (hosts follow their ToR), per-entity RNG streams
  /// are enabled, and the fabric's engine is built once wiring completes.
  Deployment(ShardedFabric& fabric, Proto proto, DeployOptions options = {});

  [[nodiscard]] Proto proto() const { return proto_; }
  [[nodiscard]] const topo::ClosBlueprint& blueprint() const { return *blueprint_; }
  [[nodiscard]] net::Network& network() { return network_; }
  [[nodiscard]] net::SimContext& ctx() { return ctx_; }

  [[nodiscard]] net::Node& router(std::uint32_t device_index) {
    return *routers_[device_index];
  }
  /// Typed access; throws std::logic_error under the wrong protocol.
  [[nodiscard]] mtp::MtpRouter& mtp(std::uint32_t device_index);
  [[nodiscard]] bgp::BgpRouter& bgp(std::uint32_t device_index);

  [[nodiscard]] traffic::Host& host(std::uint32_t host_index) {
    return *hosts_[host_index];
  }
  [[nodiscard]] std::size_t router_count() const { return routers_.size(); }
  [[nodiscard]] std::size_t host_count() const { return hosts_.size(); }

  /// Calls start() on every active node (deferred pods stay dark).
  void start();

  /// True once every active router reached its converged steady state: MTP
  /// routers joined all trees in their scope; BGP routers established all
  /// sessions over active links and hold full routing tables. Scope is
  /// derived per device by walking the wired topology, so asymmetric
  /// fabrics, deferred pods, and drained/offline routers are all handled.
  [[nodiscard]] bool converged() const;

  // --- lifecycle primitives (harness::LifecycleEngine drives these) ---
  /// Whether `device_index` is powered and part of the running fabric.
  [[nodiscard]] bool router_active(std::uint32_t device_index) const {
    return active_[device_index];
  }
  /// Graceful cost-out: the router withdraws everything it advertises but
  /// keeps forwarding in-flight traffic (protocol-dispatched).
  void drain_router(std::uint32_t device_index);
  /// Power-off: wipes the router's control-plane state (RSTs BGP sessions
  /// first, while ports still carry frames), then admin-downs every
  /// interface so neighbors see link-down.
  void stop_router(std::uint32_t device_index);
  /// Cold rejoin: interfaces come back up, then start() rebuilds state from
  /// scratch — a reboot, not a resume.
  void restart_router(std::uint32_t device_index);
  /// Powers a deferred pod into the running fabric: every link touching it
  /// comes admin-up, then its routers and hosts start cold.
  void activate_pod(std::uint32_t global_pod);
  /// Operator-intended interface shutdown (maintenance or seeded
  /// misconfiguration). Unlike a raw set_interface_down, the intent is
  /// recorded so converged() stops expecting state across the dead link;
  /// an injected fault leaves no record and keeps reading as unconverged.
  void admin_down_port(std::uint32_t device_index, std::uint32_t port);

  /// All ToR VIDs in the fabric.
  [[nodiscard]] std::vector<std::uint16_t> all_vids() const;

 private:
  void deploy_mtp(const DeployOptions& options);
  void deploy_bgp(const DeployOptions& options);
  void add_hosts();
  void wire(const DeployOptions& options);
  /// Fills active_ / host_active_ from options.deferred_pods and computes
  /// each device's leaf scope by walking up the wired hierarchy.
  void init_lifecycle(const DeployOptions& options);
  /// The context device `d` lives on: its shard's in a sharded deployment,
  /// the single shared one otherwise.
  [[nodiscard]] net::SimContext& device_ctx(std::uint32_t d);

  net::SimContext& ctx_;
  const topo::ClosBlueprint* blueprint_;
  Proto proto_;
  ShardedFabric* fabric_ = nullptr;
  net::Network network_;
  std::vector<net::Node*> routers_;
  std::vector<traffic::Host*> hosts_;
  DeployOptions options_;
  /// Per blueprint device / host: powered and participating.
  std::vector<bool> active_;
  std::vector<bool> host_active_;
  /// Interfaces admin-downed at wiring time, per deferred global pod.
  std::map<std::uint32_t, std::vector<std::pair<net::Node*, std::uint32_t>>>
      deferred_ifaces_;
  /// Ports stop_router() took down, restored verbatim by restart_router()
  /// (ports already down — deferred or failed — are left alone).
  std::map<std::uint32_t, std::vector<std::uint32_t>> rebooting_ports_;
  /// Ports the operator shut down on purpose via admin_down_port().
  std::map<std::uint32_t, std::set<std::uint32_t>> operator_down_;
};

/// Both directions of every link in `network`, summed counter by counter
/// into one LinkDirStats; the two backlog high-waters take the maximum.
[[nodiscard]] net::LinkDirStats link_totals(const net::Network& network);

}  // namespace mrmtp::harness
