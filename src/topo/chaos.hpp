// ChaosEngine: scheduled gray-failure campaigns on top of FailureInjector.
//
// The paper's evaluation only exercises clean failures (an interface goes
// administratively down and both sides eventually notice). Production Clos
// fabrics mostly die of gray failures instead: a link drops frames in one
// direction while hellos keep flowing the other way, optics degrade slowly,
// or an interface flaps faster than routing can damp it. The engine drives
// the per-direction Link impairments and admin up/down flaps from one seeded
// RNG so a whole campaign of such failures is reproducible, and keeps a
// timestamped log of everything it injected for reports and tests.
//
// Lifetime: scheduled events capture `this`; the engine must outlive the
// scheduler run it armed (the harness owns it for the experiment duration).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "net/network.hpp"
#include "topo/clos.hpp"
#include "topo/failure.hpp"

namespace mrmtp::topo {

/// The gray-failure modes the engine can inject.
enum class GrayKind : std::uint8_t {
  kUnidirBlackhole,   // one direction drops everything, other stays healthy
  kUnidirLoss,        // one direction drops a fraction of frames
  kDegradationRamp,   // one-way loss ramps up over time (dying optics)
  kFlapStorm,         // admin down/up toggles faster than damping
  kCongestionStorm,   // seeded incast burst from N hosts toward one rack
  kBufferSqueeze,     // one switch's shared buffer pool shrinks (ASIC fault /
                      // co-tenant pressure); heals by restoring the pool

  // --- lifecycle events (harness::LifecycleEngine shares this timeline) ---
  kMaintenance,  // planned drain / reboot / rejoin of one router
  kExpansion,    // a dark-wired PoD powered into the running fabric
  kMisconfig,    // operator error: asymmetric admin-down, duplicate subnet
};

/// Lifecycle phase of a logged chaos event. Every onset that ends (heals,
/// finishes ramping, or stops sending) also logs its terminal phase, so a
/// campaign replay can assert the full timeline, not just the injections.
enum class ChaosPhase : std::uint8_t {
  kOnset,
  kHeal,          // impairment cleared / storm stopped
  kRampComplete,  // a degradation ramp reached its target loss
};

/// One injected event, for post-run reporting and assertions.
struct ChaosEventRecord {
  sim::Time at;
  GrayKind kind;
  ChaosPhase phase = ChaosPhase::kOnset;
  std::string description;  // "S-1-1:3 -> L-1-1 blackhole", ...
};

class ChaosEngine {
 public:
  /// Randomized-campaign parameters; all failures are drawn from the
  /// engine's seeded RNG so a campaign replays bit-identically.
  struct CampaignSpec {
    int events = 8;
    sim::Time start{};
    /// Gap between consecutive event onsets.
    sim::Duration spacing = sim::Duration::millis(400);
    /// Every impairment heals this long after onset (0 = permanent).
    sim::Duration heal_after = sim::Duration::seconds(1);
    /// Relative weights of the failure modes (need not sum to 1).
    double w_blackhole = 0.4;
    double w_loss = 0.3;
    double w_ramp = 0.1;
    double w_flap = 0.1;
    /// kUnidirLoss probability range.
    double loss_min = 0.3;
    double loss_max = 0.9;
    /// kFlapStorm shape: `flaps` down/up cycles, one per period.
    int flaps = 6;
    sim::Duration flap_period = sim::Duration::millis(120);
    /// kDegradationRamp: time to reach full loss.
    sim::Duration ramp_over = sim::Duration::millis(500);
    /// kCongestionStorm weight. Defaults to 0 so existing seeded campaigns
    /// replay bit-identically; overload campaigns opt in.
    double w_congestion = 0.0;
    /// kCongestionStorm shape (see StormSpec).
    int storm_senders = 6;
    sim::Duration storm_gap = sim::Duration::micros(30);
    std::size_t storm_payload = 1000;
    /// kBufferSqueeze weight. Defaults to 0 so existing seeded campaigns
    /// replay bit-identically; finite-buffer campaigns opt in. A squeeze on
    /// a fabric without switch buffers is a logged no-op.
    double w_squeeze = 0.0;
    /// kBufferSqueeze shape: the pool shrinks to this fraction until heal.
    double squeeze_frac = 0.25;
  };

  /// Incast-burst parameters for congestion_storm().
  struct StormSpec {
    /// Hosts (from other racks) that each open a flow toward the victim.
    int senders = 6;
    /// How long the burst lasts; flows stop (and the heal record logs) then.
    sim::Duration duration = sim::Duration::millis(500);
    /// Per-sender inter-packet gap; small values saturate the victim paths.
    sim::Duration gap = sim::Duration::micros(30);
    std::size_t payload_size = 1000;
  };

  ChaosEngine(net::Network& network, const ClosBlueprint& blueprint,
              std::uint64_t seed);

  // --- targeted injections (FailurePoint names the impaired interface) ---
  /// Blackholes one direction of the link at `fp` starting at `at`.
  /// `toward_device` drops frames arriving AT fp.device (so fp.device's
  /// keep-alive starves and it is the side that should detect); false drops
  /// frames it sends (the peer starves).
  void blackhole_one_way(const FailurePoint& fp, bool toward_device,
                         sim::Time at);
  void loss_one_way(const FailurePoint& fp, bool toward_device, double p,
                    sim::Time at);
  void degradation_ramp(const FailurePoint& fp, bool toward_device,
                        double target, sim::Time at, sim::Duration over);
  /// `flaps` admin down/up cycles of fp's interface, one per `period`.
  void flap_storm(const FailurePoint& fp, sim::Time at, int flaps,
                  sim::Duration period);
  /// Heals both directions of the link at `fp` at `at`. `healed` labels the
  /// heal record with the onset kind it terminates.
  void heal(const FailurePoint& fp, sim::Time at,
            GrayKind healed = GrayKind::kUnidirBlackhole);

  /// Seeded incast burst: `spec.senders` hosts drawn from other racks each
  /// open a probe flow toward one victim host (also drawn seeded), swamping
  /// the fabric directions into its rack. Composable with the gray modes —
  /// the overload analogue of a blackhole. The victim is returned so a bench
  /// can read its sink stats.
  std::string congestion_storm(const StormSpec& spec, sim::Time at);

  /// Shrinks `device`'s shared buffer pool to `frac` of its configured size
  /// at `at`, restoring it `heal_after` later (0 = permanent). Models an
  /// ASIC memory fault or co-tenant buffer pressure. Returns the device name
  /// ("" if it has no SwitchBuffer — the injection is skipped).
  std::string buffer_squeeze(const std::string& device, double frac,
                             sim::Time at, sim::Duration heal_after);

  /// Schedules `spec.events` randomized gray failures over the fabric links
  /// (host links are never touched), each healing after `heal_after`.
  void run_campaign(const CampaignSpec& spec);

  /// Everything injected so far (scheduled, in onset order).
  [[nodiscard]] const std::vector<ChaosEventRecord>& log() const {
    return log_;
  }
  /// Appends an externally produced record (the lifecycle engine logs its
  /// maintenance/expansion/misconfig events into the same timeline so a run
  /// mixing chaos and lifecycle reads as one chronology).
  void append_event(ChaosEventRecord event) {
    log_.push_back(std::move(event));
  }
  /// Onset of the first scheduled event (the detection-latency start mark).
  [[nodiscard]] std::optional<sim::Time> first_onset() const;

  /// The link carrying fp.device's fp.port (throws if unwired).
  [[nodiscard]] net::Link& link_of(const FailurePoint& fp) const;
  /// The transmission direction frames travel toward (or away from)
  /// fp.device on that link.
  [[nodiscard]] net::Link::Dir dir_of(const FailurePoint& fp,
                                      bool toward_device) const;

 private:
  void record(sim::Time at, GrayKind kind, ChaosPhase phase,
              std::string description);
  /// A random fabric link as a FailurePoint anchored on its lower device.
  [[nodiscard]] FailurePoint random_fabric_point();

  net::Network& network_;
  const ClosBlueprint& blueprint_;
  sim::Rng rng_;
  std::vector<ChaosEventRecord> log_;
};

}  // namespace mrmtp::topo
