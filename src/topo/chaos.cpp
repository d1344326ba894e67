#include "topo/chaos.hpp"

#include <algorithm>
#include <stdexcept>

#include "net/switch_buffer.hpp"
#include "traffic/host.hpp"

namespace mrmtp::topo {

namespace {
/// The context owning direction `dir`'s sender state. Impairments are read
/// by the sending side's transmitter, so chaos must mutate them on that
/// node's shard — never on the engine's setup context.
net::SimContext& sender_ctx(net::Link& link, net::Link::Dir dir) {
  net::Port& from = dir == net::Link::Dir::kAToB ? link.a() : link.b();
  return from.owner().ctx();
}
}  // namespace

ChaosEngine::ChaosEngine(net::Network& network, const ClosBlueprint& blueprint,
                         std::uint64_t seed)
    : network_(network), blueprint_(blueprint), rng_(seed) {}

net::Link& ChaosEngine::link_of(const FailurePoint& fp) const {
  net::Link* link = network_.find(fp.device).port(fp.port).link();
  if (link == nullptr) {
    throw std::logic_error("ChaosEngine: " + fp.device + ":" +
                           std::to_string(fp.port) + " is unwired");
  }
  return *link;
}

net::Link::Dir ChaosEngine::dir_of(const FailurePoint& fp,
                                   bool toward_device) const {
  net::Link& link = link_of(fp);
  net::Port& own = network_.find(fp.device).port(fp.port);
  // direction_from(own) is the direction fp.device transmits in; frames
  // toward the device travel the reverse one.
  net::Link::Dir outbound = link.direction_from(own);
  return toward_device ? net::Link::reverse(outbound) : outbound;
}

void ChaosEngine::record(sim::Time at, GrayKind kind, ChaosPhase phase,
                         std::string description) {
  log_.push_back(ChaosEventRecord{at, kind, phase, std::move(description)});
  std::sort(log_.begin(), log_.end(),
            [](const ChaosEventRecord& a, const ChaosEventRecord& b) {
              return a.at < b.at;
            });
}

std::optional<sim::Time> ChaosEngine::first_onset() const {
  // Heal / ramp-complete records never precede their onset, but guard
  // against a bare heal() call being the only thing logged.
  for (const ChaosEventRecord& r : log_) {
    if (r.phase == ChaosPhase::kOnset) return r.at;
  }
  return std::nullopt;
}

void ChaosEngine::blackhole_one_way(const FailurePoint& fp, bool toward_device,
                                    sim::Time at) {
  net::Link& link = link_of(fp);
  net::Link::Dir dir = dir_of(fp, toward_device);
  record(at, GrayKind::kUnidirBlackhole, ChaosPhase::kOnset,
         fp.device + ":" + std::to_string(fp.port) + " <-> " + fp.peer +
             (toward_device ? " blackhole toward " : " blackhole away from ") +
             fp.device);
  sender_ctx(link, dir).sched.schedule_at(
      at, [&link, dir] { link.set_blackhole(dir, true); });
}

void ChaosEngine::loss_one_way(const FailurePoint& fp, bool toward_device,
                               double p, sim::Time at) {
  net::Link& link = link_of(fp);
  net::Link::Dir dir = dir_of(fp, toward_device);
  record(at, GrayKind::kUnidirLoss, ChaosPhase::kOnset,
         fp.device + ":" + std::to_string(fp.port) + " <-> " + fp.peer +
             " one-way loss " + std::to_string(p) +
             (toward_device ? " toward " : " away from ") + fp.device);
  sender_ctx(link, dir).sched.schedule_at(
      at, [&link, dir, p] { link.set_loss(dir, p); });
}

void ChaosEngine::degradation_ramp(const FailurePoint& fp, bool toward_device,
                                   double target, sim::Time at,
                                   sim::Duration over) {
  net::Link& link = link_of(fp);
  net::Link::Dir dir = dir_of(fp, toward_device);
  record(at, GrayKind::kDegradationRamp, ChaosPhase::kOnset,
         fp.device + ":" + std::to_string(fp.port) + " <-> " + fp.peer +
             " loss ramp to " + std::to_string(target) + " over " + over.str());
  record(at + over, GrayKind::kDegradationRamp, ChaosPhase::kRampComplete,
         fp.device + ":" + std::to_string(fp.port) + " <-> " + fp.peer +
             " ramp reached " + std::to_string(target));
  sender_ctx(link, dir).sched.schedule_at(
      at, [&link, dir, target, over] { link.ramp_loss(dir, target, over); });
}

void ChaosEngine::flap_storm(const FailurePoint& fp, sim::Time at, int flaps,
                             sim::Duration period) {
  record(at, GrayKind::kFlapStorm, ChaosPhase::kOnset,
         fp.device + ":" + std::to_string(fp.port) + " flap storm x" +
             std::to_string(flaps) + " every " + period.str());
  record(at + period * flaps, GrayKind::kFlapStorm, ChaosPhase::kHeal,
         fp.device + ":" + std::to_string(fp.port) + " flap storm complete");
  FailurePoint copy = fp;  // by value: records are independent of callers
  // Admin flaps mutate the device's own port state: its shard runs them.
  net::SimContext& ctx = network_.find(fp.device).ctx();
  for (int f = 0; f < flaps; ++f) {
    sim::Time down_at = at + period * f;
    sim::Time up_at = down_at + period / 2;
    ctx.sched.schedule_at(down_at, [this, copy] {
      network_.find(copy.device).set_interface_down(copy.port);
    });
    ctx.sched.schedule_at(up_at, [this, copy] {
      network_.find(copy.device).set_interface_up(copy.port);
    });
  }
}

void ChaosEngine::heal(const FailurePoint& fp, sim::Time at, GrayKind healed) {
  net::Link& link = link_of(fp);
  record(at, healed, ChaosPhase::kHeal,
         fp.device + ":" + std::to_string(fp.port) + " <-> " + fp.peer +
             " healed");
  net::SimContext& actx = sender_ctx(link, net::Link::Dir::kAToB);
  net::SimContext& bctx = sender_ctx(link, net::Link::Dir::kBToA);
  if (&actx == &bctx) {
    actx.sched.schedule_at(at, [&link] { link.clear_impairments(); });
  } else {
    // Endpoints on different shards: each direction heals on its sender.
    actx.sched.schedule_at(
        at, [&link] { link.clear_impairments(net::Link::Dir::kAToB); });
    bctx.sched.schedule_at(
        at, [&link] { link.clear_impairments(net::Link::Dir::kBToA); });
  }
}

FailurePoint ChaosEngine::random_fabric_point() {
  std::uint32_t li =
      static_cast<std::uint32_t>(rng_.below(blueprint_.links().size()));
  const auto& ls = blueprint_.links()[li];
  return FailurePoint{blueprint_.device(ls.lower).name,
                      blueprint_.port_on(ls.lower, li),
                      blueprint_.device(ls.upper).name};
}

std::string ChaosEngine::congestion_storm(const StormSpec& spec, sim::Time at) {
  const auto& hosts = blueprint_.hosts();
  if (hosts.size() < 2) return {};

  // Seeded victim; senders drawn from other racks so every flow crosses the
  // fabric and converges on the victim's leaf.
  std::size_t vi = rng_.below(hosts.size());
  const HostSpec& victim = hosts[vi];
  std::vector<std::size_t> candidates;
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    if (hosts[i].leaf != victim.leaf) candidates.push_back(i);
  }
  if (candidates.empty()) return {};
  for (std::size_t i = 0; i + 1 < candidates.size(); ++i) {
    std::size_t j = i + rng_.below(candidates.size() - i);
    std::swap(candidates[i], candidates[j]);
  }
  int n = std::min<int>(spec.senders, static_cast<int>(candidates.size()));

  record(at, GrayKind::kCongestionStorm, ChaosPhase::kOnset,
         victim.name + " incast from " + std::to_string(n) + " hosts for " +
             spec.duration.str());
  record(at + spec.duration, GrayKind::kCongestionStorm, ChaosPhase::kHeal,
         victim.name + " incast complete");

  auto* sink = dynamic_cast<traffic::Host*>(&network_.find(victim.name));
  if (sink == nullptr) {
    throw std::logic_error("ChaosEngine: " + victim.name +
                           " is not a traffic::Host");
  }
  sink->ctx().sched.schedule_at(at, [sink] { sink->listen(); });
  for (int i = 0; i < n; ++i) {
    const HostSpec& spec_src = hosts[candidates[static_cast<std::size_t>(i)]];
    auto* src = dynamic_cast<traffic::Host*>(&network_.find(spec_src.name));
    if (src == nullptr) continue;
    traffic::FlowConfig flow;
    flow.dst = victim.addr;
    flow.gap = spec.gap;
    flow.payload_size = spec.payload_size;
    src->ctx().sched.schedule_at(at, [src, flow] { src->start_flow(flow); });
    src->ctx().sched.schedule_at(at + spec.duration, [src] { src->stop_flow(); });
  }
  return victim.name;
}

std::string ChaosEngine::buffer_squeeze(const std::string& device, double frac,
                                        sim::Time at,
                                        sim::Duration heal_after) {
  net::Node& node = network_.find(device);
  net::SwitchBuffer* sb = node.switch_buffer();
  if (sb == nullptr) return {};
  record(at, GrayKind::kBufferSqueeze, ChaosPhase::kOnset,
         device + " pool squeezed to " + std::to_string(frac));
  // Pool mutations execute on the owning node's shard, like impairments.
  node.ctx().sched.schedule_at(at, [sb, frac] { sb->squeeze(frac); });
  if (heal_after > sim::Duration{}) {
    record(at + heal_after, GrayKind::kBufferSqueeze, ChaosPhase::kHeal,
           device + " pool restored");
    node.ctx().sched.schedule_at(at + heal_after, [sb] { sb->restore(); });
  }
  return device;
}

void ChaosEngine::run_campaign(const CampaignSpec& spec) {
  const double total = spec.w_blackhole + spec.w_loss + spec.w_ramp +
                       spec.w_flap + spec.w_congestion + spec.w_squeeze;
  for (int e = 0; e < spec.events; ++e) {
    sim::Time at = spec.start + spec.spacing * e;
    FailurePoint fp = random_fabric_point();
    bool toward = rng_.chance(0.5);
    double pick = rng_.uniform() * total;
    GrayKind healed = GrayKind::kUnidirBlackhole;

    if ((pick -= spec.w_blackhole) < 0) {
      blackhole_one_way(fp, toward, at);
    } else if ((pick -= spec.w_loss) < 0) {
      double p = spec.loss_min +
                 rng_.uniform() * (spec.loss_max - spec.loss_min);
      loss_one_way(fp, toward, p, at);
      healed = GrayKind::kUnidirLoss;
    } else if ((pick -= spec.w_ramp) < 0) {
      degradation_ramp(fp, toward, 1.0, at, spec.ramp_over);
      healed = GrayKind::kDegradationRamp;
    } else if ((pick -= spec.w_flap) < 0) {
      flap_storm(fp, at, spec.flaps, spec.flap_period);
      continue;  // flaps are admin events; nothing to heal on the link
    } else if ((pick -= spec.w_congestion) < 0 || spec.w_squeeze <= 0) {
      StormSpec storm;
      storm.senders = spec.storm_senders;
      storm.gap = spec.storm_gap;
      storm.payload_size = spec.storm_payload;
      storm.duration = spec.heal_after > sim::Duration{}
                           ? spec.heal_after
                           : sim::Duration::millis(500);
      congestion_storm(storm, at);
      continue;  // the storm stops itself; no link impairment to heal
    } else {
      // Squeeze the random link's lower device; a bufferless fabric makes
      // this a skipped draw (the RNG sequence is unchanged either way).
      buffer_squeeze(fp.device, spec.squeeze_frac, at, spec.heal_after);
      continue;  // restore is scheduled by the squeeze itself
    }
    if (spec.heal_after > sim::Duration{}) {
      heal(fp, at + spec.heal_after, healed);
    }
  }
}

}  // namespace mrmtp::topo
