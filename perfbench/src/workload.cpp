#include "workload.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <vector>

#include "calibrate.hpp"
#include "harness/auditor.hpp"
#include "net/buffer.hpp"
#include "net/switch_buffer.hpp"
#include "topo/failure.hpp"
#include "traffic/workload.hpp"

namespace perfbench {

namespace harness = mrmtp::harness;
namespace net = mrmtp::net;
namespace sim = mrmtp::sim;
namespace topo = mrmtp::topo;
namespace traffic = mrmtp::traffic;
using mrmtp::util::Json;
using mrmtp::util::JsonObject;
using sim::Duration;
using sim::Time;

namespace {

/// Frame classes the per-layer metrics split by, with their metric names.
struct ClassName {
  net::TrafficClass tc;
  const char* name;
};
constexpr ClassName kClasses[] = {
    {net::TrafficClass::kMtpControl, "mtp_control"},
    {net::TrafficClass::kMtpHello, "mtp_hello"},
    {net::TrafficClass::kMtpData, "mtp_data"},
    {net::TrafficClass::kBgpUpdate, "bgp_update"},
    {net::TrafficClass::kBgpKeepalive, "bgp_keepalive"},
    {net::TrafficClass::kBfd, "bfd"},
    {net::TrafficClass::kTcpAck, "tcp_ack"},
    {net::TrafficClass::kIpData, "ip_data"},
    {net::TrafficClass::kPfc, "pfc"},
};

[[nodiscard]] double d(std::uint64_t v) { return static_cast<double>(v); }
[[nodiscard]] Json i64(std::uint64_t v) {
  return Json(static_cast<std::int64_t>(v));
}
[[nodiscard]] double ratio(double num, double den) {
  return den > 0 ? num / den : 0.0;
}

Time at_ms(std::int64_t ms) { return Time::zero() + Duration::millis(ms); }

/// Sim-time step of the bring-up converged() polls and of the traced run's
/// slices: fine enough to isolate the 100-110 ms Slow-to-Accept window.
constexpr Duration kStep = Duration::millis(10);

/// Counters the traced run reads at slice and phase boundaries. All are
/// public simulator counters, summed over every shard and every port.
struct Counters {
  std::uint64_t events = 0;
  std::uint64_t reschedules = 0;
  std::uint64_t compactions = 0;
  std::array<std::uint64_t, net::kTrafficClassCount> frames{};
  /// The calling thread's pool only (the pool is thread_local; sharded runs
  /// allocate on their shard threads, which this does not see).
  net::BufferPoolStats pool{};

  [[nodiscard]] std::uint64_t all_frames() const {
    std::uint64_t n = 0;
    for (std::uint64_t f : frames) n += f;
    return n;
  }
};

/// Counter deltas of one slice, as the span's args.
Json delta_args(const Counters& a, const Counters& b) {
  Json args = JsonObject{};
  args["events"] = i64(b.events - a.events);
  args["compactions"] = i64(b.compactions - a.compactions);
  args["reschedules"] = i64(b.reschedules - a.reschedules);
  Json frames = JsonObject{};
  for (const ClassName& c : kClasses) {
    const auto i = static_cast<std::size_t>(c.tc);
    if (b.frames[i] != a.frames[i]) frames[c.name] = i64(b.frames[i] - a.frames[i]);
  }
  args["frames"] = std::move(frames);
  args["pool.slab_allocs"] = i64(b.pool.slab_allocs - a.pool.slab_allocs);
  args["pool.bytes_copied"] = i64(b.pool.bytes_copied - a.pool.bytes_copied);
  args["pool.prepend_copies"] =
      i64(b.pool.prepend_copies - a.pool.prepend_copies);
  return args;
}

enum Phase : std::size_t { kBringup = 0, kRun = 1 };
constexpr const char* kPhaseNames[] = {"bringup", "run"};

net::SwitchBufferParams ecn_pfc_buffers() {
  net::SwitchBufferParams p;
  p.pool_bytes = 256u << 10;
  p.port_reserve_bytes = 4u << 10;
  p.dt_alpha = 1.0;
  p.ecn_data_threshold = 8u << 10;
  p.pfc_xoff_bytes = 8u << 10;
  p.pfc_xon_bytes = 4u << 10;
  return p;
}

/// One repetition of one workload. Members are declared in dependency order
/// so destruction tears down the users (engine, injector) before the
/// deployment, and the deployment before its contexts and blueprint.
class Rep {
 public:
  Rep(const WorkloadDef& w, std::uint64_t seed, Trace& trace)
      : w_(w), seed_(seed), trace_(trace) {}

  Json run();

 private:
  void setup();
  void bring_up();
  void run_phase();
  void check();

  void run_until(Time t) {
    if (fabric_) {
      fabric_->engine().run_until(t);
    } else {
      ctx_->sched.run_until(t);
    }
  }
  /// Advances to `target` as one timed run_until; traced runs record a span
  /// with the counter deltas of the slice.
  void advance(Time target, Phase phase);
  /// Traced: advance in kStep slices aligned to multiples of kStep.
  void advance_sliced(Time target, Phase phase);
  bool poll_converged();
  [[nodiscard]] Counters snapshot();
  [[nodiscard]] std::vector<const sim::Scheduler*> schedulers();
  [[nodiscard]] std::uint64_t host_packets_sent();
  [[nodiscard]] Json outputs();
  [[nodiscard]] Json layers();
  /// Times the calibration kernel (a span in traced runs), then resets the
  /// RSS high-water mark so the kernel's memory stays out of the peak.
  double calibrate();

  const WorkloadDef& w_;
  std::uint64_t seed_;
  Trace& trace_;

  std::optional<topo::ClosBlueprint> blueprint_;
  std::optional<net::SimContext> ctx_;
  std::optional<harness::ShardedFabric> fabric_;
  std::optional<harness::Deployment> dep_;
  std::optional<traffic::WorkloadEngine> engine_;
  std::optional<topo::FailureInjector> injector_;
  traffic::Host* sender_ = nullptr;
  traffic::Host* receiver_ = nullptr;

  Time now_ = Time::zero();
  std::optional<Time> converged_at_;
  bool converged_before_failure_ = false;
  bool converged_at_end_ = false;
  std::size_t audit_violations_ = 0;
  traffic::FlowStats flows_{};

  // Host seconds per call site.
  double blueprint_s_ = 0, deploy_s_ = 0, start_s_ = 0, launch_s_ = 0;
  double setup_s_ = 0, converged_s_ = 0, audit_s_ = 0, collect_s_ = 0;
  std::array<double, 2> phase_s_{};
  std::uint64_t converged_calls_ = 0;
  std::uint64_t packets_at_run_start_ = 0;
  std::uint64_t packets_at_run_end_ = 0;

  // Traced run only: counters at phase boundaries, the last slice's end,
  // and the costliest bring-up slice.
  Counters at_setup_end_, at_bringup_end_, at_run_end_, last_;
  double top_slice_s_ = 0;
  Time top_slice_from_ = Time::zero();
};

std::vector<const sim::Scheduler*> Rep::schedulers() {
  std::vector<const sim::Scheduler*> out;
  if (fabric_) {
    for (std::uint32_t s = 0; s < fabric_->shard_count(); ++s) {
      out.push_back(&fabric_->ctx(s).sched);
    }
  } else {
    out.push_back(&ctx_->sched);
  }
  return out;
}

Counters Rep::snapshot() {
  Counters c;
  for (const sim::Scheduler* s : schedulers()) {
    c.events += s->events_fired();
    c.reschedules += s->reschedules();
    c.compactions += s->compactions();
  }
  for (const auto& node : dep_->network().nodes()) {
    for (std::uint32_t p = 1; p <= node->port_count(); ++p) {
      const net::TrafficStats& tx = node->port(p).tx_stats();
      for (std::size_t i = 0; i < net::kTrafficClassCount; ++i) {
        c.frames[i] += tx.by_class[i].frames;
      }
    }
  }
  c.pool = net::BufferPool::instance().stats();
  return c;
}

std::uint64_t Rep::host_packets_sent() {
  std::uint64_t n = 0;
  for (std::uint32_t h = 0; h < dep_->host_count(); ++h) {
    n += dep_->host(h).packets_sent();
  }
  return n;
}

void Rep::setup() {
  auto t = Clock::now();
  auto lap = [&t](double& into) {
    const auto now = Clock::now();
    into = seconds_between(t, now);
    const auto start = t;
    t = now;
    return start;
  };

  blueprint_.emplace(w_.topo);
  trace_.span("topo::ClosBlueprint", "topo", lap(blueprint_s_), t);

  harness::DeployOptions options;
  if (w_.websearch) {
    options.host_link.bandwidth_bps = 100'000'000ull;
    options.host_link.max_queue = Duration::seconds(1);
    options.switch_buffer = ecn_pfc_buffers();
  }
  if (w_.shards > 0) {
    fabric_.emplace(*blueprint_, w_.shards, seed_);
    dep_.emplace(*fabric_, w_.proto, options);
  } else {
    ctx_.emplace(seed_);
    dep_.emplace(*ctx_, *blueprint_, w_.proto, options);
  }
  trace_.span("harness::Deployment", "harness", lap(deploy_s_), t);

  dep_->start();
  trace_.span("harness::Deployment::start", "harness", lap(start_s_), t);

  if (w_.websearch) {
    std::vector<traffic::Host*> hosts;
    for (std::uint32_t h = 0; h < dep_->host_count(); ++h) {
      hosts.push_back(&dep_->host(h));
    }
    traffic::WorkloadSpec spec;
    spec.cdf = traffic::FlowSizeCdf::websearch();
    spec.load = 0.3;
    spec.size_scale = 0.02;
    spec.payload_size = 1000;
    spec.scenario = traffic::Scenario::kRandomPairs;
    spec.ecn_response = true;
    spec.edge_bw_bps = options.host_link.bandwidth_bps;
    engine_.emplace(std::move(hosts), spec, seed_);
    engine_->launch(w_.traffic_at, w_.stop_at - w_.traffic_at);
    trace_.span("traffic::WorkloadEngine::launch", "traffic", lap(launch_s_),
                t);
  } else {
    // The paper's probe stream: one 64-byte packet every 3 ms from the
    // first server to the last, across the failure.
    sender_ = &dep_->host(0);
    receiver_ = &dep_->host(static_cast<std::uint32_t>(dep_->host_count() - 1));
    receiver_->listen();
    traffic::Host* sender = sender_;
    const mrmtp::ip::Ipv4Addr dst = receiver_->addr();
    sender->ctx().sched.schedule_at(w_.traffic_at, [sender, dst] {
      traffic::FlowConfig flow;
      flow.dst = dst;
      flow.gap = Duration::millis(3);
      flow.payload_size = 64;
      sender->start_flow(flow);
    });
    sender->ctx().sched.schedule_at(w_.stop_at,
                                    [sender] { sender->stop_flow(); });
  }
  injector_.emplace(dep_->network(), *blueprint_);
  injector_->schedule_failure(topo::TestCase::kTC1, w_.fail_at);
  if (w_.recover_at) injector_->schedule_recovery(*w_.recover_at);
  setup_s_ = blueprint_s_ + deploy_s_ + start_s_ + launch_s_ +
             seconds_between(t, Clock::now());
}

void Rep::advance(Time target, Phase phase) {
  const auto start = Clock::now();
  run_until(target);
  const auto end = Clock::now();
  const double s = seconds_between(start, end);
  phase_s_[phase] += s;
  if (trace_.enabled()) {
    Counters now = snapshot();
    Json args = delta_args(last_, now);
    args["phase"] = kPhaseNames[phase];
    args["sim_from_ms"] = now_.to_millis();
    args["sim_to_ms"] = target.to_millis();
    trace_.span("run_until", w_.shards > 0 ? "sim.parallel" : "sim", start,
                end, std::move(args));
    Json series = JsonObject{};
    series["events"] = i64(now.events - last_.events);
    series["frames"] = i64(now.all_frames() - last_.all_frames());
    trace_.counter("slice", end, std::move(series));
    if (phase == kBringup && s > top_slice_s_) {
      top_slice_s_ = s;
      top_slice_from_ = now_;
    }
    last_ = now;
  }
  now_ = target;
}

void Rep::advance_sliced(Time target, Phase phase) {
  while (now_ < target) {
    const std::int64_t step = kStep.ns();
    const Time next = Time::from_ns((now_.ns() / step + 1) * step);
    advance(std::min(next, target), phase);
  }
}

bool Rep::poll_converged() {
  const auto start = Clock::now();
  const bool ok = dep_->converged();
  const auto end = Clock::now();
  converged_s_ += seconds_between(start, end);
  ++converged_calls_;
  Json args = JsonObject{};
  args["sim_ms"] = now_.to_millis();
  args["converged"] = ok;
  trace_.span("harness::Deployment::converged", "harness", start, end,
              std::move(args));
  return ok;
}

void Rep::bring_up() {
  while (now_ + kStep < w_.fail_at) {
    advance(now_ + kStep, kBringup);
    if (poll_converged()) {
      converged_at_ = now_;
      return;
    }
  }
}

void Rep::run_phase() {
  packets_at_run_start_ = host_packets_sent();
  const Time pre_failure = w_.fail_at - Duration::nanos(1);
  for (const Time target : {pre_failure, w_.end_at}) {
    if (now_ < target) {
      if (trace_.enabled()) {
        advance_sliced(target, kRun);
      } else {
        advance(target, kRun);
      }
    }
    if (target == pre_failure) {
      converged_before_failure_ = converged_at_.has_value() && poll_converged();
    }
  }
  packets_at_run_end_ = host_packets_sent();
}

void Rep::check() {
  if (w_.recover_at) converged_at_end_ = poll_converged();
  auto start = Clock::now();
  harness::FabricAuditor auditor(*dep_);
  audit_violations_ = auditor.sweep();
  auto end = Clock::now();
  audit_s_ = seconds_between(start, end);
  trace_.span("harness::FabricAuditor::sweep", "harness", start, end);

  if (engine_) {
    start = Clock::now();
    flows_ = engine_->collect(w_.end_at);
    end = Clock::now();
    collect_s_ = seconds_between(start, end);
    trace_.span("traffic::WorkloadEngine::collect", "traffic", start, end);
  }
}

Json flow_stats_json(const traffic::FlowStats& f) {
  Json j = JsonObject{};
  j["flows_started"] = i64(f.flows_started);
  j["flows_delivered"] = i64(f.flows_delivered);
  j["flows_completed"] = i64(f.flows_completed);
  j["flows_incomplete"] = i64(f.flows_incomplete);
  j["packets_sent"] = i64(f.packets_sent);
  j["packets_delivered"] = i64(f.packets_delivered);
  j["unique_delivered"] = i64(f.unique_delivered);
  j["duplicates"] = i64(f.duplicates);
  j["out_of_order"] = i64(f.out_of_order);
  j["ancient"] = i64(f.ancient);
  j["bytes_offered"] = i64(f.bytes_offered);
  j["bytes_delivered"] = i64(f.bytes_delivered);
  j["ecn_marked"] = i64(f.ecn_marked);
  j["ecn_echoes"] = i64(f.ecn_echoes);
  j["pause_blocked_ns"] = i64(f.pause_blocked_ns);
  j["fct_samples"] = i64(f.fct_samples);
  j["fct_p50_ms"] = f.fct_p50_ms;
  j["fct_p99_ms"] = f.fct_p99_ms;
  j["fct_p999_ms"] = f.fct_p999_ms;
  j["fct_mean_ms"] = f.fct_mean_ms;
  j["fct_min_ms"] = f.fct_min_ms;
  j["fct_max_ms"] = f.fct_max_ms;
  j["max_gap_ms"] = f.max_gap_ms;
  j["flowlet_reroutes"] = i64(f.flowlet_reroutes);
  j["wcmp_weight_updates"] = i64(f.wcmp_weight_updates);
  return j;
}

/// The simulated outputs the digest covers: convergence instant, per-class
/// frame and byte totals over every port, and the probe stream's outcome or
/// the websearch campaign's FlowStats.
Json Rep::outputs() {
  Json out = JsonObject{};
  out["converged_at_ns"] =
      converged_at_ ? Json(converged_at_->ns()) : Json(nullptr);
  std::array<std::uint64_t, net::kTrafficClassCount> frames{};
  std::array<std::uint64_t, net::kTrafficClassCount> bytes{};
  for (const auto& node : dep_->network().nodes()) {
    for (std::uint32_t p = 1; p <= node->port_count(); ++p) {
      const net::TrafficStats& tx = node->port(p).tx_stats();
      for (std::size_t i = 0; i < net::kTrafficClassCount; ++i) {
        frames[i] += tx.by_class[i].frames;
        bytes[i] += tx.by_class[i].bytes;
      }
    }
  }
  Json classes = JsonObject{};
  for (std::size_t i = 0; i < net::kTrafficClassCount; ++i) {
    const auto tc = static_cast<net::TrafficClass>(i);
    classes[std::string(net::to_string(tc))] =
        mrmtp::util::JsonArray{i64(frames[i]), i64(bytes[i])};
  }
  out["frames_bytes"] = std::move(classes);
  if (engine_) {
    out["flows"] = flow_stats_json(flows_);
  } else {
    const traffic::SinkStats& sink = receiver_->sink_stats();
    Json probe = JsonObject{};
    probe["sent"] = i64(sender_->packets_sent());
    probe["lost"] = i64(sink.lost(sender_->packets_sent()));
    probe["max_gap_ns"] = sink.max_gap.ns();
    probe["unique"] = i64(sink.unique_received);
    probe["duplicates"] = i64(sink.duplicates);
    probe["out_of_order"] = i64(sink.out_of_order);
    out["probe"] = std::move(probe);
  }
  return out;
}

/// FNV-1a, 64-bit: a stable digest of the canonical outputs text.
std::string fnv1a_hex(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

Json Rep::layers() {
  Json out = JsonObject{};
  auto put = [&out](const std::string& name, double value, const char* unit) {
    Json m = JsonObject{};
    m["value"] = value;
    m["unit"] = unit;
    out[name] = std::move(m);
  };

  put("topo.blueprint_ms", blueprint_s_ * 1e3, "ms");
  put("harness.deploy_ms", deploy_s_ * 1e3, "ms");
  put("harness.start_ms", start_s_ * 1e3, "ms");
  put("harness.converged_ms", converged_s_ * 1e3, "ms");
  put("harness.converged_calls", d(converged_calls_), "count");
  put("harness.audit_sweep_ms", audit_s_ * 1e3, "ms");

  // --- sim: events per phase, their cost, and the queue's own work ---
  const std::array<const Counters*, 3> bounds{&at_setup_end_, &at_bringup_end_,
                                              &at_run_end_};
  std::array<std::uint64_t, 2> events{};
  std::array<std::uint64_t, 2> frames{};
  for (std::size_t ph = 0; ph < 2; ++ph) {
    events[ph] = bounds[ph + 1]->events - bounds[ph]->events;
    frames[ph] = bounds[ph + 1]->all_frames() - bounds[ph]->all_frames();
  }
  for (std::size_t ph = 0; ph < 2; ++ph) {
    const std::string p = kPhaseNames[ph];
    put("sim.events." + p, d(events[ph]), "count");
    put("sim.ns_per_event." + p, ratio(phase_s_[ph] * 1e9, d(events[ph])),
        "ns");
  }
  std::size_t high_water = 0;
  std::size_t pending = 0;
  for (const sim::Scheduler* s : schedulers()) {
    high_water = std::max(high_water, s->queue_high_water());
    pending += s->pending();
  }
  put("sim.reschedules", d(at_run_end_.reschedules), "count");
  put("sim.compactions", d(at_run_end_.compactions), "count");
  put("sim.queue_high_water", d(high_water), "count");
  put("sim.pending", d(pending), "count");
  // The costliest bring-up slice: where bring-up time concentrates (the
  // Slow-to-Accept tree build on MR-MTP fabrics).
  put("sim.bringup_top_slice_ms", top_slice_from_.to_millis(), "ms");
  put("sim.bringup_top_slice_share", ratio(top_slice_s_, phase_s_[kBringup]),
      "ratio");

  sim::ShardedEngine::Stats es;
  if (fabric_) es = fabric_->engine().stats();
  put("sim.parallel.sync_windows", d(es.windows), "count");
  put("sim.parallel.horizon_stalls", d(es.horizon_stalls), "count");
  put("sim.parallel.cross_events", d(es.cross_events), "count");
  put("sim.parallel.coalesced_windows", d(es.coalesced_windows), "count");
  put("sim.parallel.mailbox_high_water", d(es.mailbox_high_water), "count");

  // --- net: frames per class and phase, pool, queues and buffers ---
  for (const ClassName& c : kClasses) {
    const auto i = static_cast<std::size_t>(c.tc);
    for (std::size_t ph = 0; ph < 2; ++ph) {
      put(std::string("net.frames.") + c.name + "." + kPhaseNames[ph],
          d(bounds[ph + 1]->frames[i] - bounds[ph]->frames[i]), "count");
    }
  }
  for (std::size_t ph = 0; ph < 2; ++ph) {
    put(std::string("net.ns_per_frame.") + kPhaseNames[ph],
        ratio(phase_s_[ph] * 1e9, d(frames[ph])), "ns");
  }
  const net::BufferPoolStats& pool = at_run_end_.pool;
  put("net.pool.slab_allocs", d(pool.slab_allocs), "count");
  put("net.pool.bytes_copied", d(pool.bytes_copied), "bytes");
  put("net.pool.prepend_copies", d(pool.prepend_copies), "count");
  put("net.pool.live_high_water", d(pool.live_high_water), "count");
  std::uint64_t queue_data = 0, queue_ctrl = 0, buffer = 0, pause_tx = 0,
                ecn = 0;
  for (const auto& link : dep_->network().links()) {
    const auto& ls = link->stats();
    for (const net::LinkDirStats* ds : {&ls.ab, &ls.ba}) {
      queue_data += ds->dropped_queue_full - ds->dropped_queue_control;
      queue_ctrl += ds->dropped_queue_control;
      buffer += ds->dropped_buffer;
      pause_tx += ds->pause_tx;
      ecn += ds->ecn_marked();
    }
  }
  double occupancy = 0;
  for (std::uint32_t r = 0; r < dep_->router_count(); ++r) {
    const net::SwitchBuffer* sb = dep_->router(r).switch_buffer();
    if (sb == nullptr || sb->params().pool_bytes == 0) continue;
    occupancy = std::max(occupancy, ratio(d(sb->stats().occupancy_hw),
                                          d(sb->params().pool_bytes)));
  }
  put("net.drops.queue_data", d(queue_data), "count");
  put("net.drops.queue_ctrl", d(queue_ctrl), "count");
  put("net.drops.buffer", d(buffer), "count");
  put("net.pause_tx", d(pause_tx), "count");
  put("net.ecn_marked", d(ecn), "count");
  put("net.occupancy_hw_ratio", occupancy, "ratio");

  // --- protocol layers: counters summed over routers (zero where the
  // workload does not deploy the protocol) ---
  const std::uint32_t routers = static_cast<std::uint32_t>(dep_->router_count());
  const bool is_mtp = w_.proto == harness::Proto::kMtp;
  mrmtp::mtp::MtpRouter::MtpStats mtp{};
  std::uint64_t vid_entries = 0, table_changes = 0;
  mrmtp::bgp::BgpRouter::BgpStats bgp{};
  std::uint64_t established = 0, routes = 0, bfd_sessions = 0;
  mrmtp::ip::SelectStats lpm{};
  mrmtp::transport::L3Node::ForwardingStats fwd{};
  auto add_fwd = [&fwd](const mrmtp::transport::L3Node& node) {
    const auto& f = node.forwarding_stats();
    fwd.forwarded += f.forwarded;
    fwd.delivered_local += f.delivered_local;
    fwd.dropped_no_route += f.dropped_no_route;
  };
  for (std::uint32_t r = 0; r < routers; ++r) {
    if (is_mtp) {
      const auto& router = dep_->mtp(r);
      const auto& s = router.mtp_stats();
      mtp.hellos_sent += s.hellos_sent;
      mtp.updates_sent += s.updates_sent;
      mtp.updates_received += s.updates_received;
      table_changes += s.table_changes_local + s.table_changes_remote;
      mtp.neighbors_accepted += s.neighbors_accepted;
      mtp.data_forwarded += s.data_forwarded;
      mtp.allocs_avoided += s.allocs_avoided;
      mtp.up_cache_hits += s.up_cache_hits;
      mtp.up_cache_misses += s.up_cache_misses;
      vid_entries += router.vid_table().size();
    } else {
      const auto& router = dep_->bgp(r);
      const auto& s = router.bgp_stats();
      bgp.updates_sent += s.updates_sent;
      bgp.updates_received += s.updates_received;
      bgp.keepalives_sent += s.keepalives_sent;
      bgp.rib_changes += s.rib_changes;
      bgp.sessions_flapped += s.sessions_flapped;
      established += router.established_sessions();
      routes += router.routes().size();
      const auto& sel = router.routes().select_stats();
      lpm.lookups += sel.lookups;
      lpm.cache_hits += sel.cache_hits;
      lpm.cache_misses += sel.cache_misses;
      if (router.config().enable_bfd) {
        bfd_sessions += router.config().neighbors.size();
      }
      add_fwd(router);
    }
  }
  for (std::uint32_t h = 0; h < dep_->host_count(); ++h) add_fwd(dep_->host(h));

  put("mtp.hellos_sent", d(mtp.hellos_sent), "count");
  put("mtp.updates_sent", d(mtp.updates_sent), "count");
  put("mtp.updates_received", d(mtp.updates_received), "count");
  put("mtp.table_changes", d(table_changes), "count");
  put("mtp.neighbors_accepted", d(mtp.neighbors_accepted), "count");
  put("mtp.vid_entries", d(vid_entries), "count");
  put("mtp.data_forwarded", d(mtp.data_forwarded), "count");
  put("mtp.allocs_avoided", d(mtp.allocs_avoided), "count");
  put("mtp.up_cache_hit_ratio",
      ratio(d(mtp.up_cache_hits), d(mtp.up_cache_hits + mtp.up_cache_misses)),
      "ratio");
  put("bgp.updates_sent", d(bgp.updates_sent), "count");
  put("bgp.updates_received", d(bgp.updates_received), "count");
  put("bgp.keepalives_sent", d(bgp.keepalives_sent), "count");
  put("bgp.rib_changes", d(bgp.rib_changes), "count");
  put("bgp.sessions_established", d(established), "count");
  put("bgp.sessions_flapped", d(bgp.sessions_flapped), "count");
  put("ip.routes", d(routes), "count");
  put("ip.lpm_lookups", d(lpm.lookups), "count");
  put("ip.lpm_cache_hit_ratio",
      ratio(d(lpm.cache_hits), d(lpm.cache_hits + lpm.cache_misses)), "ratio");
  put("transport.forwarded", d(fwd.forwarded), "count");
  put("transport.delivered_local", d(fwd.delivered_local), "count");
  put("transport.dropped_no_route", d(fwd.dropped_no_route), "count");
  put("bfd.sessions", d(bfd_sessions), "count");

  // --- traffic: the websearch campaign, or the probe stream ---
  put("traffic.launch_ms", launch_s_ * 1e3, "ms");
  put("traffic.collect_ms", collect_s_ * 1e3, "ms");
  if (engine_) {
    put("traffic.flows_started", d(flows_.flows_started), "count");
    put("traffic.flows_completed", d(flows_.flows_completed), "count");
    put("traffic.packets_sent", d(flows_.packets_sent), "count");
    put("traffic.unique_delivered", d(flows_.unique_delivered), "count");
    put("traffic.ecn_echoes", d(flows_.ecn_echoes), "count");
  } else {
    put("traffic.flows_started", d(sender_->flows_started()), "count");
    put("traffic.flows_completed", d(sender_->flows_finished()), "count");
    put("traffic.packets_sent", d(sender_->packets_sent()), "count");
    put("traffic.unique_delivered", d(receiver_->sink_stats().unique_received),
        "count");
    put("traffic.ecn_echoes", d(sender_->ecn_echoes_rx()), "count");
  }
  return out;
}

double Rep::calibrate() {
  const auto start = Clock::now();
  const double s = calibration_seconds();
  trace_.span("calibration", "perfbench", start, Clock::now());
  if (!reset_peak_rss()) {
    throw std::runtime_error("cannot reset the RSS high-water mark");
  }
  return s;
}

Json Rep::run() {
  // Calibrate before, between the bring-up and run phases, and after, so
  // each phase can be scaled by the host speed measured next to it.
  std::array<double, 3> calibration{};
  calibration[0] = calibrate();
  const auto t0 = Clock::now();
  setup();
  if (trace_.enabled()) last_ = at_setup_end_ = snapshot();
  bring_up();
  if (trace_.enabled()) at_bringup_end_ = last_;
  std::int64_t peak_rss = peak_rss_kib();
  const auto pause = Clock::now();
  calibration[1] = calibrate();
  const double paused_s = seconds_between(pause, Clock::now());
  const Time run_from = now_;
  run_phase();
  if (trace_.enabled()) at_run_end_ = last_;
  check();
  Json outs = outputs();
  const std::string digest = fnv1a_hex(outs.dump(false));
  const double total_s = seconds_between(t0, Clock::now()) - paused_s;
  peak_rss = std::max(peak_rss, peak_rss_kib());
  calibration[2] = calibrate();

  Json rec = JsonObject{};
  rec["workload"] = w_.name;
  rec["seed"] = static_cast<std::int64_t>(seed_);
  rec["traced"] = trace_.enabled();
  rec["routers"] = static_cast<std::int64_t>(dep_->router_count());
  rec["hosts"] = static_cast<std::int64_t>(dep_->host_count());
  rec["shards"] = static_cast<std::int64_t>(fabric_ ? fabric_->shard_count() : 1);

  Json phases = JsonObject{};
  phases["setup_s"] = setup_s_;
  phases["bringup_s"] = phase_s_[kBringup];
  phases["run_s"] = phase_s_[kRun];
  phases["converged_s"] = converged_s_;
  phases["audit_s"] = audit_s_;
  phases["collect_s"] = collect_s_;
  phases["total_s"] = total_s;
  rec["phases"] = std::move(phases);

  const double run_sim_s = (w_.end_at - run_from).to_seconds();
  Json simq = JsonObject{};
  simq["converged_at_ms"] =
      converged_at_ ? Json(converged_at_->to_millis()) : Json(nullptr);
  simq["run_sim_s"] = run_sim_s;
  simq["run_router_s"] = run_sim_s * d(dep_->router_count());
  simq["run_packets"] = i64(packets_at_run_end_ - packets_at_run_start_);
  rec["sim"] = std::move(simq);

  Json checks = JsonObject{};
  checks["converged_bringup"] = converged_at_.has_value();
  checks["converged_before_failure"] = converged_before_failure_;
  checks["converged_at_end"] = !w_.recover_at || converged_at_end_;
  checks["audit_violations"] = static_cast<std::int64_t>(audit_violations_);
  rec["checks"] = std::move(checks);

  rec["calibration_s"] = mrmtp::util::JsonArray{
      calibration[0], calibration[1], calibration[2]};
  rec["peak_rss_kib"] = peak_rss;
  rec["digest"] = digest;
  rec["outputs"] = std::move(outs);
  if (trace_.enabled()) rec["layers"] = layers();
  return rec;
}

}  // namespace

WorkloadDef make_workload(std::string_view name, bool smoke) {
  WorkloadDef w;
  w.name = std::string(name);
  // The failover timeline: cold start, bring-up, steady keep-alives with
  // the probe stream, TC1 failure, the interface's recovery, and a long
  // steady observation window so the run phase outweighs timer noise.
  w.topo = smoke ? topo::ClosParams{2, 2, 4, 8, 1}
                 : topo::ClosParams{64, 2, 4, 8, 1};
  w.traffic_at = at_ms(smoke ? 500 : 1000);
  w.fail_at = at_ms(smoke ? 1000 : 2000);
  w.recover_at = at_ms(smoke ? 1500 : 5000);
  w.stop_at = at_ms(smoke ? 4000 : 15000);
  w.end_at = w.stop_at + Duration::millis(200);
  if (name == "mtp64_failover") {
    w.proto = harness::Proto::kMtp;
  } else if (name == "mtp64_sharded") {
    w.proto = harness::Proto::kMtp;
    w.shards = 4;
  } else if (name == "bgpbfd64_failover") {
    w.proto = harness::Proto::kBgpBfd;
  } else if (name == "websearch8_ecnpfc") {
    w.proto = harness::Proto::kMtp;
    w.websearch = true;
    w.recover_at.reset();
    w.topo = smoke ? topo::ClosParams{2, 2, 2, 4, 1}
                   : topo::ClosParams{8, 2, 2, 4, 1};
    // TC1 fails just before the launch, so the campaign runs on the degraded
    // fabric: a failure while a PFC PAUSE is outstanding on that link loses
    // its RESUME, which leaves senders paused (and re-polling) for good.
    const std::int64_t window_ms = smoke ? 200 : 6000;
    w.traffic_at = at_ms(500);
    w.fail_at = w.traffic_at - Duration::millis(100);
    w.stop_at = w.traffic_at + Duration::millis(window_ms);
    w.end_at = w.stop_at + Duration::millis(smoke ? 300 : 2000);
  } else {
    throw std::invalid_argument("unknown workload: " + w.name);
  }
  return w;
}

Json run_rep(const WorkloadDef& w, std::uint64_t seed, Trace& trace) {
  Rep rep(w, seed, trace);
  return rep.run();
}

}  // namespace perfbench
