#include "traffic/workload.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace mrmtp::traffic {

namespace {

/// L2 wire overhead per probe packet: Ethernet 14 + IPv4 20 + UDP 8.
constexpr std::uint64_t kWireOverhead = 42;

sim::Duration packet_gap(std::size_t payload, std::uint64_t bw_bps) {
  const double bits = static_cast<double>(payload + kWireOverhead) * 8.0;
  return sim::Duration::nanos(
      static_cast<std::int64_t>(bits * 1e9 / static_cast<double>(bw_bps)));
}

}  // namespace

FlowSizeCdf::FlowSizeCdf(std::string name, std::vector<Point> points)
    : name_(std::move(name)), points_(std::move(points)) {
  if (points_.size() < 2 || points_.front().cum != 0.0 ||
      points_.back().cum != 1.0) {
    throw std::invalid_argument(
        "FlowSizeCdf: table must span cumulative 0 to 1");
  }
  for (std::size_t i = 1; i < points_.size(); ++i) {
    if (points_[i].cum < points_[i - 1].cum ||
        points_[i].bytes < points_[i - 1].bytes) {
      throw std::invalid_argument("FlowSizeCdf: table must be monotone");
    }
  }
}

FlowSizeCdf FlowSizeCdf::websearch() {
  return FlowSizeCdf("websearch",
                     {{0, 0.0},
                      {10e3, 0.15},
                      {20e3, 0.20},
                      {30e3, 0.30},
                      {50e3, 0.40},
                      {80e3, 0.53},
                      {200e3, 0.60},
                      {1e6, 0.70},
                      {2e6, 0.80},
                      {5e6, 0.90},
                      {10e6, 0.97},
                      {30e6, 1.0}});
}

FlowSizeCdf FlowSizeCdf::hadoop() {
  return FlowSizeCdf("hadoop",
                     {{0, 0.0},
                      {250, 0.20},
                      {500, 0.40},
                      {1e3, 0.60},
                      {2e3, 0.75},
                      {10e3, 0.85},
                      {100e3, 0.92},
                      {1e6, 0.98},
                      {10e6, 1.0}});
}

double FlowSizeCdf::sample(sim::Rng& rng) const {
  const double u = rng.uniform();
  for (std::size_t i = 1; i < points_.size(); ++i) {
    if (u <= points_[i].cum) {
      const Point& a = points_[i - 1];
      const Point& b = points_[i];
      const double span = b.cum - a.cum;
      const double frac = span <= 0 ? 0.0 : (u - a.cum) / span;
      return std::max(1.0, a.bytes + (b.bytes - a.bytes) * frac);
    }
  }
  return std::max(1.0, points_.back().bytes);
}

double FlowSizeCdf::mean_bytes() const {
  double mean = 0;
  for (std::size_t i = 1; i < points_.size(); ++i) {
    mean += (points_[i].cum - points_[i - 1].cum) *
            (points_[i].bytes + points_[i - 1].bytes) * 0.5;
  }
  return std::max(1.0, mean);
}

std::string_view to_string(Scenario s) {
  switch (s) {
    case Scenario::kRandomPairs: return "random_pairs";
    case Scenario::kIncast: return "incast";
    case Scenario::kAllToAll: return "all_to_all";
  }
  return "?";
}

double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const auto n = static_cast<double>(sorted.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n));
  if (rank == 0) rank = 1;
  return sorted[std::min(sorted.size() - 1, rank - 1)];
}

WorkloadEngine::WorkloadEngine(std::vector<Host*> hosts, WorkloadSpec spec,
                               std::uint64_t seed)
    : hosts_(std::move(hosts)), spec_(std::move(spec)), seed_(seed) {
  if (hosts_.size() < 2) {
    throw std::invalid_argument("WorkloadEngine: needs at least two hosts");
  }
  if (spec_.edge_bw_bps == 0) {
    throw std::invalid_argument(
        "WorkloadEngine: edge_bw_bps unset (harness fills it from the "
        "deployed host-link bandwidth)");
  }
  if (spec_.load <= 0 || spec_.load > 1.0) {
    throw std::invalid_argument("WorkloadEngine: load must be in (0, 1]");
  }
}

void WorkloadEngine::build_schedule(sim::Time start, sim::Duration window) {
  if (!schedule_.empty()) return;
  sim::Rng rng(seed_ ^ 0x574c4f4144ull);  // "WLOAD" stream, decoupled from
                                          // every fabric entity's stream
  const auto n = static_cast<std::uint32_t>(hosts_.size());
  const double mean = spec_.cdf.mean_bytes() * spec_.size_scale;
  const sim::Time end = start + window;
  std::uint64_t next_id = 1;

  auto sample_bytes = [&] {
    return static_cast<std::uint64_t>(std::max(
        1.0, std::round(spec_.cdf.sample(rng) * spec_.size_scale)));
  };
  auto add_flow = [&](std::uint32_t src, std::uint32_t dst,
                      std::uint64_t bytes, sim::Time at) {
    ScheduledFlow f;
    f.id = next_id++;
    f.src = src;
    f.dst = dst;
    f.bytes = bytes;
    f.packets = std::max<std::uint64_t>(
        1, (bytes + spec_.payload_size - 1) / spec_.payload_size);
    f.start = at;
    schedule_.push_back(f);
  };

  switch (spec_.scenario) {
    case Scenario::kRandomPairs: {
      // Aggregate Poisson arrival rate: each host offers `load` of its edge,
      // so lambda = n * load * bw / (8 * mean_flow_bytes) flows per second.
      const double lambda = static_cast<double>(n) * spec_.load *
                            static_cast<double>(spec_.edge_bw_bps) /
                            (8.0 * mean);
      sim::Time t = start;
      while (true) {
        const double dt = -std::log(1.0 - rng.uniform()) / lambda;
        t = t + sim::Duration::seconds_f(dt);
        if (t >= end) break;
        const auto src = static_cast<std::uint32_t>(rng.below(n));
        const auto dst = static_cast<std::uint32_t>(
            (src + 1 + rng.below(n - 1)) % n);
        add_flow(src, dst, sample_bytes(), t);
      }
      break;
    }
    case Scenario::kIncast: {
      // Synchronized fan-in bursts into the last host, paced so the victim
      // edge sees `load` on average while each burst transiently over-
      // subscribes it by ~fanin x.
      const std::uint32_t victim = n - 1;
      const std::uint32_t fanin = std::min(spec_.incast_fanin, n - 1);
      const double round_bytes = static_cast<double>(fanin) * mean;
      const double interval =
          round_bytes * 8.0 /
          (spec_.load * static_cast<double>(spec_.edge_bw_bps));
      std::uint64_t round = 0;
      for (sim::Time t = start; t < end;
           t = t + sim::Duration::seconds_f(interval), ++round) {
        for (std::uint32_t k = 0; k < fanin; ++k) {
          const std::uint32_t idx =
              static_cast<std::uint32_t>((round * fanin + k) % (n - 1));
          const std::uint32_t src = idx < victim ? idx : idx + 1;
          add_flow(src, victim, sample_bytes(), t);
        }
      }
      break;
    }
    case Scenario::kAllToAll: {
      // One flow per ordered pair — a shuffle phase — with starts staggered
      // uniformly over the first 80% of the window.
      for (std::uint32_t src = 0; src < n; ++src) {
        for (std::uint32_t dst = 0; dst < n; ++dst) {
          if (src == dst) continue;
          const sim::Time at =
              start + sim::Duration::seconds_f(rng.uniform() * 0.8 *
                                               window.to_seconds());
          add_flow(src, dst, sample_bytes(), at);
        }
      }
      break;
    }
  }
}

void WorkloadEngine::launch(sim::Time start, sim::Duration window) {
  if (launched_) {
    throw std::logic_error("WorkloadEngine: launch() called twice");
  }
  launched_ = true;
  build_schedule(start, window);

  sent_baseline_.reserve(hosts_.size());
  for (Host* h : hosts_) {
    h->listen(spec_.sink_port);
    sent_baseline_.push_back(h->packets_sent());
  }

  const sim::Duration gap = packet_gap(spec_.payload_size, spec_.edge_bw_bps);
  for (const ScheduledFlow& f : schedule_) {
    Host* src = hosts_[f.src];
    FlowConfig cfg;
    cfg.dst = hosts_[f.dst]->addr();
    // Spread source ports so ECMP/HRW hashing sees distinct flow identities.
    cfg.src_port = static_cast<std::uint16_t>(16384 + f.id % 16384);
    cfg.dst_port = spec_.sink_port;
    cfg.gap = gap;
    cfg.count = f.packets;
    cfg.payload_size = spec_.payload_size;
    cfg.flow_id = f.id;
    cfg.ecn_response = spec_.ecn_response;
    src->ctx().sched.schedule_at(f.start,
                                 [src, cfg] { src->start_flow(cfg); });
  }
}

FlowStats WorkloadEngine::collect(sim::Time end) const {
  FlowStats st;
  std::vector<double> fcts;
  fcts.reserve(schedule_.size());
  double fct_sum = 0;

  for (const ScheduledFlow& f : schedule_) {
    ++st.flows_started;
    st.bytes_offered += f.packets * spec_.payload_size;
    const FlowRecord* rec = hosts_[f.dst]->flow_record(f.id);
    sim::Duration fct{};
    if (rec != nullptr) {
      ++st.flows_delivered;
      st.packets_delivered += rec->received;
      st.unique_delivered += rec->unique;
      st.duplicates += rec->duplicates;
      st.out_of_order += rec->out_of_order;
      st.ancient += rec->ancient;
      st.bytes_delivered += rec->bytes;
      st.ecn_marked += rec->ecn_marked;
      st.ecn_echoes += rec->echoes_sent;
      st.pause_blocked_ns += rec->paused_ns;
      if (rec->max_gap.to_millis() > st.max_gap_ms) {
        st.max_gap_ms = rec->max_gap.to_millis();
      }
    }
    if (rec != nullptr && rec->complete()) {
      ++st.flows_completed;
      fct = rec->last_arrival - f.start;
    } else {
      ++st.flows_incomplete;
      fct = end - f.start;
    }
    const double ms = fct.to_millis();
    fcts.push_back(ms);
    fct_sum += ms;
  }
  for (std::size_t i = 0; i < hosts_.size(); ++i) {
    const std::uint64_t base =
        i < sent_baseline_.size() ? sent_baseline_[i] : 0;
    st.packets_sent += hosts_[i]->packets_sent() - base;
  }

  std::sort(fcts.begin(), fcts.end());
  st.fct_samples = fcts.size();
  if (!fcts.empty()) {
    st.fct_p50_ms = quantile_sorted(fcts, 0.50);
    st.fct_p99_ms = quantile_sorted(fcts, 0.99);
    st.fct_p999_ms = quantile_sorted(fcts, 0.999);
    st.fct_mean_ms = fct_sum / static_cast<double>(fcts.size());
    st.fct_min_ms = fcts.front();
    st.fct_max_ms = fcts.back();
  }
  return st;
}

}  // namespace mrmtp::traffic
