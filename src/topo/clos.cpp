#include "topo/clos.hpp"

#include <algorithm>
#include <stdexcept>

#include "sim/random.hpp"

namespace mrmtp::topo {

std::string_view to_string(TestCase tc) {
  switch (tc) {
    case TestCase::kTC1: return "TC1";
    case TestCase::kTC2: return "TC2";
    case TestCase::kTC3: return "TC3";
    case TestCase::kTC4: return "TC4";
  }
  return "?";
}

ClosBlueprint::ClosBlueprint(ClosParams params) : params_(params) {
  if (params_.pods < 1 || params_.tors_per_pod < 1 ||
      params_.spines_per_pod < 1 || params_.top_spines < 1 ||
      params_.clusters < 1) {
    throw std::invalid_argument("ClosBlueprint: all tier sizes must be >= 1");
  }
  if (params_.top_spines % params_.spines_per_pod != 0) {
    throw std::invalid_argument(
        "ClosBlueprint: top_spines must be a multiple of spines_per_pod");
  }
  if (params_.clusters > 1 && params_.super_spines == 0) {
    throw std::invalid_argument(
        "ClosBlueprint: multiple clusters need super spines to mesh them");
  }
  if (params_.super_spines > 0 &&
      params_.super_spines % params_.top_spines != 0) {
    throw std::invalid_argument(
        "ClosBlueprint: super_spines must be a multiple of top_spines");
  }
  std::uint32_t global_pods = params_.clusters * params_.pods;
  if (!params_.pod_tors.empty() && params_.pod_tors.size() != global_pods) {
    throw std::invalid_argument(
        "ClosBlueprint: pod_tors must name every global PoD or be empty");
  }
  for (std::uint32_t t : params_.pod_tors) {
    if (t < 1) throw std::invalid_argument("ClosBlueprint: empty PoD");
  }
  if (!params_.pod_uplink_rate.empty() &&
      params_.pod_uplink_rate.size() != global_pods) {
    throw std::invalid_argument(
        "ClosBlueprint: pod_uplink_rate must name every global PoD or be empty");
  }
  for (double r : params_.pod_uplink_rate) {
    if (r <= 0.0) {
      throw std::invalid_argument("ClosBlueprint: uplink rate must be > 0");
    }
  }
  if (params_.miswires > 0 && params_.spines_per_pod < 2) {
    throw std::invalid_argument(
        "ClosBlueprint: miswiring swaps uplinks of two spines in one PoD");
  }
  leaf_base_.resize(global_pods, 0);
  for (std::uint32_t g = 0; g < global_pods; ++g) {
    leaf_base_[g] = total_tors_;
    total_tors_ += params_.tors_in_global_pod(g);
  }
  // VIDs are the third octet of the 192.168.V.0/24 rack subnet, so the VID
  // plan (sequential from 11) must fit a byte with room for the host field.
  if (11 + total_tors_ - 1 > 250) {
    throw std::invalid_argument("ClosBlueprint: VID plan overflows an octet");
  }
  build();
}

void ClosBlueprint::build() {
  const auto& p = params_;
  const bool multi = p.clusters > 1;
  auto cluster_prefix = [multi](std::uint32_t c) {
    std::string out;
    if (multi) out.append("C").append(std::to_string(c)).append("-");
    return out;
  };

  // --- Devices: leaves, pod spines, tops (cluster-major), then supers ---
  std::uint32_t leaf_counter = 0;
  for (std::uint32_t c = 1; c <= p.clusters; ++c) {
    for (std::uint32_t pod = 1; pod <= p.pods; ++pod) {
      for (std::uint32_t t = 1; t <= tors_in(c, pod); ++t) {
        ++leaf_counter;
        DeviceSpec d;
        d.name = cluster_prefix(c) + "L-" + std::to_string(pod) + "-" +
                 std::to_string(t);
        d.role = Role::kLeaf;
        d.tier = 1;
        d.cluster = c;
        d.pod = pod;
        d.index = t;
        d.asn = p.four_tier() ? 65000 + leaf_counter : 64600 + leaf_counter;
        d.vid = tor_vid_in(c, pod, t);
        d.server_subnet = ip::Ipv4Prefix(
            ip::Ipv4Addr(192, 168, static_cast<std::uint8_t>(d.vid), 0), 24);
        devices_.push_back(std::move(d));
      }
    }
  }
  for (std::uint32_t c = 1; c <= p.clusters; ++c) {
    for (std::uint32_t pod = 1; pod <= p.pods; ++pod) {
      for (std::uint32_t s = 1; s <= p.spines_per_pod; ++s) {
        DeviceSpec d;
        d.name = cluster_prefix(c) + "S-" + std::to_string(pod) + "-" +
                 std::to_string(s);
        d.role = Role::kPodSpine;
        d.tier = 2;
        d.cluster = c;
        d.pod = pod;
        d.index = s;
        // Per-pod spine ASN (Listing 1: 64513..); per (cluster, pod) in
        // 4-tier fabrics so paths never revisit an ASN.
        d.asn = p.four_tier() ? 64700 + (c - 1) * p.pods + pod : 64512 + pod;
        devices_.push_back(std::move(d));
      }
    }
  }
  for (std::uint32_t c = 1; c <= p.clusters; ++c) {
    for (std::uint32_t t = 1; t <= p.top_spines; ++t) {
      DeviceSpec d;
      d.name = cluster_prefix(c) + "T-" + std::to_string(t);
      d.role = Role::kTopSpine;
      d.tier = 3;
      d.cluster = c;
      d.pod = 0;
      d.index = t;
      // 3-tier: all tops share one ASN (Listing 1: router bgp 64512).
      // 4-tier: one ASN per cluster's top layer, so a path through the
      // supers into another cluster passes loop detection.
      d.asn = p.four_tier() ? 64550 + c : 64512;
      devices_.push_back(std::move(d));
    }
  }
  for (std::uint32_t q = 1; q <= p.super_spines; ++q) {
    DeviceSpec d;
    d.name = "U-" + std::to_string(q);
    d.role = Role::kSuperSpine;
    d.tier = 4;
    d.cluster = 0;
    d.pod = 0;
    d.index = q;
    d.asn = 64512;  // the shared backbone ASN moves up to the supers
    devices_.push_back(std::move(d));
  }

  port_order_.assign(devices_.size(), {});

  auto add_link = [this](std::uint32_t upper, std::uint32_t lower,
                         double rate = 1.0) {
    auto link_index = static_cast<std::uint32_t>(links_.size());
    LinkSpec l;
    l.upper = upper;
    l.lower = lower;
    // /31 per link out of 172.16.0.0/12 (paper Listing 1 uses 172.16.x.y).
    std::uint32_t base = ip::Ipv4Addr(172, 16, 0, 0).value() + 2 * link_index;
    l.upper_addr = ip::Ipv4Addr(base);
    l.lower_addr = ip::Ipv4Addr(base + 1);
    l.rate = rate;
    links_.push_back(l);
    port_order_[upper].push_back(link_index);
    port_order_[lower].push_back(link_index);
  };

  // --- Links, in the port-number-defining order (uplinks first at every
  // device so VIDs come out as in the paper's Fig. 2) ---
  // 0) Top-spine uplinks to the supers (4-tier only). Super spine q wires
  //    to top t of each cluster when (q-1) % top_spines == t-1.
  if (p.four_tier()) {
    for (std::uint32_t c = 1; c <= p.clusters; ++c) {
      for (std::uint32_t t = 1; t <= p.top_spines; ++t) {
        for (std::uint32_t q = 1; q <= p.super_spines; ++q) {
          if ((q - 1) % p.top_spines == t - 1) {
            add_link(super_spine(q), top_spine_in(c, t));
          }
        }
      }
    }
  }
  // 1) Pod-spine uplinks. Pod spine s wires to every top spine t with
  //    (t-1) % spines_per_pod == s-1 (Fig. 2 wiring: S1_1 -> {S2_1, S2_3}).
  //    The whole batch is staged first so seeded miswiring can swap the
  //    top-spine endpoints of two same-PoD, cross-spine uplinks before any
  //    port number is assigned — a cabling error baked in at build time.
  //    Keeping both swapped cables inside the PoD preserves reachability
  //    (every top spine still reaches the PoD), which is what makes this a
  //    *mis*configuration rather than a partition.
  {
    struct StagedUplink {
      std::uint32_t top, spine, cluster, pod, ordinal;
    };
    std::vector<StagedUplink> uplinks;
    for (std::uint32_t c = 1; c <= p.clusters; ++c) {
      for (std::uint32_t pod = 1; pod <= p.pods; ++pod) {
        for (std::uint32_t s = 1; s <= p.spines_per_pod; ++s) {
          std::uint32_t ordinal = 0;  // the spine's k-th uplink (stripe rate)
          for (std::uint32_t t = 1; t <= p.top_spines; ++t) {
            if ((t - 1) % p.spines_per_pod == s - 1) {
              uplinks.push_back({top_spine_in(c, t), pod_spine_in(c, pod, s),
                                 c, pod, ordinal++});
            }
          }
        }
      }
    }
    if (p.miswires > 0) {
      sim::Rng rng(p.miswire_seed);
      std::uint32_t crossed = 0;
      for (std::uint32_t attempt = 0;
           crossed < p.miswires && attempt < p.miswires * 256; ++attempt) {
        auto i = static_cast<std::size_t>(rng.below(uplinks.size()));
        auto j = static_cast<std::size_t>(rng.below(uplinks.size()));
        if (uplinks[i].cluster != uplinks[j].cluster ||
            uplinks[i].pod != uplinks[j].pod ||
            uplinks[i].spine == uplinks[j].spine ||
            uplinks[i].top == uplinks[j].top) {
          continue;
        }
        std::swap(uplinks[i].top, uplinks[j].top);
        ++crossed;
      }
    }
    for (const StagedUplink& u : uplinks) {
      add_link(u.top, u.spine, p.stripe_rate_of(u.ordinal));
    }
  }
  // 2) ToR uplinks: every leaf wires to every spine of its pod, spine order.
  //    Asymmetric mode scales these links' bandwidth per PoD; stripe_rate
  //    additionally scales the leaf's s-th uplink, putting mixed speeds
  //    inside a single ECMP group.
  for (std::uint32_t c = 1; c <= p.clusters; ++c) {
    for (std::uint32_t pod = 1; pod <= p.pods; ++pod) {
      double rate = p.uplink_rate_of((c - 1) * p.pods + (pod - 1));
      for (std::uint32_t t = 1; t <= tors_in(c, pod); ++t) {
        for (std::uint32_t s = 1; s <= p.spines_per_pod; ++s) {
          add_link(pod_spine_in(c, pod, s), leaf_in(c, pod, t),
                   rate * p.stripe_rate_of(s - 1));
        }
      }
    }
  }
  // 3) Hosts (server racks). Ports for these follow all router links.
  for (std::uint32_t c = 1; c <= p.clusters; ++c) {
    for (std::uint32_t pod = 1; pod <= p.pods; ++pod) {
      for (std::uint32_t t = 1; t <= tors_in(c, pod); ++t) {
        std::uint32_t leaf_idx = leaf_in(c, pod, t);
        const auto& subnet = *devices_[leaf_idx].server_subnet;
        for (std::uint32_t h = 1; h <= p.hosts_per_tor; ++h) {
          HostSpec hs;
          hs.name = cluster_prefix(c) + "H-" + std::to_string(pod) + "-" +
                    std::to_string(t);
          if (p.hosts_per_tor > 1) hs.name.append("-").append(std::to_string(h));
          hs.leaf = leaf_idx;
          hs.addr = subnet.host(h);
          hs.gateway = subnet.host(254);
          hosts_.push_back(std::move(hs));
        }
      }
    }
  }
}

std::uint32_t ClosBlueprint::device_index(std::string_view name) const {
  for (std::uint32_t i = 0; i < devices_.size(); ++i) {
    if (devices_[i].name == name) return i;
  }
  throw std::out_of_range("ClosBlueprint: no device " + std::string(name));
}

std::uint32_t ClosBlueprint::tors_in(std::uint32_t cluster,
                                     std::uint32_t pod) const {
  return params_.tors_in_global_pod((cluster - 1) * params_.pods + (pod - 1));
}

std::uint32_t ClosBlueprint::leaf_in(std::uint32_t cluster, std::uint32_t pod,
                                     std::uint32_t tor) const {
  return leaf_base_[(cluster - 1) * params_.pods + (pod - 1)] + (tor - 1);
}

std::uint32_t ClosBlueprint::pod_spine_in(std::uint32_t cluster,
                                          std::uint32_t pod,
                                          std::uint32_t s) const {
  return total_tors_ +
         (cluster - 1) * params_.pods * params_.spines_per_pod +
         (pod - 1) * params_.spines_per_pod + (s - 1);
}

std::uint32_t ClosBlueprint::top_spine_in(std::uint32_t cluster,
                                          std::uint32_t t) const {
  return total_tors_ +
         params_.clusters * params_.pods * params_.spines_per_pod +
         (cluster - 1) * params_.top_spines + (t - 1);
}

std::uint32_t ClosBlueprint::super_spine(std::uint32_t q) const {
  return total_tors_ +
         params_.clusters * (params_.pods * params_.spines_per_pod +
                             params_.top_spines) +
         (q - 1);
}

std::uint32_t ClosBlueprint::leaf(std::uint32_t pod, std::uint32_t tor) const {
  return leaf_in(1, pod, tor);
}

std::uint32_t ClosBlueprint::pod_spine(std::uint32_t pod, std::uint32_t s) const {
  return pod_spine_in(1, pod, s);
}

std::uint32_t ClosBlueprint::top_spine(std::uint32_t t) const {
  return top_spine_in(1, t);
}

std::uint16_t ClosBlueprint::tor_vid_in(std::uint32_t cluster,
                                        std::uint32_t pod,
                                        std::uint32_t tor) const {
  // Sequential from 11 in leaf device order — i.e. 11 + leaf index.
  return static_cast<std::uint16_t>(11 + leaf_in(cluster, pod, tor));
}

std::uint16_t ClosBlueprint::tor_vid(std::uint32_t pod, std::uint32_t tor) const {
  return tor_vid_in(1, pod, tor);
}

std::uint32_t ClosBlueprint::port_on(std::uint32_t device,
                                     std::uint32_t link_index) const {
  const auto& order = port_order_[device];
  for (std::uint32_t i = 0; i < order.size(); ++i) {
    if (order[i] == link_index) return i + 1;
  }
  throw std::out_of_range("ClosBlueprint: device not on link");
}

std::vector<std::uint32_t> ClosBlueprint::miswired_links() const {
  std::vector<std::uint32_t> out;
  for (std::uint32_t i = 0; i < links_.size(); ++i) {
    const DeviceSpec& up = devices_[links_[i].upper];
    const DeviceSpec& low = devices_[links_[i].lower];
    if (up.role != Role::kTopSpine || low.role != Role::kPodSpine) continue;
    if ((up.index - 1) % params_.spines_per_pod != low.index - 1) {
      out.push_back(i);
    }
  }
  return out;
}

std::uint32_t ClosBlueprint::leaf_host_port(std::uint32_t leaf_index) const {
  // Host ports follow every router link on the leaf.
  return static_cast<std::uint32_t>(port_order_[leaf_index].size()) + 1;
}

FailurePoint ClosBlueprint::failure_point(TestCase tc) const {
  std::uint32_t l11 = leaf(1, 1);
  std::uint32_t s11 = pod_spine(1, 1);
  std::uint32_t t1 = top_spine(1);

  auto find_link = [this](std::uint32_t upper, std::uint32_t lower) {
    for (std::uint32_t i = 0; i < links_.size(); ++i) {
      if (links_[i].upper == upper && links_[i].lower == lower) return i;
    }
    throw std::out_of_range("ClosBlueprint: no such link");
  };

  std::uint32_t tor_link = find_link(s11, l11);
  std::uint32_t spine_link = find_link(t1, s11);

  switch (tc) {
    case TestCase::kTC1:
      return {devices_[l11].name, port_on(l11, tor_link), devices_[s11].name};
    case TestCase::kTC2:
      return {devices_[s11].name, port_on(s11, tor_link), devices_[l11].name};
    case TestCase::kTC3:
      return {devices_[s11].name, port_on(s11, spine_link), devices_[t1].name};
    case TestCase::kTC4:
      return {devices_[t1].name, port_on(t1, spine_link), devices_[s11].name};
  }
  throw std::logic_error("unreachable");
}

util::Json ClosBlueprint::mtp_config() const {
  util::Json cfg;
  util::Json& topo = cfg["topology"];
  topo["tiers"] = util::Json(params_.four_tier() ? 4 : 3);

  util::JsonArray leaves;
  util::JsonObject leaf_ports;
  for (const auto& d : devices_) {
    if (d.role != Role::kLeaf) continue;
    leaves.emplace_back(d.name);
    leaf_ports[d.name] =
        util::Json("eth" + std::to_string(leaf_host_port(device_index(d.name))));
  }
  topo["leaves"] = util::Json(std::move(leaves));
  topo["leavesNetworkPortDict"] = util::Json(std::move(leaf_ports));

  util::JsonArray tops;
  for (const auto& d : devices_) {
    if (d.role == Role::kTopSpine) tops.emplace_back(d.name);
  }
  topo["topSpines"] = util::Json(std::move(tops));

  if (params_.four_tier()) {
    util::JsonArray supers;
    for (const auto& d : devices_) {
      if (d.role == Role::kSuperSpine) supers.emplace_back(d.name);
    }
    topo["superSpines"] = util::Json(std::move(supers));
  }

  util::JsonArray pods;
  for (std::uint32_t c = 1; c <= params_.clusters; ++c) {
    for (std::uint32_t pod = 1; pod <= params_.pods; ++pod) {
      util::Json pod_obj;
      util::JsonArray spines;
      for (std::uint32_t s = 1; s <= params_.spines_per_pod; ++s) {
        spines.emplace_back(devices_[pod_spine_in(c, pod, s)].name);
      }
      pod_obj["spines"] = util::Json(std::move(spines));
      pods.push_back(std::move(pod_obj));
    }
  }
  topo["pods"] = util::Json(std::move(pods));
  return cfg;
}

ShardPlan make_shard_plan(const ClosBlueprint& blueprint,
                          std::uint32_t shards) {
  const ClosParams& p = blueprint.params();
  std::uint32_t global_pods = p.clusters * p.pods;
  ShardPlan plan;
  plan.shards = std::clamp<std::uint32_t>(shards, 1,
                                          std::max<std::uint32_t>(global_pods, 1));
  plan.device_shard.resize(blueprint.devices().size(), 0);

  // Weigh each PoD by the devices it pins to its shard (ToRs + their hosts +
  // pod spines) and place PoDs, in order, on the currently lightest shard
  // (ties to the lowest index). With uniform PoD weights this degenerates to
  // the former global_pod % shards round-robin, so existing plans are
  // unchanged; asymmetric fabrics get balanced by router count instead of
  // whatever the PoD order happens to dictate.
  std::vector<std::uint64_t> load(plan.shards, 0);
  std::vector<std::uint32_t> pod_shard(global_pods, 0);
  for (std::uint32_t g = 0; g < global_pods; ++g) {
    std::uint32_t lightest = 0;
    for (std::uint32_t s = 1; s < plan.shards; ++s) {
      if (load[s] < load[lightest]) lightest = s;
    }
    pod_shard[g] = lightest;
    load[lightest] += p.tors_in_global_pod(g) * (1ull + p.hosts_per_tor) +
                      p.spines_per_pod;
  }

  std::uint32_t spine_rr = 0;  // round-robin cursor for pod-less tiers
  for (std::uint32_t d = 0; d < blueprint.devices().size(); ++d) {
    const DeviceSpec& spec = blueprint.device(d);
    if (spec.pod > 0) {
      std::uint32_t cluster = std::max<std::uint32_t>(spec.cluster, 1);
      plan.device_shard[d] = pod_shard[(cluster - 1) * p.pods + (spec.pod - 1)];
    } else {
      plan.device_shard[d] = spine_rr++ % plan.shards;
    }
  }
  return plan;
}

}  // namespace mrmtp::topo
