#include "harness/deploy.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/hash.hpp"

namespace mrmtp::harness {

std::string_view to_string(Proto p) {
  switch (p) {
    case Proto::kMtp: return "MR-MTP";
    case Proto::kBgp: return "BGP/ECMP";
    case Proto::kBgpBfd: return "BGP/ECMP/BFD";
  }
  return "?";
}

ShardedFabric::ShardedFabric(const topo::ClosBlueprint& blueprint,
                             std::uint32_t threads, std::uint64_t seed)
    : blueprint_(&blueprint),
      seed_(seed),
      plan_(topo::make_shard_plan(blueprint, threads)) {
  ctxs_.reserve(plan_.shards);
  for (std::uint32_t s = 0; s < plan_.shards; ++s) {
    // The shared per-context rng is never drawn in a sharded deployment
    // (every consumer is moved onto a private stream below), but seed each
    // shard distinctly so any future draw is at least not correlated.
    ctxs_.push_back(
        std::make_unique<net::SimContext>(util::mix64(seed) + s));
    // Assigned here (not in attach) so wiring-time consumers — notably
    // Link::schedule_delivery's same-shard bypass and the cross-shard link
    // classification below — can read endpoint shards.
    ctxs_.back()->shard = s;
  }
}

void ShardedFabric::attach(net::Network& network) {
  if (engine_) {
    throw std::logic_error("ShardedFabric::attach called twice");
  }

  // Per-link (per-direction, inside Link) RNG streams, seeded by wiring
  // order. Wiring order is a blueprint property, so a link's stream — and
  // hence its loss/jitter draws — is identical no matter how many shards the
  // fabric is split into. That is the whole determinism argument: each draw
  // depends only on the entity's own event order, never on global order.
  std::uint64_t li = 0;
  for (const auto& link : network.links()) {
    link->use_stream_rng(util::mix64(seed_ ^ 0x6c696e6b5347ull) + li++);
  }

  // Per-directed-shard-pair lookahead from the links that actually cross
  // that pair — same-shard deliveries bypass the bus entirely (see
  // Link::schedule_delivery), so only shard-crossing links constrain the
  // engine, and a pair wired only through fat cross-cluster links gets
  // their full delay instead of the global minimum. The engine closes the
  // matrix transitively so multi-hop chains stay bounded.
  const std::uint32_t n = shard_count();
  std::vector<sim::Duration> pair_la(static_cast<std::size_t>(n) * n,
                                     sim::Duration{});
  for (const auto& link : network.links()) {
    const std::uint32_t sa = link->a().owner().ctx().shard;
    const std::uint32_t sb = link->b().owner().ctx().shard;
    if (sa == sb) continue;
    const sim::Duration d = link->params().delay;
    for (auto [src, dst] : {std::pair{sa, sb}, std::pair{sb, sa}}) {
      sim::Duration& slot = pair_la[static_cast<std::size_t>(src) * n + dst];
      if (slot <= sim::Duration{} || d < slot) slot = d;
    }
  }

  std::vector<sim::Scheduler*> scheds;
  scheds.reserve(ctxs_.size());
  for (auto& c : ctxs_) scheds.push_back(&c->sched);
  engine_ = std::make_unique<sim::ShardedEngine>(
      std::move(scheds),
      sim::ShardedEngine::Options{.pair_lookahead = std::move(pair_la)});
  for (std::uint32_t s = 0; s < ctxs_.size(); ++s) {
    ctxs_[s]->bus = &engine_->bus();
  }
}

sim::ShardedEngine& ShardedFabric::engine() {
  if (!engine_) {
    throw std::logic_error("ShardedFabric::engine before attach");
  }
  return *engine_;
}

Deployment::Deployment(net::SimContext& ctx,
                       const topo::ClosBlueprint& blueprint, Proto proto,
                       DeployOptions options)
    : ctx_(ctx), blueprint_(&blueprint), proto_(proto), network_(ctx) {
  init_lifecycle(options);
  if (proto_ == Proto::kMtp) {
    deploy_mtp(options);
  } else {
    deploy_bgp(options);
  }
}

Deployment::Deployment(ShardedFabric& fabric, Proto proto,
                       DeployOptions options)
    : ctx_(fabric.ctx(0)),
      blueprint_(&fabric.blueprint()),
      proto_(proto),
      fabric_(&fabric),
      network_(fabric.ctx(0)) {
  init_lifecycle(options);
  if (proto_ == Proto::kMtp) {
    deploy_mtp(options);
  } else {
    deploy_bgp(options);
    // Keepalive-jitter and retry draws onto per-peer streams (and per-BFD-
    // session streams), seeded by device index — again a pure blueprint
    // property, invariant under sharding. Must precede start().
    for (std::uint32_t d = 0; d < router_count(); ++d) {
      bgp(d).use_stream_rng(util::mix64(fabric.seed() ^ 0x626770ull) ^
                            util::mix64(static_cast<std::uint64_t>(d)));
    }
  }
  fabric.attach(network_);
}

net::SimContext& Deployment::device_ctx(std::uint32_t d) {
  return fabric_ != nullptr ? fabric_->device_ctx(d) : ctx_;
}

void Deployment::deploy_mtp(const DeployOptions& options) {
  const auto& bp = *blueprint_;

  for (std::uint32_t d = 0; d < bp.devices().size(); ++d) {
    const auto& spec = bp.device(d);
    mtp::MtpConfig cfg;
    cfg.tier = spec.tier;
    cfg.timers = options.mtp_timers;
    if (spec.role == topo::Role::kLeaf) {
      cfg.server_subnet = spec.server_subnet;
      if (options.duplicate_subnet_of.has_value() &&
          options.duplicate_subnet_of->first == d) {
        // The operator pasted another rack's subnet into this ToR's config:
        // it now announces a root VID that already exists elsewhere.
        cfg.server_subnet =
            bp.device(options.duplicate_subnet_of->second).server_subnet;
      }
      std::uint32_t base_port = bp.leaf_host_port(d);
      std::uint32_t offset = 0;
      for (const auto& hs : bp.hosts()) {
        if (hs.leaf == d) cfg.rack_hosts[hs.addr] = base_port + offset++;
      }
    }
    auto& router =
        network_.add_node_on<mtp::MtpRouter>(device_ctx(d), spec.name, cfg);
    router.enable_path_select(options.path_select,
                              options.effective_flowlet_gap());
    routers_.push_back(&router);
  }

  add_hosts();
  wire(options);
}

void Deployment::deploy_bgp(const DeployOptions& options) {
  const auto& bp = *blueprint_;
  if (options.duplicate_subnet_of.has_value()) {
    throw std::invalid_argument(
        "Deployment: duplicate_subnet_of models an MR-MTP VID collision; "
        "deploy it under Proto::kMtp");
  }

  for (std::uint32_t d = 0; d < bp.devices().size(); ++d) {
    const auto& spec = bp.device(d);
    bgp::BgpConfig cfg;
    cfg.asn = spec.asn;
    cfg.router_id = d + 1;
    cfg.timers = options.bgp_timers;
    cfg.enable_bfd = proto_ == Proto::kBgpBfd;
    for (std::uint32_t li = 0; li < bp.links().size(); ++li) {
      const auto& link = bp.links()[li];
      if (link.upper == d) {
        cfg.neighbors.push_back({link.upper_addr, link.lower_addr,
                                 bp.device(link.lower).asn});
      } else if (link.lower == d) {
        cfg.neighbors.push_back({link.lower_addr, link.upper_addr,
                                 bp.device(link.upper).asn});
      }
    }
    if (spec.role == topo::Role::kLeaf) {
      cfg.originate.push_back(*spec.server_subnet);
    }
    auto& router = network_.add_node_on<bgp::BgpRouter>(device_ctx(d),
                                                        spec.name, spec.tier,
                                                        cfg);
    // Must precede start(): install() reads the mode to stamp next-hop
    // weights as sessions come up. Hosts keep plain HRW — their single
    // default route has nothing to weight.
    router.enable_path_select(options.path_select,
                              options.effective_flowlet_gap());
    routers_.push_back(&router);
  }

  add_hosts();
  wire(options);

  // Interface addressing: /31 per fabric link, /24 gateway on rack ports.
  for (std::uint32_t li = 0; li < bp.links().size(); ++li) {
    const auto& link = bp.links()[li];
    auto& upper = dynamic_cast<bgp::BgpRouter&>(*routers_[link.upper]);
    auto& lower = dynamic_cast<bgp::BgpRouter&>(*routers_[link.lower]);
    upper.configure_port(bp.port_on(link.upper, li), link.upper_addr, 31);
    lower.configure_port(bp.port_on(link.lower, li), link.lower_addr, 31);
  }
  std::vector<std::uint32_t> next_rack_port(bp.devices().size(), 0);
  for (const auto& hs : bp.hosts()) {
    auto& leaf = dynamic_cast<bgp::BgpRouter&>(*routers_[hs.leaf]);
    std::uint32_t port_number =
        bp.leaf_host_port(hs.leaf) + next_rack_port[hs.leaf]++;
    leaf.configure_port(port_number, hs.gateway, 24);
  }
}

void Deployment::add_hosts() {
  for (const auto& hs : blueprint_->hosts()) {
    // Hosts follow their ToR's shard: the rack link never crosses threads.
    net::SimContext& ctx = device_ctx(hs.leaf);
    hosts_.push_back(&network_.add_node_on<traffic::Host>(
        ctx, hs.name, hs.addr, 24, hs.gateway));
  }
}

void Deployment::wire(const DeployOptions& options) {
  const auto& bp = *blueprint_;
  const auto& params = bp.params();
  auto deferred_pod_of = [&](std::uint32_t d) -> std::uint32_t {
    const auto& spec = bp.device(d);
    if (spec.role != topo::Role::kLeaf && spec.role != topo::Role::kPodSpine) {
      return 0;
    }
    std::uint32_t g = (spec.cluster - 1) * params.pods + spec.pod;
    return options.deferred_pods.count(g) != 0 ? g : 0;
  };
  auto defer = [&](std::uint32_t g, net::Node& node, std::uint32_t port) {
    node.set_interface_down(port);
    deferred_ifaces_[g].emplace_back(&node, port);
  };
  for (std::uint32_t li = 0; li < bp.links().size(); ++li) {
    const auto& link = bp.links()[li];
    net::Link::Params lp = options.link;
    // Mixed-speed fabric: the blueprint scales individual links (asymmetric
    // oversubscription); delay is untouched so sharded lookahead holds.
    lp.bandwidth_bps = static_cast<std::uint64_t>(
        static_cast<double>(lp.bandwidth_bps) * link.rate);
    network_.connect(*routers_[link.upper], *routers_[link.lower], lp);
    // Links into a deferred pod are wired dark: admin-down on both ends
    // until activate_pod() powers the expansion in.
    std::uint32_t g = deferred_pod_of(link.upper);
    if (g == 0) g = deferred_pod_of(link.lower);
    if (g != 0) {
      defer(g, *routers_[link.upper], bp.port_on(link.upper, li));
      defer(g, *routers_[link.lower], bp.port_on(link.lower, li));
    }
  }
  std::vector<std::uint32_t> next_rack_port(bp.devices().size(), 0);
  for (std::uint32_t h = 0; h < bp.hosts().size(); ++h) {
    std::uint32_t leaf = bp.hosts()[h].leaf;
    network_.connect(*routers_[leaf], *hosts_[h], options.host_link);
    std::uint32_t leaf_port = bp.leaf_host_port(leaf) + next_rack_port[leaf]++;
    std::uint32_t g = deferred_pod_of(leaf);
    if (g != 0) {
      defer(g, *routers_[leaf], leaf_port);
      defer(g, *hosts_[h], 1);  // a host's only port
    }
  }
  if (options.switch_buffer.has_value()) {
    // Switches only — hosts model NICs, which obey PAUSE at the generator
    // (traffic::Host pacing) rather than owning a shared pool.
    for (net::Node* r : routers_) r->enable_switch_buffer(*options.switch_buffer);
  }
}

void Deployment::init_lifecycle(const DeployOptions& options) {
  options_ = options;
  const auto& bp = *blueprint_;
  const auto& params = bp.params();
  active_.assign(bp.devices().size(), true);
  host_active_.assign(bp.hosts().size(), true);
  for (std::uint32_t d = 0; d < bp.devices().size(); ++d) {
    const auto& spec = bp.device(d);
    if (spec.role != topo::Role::kLeaf && spec.role != topo::Role::kPodSpine) {
      continue;
    }
    std::uint32_t g = (spec.cluster - 1) * params.pods + spec.pod;
    if (options.deferred_pods.count(g) != 0) active_[d] = false;
  }
  for (std::uint32_t h = 0; h < bp.hosts().size(); ++h) {
    if (!active_[bp.hosts()[h].leaf]) host_active_[h] = false;
  }
}

void Deployment::start() {
  for (std::uint32_t d = 0; d < routers_.size(); ++d) {
    if (active_[d]) routers_[d]->start();
  }
  for (std::uint32_t h = 0; h < hosts_.size(); ++h) {
    if (host_active_[h]) hosts_[h]->start();
  }
}

void Deployment::drain_router(std::uint32_t device_index) {
  if (proto_ == Proto::kMtp) {
    mtp(device_index).drain();
  } else {
    bgp(device_index).drain();
  }
}

void Deployment::stop_router(std::uint32_t device_index) {
  net::Node& r = *routers_[device_index];
  // Protocol teardown first: BGP's RSTs must ride the still-up ports so
  // established and half-open peers learn of the death immediately.
  r.stop();
  std::vector<std::uint32_t>& downed = rebooting_ports_[device_index];
  downed.clear();
  for (std::uint32_t p = 1; p <= r.port_count(); ++p) {
    if (!r.port(p).admin_up()) continue;  // deferred/failed ports stay down
    r.set_interface_down(p);
    downed.push_back(p);
  }
  active_[device_index] = false;
}

void Deployment::restart_router(std::uint32_t device_index) {
  net::Node& r = *routers_[device_index];
  auto it = rebooting_ports_.find(device_index);
  if (it != rebooting_ports_.end()) {
    // Interfaces first: start() advertises / opens sessions on them.
    for (std::uint32_t p : it->second) r.set_interface_up(p);
    rebooting_ports_.erase(it);
  }
  active_[device_index] = true;
  r.start();
}

void Deployment::activate_pod(std::uint32_t global_pod) {
  auto it = deferred_ifaces_.find(global_pod);
  if (it == deferred_ifaces_.end()) {
    throw std::logic_error("Deployment: pod was not deferred");
  }
  for (auto& [node, port] : it->second) node->set_interface_up(port);
  deferred_ifaces_.erase(it);
  const auto& bp = *blueprint_;
  const auto& params = bp.params();
  for (std::uint32_t d = 0; d < bp.devices().size(); ++d) {
    const auto& spec = bp.device(d);
    if (spec.role != topo::Role::kLeaf && spec.role != topo::Role::kPodSpine) {
      continue;
    }
    if ((spec.cluster - 1) * params.pods + spec.pod != global_pod) continue;
    active_[d] = true;
    routers_[d]->start();
  }
  for (std::uint32_t h = 0; h < bp.hosts().size(); ++h) {
    if (host_active_[h]) continue;
    const auto& spec = bp.device(bp.hosts()[h].leaf);
    if ((spec.cluster - 1) * params.pods + spec.pod != global_pod) continue;
    host_active_[h] = true;
    hosts_[h]->start();
  }
}

void Deployment::admin_down_port(std::uint32_t device_index,
                                 std::uint32_t port) {
  operator_down_[device_index].insert(port);
  routers_[device_index]->set_interface_down(port);
}

mtp::MtpRouter& Deployment::mtp(std::uint32_t device_index) {
  auto* r = dynamic_cast<mtp::MtpRouter*>(routers_[device_index]);
  if (r == nullptr) throw std::logic_error("Deployment: not an MTP router");
  return *r;
}

bgp::BgpRouter& Deployment::bgp(std::uint32_t device_index) {
  auto* r = dynamic_cast<bgp::BgpRouter*>(routers_[device_index]);
  if (r == nullptr) throw std::logic_error("Deployment: not a BGP router");
  return *r;
}

std::vector<std::uint16_t> Deployment::all_vids() const {
  std::vector<std::uint16_t> vids;
  for (const auto& spec : blueprint_->devices()) {
    if (spec.role == topo::Role::kLeaf) vids.push_back(spec.vid);
  }
  return vids;
}

bool Deployment::converged() const {
  const auto& bp = *blueprint_;
  const auto& links = bp.links();
  const std::uint32_t n = static_cast<std::uint32_t>(bp.devices().size());

  // Expected state is derived from the links the *operator* still intends
  // to carry traffic: both endpoint routers powered and neither interface
  // deliberately shut down via admin_down_port(). Dark deferred pods,
  // reboots in flight, and one-sided maintenance downs all shrink the
  // expectation; an injected fault records no intent, so the fabric keeps
  // reading as unconverged until the wiring is whole again.
  auto intended_down = [&](std::uint32_t d, std::uint32_t p) {
    auto it = operator_down_.find(d);
    return it != operator_down_.end() && it->second.count(p) != 0;
  };
  std::vector<bool> usable(links.size(), false);
  for (std::uint32_t li = 0; li < links.size(); ++li) {
    const auto& l = links[li];
    usable[li] = active_[l.upper] && active_[l.lower] &&
                 !intended_down(l.upper, bp.port_on(l.upper, li)) &&
                 !intended_down(l.lower, bp.port_on(l.lower, li));
  }
  auto draining = [&](std::uint32_t d) {
    if (proto_ == Proto::kMtp) {
      return dynamic_cast<const mtp::MtpRouter&>(*routers_[d]).draining();
    }
    return dynamic_cast<const bgp::BgpRouter&>(*routers_[d]).draining();
  };

  if (proto_ == Proto::kMtp) {
    // A router's convergence scope is the set of leaf VIDs it can still
    // reach downward over usable links. A draining child has withdrawn its
    // subtree on purpose — in a striped fabric a top spine may reach a pod
    // through exactly one pod spine, so costing that spine out legitimately
    // removes the pod's trees from the top; that must not read as
    // "unconverged". The duplicate-subnet victim is excluded too: its
    // blueprint VID has no advertiser. Children always carry smaller device
    // indices than their parents (leaves < pod spines < tops < supers), so
    // one pass in index order sees every child's scope before its parents.
    const std::uint32_t victim = options_.duplicate_subnet_of.has_value()
                                     ? options_.duplicate_subnet_of->first
                                     : n;
    std::vector<std::set<std::uint16_t>> scope(n);
    for (std::uint32_t d = 0; d < n; ++d) {
      if (bp.device(d).role == topo::Role::kLeaf) {
        if (d != victim) scope[d].insert(bp.device(d).vid);
        continue;
      }
      for (std::uint32_t li = 0; li < links.size(); ++li) {
        if (!usable[li] || links[li].upper != d) continue;
        if (draining(links[li].lower)) continue;
        scope[d].insert(scope[links[li].lower].begin(),
                        scope[links[li].lower].end());
      }
    }
    for (std::uint32_t d = 0; d < n; ++d) {
      if (!active_[d]) continue;
      const auto& router = dynamic_cast<const mtp::MtpRouter&>(*routers_[d]);
      std::vector<std::uint16_t> want;
      if (bp.device(d).role != topo::Role::kLeaf) {
        want.assign(scope[d].begin(), scope[d].end());
      }
      if (!router.joined_all(want)) return false;
    }
    return true;
  }

  // BGP: every session riding a usable link is Established, and every
  // powered router holds a route (or origination) for each powered,
  // non-draining leaf subnet that BGP's valley-free flood can actually
  // deliver to it: advertisements climb from the leaf through non-draining
  // routers, then descend the same way. A draining router stops exporting
  // but keeps receiving, so a drained spine still carries a full RIB.
  std::vector<std::size_t> expected(n, 0);
  for (std::uint32_t li = 0; li < links.size(); ++li) {
    if (!usable[li]) continue;
    ++expected[links[li].upper];
    ++expected[links[li].lower];
  }
  std::vector<std::set<std::uint32_t>> reach(n);  // leaves advertised up to d
  for (std::uint32_t d = 0; d < n; ++d) {
    if (bp.device(d).role == topo::Role::kLeaf) {
      reach[d].insert(d);
      continue;
    }
    for (std::uint32_t li = 0; li < links.size(); ++li) {
      if (!usable[li] || links[li].upper != d) continue;
      if (draining(links[li].lower)) continue;
      reach[d].insert(reach[links[li].lower].begin(),
                      reach[links[li].lower].end());
    }
  }
  // Downward pass, parents before children (descending index order).
  std::vector<std::set<std::uint32_t>> full(reach);
  for (std::uint32_t d = n; d-- > 0;) {
    for (std::uint32_t li = 0; li < links.size(); ++li) {
      if (!usable[li] || links[li].lower != d) continue;
      if (draining(links[li].upper)) continue;
      full[d].insert(full[links[li].upper].begin(),
                     full[links[li].upper].end());
    }
  }
  for (std::uint32_t d = 0; d < n; ++d) {
    if (!active_[d]) continue;
    const auto& router = dynamic_cast<const bgp::BgpRouter&>(*routers_[d]);
    if (router.established_sessions() != expected[d]) return false;
    for (std::uint32_t l : full[d]) {
      const auto& spec = bp.device(l);
      if (draining(l)) continue;  // the leaf withdrew its prefix on purpose
      if (router.routes().exact(*spec.server_subnet) == nullptr) return false;
    }
  }
  return true;
}

net::LinkDirStats link_totals(const net::Network& network) {
  net::LinkDirStats t;
  for (const auto& link : network.links()) {
    for (const net::LinkDirStats* d : {&link->stats().ab, &link->stats().ba}) {
      t.delivered += d->delivered;
      t.dropped_link_down += d->dropped_link_down;
      t.dropped_dst_down += d->dropped_dst_down;
      t.dropped_impairment += d->dropped_impairment;
      t.dropped_blackhole += d->dropped_blackhole;
      t.dropped_queue_full += d->dropped_queue_full;
      t.duplicated += d->duplicated;
      t.dropped_queue_control += d->dropped_queue_control;
      t.control_backlog_hw_ns =
          std::max(t.control_backlog_hw_ns, d->control_backlog_hw_ns);
      t.data_backlog_hw_ns =
          std::max(t.data_backlog_hw_ns, d->data_backlog_hw_ns);
      t.ecn_marked_data += d->ecn_marked_data;
      t.pause_tx += d->pause_tx;
      t.pause_rx += d->pause_rx;
      t.dropped_buffer += d->dropped_buffer;
      t.pause_ns += d->pause_ns;
      t.flowlet_reroutes += d->flowlet_reroutes;
      t.wcmp_weight_updates += d->wcmp_weight_updates;
    }
  }
  return t;
}

}  // namespace mrmtp::harness
