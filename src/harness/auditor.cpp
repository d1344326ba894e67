#include "harness/auditor.hpp"

#include <algorithm>
#include <deque>
#include <functional>

#include "net/link.hpp"

namespace mrmtp::harness {

namespace {
constexpr int kMaxProbeDepth = 16;  // mirrors the MTP data TTL
/// Probe-walk state colours (FabricAuditor::colour_).
enum : std::uint8_t { kUnseen, kOnPath, kFinished };
}  // namespace

std::string_view to_string(InvariantKind kind) {
  switch (kind) {
    case InvariantKind::kStaleVidEntry: return "stale-vid-entry";
    case InvariantKind::kStaleNextHop: return "stale-next-hop";
    case InvariantKind::kForwardingLoop: return "forwarding-loop";
    case InvariantKind::kForwardingBlackhole: return "forwarding-blackhole";
    case InvariantKind::kExclusionBlackhole: return "exclusion-blackhole";
    case InvariantKind::kFalseDeadNeighbor: return "false-dead-neighbor";
    case InvariantKind::kPfcDeadlock: return "pfc-deadlock";
    case InvariantKind::kPauseStorm: return "pause-storm";
    case InvariantKind::kControlStarved: return "control-starved";
  }
  return "?";
}

std::string Violation::str() const {
  std::string out = "[";
  out.append(at.str()).append("] ").append(device).append(" ");
  out.append(to_string(kind)).append(": ").append(detail);
  return out;
}

FabricAuditor::FabricAuditor(Deployment& dep) : dep_(dep) {
  for (std::uint32_t d = 0; d < dep_.router_count(); ++d) {
    router_index_[&dep_.router(d)] = d;
  }
  const auto& devices = dep_.blueprint().devices();
  for (std::uint32_t d = 0; d < devices.size(); ++d) {
    if (devices[d].vid == 0) continue;
    if (dep_.proto() == Proto::kMtp) {
      // Deployed truth, not blueprint intent: under the duplicate-subnet
      // misconfig a ToR announces another rack's VID, so the blueprint VID
      // has no advertiser and the collided VID must map to its legitimate
      // owner (the leaf whose blueprint and deployed VIDs agree).
      std::uint16_t vid = dep_.mtp(d).own_vid();
      if (!leaf_of_root_.contains(vid) || devices[d].vid == vid) {
        leaf_of_root_[vid] = d;
      }
    } else {
      leaf_of_root_[devices[d].vid] = d;
    }
  }
}

std::vector<Violation> FabricAuditor::violations_outside_windows() const {
  std::vector<Violation> out;
  for (const Violation& v : log_) {
    bool inside = false;
    for (const auto& [from, until] : windows_) {
      if (v.at >= from && v.at <= until) {
        inside = true;
        break;
      }
    }
    if (!inside) out.push_back(v);
  }
  return out;
}

bool FabricAuditor::leaf_probeable(std::uint32_t leaf) const {
  if (!dep_.router_active(leaf)) return false;
  if (dep_.proto() == Proto::kMtp) return !dep_.mtp(leaf).draining();
  return !dep_.bgp(leaf).draining();
}

std::size_t FabricAuditor::sweep() {
  seen_this_sweep_.clear();
  std::vector<Violation> out;
  if (dep_.proto() == Proto::kMtp) {
    audit_mtp(out);
  } else {
    audit_bgp(out);
  }
  audit_buffers(out);
  ++sweeps_;
  last_ = out.size();
  if (last_ > 0) ++dirty_sweeps_;
  log_.insert(log_.end(), out.begin(), out.end());
  return last_;
}

void FabricAuditor::start(sim::Duration period) {
  if (!timer_) {
    timer_ = std::make_unique<sim::Timer>(dep_.ctx().sched, [this] { sweep(); });
  }
  timer_->start_periodic(period);
}

void FabricAuditor::stop() {
  if (timer_) timer_->stop();
}

void FabricAuditor::audit_buffers(std::vector<Violation>& out) {
  bool any_buffered = false;
  for (std::uint32_t d = 0; d < dep_.router_count(); ++d) {
    if (dep_.router(d).switch_buffer() != nullptr) {
      any_buffered = true;
      break;
    }
  }
  if (!any_buffered) return;

  const sim::Time now = dep_.ctx().now();
  const auto& links = dep_.network().links();

  // Pause-wait graph: X -> Y when some X->Y direction is PAUSEd (Y told X to
  // stop) while X still has data queued behind the pause. Valley-free Clos
  // routing should keep this a DAG; a cycle is a PFC deadlock — every switch
  // on it waits on the next forever.
  std::map<std::uint32_t, std::vector<std::uint32_t>> wait_edges;
  for (const auto& lp : links) {
    const net::Link& l = *lp;
    for (int d = 0; d < 2; ++d) {
      const auto dir = static_cast<net::Link::Dir>(d);
      if (!l.data_paused(dir) || l.queued_data_bytes(dir) == 0) continue;
      const net::Node& snd = (d == 0 ? l.a() : l.b()).owner();
      const net::Node& rcv = (d == 0 ? l.b() : l.a()).owner();
      auto si = router_index_.find(&snd);
      auto ri = router_index_.find(&rcv);
      if (si == router_index_.end() || ri == router_index_.end()) continue;
      wait_edges[si->second].push_back(ri->second);
    }
  }
  // Coloring DFS over the wait graph; each back edge is one reported cycle.
  std::map<std::uint32_t, int> color;  // 0 = new, 1 = on stack, 2 = done
  std::function<void(std::uint32_t)> dfs = [&](std::uint32_t u) {
    color[u] = 1;
    auto it = wait_edges.find(u);
    if (it != wait_edges.end()) {
      for (std::uint32_t v : it->second) {
        if (color[v] == 1) {
          ++pfc_deadlocks_;
          flag(out, u, InvariantKind::kPfcDeadlock,
               "pause-wait cycle through " +
                   dep_.blueprint().device(v).name);
        } else if (color[v] == 0) {
          dfs(v);
        }
      }
    }
    color[u] = 2;
  };
  for (const auto& [u, _] : wait_edges) {
    if (color[u] == 0) dfs(u);
  }

  // Pause storms and control starvation, scored as deltas since the last
  // sweep (first sweep: since time zero).
  const auto interval_ns =
      static_cast<std::uint64_t>((now - last_buffer_sweep_).ns());
  for (const auto& lp : links) {
    const net::Link& l = *lp;
    auto& psnap = pause_snap_[&l];
    auto& csnap = ctrl_drop_snap_[&l];
    for (std::size_t d = 0; d < 2; ++d) {
      const auto dir = static_cast<net::Link::Dir>(d);
      const net::Node& snd = (d == 0 ? l.a() : l.b()).owner();
      const std::uint64_t pause_now = l.pause_ns_total(dir);
      const net::Link::DirStats& ds = d == 0 ? l.stats().ab : l.stats().ba;
      const std::uint64_t cdrop_now = ds.dropped_queue_control;
      auto si = router_index_.find(&snd);
      if (si != router_index_.end()) {
        if (interval_ns > 0 && pause_now - psnap[d] > interval_ns / 10 * 9) {
          flag(out, si->second, InvariantKind::kPauseStorm,
               "direction paused " + std::to_string(pause_now - psnap[d]) +
                   " ns of a " + std::to_string(interval_ns) + " ns interval");
        }
        if (cdrop_now > csnap[d] &&
            dep_.router(si->second).switch_buffer() != nullptr) {
          flag(out, si->second, InvariantKind::kControlStarved,
               std::to_string(cdrop_now - csnap[d]) +
                   " control-band drops on a finite-buffer switch");
        }
      }
      psnap[d] = pause_now;
      csnap[d] = cdrop_now;
    }
  }
  last_buffer_sweep_ = now;
}

// --- liveness watcher: false-dead declarations + cascade depth ---

void FabricAuditor::watch_liveness(sim::Duration cascade_window) {
  if (watching_) return;
  watching_ = true;
  cascade_window_ = cascade_window;

  // Adjacency from the wiring itself (covers every proto identically).
  for (std::uint32_t d = 0; d < dep_.router_count(); ++d) {
    const net::Node& node = dep_.router(d);
    for (std::uint32_t p = 1; p <= node.port_count(); ++p) {
      auto peer = peer_router(d, p);
      if (!peer) continue;
      adjacent_.insert({std::min(d, *peer), std::max(d, *peer)});
    }
  }

  for (std::uint32_t d = 0; d < dep_.router_count(); ++d) {
    net::Node& r = dep_.router(d);
    auto prev = std::move(r.on_neighbor_down);
    r.on_neighbor_down = [this, d, prev = std::move(prev)](sim::Time at,
                                                           std::uint32_t port) {
      note_down_declaration(d, port, at);
      if (prev) prev(at, port);
    };
  }
}

bool FabricAuditor::link_unimpaired(std::uint32_t device,
                                    std::uint32_t p) const {
  const net::Node& node = dep_.router(device);
  if (p == 0 || p > node.port_count()) return false;
  const net::Port& port = node.port(p);
  if (!port.connected() || !port.admin_up()) return false;
  const net::Port* peer = port.peer();
  if (peer == nullptr || !peer->admin_up()) return false;
  const net::Link* link = port.link();
  for (net::Link::Dir dir : {net::Link::Dir::kAToB, net::Link::Dir::kBToA}) {
    if (link->blackholed(dir) || link->effective_loss(dir) > 0.0) return false;
  }
  return true;
}

void FabricAuditor::note_down_declaration(std::uint32_t device,
                                          std::uint32_t port, sim::Time at) {
  ++downs_;
  int depth = 1;
  for (auto it = down_events_.rbegin(); it != down_events_.rend(); ++it) {
    if (at - it->at > cascade_window_) break;
    if (it->device == device) continue;
    auto pair = std::make_pair(std::min(device, it->device),
                               std::max(device, it->device));
    if (adjacent_.contains(pair)) depth = std::max(depth, it->depth + 1);
  }
  down_events_.push_back(DownEvent{at, device, depth});
  max_cascade_depth_ = std::max(max_cascade_depth_, depth);

  if (link_unimpaired(device, port)) {
    ++false_dead_;
    log_.push_back(Violation{
        at, dep_.router(device).name(), InvariantKind::kFalseDeadNeighbor,
        "neighbor on port " + std::to_string(port) +
            " declared dead while the link is up and unimpaired"});
  }
}

void FabricAuditor::flag(std::vector<Violation>& out, std::uint32_t device,
                         InvariantKind kind, std::string detail) {
  const std::string& name = dep_.router(device).name();
  std::string key = name + "|" + std::string(to_string(kind)) + "|" + detail;
  if (!seen_this_sweep_.insert(std::move(key)).second) return;
  out.push_back(Violation{dep_.ctx().now(), name, kind, std::move(detail)});
}

void FabricAuditor::flag_dead_end(std::vector<Violation>& out,
                                  std::uint32_t device, std::uint32_t dst_leaf,
                                  InvariantKind kind, std::string detail) {
  // Routing cannot beat physics: a probe dying with no live path left is
  // expected, not a violation.
  if (!physically_reachable(device, dst_leaf)) return;
  flag(out, device, kind, std::move(detail));
}

bool FabricAuditor::hop_usable(std::uint32_t device, std::uint32_t p) const {
  const net::Node& node = dep_.router(device);
  if (p == 0 || p > node.port_count()) return false;
  const net::Port& port = node.port(p);
  if (!port.connected() || !port.admin_up()) return false;
  const net::Port* peer = port.peer();
  if (peer == nullptr || !peer->admin_up()) return false;
  const net::Link* link = port.link();
  return link->deliverable(link->direction_from(port));
}

std::optional<std::uint32_t> FabricAuditor::peer_router(
    std::uint32_t device, std::uint32_t p) const {
  const net::Port& port = dep_.router(device).port(p);
  const net::Port* peer = port.peer();
  if (peer == nullptr) return std::nullopt;
  auto it = router_index_.find(&peer->owner());
  if (it == router_index_.end()) return std::nullopt;  // host
  return it->second;
}

bool FabricAuditor::physically_reachable(std::uint32_t from,
                                         std::uint32_t to) const {
  if (from == to) return true;
  std::set<std::uint32_t> visited{from};
  std::deque<std::uint32_t> queue{from};
  while (!queue.empty()) {
    std::uint32_t d = queue.front();
    queue.pop_front();
    const net::Node& node = dep_.router(d);
    for (std::uint32_t p = 1; p <= node.port_count(); ++p) {
      if (!hop_usable(d, p)) continue;
      auto peer = peer_router(d, p);
      if (!peer || !visited.insert(*peer).second) continue;
      if (*peer == to) return true;
      queue.push_back(*peer);
    }
  }
  return false;
}

// --- probe walk (shared by both protocols) ---

void FabricAuditor::probe_from_leaves(const Probe& probe,
                                      std::vector<Violation>& out) {
  colour_.assign(std::size_t{dep_.router_count()} * 2, kUnseen);
  for (const auto& [src_root, src_leaf] : leaf_of_root_) {
    if (src_leaf == probe.dst_leaf || !leaf_probeable(src_leaf)) continue;
    walk(probe, src_leaf, false, 0, out);
  }
}

void FabricAuditor::walk(const Probe& probe, std::uint32_t device,
                         bool came_down, int depth,
                         std::vector<Violation>& out) {
  if (depth >= kMaxProbeDepth) {
    flag(out, device, InvariantKind::kForwardingLoop,
         "probe toward " + probe.label + " exhausted TTL (likely loop)");
    return;
  }
  const std::size_t state = std::size_t{device} * 2 + (came_down ? 1 : 0);
  if (colour_[state] == kOnPath) {
    flag(out, device, InvariantKind::kForwardingLoop,
         "probe toward " + probe.label + " revisited this hop");
    return;
  }
  // Finished: every report reachable from here was made on the first visit.
  if (colour_[state] == kFinished) return;
  colour_[state] = kOnPath;

  bool going_down = false;
  const std::vector<std::uint32_t> ports =
      dep_.proto() == Proto::kMtp
          ? mtp_next_hops(probe, device, came_down, going_down, out)
          : bgp_next_hops(probe, device, out);
  for (std::uint32_t p : ports) {
    if (!hop_usable(device, p)) {
      flag_dead_end(out, device, probe.dst_leaf,
                    InvariantKind::kForwardingBlackhole,
                    "probe toward " + probe.label +
                        " died on the wire at port " + std::to_string(p));
      continue;
    }
    auto peer = peer_router(device, p);
    if (peer) walk(probe, *peer, going_down, depth + 1, out);
  }
  colour_[state] = kFinished;
}

// --- MTP ---

void FabricAuditor::audit_mtp(std::vector<Violation>& out) {
  // Invariant 1: every VID-table entry points at a usable, accepted port.
  // Powered-off routers hold no state worth auditing.
  for (std::uint32_t d = 0; d < dep_.router_count(); ++d) {
    if (!dep_.router_active(d)) continue;
    mtp::MtpRouter& r = dep_.mtp(d);
    const net::Node& node = dep_.router(d);
    for (const mtp::VidEntry& e : r.vid_table().entries()) {
      if (e.port == 0) continue;  // a ToR's own root VID
      std::string_view why;
      if (e.port > node.port_count() || !node.port(e.port).connected()) {
        why = "unwired port";
      } else if (!node.port(e.port).admin_up()) {
        why = "admin-down port";
      } else if (!r.neighbor_alive(e.port)) {
        why = "dead neighbor";
      } else {
        continue;
      }
      flag(out, d, InvariantKind::kStaleVidEntry,
           "vid " + e.vid.str() + " -> port " + std::to_string(e.port) + " (" +
               std::string(why) + ")");
    }
  }

  // Invariants 2+3: probes from every leaf toward every other ToR tree must
  // neither loop nor die while a live path exists.
  for (const auto& [root, dst_leaf] : leaf_of_root_) {
    if (!leaf_probeable(dst_leaf)) continue;
    probe_from_leaves({root, {}, dst_leaf, "root " + std::to_string(root)},
                      out);
  }
}

std::vector<std::uint32_t> FabricAuditor::mtp_next_hops(
    const Probe& probe, std::uint32_t device, bool came_down,
    bool& going_down, std::vector<Violation>& out) {
  mtp::MtpRouter& r = dep_.mtp(device);
  if (r.is_leaf() && r.own_vid() == probe.root) return {};  // delivered

  // The data plane's decision: VID table down if it knows the tree, else
  // hash-load-balance up — and never bounce back up after turning down.
  std::set<std::uint32_t> down;
  for (const mtp::VidEntry& e : r.vid_table().entries_for_root(probe.root)) {
    if (e.port != 0) down.insert(e.port);
  }
  if (!down.empty()) {
    going_down = true;
    return {down.begin(), down.end()};
  }
  if (came_down) {
    flag_dead_end(out, device, probe.dst_leaf,
                  InvariantKind::kForwardingBlackhole,
                  "downward probe toward " + probe.label +
                      " found no VID entry");
    return {};
  }
  std::vector<std::uint32_t> ports = r.eligible_up_ports(probe.root);
  if (ports.empty()) {
    // Live uplinks ruled out only by exclusions is its own invariant class.
    const net::Node& node = dep_.router(device);
    const std::uint32_t tier = dep_.blueprint().device(device).tier;
    bool live_uplink = false;
    for (std::uint32_t p = 1; p <= node.port_count() && !live_uplink; ++p) {
      auto peer = peer_router(device, p);
      live_uplink = peer && dep_.blueprint().device(*peer).tier > tier &&
                    node.port(p).admin_up() && r.neighbor_alive(p);
    }
    flag_dead_end(out, device, probe.dst_leaf,
                  live_uplink ? InvariantKind::kExclusionBlackhole
                              : InvariantKind::kForwardingBlackhole,
                  "no eligible uplink toward " + probe.label +
                      (live_uplink ? " (live uplinks excluded)" : ""));
  }
  return ports;
}

// --- BGP ---

void FabricAuditor::audit_bgp(std::vector<Violation>& out) {
  // Invariant 1: every installed BGP next-hop egresses a usable port.
  // Powered-off routers hold no state worth auditing.
  for (std::uint32_t d = 0; d < dep_.router_count(); ++d) {
    if (!dep_.router_active(d)) continue;
    bgp::BgpRouter& r = dep_.bgp(d);
    const net::Node& node = dep_.router(d);
    for (const ip::Route* route : r.routes().sorted_routes()) {
      if (route->proto != ip::RouteProto::kBgp) continue;
      for (const ip::NextHop& nh : route->nexthops) {
        std::string_view why;
        if (nh.port == 0 || nh.port > node.port_count() ||
            !node.port(nh.port).connected()) {
          why = "unwired port";
        } else if (!node.port(nh.port).admin_up()) {
          why = "admin-down port";
        } else {
          continue;
        }
        flag(out, d, InvariantKind::kStaleNextHop,
             route->prefix.str() + " via port " + std::to_string(nh.port) +
                 " (" + std::string(why) + ")");
      }
    }
  }

  // Invariants 2+3: probe every host address from every other leaf.
  for (const topo::HostSpec& hs : dep_.blueprint().hosts()) {
    if (!leaf_probeable(hs.leaf)) continue;
    probe_from_leaves({0, hs.addr, hs.leaf, hs.addr.str()}, out);
  }
}

std::vector<std::uint32_t> FabricAuditor::bgp_next_hops(
    const Probe& probe, std::uint32_t device, std::vector<Violation>& out) {
  const ip::Route* route = dep_.bgp(device).routes().lookup(probe.addr);
  if (route == nullptr || route->nexthops.empty()) {
    flag_dead_end(out, device, probe.dst_leaf,
                  InvariantKind::kForwardingBlackhole,
                  "no route toward " + probe.label);
    return {};
  }
  // The rack subnet's gateway: delivered (host links are out of scope).
  if (route->proto == ip::RouteProto::kConnected) return {};
  std::vector<std::uint32_t> ports;
  for (const ip::NextHop& nh : route->nexthops) ports.push_back(nh.port);
  return ports;
}

}  // namespace mrmtp::harness
