#include "mtp/router.hpp"

#include <algorithm>

#include "net/link.hpp"
#include "util/hash.hpp"

namespace mrmtp::mtp {

namespace {
/// Adds the roots of `added` to `roots` (sorted and unique); returns whether
/// any was new. `added` is what a statement appends to the held one, a few
/// VIDs, so each root is placed by binary search.
bool merge_roots(std::vector<std::uint16_t>& roots, const VidListView& added) {
  bool changed = false;
  for (auto it = added.begin(); it != added.end(); ++it) {
    const std::uint16_t root = it.root();
    const auto at = std::lower_bound(roots.begin(), roots.end(), root);
    if (at != roots.end() && *at == root) continue;
    roots.insert(at, root);
    changed = true;
  }
  return changed;
}

/// Root 0 is reserved as "every destination beyond my uplinks": a spine that
/// loses its last usable uplink tells its downstream neighbors to stop
/// load-balancing anything through it. Rack subnets therefore must not use
/// third octet 0 (the topology builder starts VIDs at 11).
constexpr std::uint16_t kWildcardRoot = 0;

/// Reliable-control retransmission interval and cap.
constexpr sim::Duration kRetransmit = sim::Duration::millis(100);
constexpr int kMaxRetransmits = 10;
}  // namespace

MtpRouter::MtpRouter(net::SimContext& ctx, std::string name, MtpConfig config)
    : net::Node(ctx, std::move(name), config.tier), config_(std::move(config)) {
  if (config_.server_subnet.has_value()) {
    own_vid_ = config_.server_subnet->network().third_octet();
  }
}

void MtpRouter::start() {
  started_ = true;
  draining_ = false;
  ports_state_.resize(port_count());
  std::set<std::uint32_t> rack_ports;
  for (const auto& [addr, port] : config_.rack_hosts) rack_ports.insert(port);

  for (std::uint32_t p = 1; p <= port_count(); ++p) {
    PortState& s = pstate(p);
    if (rack_ports.contains(p)) {
      s.mtp = false;
      continue;
    }
    s.hello_timer = std::make_unique<sim::Timer>(
        ctx_.sched, [this, p] { send_hello_if_idle(p); });
    s.dead_timer = std::make_unique<sim::Timer>(
        ctx_.sched, [this, p] { neighbor_down(p); });
    s.join_retry_timer =
        std::make_unique<sim::Timer>(ctx_.sched, [this, p] { retry_joins(p); });
    s.update_flush_timer =
        std::make_unique<sim::Timer>(ctx_.sched, [this, p] { flush_updates(p); });
    s.hello_timer->start_periodic(config_.timers.hello);
    send_advertise(p);
  }
}

void MtpRouter::stop() {
  started_ = false;
  draining_ = false;
  // Destroying each PortState cancels its timers (sim::Timer stops in its
  // destructor) and drops its held statement and offer counts; start()
  // re-creates everything from defaults.
  ports_state_.clear();
  outstanding_.clear();
  vid_table_.clear();
  exclusions_.clear_all();
  advertised_unreach_.clear();
  invalidate_up_cache();
}

void MtpRouter::drain() {
  if (!started_ || draining_) return;
  draining_ = true;
  // Cost-out upward: withdraw every child VID assigned to each upstream so
  // it leaves our trees and stops steering tree traffic down through us.
  for (std::uint32_t up : alive_ports(/*upstream=*/true)) {
    PortState& s = pstate(up);
    if (s.assigned.empty()) continue;
    std::vector<Vid> gone;
    gone.reserve(s.assigned.size());
    for (const auto& [child, a] : s.assigned) gone.push_back(child);
    s.assigned.clear();
    queue_withdraw(up, gone);
  }
  // Cost-out downward: declare every root (and the wildcard default route)
  // unreachable so downstream load balancers exclude our ports. Deliberately
  // NOT recorded in advertised_unreach_ — these are an operational fiction,
  // and update_reachability() must not "correct" them with DEST_CLEARs
  // while the grace period runs.
  std::set<std::uint16_t> roots;
  for (const auto& e : vid_table_.entries()) roots.insert(e.vid.root());
  roots.insert(kWildcardRoot);
  std::vector<std::uint16_t> all(roots.begin(), roots.end());
  for (std::uint32_t down : alive_ports(/*upstream=*/false)) {
    queue_reach_update(down, all, /*unreach=*/true);
  }
  // The VID table is kept: in-flight downstream traffic during the grace
  // period still delivers. for_each_advertisable()/handle_join_request()
  // are suppressed while draining_, so hellos stay plain and neighbors
  // cannot re-join us into trees before the reboot.
}

// ---------------------------------------------------------------- frame I/O

void MtpRouter::send_msg(std::uint32_t port_number, MtpMessage msg) {
  net::Port& out = port(port_number);
  if (!out.connected() || !out.admin_up()) return;
  const MsgType type = type_of(msg);
  send_payload(out, type, encode(std::move(msg)));
}

void MtpRouter::send_payload(net::Port& out, MsgType type,
                             net::Buffer payload) {
  net::Frame frame;
  frame.dst = net::MacAddr::broadcast();
  frame.src = out.mac();
  frame.ethertype = net::EtherType::kMtp;
  frame.payload = std::move(payload);

  switch (type) {
    case MsgType::kHello:
      frame.traffic_class = net::TrafficClass::kMtpHello;
      ++stats_.hellos_sent;
      break;
    case MsgType::kData:
      frame.traffic_class = net::TrafficClass::kMtpData;
      // The encapsulated IPv4 header sits right behind the MTP data header;
      // expose it so finite-buffer switches can apply ECN CE marks to MTP
      // transit traffic too.
      frame.inner_ip_offset = DataMsg::kHeaderSize;
      break;
    default:
      frame.traffic_class = net::TrafficClass::kMtpControl;
  }

  switch (type) {
    case MsgType::kVidWithdraw:
    case MsgType::kDestUnreach:
    case MsgType::kDestClear:
      note_update_stats(frame);
      break;
    default:
      break;
  }

  pstate(out.number()).last_tx = ctx_.now();
  transmit(out, std::move(frame));
}

void MtpRouter::note_update_stats(const net::Frame& frame) {
  ++stats_.updates_sent;
  stats_.update_bytes_raw += frame.wire_size();
  stats_.update_bytes_padded += frame.padded_wire_size();
  stats_.last_update_at = ctx_.now();
}

void MtpRouter::send_reliable(std::uint32_t port_number, MtpMessage msg) {
  std::uint16_t id = next_msg_id_++;
  if (next_msg_id_ == 0) next_msg_id_ = 1;
  std::visit(
      [id](auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (requires { m.msg_id; }) {
          m.msg_id = id;
        } else {
          (void)sizeof(T);
        }
      },
      msg);

  auto [it, inserted] = outstanding_.emplace(id, Outstanding{port_number, msg, 0, nullptr});
  Outstanding& entry = it->second;
  // A taken id keeps its old message: only a new entry is counted.
  if (inserted) count_offer(entry, /*add=*/true);
  entry.timer = std::make_unique<sim::Timer>(ctx_.sched, [this, id] {
    auto found = outstanding_.find(id);
    if (found == outstanding_.end()) return;
    Outstanding& o = found->second;
    if (o.retries >= kMaxRetransmits) {
      // Give up; the dead timer will declare the neighbor down if it is
      // truly gone. Deferred erase: we are inside this entry's own timer.
      ctx_.sched.schedule_after(sim::Duration::nanos(0),
                                [this, id] { erase_outstanding(id); });
      return;
    }
    ++o.retries;
    send_msg(o.port, o.msg);
    o.timer->restart();
  });
  entry.timer->start(kRetransmit);
  send_msg(port_number, msg);
}

void MtpRouter::erase_outstanding(std::uint16_t id) {
  const auto it = outstanding_.find(id);
  if (it == outstanding_.end()) return;
  count_offer(it->second, /*add=*/false);
  outstanding_.erase(it);
}

void MtpRouter::count_offer(const Outstanding& o, bool add) {
  const auto* offer = std::get_if<JoinOfferMsg>(&o.msg);
  if (offer == nullptr) return;
  std::map<Vid, std::uint32_t>& offered = pstate(o.port).offered;
  for (const Vid& child : offer->vids) {
    if (add) {
      ++offered[child];
    } else if (const auto it = offered.find(child); --it->second == 0) {
      offered.erase(it);
    }
  }
}

void MtpRouter::handle_frame(net::Port& in, net::Frame&& frame) {
  if (!started_) return;  // powered off: no per-port state exists
  PortState& s = pstate(in.number());
  if (!s.mtp) {
    if (frame.ethertype == net::EtherType::kIpv4) {
      handle_rack_frame(in, std::move(frame));
    }
    return;
  }
  if (frame.ethertype != net::EtherType::kMtp) return;

  // HELLO and ADVERTISE are nearly all of the control traffic, and
  // ADVERTISE carries the sender's whole table: both are read straight from
  // the frame's bytes, with no MtpMessage built. A HELLO's slab is released
  // before note_rx, as decode(std::move(payload)) below releases every other
  // message's; an ADVERTISE's goes to its handler, which may hold it. Its
  // list is compared with the port's held list (one memcmp) and, where it
  // repeats it, only the VIDs after it are validated.
  if (!frame.payload.empty()) {
    switch (static_cast<MsgType>(frame.payload[0])) {
      case MsgType::kHello:
        frame.payload = net::Buffer{};
        // The neighbor sends a HELLO only after a hello interval with nothing
        // else to send, so its statements have settled: nothing stays held
        // once the fabric is quiet.
        s.release_held();
        note_rx(in);
        return;
      case MsgType::kAdvertise: {
        AdvertiseView adv;
        try {
          adv = decode_advertise(frame.payload, s.held_vids);
        } catch (const util::CodecError&) {
          return;
        }
        note_rx(in);
        if (s.alive) {
          handle_advertise(in.number(), adv, std::move(frame.payload));
        }
        return;
      }
      default:
        break;
    }
  }

  MtpMessage msg;
  try {
    msg = decode(std::move(frame.payload));
  } catch (const util::CodecError&) {
    return;
  }
  note_rx(in);
  handle_msg(in, msg);
}

void MtpRouter::handle_msg(net::Port& in, MtpMessage& msg) {
  std::uint32_t p = in.number();
  bool alive = pstate(p).alive;

  std::visit(
      [&](auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, HelloMsg> ||
                      std::is_same_v<T, AdvertiseMsg>) {
          // Never reached: handle_frame reads both from the frame bytes.
        } else if constexpr (std::is_same_v<T, CtrlAckMsg>) {
          erase_outstanding(m.msg_id);
        } else if constexpr (std::is_same_v<T, DataMsg>) {
          // Move the payload through: its slab stays uniquely owned, so the
          // re-encapsulation on the far port prepends in place.
          forward_data(std::move(m), p);
        } else if constexpr (std::is_same_v<T, JoinRequestMsg>) {
          if (alive) handle_join_request(p, m);
        } else if constexpr (std::is_same_v<T, JoinOfferMsg>) {
          send_msg(p, CtrlAckMsg{m.msg_id});
          if (alive) handle_join_offer(p, m);
        } else if constexpr (std::is_same_v<T, VidWithdrawMsg>) {
          send_msg(p, CtrlAckMsg{m.msg_id});
          handle_withdraw(p, m);
        } else if constexpr (std::is_same_v<T, DestUnreachMsg>) {
          send_msg(p, CtrlAckMsg{m.msg_id});
          handle_dest_unreach(p, m);
        } else if constexpr (std::is_same_v<T, DestClearMsg>) {
          send_msg(p, CtrlAckMsg{m.msg_id});
          handle_dest_clear(p, m);
        }
      },
      msg);
}

// ----------------------------------------------------------------- liveness

template <typename Fn>
bool MtpRouter::for_each_advertisable(Fn&& fn) const {
  if (draining_) return true;  // cost-out: offer nothing, upstreams stay away
  if (is_leaf()) return fn(Vid(own_vid_));
  for (const auto& e : vid_table_.entries()) {
    // A VID at the depth limit has no child the wire could carry.
    if (e.vid.depth() < Vid::kMaxDepth && !fn(e.vid)) return false;
  }
  return true;
}

void MtpRouter::note_rx(net::Port& in) {
  PortState& s = pstate(in.number());
  sim::Time now = ctx_.now();
  if (s.alive) {
    s.dead_timer->start(config_.timers.dead);
  } else {
    // Slow-to-Accept: require `kAcceptStreak` *consecutive* keep-alives —
    // a gap of more than 1.5 hello intervals (a missed hello) restarts the
    // count, so a flapping interface never accumulates a streak (§IV.B).
    if (now - s.last_rx > config_.timers.hello + config_.timers.hello / 2) {
      s.streak = 0;
    }
    ++s.streak;
    if (!config_.timers.slow_to_accept || s.streak >= kAcceptStreak) {
      // Flap damping: a streak on a suppressed port does not promote the
      // neighbor until the penalty decays to the reuse threshold. The streak
      // keeps counting, so the instant suppression lifts the (stable)
      // neighbor is re-admitted on its next keep-alive.
      if (s.damp_suppressed) {
        s.damp.decay_to(now);
        if (s.damp.value > sim::kDampingReuse) {
          ++stats_.accepts_suppressed;
          s.last_rx = now;
          return;
        }
        s.damp_suppressed = false;
      }
      s.last_rx = now;
      neighbor_up(in.number());
      return;
    }
  }
  s.last_rx = now;
}

double MtpRouter::port_damping_penalty(std::uint32_t p) const {
  return pstate(p).damp.at(ctx_.now());
}

bool MtpRouter::port_damping_suppressed(std::uint32_t p) const {
  return pstate(p).damp_suppressed &&
         port_damping_penalty(p) > sim::kDampingReuse;
}

void MtpRouter::neighbor_up(std::uint32_t p) {
  PortState& s = pstate(p);
  if (s.alive) return;
  s.alive = true;
  s.streak = 0;
  invalidate_up_cache();
  ++stats_.neighbors_accepted;
  s.dead_timer->start(config_.timers.dead);

  // Stale failure state for this port is moot; the neighbor re-announces
  // any unreachability below.
  exclusions_.clear_port(p);

  send_advertise(p);
  if (is_downstream(p) && !advertised_unreach_.empty()) {
    DestUnreachMsg m;
    m.roots.assign(advertised_unreach_.begin(), advertised_unreach_.end());
    send_reliable(p, m);
  }
  // Roots (and the wildcard) may have become reachable through this port.
  std::set<std::uint16_t> recheck = advertised_unreach_;
  recheck.insert(kWildcardRoot);
  update_reachability(recheck);
}

void MtpRouter::neighbor_down(std::uint32_t p) {
  PortState& s = pstate(p);
  if (!s.alive) return;
  s.alive = false;
  s.streak = 0;
  // The neighbor may come back from a cold reboot holding nothing; its
  // capability statement must be re-earned, not remembered, and its
  // statement counter restarts from zero.
  s.advertised_roots.clear();
  s.release_held();
  s.last_adv_seq = 0;
  invalidate_up_cache();
  ++stats_.neighbors_lost;
  s.dead_timer->stop();
  s.join_pending.clear();
  s.join_retry_timer->stop();
  // Updates queued for this neighbor are moot now; reliable delivery of the
  // failure state restarts from scratch if it ever comes back.
  s.update_flush_timer->stop();
  s.pending_withdraw.clear();
  s.pending_unreach.clear();
  s.pending_clear.clear();
  if (config_.timers.damping_penalty > 0) {
    s.damp.charge(ctx_.now(), config_.timers.damping_penalty);
    if (s.damp.value >= sim::kDampingSuppress) s.damp_suppressed = true;
  }

  // Abandon reliable messages directed at the dead neighbor.
  for (auto it = outstanding_.begin(); it != outstanding_.end();) {
    it = (it->second.port == p) ? outstanding_.erase(it) : std::next(it);
  }
  s.offered.clear();  // every offer on this port went with them

  std::vector<VidEntry> lost = vid_table_.remove_port(p);
  s.assigned.clear();
  exclusions_.clear_port(p);

  if (!lost.empty()) ++stats_.table_changes_local;
  if (on_neighbor_down) on_neighbor_down(ctx_.now(), p);
  process_vid_loss(lost);

  // Losing an uplink can sever the default route entirely (wildcard) and
  // strand roots that were only reachable upward.
  std::set<std::uint16_t> recheck;
  recheck.insert(kWildcardRoot);
  for (const auto& e : lost) recheck.insert(e.vid.root());
  update_reachability(recheck);
}

void MtpRouter::send_hello_if_idle(std::uint32_t p) {
  // Integrated control/data plane: any frame is a keep-alive, so the 1-byte
  // HELLO goes out only if the link carried nothing for a hello interval.
  if (ctx_.now() - pstate(p).last_tx < config_.timers.hello) return;
  // While an accepted upstream neighbor has not joined all of our trees,
  // the keep-alive slot re-advertises instead (an ADVERTISE is also a
  // keep-alive) so a lost ADVERTISE cannot stall tree establishment.
  const PortState& s = pstate(p);
  if (s.alive && is_upstream(p) && !fully_assigned(p)) {
    send_advertise(p);
    return;
  }
  net::Port& out = port(p);
  if (!out.connected() || !out.admin_up()) return;
  net::BufferWriter hello(1);
  hello.u8(static_cast<std::uint8_t>(MsgType::kHello));
  send_payload(out, MsgType::kHello, hello.take());
}

bool MtpRouter::fully_assigned(std::uint32_t p) const {
  // Walks the table in place: this runs on every keep-alive slot of every
  // upstream port, and VIDs are inline, so the check allocates nothing.
  const PortState& s = pstate(p);
  return for_each_advertisable([&](const Vid& base) {
    return s.assigned.contains(base.child(static_cast<std::uint16_t>(p)));
  });
}

void MtpRouter::on_port_down(net::Port& p) {
  if (!started_) return;
  PortState& s = pstate(p.number());
  if (!s.mtp) return;
  invalidate_up_cache();
  s.hello_timer->stop();
  neighbor_down(p.number());
}

void MtpRouter::on_port_up(net::Port& p) {
  if (!started_) return;
  PortState& s = pstate(p.number());
  if (!s.mtp) return;
  invalidate_up_cache();
  s.hello_timer->start_periodic(config_.timers.hello);
}

// ------------------------------------------------------- tree establishment

void MtpRouter::send_advertise(std::uint32_t p) {
  const std::uint32_t seq = ++adv_seq_;
  net::Port& out = port(p);
  if (!out.connected() || !out.admin_up()) return;
  send_payload(out, MsgType::kAdvertise,
               encode_advertise(static_cast<std::uint8_t>(config_.tier), seq,
                                advertise_body()));
}

std::span<const std::uint8_t> MtpRouter::advertise_body() {
  const std::pair key{vid_table_.version(), draining_};
  if (adv_body_key_ != key) {
    std::size_t count = 0;
    for_each_advertisable([&](const Vid&) {
      ++count;
      return true;
    });
    adv_body_.clear();
    adv_body_.u8(list_count(count));
    for_each_advertisable([&](const Vid& v) {
      v.serialize(adv_body_);
      return true;
    });
    adv_body_key_ = key;
  }
  return adv_body_.data();
}

bool MtpRouter::store_advertised_roots(PortState& s, const VidListView& vids) {
  std::vector<std::uint16_t>& roots = s.advertised_roots;
  std::uint16_t lo = 0xffff;
  std::uint16_t hi = 0;
  for (auto it = vids.begin(); it != vids.end(); ++it) {
    const std::uint16_t root = it.root();
    if (root >= root_marks_.size()) root_marks_.resize(root + std::size_t{1});
    root_marks_[root] = 1;
    lo = std::min(lo, root);
    hi = std::max(hi, root);
  }
  // The marked range in order is the new set: compare it with the stored
  // roots and, from the first difference on, overwrite them.
  bool changed = false;
  std::size_t kept = 0;
  for (std::size_t root = lo; root <= hi; ++root) {
    if (root_marks_[root] == 0) continue;
    root_marks_[root] = 0;
    if (!changed) {
      if (kept < roots.size() && roots[kept] == root) {
        ++kept;
        continue;
      }
      roots.resize(kept);
      changed = true;
    }
    roots.push_back(static_cast<std::uint16_t>(root));
  }
  if (!changed && kept != roots.size()) {
    roots.resize(kept);
    changed = true;
  }
  return changed;
}

void MtpRouter::handle_advertise(std::uint32_t p, const AdvertiseView& msg,
                                 net::Buffer payload) {
  PortState& s = pstate(p);
  // Links can duplicate a frame and deliver the copy late — after newer
  // statements (and even after join handshakes the original triggered). A
  // re-delivered stale statement is not merely redundant: treating it as
  // current would prune assignments made since. Drop anything not newer
  // than the last statement accepted from this neighbor.
  if (msg.seq != 0 && msg.seq <= s.last_adv_seq) return;
  if (msg.seq != 0) s.last_adv_seq = msg.seq;
  // Only an upstream statement is held, and only for the next one: `msg`
  // views its own payload, never the held one.
  if (msg.tier > config_.tier) {
    s.held_adv = std::move(payload);
    s.held_vids = msg.vids;
  } else {
    s.release_held();
  }
  bool first_contact = !s.neighbor_tier.has_value();
  if (first_contact || *s.neighbor_tier != msg.tier) invalidate_up_cache();
  s.neighbor_tier = msg.tier;
  if (first_contact) send_advertise(p);  // let the neighbor learn our tier

  if (msg.tier >= config_.tier) {
    // An upstream's advertisement is a full statement of the trees it
    // holds: remember the roots so the uplink load balancer can steer tree
    // traffic toward uplinks that can actually deliver it. A statement that
    // extends the held one adds only the roots of the VIDs it appends.
    if (msg.extends_held ? merge_roots(s.advertised_roots, msg.added)
                         : store_advertised_roots(s, msg.vids)) {
      invalidate_up_cache();
    }
    // Any child VID we once assigned on this port that it no longer lists
    // was pruned on its side — e.g. a one-way gray episode starved the
    // upstream into declaring us dead while we kept seeing its frames and
    // never cleared our bookkeeping. Dropping the stale assignment makes
    // fully_assigned() false again, so the keep-alive slot re-advertises
    // and the join handshake restarts. A JOIN_OFFER still awaiting its ack
    // names a VID the neighbor has not processed yet, so its absence from
    // this statement is expected — pruning it here would orphan the tree on
    // our side while the neighbor goes on to join it. A child the held
    // statement listed is still listed when this one extends it, so only
    // the others are looked for, among the appended VIDs; any other
    // statement is searched for every child.
    if (msg.tier > config_.tier) {
      for (auto it = s.assigned.begin(); it != s.assigned.end();) {
        Assignment& a = it->second;
        if (!msg.extends_held || !a.listed) {
          a.listed = msg.added.contains(it->first);
        }
        const bool keep = a.listed || offer_pending(p, it->first);
        it = keep ? std::next(it) : s.assigned.erase(it);
      }
    }
    return;  // we only join trees from below
  }

  // A draining router joins no new trees; it is leaving the ones it has.
  if (draining_) return;

  bool added = false;
  for (const Vid base : msg.vids) {
    bool already_joined = false;
    bool duplicate_root = false;
    // Both checks only concern entries of this tree. A root's bucket keeps
    // table insertion order, so the first match is the one a whole-table
    // walk would find.
    for (const auto& e : vid_table_.entries_for_root(base.root())) {
      if (e.port == p && e.vid.parent() == base) {
        already_joined = true;
        break;
      }
      // Misconfiguration guard: two *different* ToRs advertising the same
      // root VID means two racks share a subnet third octet — joining both
      // would silently split that destination's traffic between racks.
      if (base.depth() == 1 && e.vid.root() == base.root() &&
          e.vid.depth() == 2 && e.port != p) {
        duplicate_root = true;
        break;
      }
    }
    if (duplicate_root) {
      ++stats_.duplicate_roots_rejected;
      continue;
    }
    if (!already_joined && s.join_pending.insert(base).second) added = true;
  }
  if (added) {
    retry_joins(p);
    s.join_retry_timer->start_periodic(kRetransmit);
  }
}

void MtpRouter::retry_joins(std::uint32_t p) {
  PortState& s = pstate(p);
  if (s.join_pending.empty()) {
    s.join_retry_timer->stop();
    return;
  }
  JoinRequestMsg m;
  m.vids.assign(s.join_pending.begin(), s.join_pending.end());
  send_msg(p, m);
}

void MtpRouter::handle_join_request(std::uint32_t p, const JoinRequestMsg& msg) {
  if (draining_) return;  // no offers while costing out
  PortState& s = pstate(p);
  JoinOfferMsg offer;
  for (const Vid& base : msg.vids) {
    bool held = is_leaf() ? (base == Vid(own_vid_)) : vid_table_.contains(base);
    if (!held || base.depth() >= Vid::kMaxDepth) continue;
    // The derived VID is the base plus the port the request arrived on
    // (paper §III.B).
    Vid child = base.child(static_cast<std::uint16_t>(p));
    s.assigned.emplace(child, Assignment{base});
    offer.vids.push_back(std::move(child));
  }
  if (!offer.vids.empty()) send_reliable(p, offer);
}

void MtpRouter::handle_join_offer(std::uint32_t p, const JoinOfferMsg& msg) {
  PortState& s = pstate(p);
  std::set<std::uint16_t> new_roots;
  for (const Vid& child : msg.vids) {
    s.join_pending.erase(child.parent());
    // Invariant: in a folded-Clos a tree reaches any device through exactly
    // one port, so a second root instance from elsewhere is a duplicate
    // rack subnet (misconfiguration), never legitimate meshing.
    bool foreign_root = false;
    for (const auto& e : vid_table_.entries_for_root(child.root())) {
      if (e.port != p || e.vid != child) {
        foreign_root = true;
        break;
      }
    }
    if (foreign_root) {
      ++stats_.duplicate_roots_rejected;
      continue;
    }
    if (vid_table_.add(child, p)) new_roots.insert(child.root());
  }
  if (s.join_pending.empty()) s.join_retry_timer->stop();
  if (new_roots.empty()) return;

  // New VIDs mean new trees to offer upward — and a fresher capability
  // statement downward, so children steering tree traffic up learn we can
  // now deliver for these roots (a cold-rejoined router earns traffic back
  // root by root instead of blackholing on the first hash).
  for (std::uint32_t up : alive_ports(/*upstream=*/true)) send_advertise(up);
  for (std::uint32_t down : alive_ports(/*upstream=*/false)) {
    send_advertise(down);
  }
  update_reachability(new_roots);
}

// ----------------------------------------------------------- failure plane

void MtpRouter::process_vid_loss(const std::vector<VidEntry>& lost) {
  if (lost.empty()) return;

  std::vector<Vid> lost_vids;
  lost_vids.reserve(lost.size());
  std::set<std::uint16_t> roots;
  for (const auto& e : lost) {
    lost_vids.push_back(e.vid);
    roots.insert(e.vid.root());
  }
  std::sort(lost_vids.begin(), lost_vids.end());

  // Withdraw the children we derived from the lost VIDs, upward.
  for (std::uint32_t up : alive_ports(/*upstream=*/true)) {
    PortState& s = pstate(up);
    std::vector<Vid> withdraw;
    for (auto it = s.assigned.begin(); it != s.assigned.end();) {
      if (std::binary_search(lost_vids.begin(), lost_vids.end(),
                             it->second.base)) {
        withdraw.push_back(it->first);
        it = s.assigned.erase(it);
      } else {
        ++it;
      }
    }
    if (!withdraw.empty()) queue_withdraw(up, withdraw);
  }

  update_reachability(roots);
}

bool MtpRouter::reachable(std::uint16_t root) const {
  if (root != kWildcardRoot) {
    if (is_leaf() && root == own_vid_) return true;
    if (vid_table_.has_root(root)) return true;
  }
  // Default route up: any accepted uplink not excluded for this root.
  for (std::uint32_t p = 1; p <= port_count(); ++p) {
    const PortState& s = pstate(p);
    if (!s.mtp || !s.alive || !is_upstream(p)) continue;
    if (!port(p).admin_up()) continue;
    if (exclusions_.is_excluded(kWildcardRoot, p)) continue;
    if (root != kWildcardRoot && exclusions_.is_excluded(root, p)) continue;
    return true;
  }
  return false;
}

void MtpRouter::update_reachability(const std::set<std::uint16_t>& roots) {
  // The wildcard ("everything beyond my uplinks") only means something on
  // devices that have uplinks; top-tier spines reach ToRs exclusively via
  // their VID tables.
  bool has_uplinks = false;
  for (std::uint32_t p = 1; p <= port_count(); ++p) {
    if (pstate(p).mtp && is_upstream(p)) {
      has_uplinks = true;
      break;
    }
  }

  DestUnreachMsg unreach;
  DestClearMsg clear;
  for (std::uint16_t root : roots) {
    if (root == kWildcardRoot && !has_uplinks) continue;
    bool ok = reachable(root);
    bool advertised = advertised_unreach_.contains(root);
    if (!ok && !advertised) {
      advertised_unreach_.insert(root);
      unreach.roots.push_back(root);
    } else if (ok && advertised) {
      advertised_unreach_.erase(root);
      clear.roots.push_back(root);
    }
  }
  if (unreach.roots.empty() && clear.roots.empty()) return;
  for (std::uint32_t down : alive_ports(/*upstream=*/false)) {
    if (!unreach.roots.empty()) queue_reach_update(down, unreach.roots, true);
    if (!clear.roots.empty()) queue_reach_update(down, clear.roots, false);
  }
}

// ---------------------------------------------- withdrawal-storm containment

void MtpRouter::queue_withdraw(std::uint32_t p, const std::vector<Vid>& vids) {
  PortState& s = pstate(p);
  for (const Vid& v : vids) {
    if (!s.pending_withdraw.insert(v).second) ++stats_.updates_deduped;
  }
  schedule_flush(p);
}

void MtpRouter::queue_reach_update(std::uint32_t p,
                                   const std::vector<std::uint16_t>& roots,
                                   bool unreach) {
  PortState& s = pstate(p);
  auto& add = unreach ? s.pending_unreach : s.pending_clear;
  auto& opposite = unreach ? s.pending_clear : s.pending_unreach;
  for (std::uint16_t r : roots) {
    if (opposite.erase(r) > 0) {
      // The opposite update never left this router, so the pair cancels:
      // the neighbor's view is already correct without either message.
      stats_.updates_deduped += 2;
      continue;
    }
    if (!add.insert(r).second) ++stats_.updates_deduped;
  }
  schedule_flush(p);
}

void MtpRouter::schedule_flush(std::uint32_t p) {
  PortState& s = pstate(p);
  if (s.pending_withdraw.empty() && s.pending_unreach.empty() &&
      s.pending_clear.empty()) {
    return;
  }
  sim::Time earliest = s.last_update_tx + config_.timers.update_min_interval;
  if (ctx_.now() >= earliest) {
    // Idle interval: the first update of a burst keeps today's latency.
    flush_updates(p);
    return;
  }
  ++stats_.updates_batched;
  if (!s.update_flush_timer->running()) {
    s.update_flush_timer->start(earliest - ctx_.now());
  }
}

void MtpRouter::flush_updates(std::uint32_t p) {
  PortState& s = pstate(p);
  if (!s.alive) {
    s.pending_withdraw.clear();
    s.pending_unreach.clear();
    s.pending_clear.clear();
    return;
  }
  if (s.pending_withdraw.empty() && s.pending_unreach.empty() &&
      s.pending_clear.empty()) {
    return;
  }
  s.last_update_tx = ctx_.now();
  if (!s.pending_withdraw.empty()) {
    VidWithdrawMsg m;
    m.vids.assign(s.pending_withdraw.begin(), s.pending_withdraw.end());
    s.pending_withdraw.clear();
    send_reliable(p, m);
  }
  if (!s.pending_unreach.empty()) {
    DestUnreachMsg m;
    m.roots.assign(s.pending_unreach.begin(), s.pending_unreach.end());
    s.pending_unreach.clear();
    send_reliable(p, m);
  }
  if (!s.pending_clear.empty()) {
    DestClearMsg m;
    m.roots.assign(s.pending_clear.begin(), s.pending_clear.end());
    s.pending_clear.clear();
    send_reliable(p, m);
  }
}

void MtpRouter::handle_withdraw(std::uint32_t p, const VidWithdrawMsg& msg) {
  ++stats_.updates_received;
  stats_.last_update_at = ctx_.now();

  std::vector<VidEntry> removed;
  for (const Vid& v : msg.vids) {
    const VidEntry* e = vid_table_.find(v);
    if (e != nullptr && e->port == p) {
      removed.push_back(*e);
      vid_table_.remove(v);
    }
  }
  if (removed.empty()) return;

  ++stats_.table_changes_remote;
  process_vid_loss(removed);
}

void MtpRouter::handle_dest_unreach(std::uint32_t p, const DestUnreachMsg& msg) {
  if (!is_upstream(p)) return;  // unreachability only flows down
  ++stats_.updates_received;
  stats_.last_update_at = ctx_.now();

  std::set<std::uint16_t> affected;
  bool changed = false;
  for (std::uint16_t root : msg.roots) {
    if (exclusions_.exclude(root, p)) {
      changed = true;
      ++stats_.exclusion_changes;
    }
    affected.insert(root);
  }
  if (changed) {
    invalidate_up_cache();
    ++stats_.table_changes_remote;
  }
  update_reachability(affected);
}

void MtpRouter::handle_dest_clear(std::uint32_t p, const DestClearMsg& msg) {
  if (!is_upstream(p)) return;
  ++stats_.updates_received;
  stats_.last_update_at = ctx_.now();

  std::set<std::uint16_t> affected;
  bool changed = false;
  for (std::uint16_t root : msg.roots) {
    if (exclusions_.clear(root, p)) {
      changed = true;
      ++stats_.exclusion_changes;
    }
    affected.insert(root);
  }
  if (changed) {
    invalidate_up_cache();
    ++stats_.table_changes_remote;
  }
  update_reachability(affected);
}

// ---------------------------------------------------------------- data path

void MtpRouter::handle_rack_frame(net::Port& in, net::Frame&& frame) {
  std::span<const std::uint8_t> payload;
  ip::Ipv4Header header;
  try {
    header = ip::Ipv4Header::parse(frame.payload, payload);
  } catch (const util::CodecError&) {
    return;
  }

  // The VID derivation algorithm: destination ToR VID = third octet of the
  // destination IP (paper §III.D).
  std::uint16_t dst_root = header.dst.third_octet();

  if (dst_root == own_vid_) {
    // Intra-rack: switch between host ports.
    auto it = config_.rack_hosts.find(header.dst);
    if (it == config_.rack_hosts.end() || it->second == in.number()) return;
    net::Port& out = port(it->second);
    frame.src = out.mac();
    transmit(out, std::move(frame));
    return;
  }

  DataMsg msg;
  msg.src_root = own_vid_;
  msg.dst_root = dst_root;
  msg.ttl = kDataTtl;
  msg.ip_packet = std::move(frame.payload);
  forward_data(std::move(msg), std::nullopt);
}

void MtpRouter::forward_data(DataMsg msg, std::optional<std::uint32_t> in_port) {
  if (is_leaf() && msg.dst_root == own_vid_) {
    deliver_to_rack(std::move(msg));
    return;
  }

  if (in_port.has_value()) {
    if (msg.ttl <= 1) {
      ++stats_.data_dropped_ttl;
      return;
    }
    --msg.ttl;
  }

  // Downward: a VID rooted at the destination names the exact port. The
  // per-root index is a reference (no per-packet vector), and rendezvous
  // hashing keyed by the VID keeps every other flow in place when one
  // candidate entry is withdrawn. Candidate sets are tiny (one entry per
  // acquisition branch), so WCMP weights are the egress capacity inline.
  const auto& candidates = vid_table_.entries_for_root(msg.dst_root);
  if (!candidates.empty()) {
    const std::size_t i = pick_egress(
        data_flow_hash(msg), candidates.size(),
        [&](std::size_t j) {
          const VidEntry& e = candidates[j];
          return static_cast<std::uint64_t>(std::hash<Vid>{}(e.vid)) ^ e.port;
        },
        [&](std::size_t j) { return port_mbps(candidates[j].port); },
        [&](std::size_t j) { return candidates[j].port; });
    ++stats_.data_forwarded;
    ++stats_.allocs_avoided;
    send_msg(candidates[i].port, MtpMessage{std::move(msg)});
    return;
  }

  // Upward default: never bounce a packet that already came down.
  if (in_port.has_value() && is_upstream(*in_port)) {
    ++stats_.data_dropped_no_path;
    return;
  }
  bool hit = false;
  const UpCacheSlot& slot = up_slot(msg.dst_root, hit);
  if (hit) {
    ++stats_.up_cache_hits;
    ++stats_.allocs_avoided;
  } else {
    ++stats_.up_cache_misses;
  }
  const auto& ups = slot.ports;
  if (ups.empty()) {
    ++stats_.data_dropped_no_path;
    return;
  }
  const std::size_t i = pick_egress(
      data_flow_hash(msg), ups.size(),
      [&](std::size_t j) { return std::uint64_t{ups[j]}; },
      [&](std::size_t j) {
        return j < slot.weights.size() ? slot.weights[j] : 1.0;
      },
      [&](std::size_t j) { return ups[j]; });
  ++stats_.data_forwarded;
  send_msg(ups[i], MtpMessage{std::move(msg)});
}

void MtpRouter::deliver_to_rack(DataMsg msg) {
  std::span<const std::uint8_t> payload;
  ip::Ipv4Header header;
  try {
    header = ip::Ipv4Header::parse(msg.ip_packet, payload);
  } catch (const util::CodecError&) {
    return;
  }
  auto it = config_.rack_hosts.find(header.dst);
  if (it == config_.rack_hosts.end()) return;

  net::Port& out = port(it->second);
  net::Frame frame;
  frame.dst = net::MacAddr::broadcast();
  frame.src = out.mac();
  frame.ethertype = net::EtherType::kIpv4;
  frame.payload = std::move(msg.ip_packet);
  frame.traffic_class = net::TrafficClass::kIpData;
  ++stats_.data_delivered;
  transmit(out, std::move(frame));
}

const std::vector<std::uint32_t>& MtpRouter::eligible_up_ports(
    std::uint16_t dst_root) const {
  bool hit = false;
  return up_slot(dst_root, hit).ports;
}

const MtpRouter::UpCacheSlot& MtpRouter::up_slot(std::uint16_t dst_root,
                                                 bool& hit) const {
  if (dst_root >= up_cache_.size()) up_cache_.resize(dst_root + 1);
  UpCacheSlot& slot = up_cache_[dst_root];
  hit = slot.epoch == up_cache_epoch_;
  if (hit) return slot;
  slot.epoch = up_cache_epoch_;
  const bool weighted = path_select() != util::PathSelect::kHrw;
  std::vector<std::uint32_t>& out = slot.ports;
  std::vector<double>& weights = slot.weights;
  out.clear();  // rebuild in place, keeping the slot's capacity
  weights.clear();
  std::vector<std::uint32_t> fallback;
  std::vector<double> fallback_w;
  // WCMP weight of an uplink: egress capacity scaled by how many trees the
  // neighbor currently advertises — the live proxy for its remaining
  // downstream reachability ("remaining uplinks x link speed below the next
  // hop"). Recomputed here, i.e. on every epoch bump (ADVERTISE, withdrawal,
  // admin-down, drain), so the hot path stays O(1).
  auto weight_of = [&](std::uint32_t p, const PortState& s) {
    return port_mbps(p) *
           static_cast<double>(std::max<std::size_t>(
               std::size_t{1}, s.advertised_roots.size()));
  };
  for (std::uint32_t p = 1; p <= port_count(); ++p) {
    const PortState& s = pstate(p);
    if (!s.mtp || !s.alive || !is_upstream(p)) continue;
    if (!port(p).admin_up()) continue;
    if (exclusions_.is_excluded(kWildcardRoot, p)) continue;
    if (exclusions_.is_excluded(dst_root, p)) continue;
    // Prefer uplinks whose neighbor advertised a tree for this root: a
    // freshly rebooted upstream is alive well before it has re-joined its
    // trees, and hashing tree traffic onto it blackholes at the turn. When
    // no uplink advertises the root (a remote pod's root never shows up in
    // a pod spine's statement), every alive uplink is fair game as before.
    if (std::binary_search(s.advertised_roots.begin(), s.advertised_roots.end(),
                           dst_root)) {
      out.push_back(p);
      if (weighted) weights.push_back(weight_of(p, s));
    } else {
      fallback.push_back(p);
      if (weighted) fallback_w.push_back(weight_of(p, s));
    }
  }
  if (out.empty()) {
    out = std::move(fallback);
    weights = std::move(fallback_w);
  }
  if (weighted) {
    for (std::uint32_t p : out) {
      const net::Port& eg = port(p);
      if (eg.connected()) eg.link()->note_weight_update(eg);
    }
  }
  return slot;
}

std::uint64_t MtpRouter::data_flow_hash(const DataMsg& msg) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint8_t b) {
    h ^= b;
    h *= 1099511628211ull;
  };
  mix(static_cast<std::uint8_t>(msg.src_root >> 8));
  mix(static_cast<std::uint8_t>(msg.src_root));
  mix(static_cast<std::uint8_t>(msg.dst_root >> 8));
  mix(static_cast<std::uint8_t>(msg.dst_root));
  // Inner IP addresses (fixed offsets) + first 4 transport bytes (the
  // ports), whose offset is IHL x 4 — a packet carrying IP options must not
  // hash option bytes in place of the ports.
  const auto& pkt = msg.ip_packet;
  for (std::size_t i = 12; i < 20 && i < pkt.size(); ++i) mix(pkt[i]);
  if (!pkt.empty()) {
    std::size_t off = static_cast<std::size_t>(pkt[0] & 0xf) * 4;
    if (off >= ip::Ipv4Header::kSize) {
      for (std::size_t i = off; i < off + 4 && i < pkt.size(); ++i) {
        mix(pkt[i]);
      }
    }
  }
  return h;
}

// ------------------------------------------------------------------ helpers

double MtpRouter::port_mbps(std::uint32_t p) const {
  const net::Link* l = port(p).link();
  return l == nullptr ? 1.0 : static_cast<double>(l->params().bandwidth_bps) / 1e6;
}

bool MtpRouter::is_upstream(std::uint32_t p) const {
  const PortState& s = pstate(p);
  return s.neighbor_tier.has_value() && *s.neighbor_tier > config_.tier;
}

bool MtpRouter::is_downstream(std::uint32_t p) const {
  const PortState& s = pstate(p);
  return s.neighbor_tier.has_value() && *s.neighbor_tier < config_.tier;
}

std::vector<std::uint32_t> MtpRouter::alive_ports(bool upstream) const {
  std::vector<std::uint32_t> out;
  for (std::uint32_t p = 1; p <= port_count(); ++p) {
    const PortState& s = pstate(p);
    if (!s.mtp || !s.alive) continue;
    if (upstream ? is_upstream(p) : is_downstream(p)) out.push_back(p);
  }
  return out;
}

bool MtpRouter::joined_all(const std::vector<std::uint16_t>& roots) const {
  for (std::uint16_t root : roots) {
    if (is_leaf() && root == own_vid_) continue;
    if (!vid_table_.has_root(root)) return false;
  }
  return true;
}

bool MtpRouter::neighbor_alive(std::uint32_t port_number) const {
  return pstate(port_number).alive;
}

std::string MtpRouter::neighbor_summary() const {
  std::string out = name() + " tier " + std::to_string(config_.tier);
  if (is_leaf()) out += " (root VID " + std::to_string(own_vid_) + ")";
  out += "\n";
  for (std::uint32_t p = 1; p <= port_count(); ++p) {
    const PortState& s = pstate(p);
    if (!s.mtp) {
      out += "  eth" + std::to_string(p) + "  rack port\n";
      continue;
    }
    out += "  eth" + std::to_string(p) + "  ";
    out += s.neighbor_tier.has_value()
               ? ("tier " + std::to_string(*s.neighbor_tier))
               : std::string("tier ?");
    out += s.alive ? "  up" : "  down";
    std::string held;
    for (const auto& e : vid_table_.entries()) {
      if (e.port != p) continue;
      if (!held.empty()) held += ',';
      held += e.vid.str();
    }
    if (!held.empty()) out += "  holds " + held;
    std::string given;
    for (const auto& [child, a] : s.assigned) {
      if (!given.empty()) given += ',';
      given += child.str();
    }
    if (!given.empty()) out += "  assigned " + given;
    out += "\n";
  }
  return out;
}

}  // namespace mrmtp::mtp
