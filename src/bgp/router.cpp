#include "bgp/router.hpp"

#include <algorithm>
#include <cmath>

#include "net/link.hpp"
#include "util/hash.hpp"

namespace mrmtp::bgp {

namespace {
constexpr std::uint16_t kEphemeralBase = 20000;

/// "timers bgp 1 3" (Listing 1) and the connect-retry interval, before
/// jitter.
constexpr sim::Duration kKeepalive = sim::Duration::seconds(1);
constexpr sim::Duration kHold = sim::Duration::seconds(3);
constexpr sim::Duration kConnectRetry = sim::Duration::seconds(1);

std::uint64_t hash_path(std::span<const std::uint32_t> path) {
  std::uint64_t h = util::mix64(path.size());
  for (std::uint32_t asn : path) h = util::mix64(h ^ asn);
  return h;
}
}  // namespace

// --- AsPathTable -----------------------------------------------------------

BgpRouter::PathId BgpRouter::AsPathTable::intern(
    std::span<const std::uint32_t> path) {
  const std::uint64_t h = hash_path(path);
  const std::size_t mask = index_.size() - 1;
  if (!index_.empty()) {
    for (std::size_t i = h & mask;; i = (i + 1) & mask) {
      const PathId id = index_[i];
      if (id == kNoPath) break;
      const Entry& e = entries_[id];
      if (e.hash == h && std::ranges::equal(get(id), path)) return id;
    }
  }
  const auto id = static_cast<PathId>(entries_.size());
  entries_.push_back(Entry{static_cast<std::uint32_t>(words_.size()),
                           static_cast<std::uint32_t>(path.size()), h});
  words_.insert(words_.end(), path.begin(), path.end());
  if (2 * entries_.size() > index_.size()) {
    // Grow and rehash: at most half full keeps probe chains short.
    index_.assign(std::max<std::size_t>(16, 2 * index_.size()), kNoPath);
    const std::size_t grown = index_.size() - 1;
    for (PathId e = 0; e < entries_.size(); ++e) {
      std::size_t i = entries_[e].hash & grown;
      while (index_[i] != kNoPath) i = (i + 1) & grown;
      index_[i] = e;
    }
  } else {
    std::size_t i = h & mask;
    while (index_[i] != kNoPath) i = (i + 1) & mask;
    index_[i] = id;
  }
  return id;
}

BgpRouter::PathId BgpRouter::AsPathTable::prepend(std::uint32_t asn,
                                                  PathId tail) {
  // Built in scratch_: interning may grow words_, which `get(tail)` views.
  scratch_.clear();
  scratch_.push_back(asn);
  const auto rest = get(tail);
  scratch_.insert(scratch_.end(), rest.begin(), rest.end());
  return intern(scratch_);
}

bool BgpRouter::AsPathTable::contains(PathId id, std::uint32_t asn) const {
  return std::ranges::find(get(id), asn) != get(id).end();
}

bool BgpRouter::AsPathTable::less(PathId a, PathId b) const {
  return a != b && std::ranges::lexicographical_compare(get(a), get(b));
}

void BgpRouter::AsPathTable::clear() {
  words_.clear();
  entries_.clear();
  index_.clear();
}

// --- BgpRouter -------------------------------------------------------------

BgpRouter::BgpRouter(net::SimContext& ctx, std::string name, std::uint32_t tier,
                     BgpConfig config)
    : transport::L3Node(ctx, std::move(name), tier), config_(std::move(config)) {}

void BgpRouter::start() {
  draining_ = false;
  // Passive side of every session: accept on port 179 and bind the incoming
  // connection to the neighbor configured with that source address.
  tcp().listen(kBgpPort, [this](transport::TcpConnection& conn) {
    for (auto& p : peers_) {
      if (p->cfg.peer_addr == conn.remote_addr() &&
          p->state != SessionState::kEstablished) {
        // A stale half-open attempt is superseded by the new inbound one.
        if (p->conn != nullptr && p->conn != &conn) {
          auto* old = p->conn;
          p->conn = nullptr;
          tcp().destroy(*old);
        }
        attach_connection(*p, conn);
        return;
      }
    }
    // Unknown source: leave callbacks empty; connection idles until reset.
  });

  if (config_.enable_bfd) bfd_ = std::make_unique<bfd::BfdManager>(*this);

  std::size_t index = 0;
  for (const auto& n : config_.neighbors) {
    auto peer = std::make_unique<Peer>();
    peer->cfg = n;
    peer->index = index++;
    for (std::uint32_t p = 1; p <= port_count(); ++p) {
      if (port_addr(p) == n.local_addr) {
        peer->port = p;
        break;
      }
    }
    if (stream_seed_) {
      // Stream per (router seed, peer slot); the SplitMix64 expansion inside
      // Rng decorrelates adjacent seeds.
      peer->rng.emplace(*stream_seed_ + peer->index);
    }
    Peer& ref = *peer;
    peer->hold_timer = std::make_unique<sim::Timer>(
        ctx_.sched, [this, &ref] { drop_session(ref); });
    peer->keepalive_timer =
        std::make_unique<sim::Timer>(ctx_.sched, [this, &ref] {
          if (ref.state == SessionState::kEstablished) {
            send_message(ref, KeepaliveMessage{});
            ++stats_.keepalives_sent;
            // RFC 4271 section 10: jitter each interval by 0.75..1.0 so
            // keep-alives across the fabric do not phase-lock.
            ref.keepalive_timer->start(jittered(ref, kKeepalive));
          }
        });
    peer->retry_timer = std::make_unique<sim::Timer>(
        ctx_.sched, [this, &ref] { start_peer(ref); });
    peer->mrai_timer = std::make_unique<sim::Timer>(ctx_.sched, [this, &ref] {
      if (!ref.pending.empty()) flush_peer(ref);
    });
    peers_.push_back(std::move(peer));

    if (config_.enable_bfd) {
      bfd::BfdSession& session =
          bfd_->create_session(n.local_addr, n.peer_addr,
                               [this, &ref](bool up) {
                                 if (!up) drop_session(ref);
                               });
      if (stream_seed_) {
        session.use_stream_rng(~*stream_seed_ + ref.index);
      }
      session.start();
    }
  }

  // Seed the Loc-RIB with locally originated prefixes.
  for (const auto& prefix : config_.originate) run_decision(prefix_id(prefix));

  for (auto& p : peers_) start_peer(*p);
}

void BgpRouter::stop() {
  draining_ = false;
  // Detach connections from peers first so nothing re-enters session logic
  // while the stack resets, then let peers_.clear() cancel every timer.
  for (auto& peer : peers_) {
    if (peer->conn != nullptr) {
      peer->conn->set_callbacks({});
      peer->conn = nullptr;
    }
  }
  peers_.clear();
  bfd_.reset();
  // The BFD demux handler captured the manager just destroyed; park a sink
  // in its place so a late BFD frame from a still-transmitting peer cannot
  // reach it (the next start() binds a fresh manager).
  if (config_.enable_bfd) {
    bind_udp(bfd::kBfdPort,
             [](ip::Ipv4Addr, ip::Ipv4Addr, const transport::UdpHeader&,
                std::span<const std::uint8_t>) {});
  }
  ribs_.clear();
  by_prefix_.clear();
  paths_.clear();
  tcp().shutdown();
  // Learned routes die with the control plane; connected routes are
  // interface configuration and survive the reboot.
  std::vector<ip::Ipv4Prefix> learned;
  for (const ip::Route* r : routes().sorted_routes()) {
    if (r->proto == ip::RouteProto::kBgp) learned.push_back(r->prefix);
  }
  for (const auto& prefix : learned) routes().remove(prefix);
}

void BgpRouter::drain() {
  if (draining_) return;
  draining_ = true;
  // Withdraw the world: advertisement_for() now returns nothing, so marking
  // every advertised prefix pending makes flush_peer() emit pure withdrawals.
  // Neighbors drop this router from their ECMP sets and re-route; our own
  // RIB is untouched so in-flight traffic keeps forwarding until the reboot.
  for (auto& peer : peers_) {
    if (peer->state != SessionState::kEstablished) continue;
    for (PrefixId id = 0; id < peer->advertised.size(); ++id) {
      if (peer->advertised[id] != kNoPath) mark_pending(*peer, id);
    }
    flush_peer(*peer);
  }
}

void BgpRouter::start_peer(Peer& peer) {
  if (peer.state != SessionState::kIdle) return;
  // Deterministic tie-break: the numerically lower address actively opens.
  if (peer.cfg.local_addr < peer.cfg.peer_addr) {
    peer.state = SessionState::kConnect;
    transport::TcpConnection& conn = tcp().connect(
        peer.cfg.local_addr,
        static_cast<std::uint16_t>(kEphemeralBase + peer.index),
        peer.cfg.peer_addr, kBgpPort, transport::TcpConnection::Callbacks{},
        transport::TcpTuning{.rto = sim::Duration::millis(250),
                             .max_retransmits = 3});
    attach_connection(peer, conn);
  }
  // Passive side stays Idle until the listener hands us a connection.
}

void BgpRouter::attach_connection(Peer& peer, transport::TcpConnection& conn) {
  peer.conn = &conn;
  if (peer.state == SessionState::kIdle) peer.state = SessionState::kConnect;
  conn.set_callbacks(transport::TcpConnection::Callbacks{
      .on_established =
          [this, &peer] {
            send_message(peer,
                         OpenMessage{config_.asn,
                                     static_cast<std::uint16_t>(
                                         kHold.to_seconds()),
                                     config_.router_id});
            peer.state = SessionState::kOpenSent;
            peer.hold_timer->start(kHold);
          },
      .on_data =
          [this, &peer](std::span<const std::uint8_t> data) {
            handle_stream(peer, data);
          },
      .on_closed = [this, &peer] { drop_session(peer); },
  });
}

sim::Duration BgpRouter::jittered(Peer& peer, sim::Duration base) {
  // Uniform in [0.75, 1.0) of the base interval.
  std::uint64_t span = static_cast<std::uint64_t>(base.ns() / 4);
  return base - sim::Duration::nanos(static_cast<std::int64_t>(
                    span == 0 ? 0 : draw_rng(peer).below(span)));
}

void BgpRouter::session_established(Peer& peer) {
  peer.state = SessionState::kEstablished;
  peer.keepalive_timer->start(jittered(peer, kKeepalive));
  peer.hold_timer->start(kHold);
  // Initial full-table advertisement.
  for (PrefixId id : by_prefix_) {
    if (!ribs_[id].chosen.empty() || ribs_[id].originated) {
      mark_pending(peer, id);
    }
  }
  flush_peer(peer);
}

void BgpRouter::drop_session(Peer& peer) {
  if (peer.state == SessionState::kIdle && peer.conn == nullptr) return;
  bool was_established = peer.state == SessionState::kEstablished;
  peer.state = SessionState::kIdle;
  peer.hold_timer->stop();
  peer.keepalive_timer->stop();
  peer.mrai_timer->stop();
  peer.reader = MessageReader{};
  peer.advertised.clear();
  peer.pending.clear();
  if (peer.conn != nullptr) {
    auto* conn = peer.conn;
    peer.conn = nullptr;
    if (was_established && conn->established()) {
      conn->send(encode(NotificationMessage{}), net::TrafficClass::kBgpKeepalive);
    }
    tcp().destroy(*conn);
  }

  if (was_established) {
    ++stats_.sessions_flapped;
    if (config_.timers.damping_penalty > 0) {
      peer.damp.charge(ctx_.now(), config_.timers.damping_penalty);
    }
  }
  if (was_established && on_neighbor_down) {
    on_neighbor_down(ctx_.now(), peer.port);
  }
  if (was_established) {
    // Flush everything learned from this peer and reconverge, prefixes in
    // ascending order.
    std::vector<PrefixId> affected;
    for (PrefixId id : by_prefix_) {
      if (std::erase_if(ribs_[id].in, [&peer](const Path& p) {
            return p.peer == peer.index;
          }) > 0) {
        affected.push_back(id);
      }
    }
    for (PrefixId id : affected) {
      if (run_decision(id)) schedule_advertisements(id);
    }
  }
  schedule_retry(peer);
}

void BgpRouter::schedule_retry(Peer& peer) {
  auto jitter = sim::Duration::nanos(
      static_cast<std::int64_t>(draw_rng(peer).below(100'000'000ull)));
  sim::Duration wait = kConnectRetry + jitter;
  if (config_.timers.damping_penalty > 0) {
    double pen = peer.damp.at(ctx_.now());
    if (pen >= sim::kDampingSuppress) {
      // Defer the reconnect until the penalty would decay to the reuse
      // threshold: half_life * log2(penalty / reuse).
      double halves = std::log2(pen / sim::kDampingReuse);
      auto suppress = sim::Duration::nanos(static_cast<std::int64_t>(
          halves * static_cast<double>(sim::kDampingHalfLife.ns())));
      if (suppress > wait) {
        wait = suppress;
        ++stats_.retries_damped;
      }
    }
  }
  peer.retry_timer->start(wait);
}

double BgpRouter::peer_damping_penalty(ip::Ipv4Addr peer_addr) const {
  for (const auto& peer : peers_) {
    if (peer->cfg.peer_addr == peer_addr) return peer->damp.at(ctx_.now());
  }
  return 0.0;
}

void BgpRouter::handle_stream(Peer& peer, std::span<const std::uint8_t> data) {
  peer.reader.append(data);
  try {
    while (peer.reader.next(peer.rx)) {
      handle_message(peer, peer.rx);
      if (peer.state == SessionState::kIdle) return;  // dropped mid-stream
    }
  } catch (const util::CodecError&) {
    drop_session(peer);
  }
}

void BgpRouter::handle_message(Peer& peer, const BgpMessage& msg) {
  if (peer.state == SessionState::kEstablished) {
    peer.hold_timer->restart();
  }

  if (const auto* open = std::get_if<OpenMessage>(&msg)) {
    if (peer.cfg.peer_asn <= 65535 && open->asn != peer.cfg.peer_asn) {
      send_message(peer, NotificationMessage{2, 2});  // Bad Peer AS
      drop_session(peer);
      return;
    }
    if (peer.state == SessionState::kOpenSent) {
      send_message(peer, KeepaliveMessage{});
      peer.state = SessionState::kOpenConfirm;
      peer.hold_timer->start(kHold);
    }
    return;
  }

  if (std::holds_alternative<KeepaliveMessage>(msg)) {
    if (peer.state == SessionState::kOpenConfirm) session_established(peer);
    return;
  }

  if (std::holds_alternative<NotificationMessage>(msg)) {
    drop_session(peer);
    return;
  }

  if (const auto* update = std::get_if<UpdateMessage>(&msg)) {
    if (peer.state != SessionState::kEstablished) return;
    ++stats_.updates_received;
    stats_.last_update_at = ctx_.now();
    process_update(peer, *update);
  }
}

void BgpRouter::send_message(Peer& peer, const BgpMessage& msg) {
  if (peer.conn == nullptr) return;
  peer.conn->send(encode(msg), net::TrafficClass::kBgpKeepalive);
}

void BgpRouter::send_update(Peer& peer, const UpdateMessage& update) {
  if (peer.conn == nullptr) return;
  ++stats_.updates_sent;
  stats_.last_update_at = ctx_.now();
  peer.conn->send(encode(update), net::TrafficClass::kBgpUpdate);
}

BgpRouter::PrefixId BgpRouter::prefix_id(ip::Ipv4Prefix prefix) {
  auto it = std::ranges::lower_bound(
      by_prefix_, prefix, {}, [this](PrefixId id) { return ribs_[id].prefix; });
  if (it != by_prefix_.end() && ribs_[*it].prefix == prefix) return *it;
  const auto id = static_cast<PrefixId>(ribs_.size());
  PrefixRib& rib = ribs_.emplace_back();
  rib.prefix = prefix;
  rib.originated = originates(prefix);
  by_prefix_.insert(it, id);
  return id;
}

std::optional<BgpRouter::PrefixId> BgpRouter::find_prefix(
    ip::Ipv4Prefix prefix) const {
  auto it = std::ranges::lower_bound(
      by_prefix_, prefix, {}, [this](PrefixId id) { return ribs_[id].prefix; });
  if (it != by_prefix_.end() && ribs_[*it].prefix == prefix) return *it;
  return std::nullopt;
}

void BgpRouter::process_update(Peer& peer, const UpdateMessage& update) {
  // Apply the whole UPDATE to the Adj-RIB-In, then decide each affected
  // prefix in message order. The scratch list is taken, not borrowed, so a
  // nested call could never clobber it.
  std::vector<PrefixId> affected = std::move(affected_);
  affected.clear();
  const auto peer_slot = static_cast<std::uint32_t>(peer.index);
  auto slot_of = [peer_slot](std::vector<Path>& in) {
    return std::ranges::lower_bound(in, peer_slot, {}, &Path::peer);
  };

  for (const auto& prefix : update.withdrawn) {
    auto id = find_prefix(prefix);
    if (!id) continue;
    std::vector<Path>& in = ribs_[*id].in;
    auto it = slot_of(in);
    if (it != in.end() && it->peer == peer_slot) {
      in.erase(it);
      affected.push_back(*id);
    }
  }

  // Receiver-side loop check: discard paths containing our own ASN.
  if (update.has_nlri() &&
      std::ranges::find(update.as_path, config_.asn) == update.as_path.end()) {
    const Path path{peer_slot, paths_.intern(update.as_path), update.next_hop};
    for (const auto& prefix : update.nlri) {
      const PrefixId id = prefix_id(prefix);
      std::vector<Path>& in = ribs_[id].in;
      auto it = slot_of(in);
      if (it != in.end() && it->peer == peer_slot) {
        *it = path;
      } else {
        in.insert(it, path);
      }
      affected.push_back(id);
    }
  }

  for (PrefixId id : affected) {
    if (run_decision(id)) schedule_advertisements(id);
  }
  affected_ = std::move(affected);
}

bool BgpRouter::run_decision(PrefixId id) {
  PrefixRib& rib = ribs_[id];
  std::vector<Path>& chosen = decision_;
  chosen.clear();
  if (rib.originated) {
    chosen.push_back(Path{kLocal, paths_.intern({}), ip::Ipv4Addr()});
  } else {
    // Shortest AS path wins; with multipath relax every path of that
    // length joins the ECMP set, in peer-index order.
    std::size_t best_len = SIZE_MAX;
    for (const Path& p : rib.in) {
      if (peers_[p.peer]->state != SessionState::kEstablished) continue;
      best_len = std::min(best_len, paths_.get(p.as_path).size());
    }
    for (const Path& p : rib.in) {
      if (peers_[p.peer]->state != SessionState::kEstablished) continue;
      if (paths_.get(p.as_path).size() == best_len) chosen.push_back(p);
    }
  }

  if (chosen == rib.chosen) return false;
  rib.chosen.assign(chosen.begin(), chosen.end());
  rib.out = chosen.empty() ? kNoPath
                           : paths_.prepend(config_.asn, chosen.front().as_path);

  // Install into the forwarding table (originated prefixes are connected).
  if (!rib.originated) {
    // Static WCMP: when weighted path selection is enabled, each next hop
    // carries the configured capacity of its egress link (Mb/s) so the
    // weighted rendezvous pick splits flows capacity-proportionally across
    // a mixed-speed ECMP group.
    const bool wcmp = path_select() != util::PathSelect::kHrw;
    std::vector<ip::NextHop>& nexthops = nexthops_;
    nexthops.clear();
    for (const Path& path : chosen) {
      std::uint32_t port_number = connected_port(path.next_hop);
      if (port_number == 0) continue;
      ip::NextHop nh{path.next_hop, port_number};
      if (wcmp) {
        if (const net::Link* l = port(port_number).link(); l != nullptr) {
          nh.weight = static_cast<std::uint32_t>(std::max<std::uint64_t>(
              1, l->params().bandwidth_bps / 1'000'000));
        }
      }
      nexthops.push_back(nh);
    }
    const ip::Ipv4Prefix prefix = rib.prefix;
    const ip::Route* before = routes().exact(prefix);
    bool had = before != nullptr && before->proto == ip::RouteProto::kBgp;
    if (nexthops.empty()) {
      if (had) {
        routes().remove(prefix);
        ++stats_.rib_changes;
      }
    } else {
      sorted_nexthops_.assign(nexthops.begin(), nexthops.end());
      std::sort(sorted_nexthops_.begin(), sorted_nexthops_.end());
      if (!had || before->nexthops != sorted_nexthops_) {
        if (wcmp) {
          for (const ip::NextHop& nh : nexthops) {
            const net::Port& eg = port(nh.port);
            if (eg.connected()) eg.link()->note_weight_update(eg);
          }
        }
        routes().set(prefix, ip::RouteProto::kBgp, nexthops);
        ++stats_.rib_changes;
      }
    }
  }
  return true;
}

void BgpRouter::schedule_advertisements(PrefixId id) {
  for (auto& peer : peers_) {
    mark_pending(*peer, id);
    flush_peer(*peer);
  }
}

void BgpRouter::mark_pending(Peer& peer, PrefixId id) {
  auto it = std::ranges::lower_bound(
      peer.pending, ribs_[id].prefix, {},
      [this](PrefixId p) { return ribs_[p].prefix; });
  if (it == peer.pending.end() || *it != id) peer.pending.insert(it, id);
}

void BgpRouter::flush_peer(Peer& peer) {
  if (peer.state != SessionState::kEstablished) return;
  if (peer.mrai_timer->running()) return;  // batched until MRAI fires

  UpdateMessage& msg = update_;
  msg.withdrawn.clear();
  msg.as_path.clear();
  msg.nlri.clear();
  adverts_.clear();
  if (peer.advertised.size() < ribs_.size()) {
    peer.advertised.resize(ribs_.size(), kNoPath);
  }
  for (PrefixId id : peer.pending) {
    const PathId want = advertisement_for(peer, ribs_[id]);
    PathId& have = peer.advertised[id];
    if (want != kNoPath) {
      if (have != want) {
        adverts_.emplace_back(want, id);
        have = want;
      }
    } else if (have != kNoPath) {
      msg.withdrawn.push_back(ribs_[id].prefix);
      have = kNoPath;
    }
  }
  peer.pending.clear();

  // Withdrawals first (ascending prefix), then one UPDATE per distinct AS
  // path in lexicographic order, NLRI ascending. The next hop is always our
  // address on this session, so the path alone keys a group.
  bool sent = false;
  if (!msg.withdrawn.empty()) {
    send_update(peer, msg);
    msg.withdrawn.clear();
    sent = true;
  }
  std::ranges::sort(adverts_, [this](const auto& a, const auto& b) {
    if (a.first != b.first) return paths_.less(a.first, b.first);
    return ribs_[a.second].prefix < ribs_[b.second].prefix;
  });
  msg.next_hop = peer.cfg.local_addr;
  for (std::size_t i = 0; i < adverts_.size();) {
    const PathId path = adverts_[i].first;
    msg.nlri.clear();
    for (; i < adverts_.size() && adverts_[i].first == path; ++i) {
      msg.nlri.push_back(ribs_[adverts_[i].second].prefix);
    }
    const auto as_path = paths_.get(path);
    msg.as_path.assign(as_path.begin(), as_path.end());
    send_update(peer, msg);
    sent = true;
  }

  if (sent && config_.timers.mrai > sim::Duration{}) {
    peer.mrai_timer->start(config_.timers.mrai);
  }
}

BgpRouter::PathId BgpRouter::advertisement_for(const Peer& peer,
                                               const PrefixRib& rib) const {
  if (draining_) return kNoPath;  // cost-out: withdraw everything
  if (rib.out == kNoPath) return kNoPath;
  // An originated prefix's only choice is the local path, which neither
  // check below can suppress.
  const Path& best = rib.chosen.front();
  if (best.peer == peer.index) return kNoPath;  // no echo
  // Sender-side loop suppression: with the RFC 7938 ASN plan this prevents
  // valley advertisements (e.g. re-advertising a spine-learned path upward).
  if (paths_.contains(best.as_path, peer.cfg.peer_asn)) return kNoPath;
  return rib.out;
}

bool BgpRouter::originates(ip::Ipv4Prefix prefix) const {
  return std::find(config_.originate.begin(), config_.originate.end(),
                   prefix) != config_.originate.end();
}

void BgpRouter::on_port_down(net::Port& port) {
  // Fast external fallover: sessions whose local address lives on the downed
  // interface go down immediately (the millisecond-scale local detection the
  // paper describes in Section IV.A).
  auto addr = port_addr(port.number());
  if (!addr.has_value()) return;
  for (auto& peer : peers_) {
    if (peer->cfg.local_addr == *addr) {
      if (config_.enable_bfd && bfd_ != nullptr) {
        if (auto* s = bfd_->find(peer->cfg.peer_addr)) s->stop();
      }
      drop_session(*peer);
      peer->retry_timer->stop();  // pointless to retry into a dead port
    }
  }
}

void BgpRouter::on_port_up(net::Port& port) {
  auto addr = port_addr(port.number());
  if (!addr.has_value()) return;
  for (auto& peer : peers_) {
    if (peer->cfg.local_addr == *addr) {
      if (config_.enable_bfd && bfd_ != nullptr) {
        if (auto* s = bfd_->find(peer->cfg.peer_addr)) s->start();
      }
      schedule_retry(*peer);
    }
  }
}

BgpRouter::SessionState BgpRouter::session_state(ip::Ipv4Addr peer) const {
  for (const auto& p : peers_) {
    if (p->cfg.peer_addr == peer) return p->state;
  }
  return SessionState::kIdle;
}

std::size_t BgpRouter::established_sessions() const {
  std::size_t n = 0;
  for (const auto& p : peers_) {
    if (p->state == SessionState::kEstablished) ++n;
  }
  return n;
}

namespace {
std::string_view state_name(BgpRouter::SessionState s) {
  switch (s) {
    case BgpRouter::SessionState::kIdle: return "Idle";
    case BgpRouter::SessionState::kConnect: return "Connect";
    case BgpRouter::SessionState::kOpenSent: return "OpenSent";
    case BgpRouter::SessionState::kOpenConfirm: return "OpenConfirm";
    case BgpRouter::SessionState::kEstablished: return "Established";
  }
  return "?";
}
}  // namespace

std::string BgpRouter::summary_text() const {
  std::string out = "BGP router identifier " + std::to_string(config_.router_id) +
                    ", local AS number " + std::to_string(config_.asn) + "\n";
  out += "Neighbor         AS      State        PfxRcvd\n";
  for (const auto& p : peers_) {
    std::size_t prefixes = 0;
    for (const PrefixRib& rib : ribs_) {
      prefixes += static_cast<std::size_t>(std::ranges::count(
          rib.in, static_cast<std::uint32_t>(p->index), &Path::peer));
    }
    char line[96];
    std::snprintf(line, sizeof(line), "%-16s %-7u %-12s %zu\n",
                  p->cfg.peer_addr.str().c_str(), p->cfg.peer_asn,
                  std::string(state_name(p->state)).c_str(), prefixes);
    out += line;
  }
  return out;
}

std::string BgpRouter::config_text() const {
  std::string out;
  out += "frr version 10.0\n";
  out += "frr defaults datacenter\n";
  out += "hostname " + name() + "\n";
  out += "log file /var/log/frr/bgpd.log\n";
  out += "log timestamp precision 3\n";
  out += "no ipv6 forwarding\n";
  out += "router bgp " + std::to_string(config_.asn) + "\n";
  out += " timers bgp " +
         std::to_string(static_cast<long long>(kKeepalive.to_seconds())) +
         " " +
         std::to_string(static_cast<long long>(kHold.to_seconds())) +
         "\n";
  for (const auto& n : config_.neighbors) {
    out += " neighbor " + n.peer_addr.str() + " remote-as " +
           std::to_string(n.peer_asn) + "\n";
    if (config_.enable_bfd) {
      out += " neighbor " + n.peer_addr.str() + " bfd\n";
    }
  }
  out += " address-family ipv4 unicast\n";
  for (const auto& p : config_.originate) {
    out += "  network " + p.str() + "\n";
  }
  out += "  maximum-paths 64\n";  // multipath relax, always on
  out += " exit-address-family\n";
  if (config_.enable_bfd) {
    out += "bfd\n profile lowerIntervals\n  transmit-interval " +
           std::to_string(bfd::kTxInterval.ns() / 1'000'000) + "\n";
    for (const auto& n : config_.neighbors) {
      out += " peer " + n.peer_addr.str() + "\n  profile lowerIntervals\n";
    }
  }
  return out;
}

}  // namespace mrmtp::bgp
