#include "ip/route_table.hpp"

#include <algorithm>

#include "util/hash.hpp"

namespace mrmtp::ip {

std::string_view to_string(RouteProto p) {
  switch (p) {
    case RouteProto::kConnected: return "kernel";
    case RouteProto::kBgp: return "bgp";
    case RouteProto::kStatic: return "static";
  }
  return "?";
}

void RouteTable::add_connected(Ipv4Prefix prefix, std::uint32_t port,
                               Ipv4Addr self) {
  Route r;
  r.prefix = prefix;
  r.proto = RouteProto::kConnected;
  r.metric = 0;
  r.src_hint = self;
  r.nexthops.push_back(NextHop{Ipv4Addr(), port});
  auto& slot = by_length_[prefix.length()][prefix.network().value()];
  if (slot.nexthops.empty()) ++count_;
  slot = std::move(r);
  changed(prefix);
}

void RouteTable::set(Ipv4Prefix prefix, RouteProto proto,
                     std::vector<NextHop> nexthops, std::uint32_t metric) {
  if (nexthops.empty()) {
    remove(prefix);
    return;
  }
  std::sort(nexthops.begin(), nexthops.end());
  for (const NextHop& nh : nexthops) {
    if (nh.weight != 1) {
      ++select_stats_.weight_updates;
      break;
    }
  }
  Route r;
  r.prefix = prefix;
  r.proto = proto;
  r.metric = metric;
  r.nexthops = std::move(nexthops);
  auto& bucket = by_length_[prefix.length()];
  auto [it, inserted] = bucket.try_emplace(prefix.network().value());
  if (inserted) ++count_;
  it->second = std::move(r);
  changed(prefix);
}

bool RouteTable::remove(Ipv4Prefix prefix) {
  auto& bucket = by_length_[prefix.length()];
  if (bucket.erase(prefix.network().value()) > 0) {
    --count_;
    changed(prefix);
    return true;
  }
  return false;
}

const Route* RouteTable::lookup(Ipv4Addr dst) const {
  for (int len = 32; len >= 0; --len) {
    const auto& bucket = by_length_[static_cast<std::size_t>(len)];
    if (bucket.empty()) continue;
    std::uint32_t key = dst.value() & Ipv4Prefix::mask(static_cast<std::uint8_t>(len));
    auto it = bucket.find(key);
    if (it != bucket.end()) return &it->second;
  }
  return nullptr;
}

const Route* RouteTable::lookup_cached(Ipv4Addr dst) const {
  ++select_stats_.lookups;
  if (lpm_cache_.empty()) lpm_cache_.resize(kLpmCacheSlots);
  LpmSlot& slot =
      lpm_cache_[util::mix64(dst.value()) & (kLpmCacheSlots - 1)];
  if (slot.epoch == epoch_ && slot.dst == dst.value()) {
    ++select_stats_.cache_hits;
    ++select_stats_.allocs_avoided;
    return slot.route;
  }
  ++select_stats_.cache_misses;
  const Route* r = lookup(dst);
  slot.epoch = epoch_;
  slot.dst = dst.value();
  slot.route = r;
  return r;
}

const Route* RouteTable::exact(Ipv4Prefix prefix) const {
  const auto& bucket = by_length_[prefix.length()];
  auto it = bucket.find(prefix.network().value());
  return it == bucket.end() ? nullptr : &it->second;
}

std::vector<const Route*> RouteTable::sorted_routes() const {
  std::vector<const Route*> out;
  out.reserve(count_);
  for (const auto& bucket : by_length_) {
    for (const auto& [key, route] : bucket) out.push_back(&route);
  }
  std::sort(out.begin(), out.end(), [](const Route* a, const Route* b) {
    if (a->prefix.network() != b->prefix.network()) {
      return a->prefix.network() < b->prefix.network();
    }
    return a->prefix.length() < b->prefix.length();
  });
  return out;
}

std::string RouteTable::dump() const {
  std::string out;
  for (const Route* r : sorted_routes()) {
    out += r->prefix.str();
    if (r->proto == RouteProto::kConnected) {
      const NextHop& nh = r->nexthops.front();
      out += " dev eth" + std::to_string(nh.port) +
             " proto kernel scope link src " + r->src_hint.str() + "\n";
      continue;
    }
    if (r->nexthops.size() == 1) {
      const NextHop& nh = r->nexthops.front();
      out += " via " + nh.via.str() + " dev eth" + std::to_string(nh.port) +
             " proto " + std::string(to_string(r->proto)) + " metric " +
             std::to_string(r->metric) + "\n";
      continue;
    }
    out += " proto " + std::string(to_string(r->proto)) + " metric " +
           std::to_string(r->metric) + "\n";
    for (const NextHop& nh : r->nexthops) {
      out += "\tnexthop via " + nh.via.str() + " dev eth" +
             std::to_string(nh.port) + " weight " +
             std::to_string(nh.weight) + "\n";
    }
  }
  return out;
}

std::size_t RouteTable::memory_bytes() const {
  std::size_t bytes = 0;
  for (const auto& bucket : by_length_) {
    for (const auto& [key, route] : bucket) {
      bytes += sizeof(Route) + route.nexthops.size() * sizeof(NextHop);
    }
  }
  return bytes;
}

void RouteTable::clear() {
  for (auto& bucket : by_length_) bucket.clear();
  count_ = 0;
  ++epoch_;
  ++host_epoch_;
}

void RouteTable::changed(Ipv4Prefix prefix) {
  ++epoch_;
  if (prefix.length() >= 31) ++host_epoch_;
}

}  // namespace mrmtp::ip
