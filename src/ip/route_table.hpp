// Longest-prefix-match IPv4 routing table with ECMP next-hop groups.
//
// Backing store is one hash map per prefix length (lookup probes /32 down to
// /0), which is both a realistic software-router structure and fast enough to
// micro-benchmark. dump() renders the Linux `ip route` format of the paper's
// Listing 3 so table-size comparisons are like-for-like.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "ip/addr.hpp"

namespace mrmtp::ip {

enum class RouteProto : std::uint8_t { kConnected, kBgp, kStatic };

[[nodiscard]] std::string_view to_string(RouteProto p);

struct NextHop {
  Ipv4Addr via;        // gateway (0.0.0.0 for connected routes)
  std::uint32_t port;  // egress interface number (1-based; "eth<n>")

  // WCMP weight in Mb/s of egress capacity; 1 = unweighted/legacy. Kept as
  // an integer so NextHop stays totally ordered and routes stay comparable
  // bit-for-bit across shards.
  std::uint32_t weight = 1;

  /// Rendezvous-hash key: the next hop itself, so a group member keeps its
  /// flows when another member leaves.
  [[nodiscard]] std::uint64_t hrw_key() const {
    return (static_cast<std::uint64_t>(via.value()) << 32) | port;
  }

  auto operator<=>(const NextHop&) const = default;
};

struct Route {
  Ipv4Prefix prefix;
  RouteProto proto = RouteProto::kStatic;
  std::uint32_t metric = 0;
  Ipv4Addr src_hint;  // "src" shown on connected routes
  std::vector<NextHop> nexthops;
};

/// Hot-path counters for the cached LPM path — the ECMP analog of
/// mtp::MtpStats' up-cache telemetry, so BENCH_scalability BGP rows compare
/// algorithms instead of cache presence.
struct SelectStats {
  std::uint64_t lookups = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t allocs_avoided = 0;   // full 33-bucket LPM walks skipped
  std::uint64_t weight_updates = 0;   // route installs carrying WCMP weights
};

class RouteTable {
 public:
  /// Installs a connected (scope link) route for a local interface.
  void add_connected(Ipv4Prefix prefix, std::uint32_t port, Ipv4Addr self);

  /// Installs or replaces a route. An empty next-hop set removes it.
  void set(Ipv4Prefix prefix, RouteProto proto, std::vector<NextHop> nexthops,
           std::uint32_t metric = 20);

  /// Removes a route; returns true if present.
  bool remove(Ipv4Prefix prefix);

  /// Longest-prefix match; nullptr if no route covers `dst`.
  [[nodiscard]] const Route* lookup(Ipv4Addr dst) const;

  /// LPM through a direct-mapped, epoch-validated cache. Any table mutation
  /// bumps the epoch, so stale Route pointers are never returned; negative
  /// results (no covering route) are cached too. This is the dense cached
  /// candidate set MTP's up-cache has had since PR 2.
  [[nodiscard]] const Route* lookup_cached(Ipv4Addr dst) const;

  /// Exact-prefix fetch; nullptr if absent.
  [[nodiscard]] const Route* exact(Ipv4Prefix prefix) const;

  [[nodiscard]] const SelectStats& select_stats() const {
    return select_stats_;
  }

  [[nodiscard]] std::size_t size() const { return count_; }

  /// Moves on every mutation (add, set, remove, clear): an answer derived
  /// from the table stays valid while the epoch it was derived at holds.
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }

  /// Moves only when a /31 or /32 route is added, replaced or removed, and
  /// on clear(): an answer about a link peer's /31 and /32 holds while it
  /// holds, however many other prefixes BGP installs meanwhile.
  [[nodiscard]] std::uint64_t host_epoch() const { return host_epoch_; }

  /// All routes sorted by (prefix length, network); stable for dumps/tests.
  [[nodiscard]] std::vector<const Route*> sorted_routes() const;

  /// Linux `ip route show` style rendering (paper Listing 3).
  [[nodiscard]] std::string dump() const;

  /// Approximate resident bytes of the table contents — the paper's
  /// "storage needs" comparison (Section VII.H).
  [[nodiscard]] std::size_t memory_bytes() const;

  void clear();

 private:
  /// Bumps epoch_, and host_epoch_ for a /31 or /32 prefix.
  void changed(Ipv4Prefix prefix);

  // One direct-mapped cache line per hashed destination. Slots start at
  // epoch 0 and the table at epoch 1, so an untouched slot is never valid.
  struct LpmSlot {
    std::uint64_t epoch = 0;
    std::uint32_t dst = 0;
    const Route* route = nullptr;  // nullptr = cached negative result
  };
  static constexpr std::size_t kLpmCacheSlots = 1024;  // power of two

  std::array<std::unordered_map<std::uint32_t, Route>, 33> by_length_;
  std::size_t count_ = 0;
  std::uint64_t epoch_ = 1;
  std::uint64_t host_epoch_ = 1;
  mutable std::vector<LpmSlot> lpm_cache_;  // sized lazily on first lookup
  mutable SelectStats select_stats_;
};

}  // namespace mrmtp::ip
