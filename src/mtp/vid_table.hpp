// The VID table: every VID a device has acquired, with the port it was
// acquired on (paper Fig. 2 side tables, Listing 5). Downward forwarding is
// a root lookup; the table also drives withdrawal pruning on failures.
//
// The exclusion table is the failure-time companion: destination roots that
// must not be load-balanced toward a given upstream port because the device
// up there lost its last path to that ToR tree.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "mtp/vid.hpp"

namespace mrmtp::mtp {

struct VidEntry {
  Vid vid;
  std::uint32_t port = 0;  // acquisition port; 0 for a ToR's own root VID

  auto operator<=>(const VidEntry&) const = default;
};

class VidTable {
 public:
  /// Adds an entry; returns false (no-op) if the VID is already present.
  bool add(Vid vid, std::uint32_t port);

  bool remove(const Vid& vid);

  /// Removes every VID acquired on `port`; returns the removed entries.
  std::vector<VidEntry> remove_port(std::uint32_t port);

  [[nodiscard]] const VidEntry* find(const Vid& vid) const;
  [[nodiscard]] bool contains(const Vid& vid) const { return find(vid) != nullptr; }

  /// True if any held VID is rooted at `root`.
  [[nodiscard]] bool has_root(std::uint16_t root) const;

  /// All entries rooted at `root` (the candidates for downward forwarding).
  /// Returns a reference into a per-root index maintained across mutations:
  /// the data path calls this once per packet and must not allocate.
  [[nodiscard]] const std::vector<VidEntry>& entries_for_root(
      std::uint16_t root) const;

  [[nodiscard]] const std::vector<VidEntry>& entries() const { return entries_; }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  /// Bumped by every change to the entries and never reset, so an unchanged
  /// version means unchanged entries: a router re-sends the table's encoded
  /// form until this moves.
  [[nodiscard]] std::uint64_t version() const { return version_; }

  /// Paper Listing 5 rendering: one line per port, comma-separated VIDs.
  [[nodiscard]] std::string dump() const;

  /// Modelled table bytes (32 B per entry plus 2 B per label) — compared
  /// against the BGP RouteTable in the table-size experiment.
  [[nodiscard]] std::size_t memory_bytes() const;

  void clear() {
    ++version_;
    entries_.clear();
    root_pos_.clear();
    roots_.clear();
    buckets_.clear();
  }

 private:
  /// Bucket index for `root`, or -1. O(1) array load — the downward data
  /// path resolves its per-root candidate set with no tree or hash walk.
  [[nodiscard]] std::int32_t bucket_of(std::uint16_t root) const {
    return root < root_pos_.size() ? root_pos_[root] : -1;
  }
  void drop_bucket_if_empty(std::uint16_t root);

  std::vector<VidEntry> entries_;
  std::uint64_t version_ = 0;
  /// Per-root candidate index as a structure-of-arrays slab: `root_pos_` is
  /// dense by root value (grown to the highest root seen, -1 = absent);
  /// `roots_`/`buckets_` are parallel arrays of the live roots and their
  /// candidate sets, compacted by swap-remove when a root empties. Roots are
  /// ToR VIDs — small integers — so the dense map costs a few KB per router
  /// and the hot path is one load + one indexed vector, replacing the old
  /// std::map node walk per packet.
  std::vector<std::int32_t> root_pos_;
  std::vector<std::uint16_t> roots_;
  std::vector<std::vector<VidEntry>> buckets_;
};

class ExclusionTable {
 public:
  /// Marks `port` unusable for destination tree `root`; true if new.
  bool exclude(std::uint16_t root, std::uint32_t port);
  /// Clears one exclusion; true if it existed.
  bool clear(std::uint16_t root, std::uint32_t port);
  /// Drops every exclusion referencing `port` (port came back / was pruned).
  void clear_port(std::uint32_t port);
  /// Drops everything (node reboot).
  void clear_all() { excluded_.clear(); }

  [[nodiscard]] bool is_excluded(std::uint16_t root, std::uint32_t port) const;
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::string dump() const;

 private:
  std::map<std::uint16_t, std::set<std::uint32_t>> excluded_;
};

}  // namespace mrmtp::mtp
