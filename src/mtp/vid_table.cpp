#include "mtp/vid_table.hpp"

#include <algorithm>

namespace mrmtp::mtp {

namespace {
/// Storage model behind memory_bytes(): each entry is a port plus a
/// heap-held label list — 32 B of entry and list handle, then 2 B per
/// label. It is the model the Listings 3/5 table-size comparison has always
/// reported, fixed here rather than taken from sizeof(VidEntry) so that the
/// paper's bytes column does not move when the host-side layout does (VIDs
/// keep their labels inline, which is smaller).
constexpr std::size_t kEntryModelBytes = 32;
constexpr std::size_t kLabelModelBytes = 2;

void erase_from(std::vector<VidEntry>& v, const Vid& vid) {
  v.erase(std::remove_if(v.begin(), v.end(),
                         [&](const VidEntry& e) { return e.vid == vid; }),
          v.end());
}
}  // namespace

void VidTable::drop_bucket_if_empty(std::uint16_t root) {
  const std::int32_t pos = bucket_of(root);
  if (pos < 0 || !buckets_[static_cast<std::size_t>(pos)].empty()) return;
  const std::size_t last = buckets_.size() - 1;
  const auto upos = static_cast<std::size_t>(pos);
  if (upos != last) {  // swap-remove; re-point the moved root's slot
    roots_[upos] = roots_[last];
    buckets_[upos] = std::move(buckets_[last]);
    root_pos_[roots_[upos]] = pos;
  }
  roots_.pop_back();
  buckets_.pop_back();
  root_pos_[root] = -1;
}

bool VidTable::add(Vid vid, std::uint32_t port) {
  if (contains(vid)) return false;
  VidEntry entry{std::move(vid), port};
  const std::uint16_t root = entry.vid.root();
  if (root >= root_pos_.size()) root_pos_.resize(root + 1, -1);
  std::int32_t pos = root_pos_[root];
  if (pos < 0) {
    pos = static_cast<std::int32_t>(buckets_.size());
    root_pos_[root] = pos;
    roots_.push_back(root);
    buckets_.emplace_back();
  }
  buckets_[static_cast<std::size_t>(pos)].push_back(entry);
  entries_.push_back(std::move(entry));
  ++version_;
  return true;
}

bool VidTable::remove(const Vid& vid) {
  auto it = std::find_if(entries_.begin(), entries_.end(),
                         [&](const VidEntry& e) { return e.vid == vid; });
  if (it == entries_.end()) return false;
  const std::int32_t pos = bucket_of(vid.root());
  if (pos >= 0) {
    erase_from(buckets_[static_cast<std::size_t>(pos)], vid);
    drop_bucket_if_empty(vid.root());
  }
  entries_.erase(it);
  ++version_;
  return true;
}

std::vector<VidEntry> VidTable::remove_port(std::uint32_t port) {
  std::vector<VidEntry> removed;
  auto it = std::remove_if(entries_.begin(), entries_.end(),
                           [&](const VidEntry& e) {
                             if (e.port == port) {
                               removed.push_back(e);
                               return true;
                             }
                             return false;
                           });
  entries_.erase(it, entries_.end());
  if (!removed.empty()) ++version_;
  for (const VidEntry& e : removed) {
    const std::int32_t pos = bucket_of(e.vid.root());
    if (pos < 0) continue;
    erase_from(buckets_[static_cast<std::size_t>(pos)], e.vid);
    drop_bucket_if_empty(e.vid.root());
  }
  return removed;
}

const VidEntry* VidTable::find(const Vid& vid) const {
  for (const auto& e : entries_for_root(vid.root())) {
    if (e.vid == vid) return &e;
  }
  return nullptr;
}

bool VidTable::has_root(std::uint16_t root) const {
  return bucket_of(root) >= 0;  // empty buckets are dropped eagerly
}

const std::vector<VidEntry>& VidTable::entries_for_root(
    std::uint16_t root) const {
  static const std::vector<VidEntry> kEmpty;
  const std::int32_t pos = bucket_of(root);
  return pos < 0 ? kEmpty : buckets_[static_cast<std::size_t>(pos)];
}

std::string VidTable::dump() const {
  // Group by port, Listing 5 style: "eth2    37.1.1, 38.1.1".
  std::map<std::uint32_t, std::vector<const VidEntry*>> by_port;
  for (const auto& e : entries_) by_port[e.port].push_back(&e);

  std::string out;
  for (const auto& [port, entries] : by_port) {
    out += port == 0 ? "self" : ("eth" + std::to_string(port));
    out += "\t";
    for (std::size_t i = 0; i < entries.size(); ++i) {
      if (i != 0) out += ", ";
      out += entries[i]->vid.str();
    }
    out += "\n";
  }
  return out;
}

std::size_t VidTable::memory_bytes() const {
  std::size_t bytes = 0;
  for (const auto& e : entries_) {
    bytes += kEntryModelBytes + e.vid.depth() * kLabelModelBytes;
  }
  return bytes;
}

bool ExclusionTable::exclude(std::uint16_t root, std::uint32_t port) {
  return excluded_[root].insert(port).second;
}

bool ExclusionTable::clear(std::uint16_t root, std::uint32_t port) {
  auto it = excluded_.find(root);
  if (it == excluded_.end()) return false;
  bool erased = it->second.erase(port) > 0;
  if (it->second.empty()) excluded_.erase(it);
  return erased;
}

void ExclusionTable::clear_port(std::uint32_t port) {
  for (auto it = excluded_.begin(); it != excluded_.end();) {
    it->second.erase(port);
    it = it->second.empty() ? excluded_.erase(it) : std::next(it);
  }
}

bool ExclusionTable::is_excluded(std::uint16_t root, std::uint32_t port) const {
  auto it = excluded_.find(root);
  return it != excluded_.end() && it->second.contains(port);
}

std::size_t ExclusionTable::size() const {
  std::size_t n = 0;
  for (const auto& [root, ports] : excluded_) n += ports.size();
  return n;
}

std::string ExclusionTable::dump() const {
  std::string out;
  for (const auto& [root, ports] : excluded_) {
    out += "dest " + std::to_string(root) + " avoid:";
    for (std::uint32_t p : ports) out += " eth" + std::to_string(p);
    out += "\n";
  }
  return out;
}

}  // namespace mrmtp::mtp
