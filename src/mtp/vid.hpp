// Virtual IDs (VIDs) — the heart of MR-MTP.
//
// A VID is a label path rooted at a ToR: the ToR's VID is one label derived
// from its rack subnet's third octet (192.168.11.0/24 -> "11"); each tier up
// appends the port number on which the join request arrived ("11" -> "11.1"
// -> "11.1.2"). A VID therefore *is* a loop-free route back to its root ToR,
// which is why MR-MTP needs no routing protocol and no spine addressing
// (paper §III.B).
#pragma once

#include <algorithm>
#include <array>
#include <compare>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "util/byte_io.hpp"

namespace mrmtp::mtp {

class Vid {
 public:
  /// Deepest VID a device may hold: one label per tier, so this bounds the
  /// fabric at 8 tiers (the deepest fabric built here has 4). The labels live
  /// inline, so copying, deriving and decoding a VID never allocates; a wire
  /// VID with more labels is malformed.
  static constexpr std::size_t kMaxDepth = 8;

  Vid() = default;
  explicit Vid(std::uint16_t root) : labels_{root}, depth_(1) {}
  /// Throws util::CodecError above kMaxDepth labels.
  explicit Vid(std::span<const std::uint16_t> labels) {
    check_depth(labels.size());
    std::copy(labels.begin(), labels.end(), labels_.begin());
    depth_ = static_cast<std::uint8_t>(labels.size());
  }

  /// Parses dotted form "11.1.2"; throws util::CodecError on bad input,
  /// including more than kMaxDepth labels.
  static Vid parse(std::string_view text);

  [[nodiscard]] bool empty() const { return depth_ == 0; }
  /// Number of labels; a ToR root VID has depth 1.
  [[nodiscard]] std::size_t depth() const { return depth_; }
  /// The ToR this VID's tree is rooted at.
  [[nodiscard]] std::uint16_t root() const { return labels_[0]; }
  [[nodiscard]] std::uint16_t label(std::size_t i) const { return labels_[i]; }
  [[nodiscard]] std::span<const std::uint16_t> labels() const {
    return {labels_.data(), depth_};
  }

  /// The VID an assigner derives for a joiner: itself plus the port number
  /// the join request arrived on. Throws util::CodecError at kMaxDepth.
  [[nodiscard]] Vid child(std::uint16_t port) const {
    check_depth(depth_ + std::size_t{1});
    Vid out = *this;
    out.labels_[out.depth_++] = port;
    return out;
  }

  /// Drops the last label ("11.1.2" -> "11.1"); parent of a root is empty.
  [[nodiscard]] Vid parent() const {
    if (depth_ <= 1) return Vid();
    Vid out = *this;
    --out.depth_;
    return out;
  }

  /// True if this VID lies on the path from the root to `other` (inclusive).
  [[nodiscard]] bool is_prefix_of(const Vid& other) const {
    return depth_ <= other.depth_ &&
           std::equal(labels_.begin(), labels_.begin() + depth_,
                      other.labels_.begin());
  }

  [[nodiscard]] std::string str() const;

  /// Wire form: 1-byte label count, then 2 bytes per label. Writes through
  /// any writer with the BufWriter method surface (util::BufWriter or the
  /// pooled net::BufferWriter).
  template <typename Writer>
  void serialize(Writer& w) const {
    w.u8(depth_);
    for (std::uint16_t label : labels()) w.u16(label);
  }
  /// Moves `r` past one wire VID: throws util::CodecError on zero or more
  /// than kMaxDepth labels, or on labels past the end of `r`. This is the
  /// wire check; a VID list is validated through it once (see
  /// mtp::VidListView) and then read in place with from_wire.
  static void skip_wire(util::BufReader& r) {
    const std::uint8_t count = r.u8();
    if (count == 0) throw util::CodecError("VID: zero labels");
    check_depth(count);
    r.skip(2 * std::size_t{count});
  }
  /// Decodes the wire VID at `wire` (its count byte), which skip_wire has
  /// already accepted: no checks.
  static Vid from_wire(const std::uint8_t* wire) {
    Vid out;
    out.depth_ = wire[0];
    for (std::size_t i = 0; i < out.depth_; ++i) {
      out.labels_[i] =
          static_cast<std::uint16_t>((wire[1 + 2 * i] << 8) | wire[2 + 2 * i]);
    }
    return out;
  }
  [[nodiscard]] std::size_t wire_size() const { return 1 + 2 * std::size_t{depth_}; }

  friend bool operator==(const Vid& a, const Vid& b) {
    return a.depth_ == b.depth_ &&
           std::equal(a.labels_.begin(), a.labels_.begin() + a.depth_,
                      b.labels_.begin());
  }
  /// Lexicographic over the labels, a prefix sorting first ("11" < "11.1" <
  /// "11.2" < "12"). Ordered containers of VIDs iterate in this order, and
  /// that order is what JOIN_REQUEST and VID_WITHDRAW put on the wire.
  friend std::strong_ordering operator<=>(const Vid& a, const Vid& b) {
    return std::lexicographical_compare_three_way(
        a.labels_.begin(), a.labels_.begin() + a.depth_, b.labels_.begin(),
        b.labels_.begin() + b.depth_);
  }

 private:
  static void check_depth(std::size_t depth) {
    if (depth > kMaxDepth) {
      throw util::CodecError("VID: " + std::to_string(depth) +
                             " labels exceeds max depth");
    }
  }

  std::array<std::uint16_t, kMaxDepth> labels_{};
  std::uint8_t depth_ = 0;
};

}  // namespace mrmtp::mtp

template <>
struct std::hash<mrmtp::mtp::Vid> {
  std::size_t operator()(const mrmtp::mtp::Vid& v) const noexcept {
    std::size_t h = 1469598103934665603ull;
    for (std::uint16_t label : v.labels()) {
      h = (h ^ label) * 1099511628211ull;
    }
    return h;
  }
};
