// MR-MTP message codecs, carried directly in Ethernet frames with the
// paper's EtherType 0x8850 and broadcast destination MAC (links are
// point-to-point, so no ARP is needed — paper §VII.F).
//
// The HELLO keep-alive is a single byte 0x06, matching the paper's Fig. 10
// capture ("Data: 06, [Length: 1]"). Control messages that mutate state
// (offers, withdrawals, unreachability updates) carry a 16-bit message id
// and are acknowledged with CTRL_ACK — the paper's "request-response and
// accept-acknowledge" reliability that lets MR-MTP dispense with TCP.
#pragma once

#include <cstdint>
#include <iterator>
#include <span>
#include <variant>
#include <vector>

#include "mtp/vid.hpp"
#include "net/buffer.hpp"

namespace mrmtp::mtp {

/// EtherType value from the paper (an unassigned type).
constexpr std::uint16_t kMtpEtherType = 0x8850;

enum class MsgType : std::uint8_t {
  kHello = 0x06,  // the single keep-alive byte seen in the paper's capture
  kAdvertise = 0x01,
  kJoinRequest = 0x02,
  kJoinOffer = 0x03,
  kCtrlAck = 0x04,
  kVidWithdraw = 0x05,
  kDestUnreach = 0x07,
  kDestClear = 0x08,
  kData = 0x09,
};


/// 1-byte keep-alive.
struct HelloMsg {};

/// Sender announces its tier and the VIDs it holds; upstream neighbors
/// respond with join requests for trees they have not joined on this link.
struct AdvertiseMsg {
  std::uint8_t tier = 0;
  /// Monotonic per-sender statement number (OSPF-LSA style). Links may
  /// duplicate frames and deliver the copy late; without an ordering mark a
  /// stale full statement can arrive after a newer one and falsely prune
  /// assignments made in between. Receivers discard seq <= last seen;
  /// seq 0 (hand-crafted frames) is always accepted.
  std::uint32_t seq = 0;
  std::vector<Vid> vids;
};

/// A wire VID list read in place: the count byte, then each VID as
/// Vid::serialize writes it. parse() validates the whole list in one pass,
/// or only the VIDs after a prefix it accepted earlier; iteration then
/// decodes each VID by value straight from the bytes, with no further
/// check. Non-owning: whoever reads through the view keeps the bytes alive
/// (a router holds the frame's slab while it handles the message, and the
/// last upstream statement's slab until the next one).
class VidListView {
 public:
  class Iterator {
   public:
    using iterator_concept = std::forward_iterator_tag;
    using iterator_category = std::input_iterator_tag;  // yields by value
    using value_type = Vid;
    using difference_type = std::ptrdiff_t;
    using reference = Vid;
    using pointer = void;

    Iterator() = default;
    explicit Iterator(const std::uint8_t* at) : at_(at) {}
    Vid operator*() const { return Vid::from_wire(at_); }
    /// The current VID's root, read without decoding the rest of it.
    [[nodiscard]] std::uint16_t root() const {
      return static_cast<std::uint16_t>((at_[1] << 8) | at_[2]);
    }
    Iterator& operator++() {
      at_ += 1 + 2 * std::size_t{*at_};
      return *this;
    }
    Iterator operator++(int) {
      Iterator before = *this;
      ++*this;
      return before;
    }
    friend bool operator==(Iterator, Iterator) = default;

   private:
    const std::uint8_t* at_ = nullptr;  // the current VID's count byte
  };

  VidListView() = default;
  /// Validates the list at the front of `wire` (bytes after it are not
  /// read): the count byte, then every VID with 1..Vid::kMaxDepth labels and
  /// all its bytes in bounds. Throws util::CodecError otherwise.
  static VidListView parse(std::span<const std::uint8_t> wire) {
    return parse(wire, {});
  }
  /// parse() resumed after `known`, a list parse() accepted earlier that
  /// leads `wire` (checked with leads()): those VIDs are known valid, so
  /// only the ones after them are read.
  static VidListView parse(std::span<const std::uint8_t> wire,
                           const VidListView& known);

  /// True when the list at the front of `wire` starts with this list's VIDs,
  /// byte for byte: its count is at least size() and one memcmp matches.
  /// An empty list leads nothing (there would be nothing to skip).
  [[nodiscard]] bool leads(std::span<const std::uint8_t> wire) const;
  /// The VIDs after the first prefix.size(), where `prefix` leads this list.
  [[nodiscard]] VidListView after(const VidListView& prefix) const {
    return VidListView(vids_.subspan(prefix.vids_.size()), size_ - prefix.size_);
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] Iterator begin() const { return Iterator(vids_.data()); }
  [[nodiscard]] Iterator end() const {
    return Iterator(vids_.data() + vids_.size());
  }
  /// True if the list carries `vid`; compares wire bytes, decodes nothing.
  [[nodiscard]] bool contains(const Vid& vid) const;

 private:
  VidListView(std::span<const std::uint8_t> vids, std::size_t size)
      : vids_(vids), size_(size) {}

  std::span<const std::uint8_t> vids_;  // the VIDs, count byte excluded
  std::size_t size_ = 0;
};

/// A received ADVERTISE read in place (see VidListView): what a router
/// handles, so no statement is copied out of its frame.
struct AdvertiseView {
  std::uint8_t tier = 0;
  std::uint32_t seq = 0;
  VidListView vids;
  /// True when `vids` starts with the `held` list given to decode_advertise.
  bool extends_held = false;
  /// The VIDs after that list when extends_held, else all of `vids`.
  VidListView added;
};

/// Upstream device asks to join the advertised trees (listing the
/// advertiser's VIDs it wants children of).
struct JoinRequestMsg {
  std::vector<Vid> vids;
};

/// Assigner's reply: the derived child VIDs (base + arrival port).
struct JoinOfferMsg {
  std::uint16_t msg_id = 0;
  std::vector<Vid> vids;
};

/// Acknowledges a reliable control message by id.
struct CtrlAckMsg {
  std::uint16_t msg_id = 0;
};

/// Travels up: these VIDs (children the receiver acquired from the sender)
/// are gone; receivers prune and propagate further up.
struct VidWithdrawMsg {
  std::uint16_t msg_id = 0;
  std::vector<Vid> vids;
};

/// Travels down: the sender can no longer reach these ToR trees at all;
/// receivers exclude this port for those destinations.
struct DestUnreachMsg {
  std::uint16_t msg_id = 0;
  std::vector<std::uint16_t> roots;
};

/// Travels down: reachability restored; receivers clear exclusions.
struct DestClearMsg {
  std::uint16_t msg_id = 0;
  std::vector<std::uint16_t> roots;
};

/// An encapsulated IP packet: 2-byte source and destination ToR VIDs plus a
/// TTL backstop, then the untouched IP packet (paper §III.D). The packet is
/// a pooled Buffer view — encapsulation prepends the 6-byte MTP header into
/// its headroom and decapsulation slices it back out, so the IP bytes are
/// never re-serialized while crossing the fabric.
struct DataMsg {
  static constexpr std::size_t kHeaderSize = 6;  // type + roots + ttl

  std::uint16_t src_root = 0;
  std::uint16_t dst_root = 0;
  std::uint8_t ttl = 16;
  net::Buffer ip_packet;
};

using MtpMessage =
    std::variant<HelloMsg, AdvertiseMsg, JoinRequestMsg, JoinOfferMsg,
                 CtrlAckMsg, VidWithdrawMsg, DestUnreachMsg, DestClearMsg,
                 DataMsg>;

/// Most entries a VID or root list can carry: its count is one byte.
constexpr std::size_t kMaxListEntries = 255;

/// The count byte in front of a list of `entries` VIDs or roots. Throws
/// util::CodecError above kMaxListEntries: a wrapped count would make the
/// receiver decode a truncated list.
[[nodiscard]] std::uint8_t list_count(std::size_t entries);

/// Serializes into a pooled Buffer. Takes the message by value: a DataMsg
/// moved in keeps a unique payload slab, so the 6-byte header lands in its
/// headroom in place — pass `MtpMessage{std::move(data_msg)}` on the hot
/// path. Control messages serialize through a pooled writer either way.
[[nodiscard]] net::Buffer encode(MtpMessage msg);
/// Throws util::CodecError on malformed frames. Takes the payload by value:
/// a kData payload moved in is *sliced*, not copied — DataMsg::ip_packet
/// shares the frame's slab at offset 6.
[[nodiscard]] MtpMessage decode(net::Buffer payload);

/// An ADVERTISE from a pre-encoded VID list (count byte, then each VID, as
/// encode writes it): the type, tier and seq, then `vid_list` copied once
/// into a pooled buffer of the frame's size. The bytes equal
/// encode(AdvertiseMsg{tier, seq, vids}) for the `vids` that `vid_list`
/// encodes, so a sender can encode its table once and reuse it.
[[nodiscard]] net::Buffer encode_advertise(std::uint8_t tier, std::uint32_t seq,
                                           std::span<const std::uint8_t> vid_list);
/// Validates an ADVERTISE payload and views it in place: the result reads
/// `payload`'s bytes, so it is valid only while they are. Throws
/// util::CodecError on a malformed payload or one of another type. decode()
/// reads every VID list through the same validator (VidListView::parse).
/// `held` is a list this validator accepted earlier (a router passes the
/// last statement from the same neighbor): when it leads the payload's
/// list, only the VIDs after it are validated, so a re-sent statement with
/// VIDs appended costs what it adds.
[[nodiscard]] AdvertiseView decode_advertise(std::span<const std::uint8_t> payload,
                                             const VidListView& held = {});

[[nodiscard]] MsgType type_of(const MtpMessage& msg);

}  // namespace mrmtp::mtp
