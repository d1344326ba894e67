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

[[nodiscard]] std::string_view to_string(MsgType t);

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
/// Decodes an ADVERTISE payload into `out`, reusing the capacity of
/// `out.vids`: a receiver that keeps one AdvertiseMsg decodes every
/// statement without allocating once it has seen the longest. decode() goes
/// through this routine too. Throws util::CodecError on a malformed payload
/// or one of another type.
void decode_advertise(std::span<const std::uint8_t> payload, AdvertiseMsg& out);

[[nodiscard]] MsgType type_of(const MtpMessage& msg);

}  // namespace mrmtp::mtp
