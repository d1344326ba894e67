// BGP-4 message codecs (RFC 4271), the subset a datacenter eBGP deployment
// uses: OPEN, UPDATE (ORIGIN / AS_PATH / NEXT_HOP attributes, IPv4 NLRI and
// withdrawals), KEEPALIVE, NOTIFICATION. AS numbers are carried 4-byte wide
// in AS_PATH (RFC 6793 style). Sizes on the wire are exact: a KEEPALIVE is
// 19 bytes, which at L2 under TCP-lite gives the paper's 85-byte frames.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <variant>
#include <vector>

#include "ip/addr.hpp"
#include "net/buffer.hpp"
#include "util/byte_io.hpp"

namespace mrmtp::bgp {

constexpr std::uint16_t kBgpPort = 179;
constexpr std::size_t kHeaderSize = 19;

enum class MessageType : std::uint8_t {
  kOpen = 1,
  kUpdate = 2,
  kNotification = 3,
  kKeepalive = 4,
};

struct OpenMessage {
  std::uint32_t asn = 0;
  std::uint16_t hold_time_s = 3;
  std::uint32_t bgp_id = 0;
};

struct UpdateMessage {
  std::vector<ip::Ipv4Prefix> withdrawn;
  /// Attributes; meaningful only when nlri is non-empty.
  std::vector<std::uint32_t> as_path;
  ip::Ipv4Addr next_hop;
  std::vector<ip::Ipv4Prefix> nlri;

  [[nodiscard]] bool has_nlri() const { return !nlri.empty(); }
};

struct NotificationMessage {
  std::uint8_t code = 6;     // Cease
  std::uint8_t subcode = 0;
};

struct KeepaliveMessage {};

using BgpMessage = std::variant<OpenMessage, UpdateMessage,
                                NotificationMessage, KeepaliveMessage>;

/// Serializes into a pooled buffer behind Buffer::kDefaultHeadroom, so
/// TCP-lite and IP prepend their headers in place.
[[nodiscard]] net::Buffer encode(const BgpMessage& msg);
/// The UPDATE case without building a variant (the speaker reuses one
/// UpdateMessage for every UPDATE it sends).
[[nodiscard]] net::Buffer encode(const UpdateMessage& update);

/// Reassembles BGP messages from TCP stream bytes.
class MessageReader {
 public:
  void append(std::span<const std::uint8_t> data);

  /// Extracts the next complete message; std::nullopt if more bytes are
  /// needed. Throws util::CodecError on malformed input (session reset).
  std::optional<BgpMessage> next();

  [[nodiscard]] std::size_t buffered() const { return buffer_.size() - head_; }

 private:
  /// Stream bytes; the unread ones start at head_ (consumed messages are
  /// dropped on the next append instead of shifting the tail per message).
  std::vector<std::uint8_t> buffer_;
  std::size_t head_ = 0;
};

}  // namespace mrmtp::bgp
