#include "bgp/message.hpp"

namespace mrmtp::bgp {

namespace {

constexpr std::uint8_t kAttrFlagsTransitive = 0x40;
constexpr std::uint8_t kAttrOrigin = 1;
constexpr std::uint8_t kAttrAsPath = 2;
constexpr std::uint8_t kAttrNextHop = 3;
constexpr std::uint8_t kAsSequence = 2;

void write_prefix(net::BufferWriter& w, const ip::Ipv4Prefix& p) {
  w.u8(p.length());
  std::uint32_t v = p.network().value();
  for (int i = 0; i < (p.length() + 7) / 8; ++i) {
    w.u8(static_cast<std::uint8_t>(v >> (24 - 8 * i)));
  }
}

ip::Ipv4Prefix read_prefix(util::BufReader& r) {
  std::uint8_t len = r.u8();
  if (len > 32) throw util::CodecError("BGP: bad prefix length");
  std::uint32_t v = 0;
  for (int i = 0; i < (len + 7) / 8; ++i) {
    v |= static_cast<std::uint32_t>(r.u8()) << (24 - 8 * i);
  }
  return {ip::Ipv4Addr(v), len};
}

void write_header(net::BufferWriter& w, MessageType type) {
  for (int i = 0; i < 16; ++i) w.u8(0xff);  // marker
  w.u16(0);                                 // length, patched by finish()
  w.u8(static_cast<std::uint8_t>(type));
}

net::Buffer finish(net::BufferWriter& w) {
  w.patch_u16(16, static_cast<std::uint16_t>(w.size()));
  return w.take();
}

}  // namespace

net::Buffer encode(const UpdateMessage& update) {
  net::BufferWriter w(64);
  write_header(w, MessageType::kUpdate);
  // Withdrawn routes.
  std::size_t withdrawn_len_at = w.size();
  w.u16(0);
  for (const auto& p : update.withdrawn) write_prefix(w, p);
  w.patch_u16(withdrawn_len_at,
              static_cast<std::uint16_t>(w.size() - withdrawn_len_at - 2));
  // Path attributes.
  std::size_t attrs_len_at = w.size();
  w.u16(0);
  if (update.has_nlri()) {
    w.u8(kAttrFlagsTransitive);
    w.u8(kAttrOrigin);
    w.u8(1);
    w.u8(0);  // IGP
    w.u8(kAttrFlagsTransitive);
    w.u8(kAttrAsPath);
    w.u8(static_cast<std::uint8_t>(
        update.as_path.empty() ? 0 : 2 + 4 * update.as_path.size()));
    if (!update.as_path.empty()) {
      w.u8(kAsSequence);
      w.u8(static_cast<std::uint8_t>(update.as_path.size()));
      for (std::uint32_t asn : update.as_path) w.u32(asn);
    }
    w.u8(kAttrFlagsTransitive);
    w.u8(kAttrNextHop);
    w.u8(4);
    w.u32(update.next_hop.value());
  }
  w.patch_u16(attrs_len_at,
              static_cast<std::uint16_t>(w.size() - attrs_len_at - 2));
  for (const auto& p : update.nlri) write_prefix(w, p);
  return finish(w);
}

net::Buffer encode(const BgpMessage& msg) {
  if (const auto* update = std::get_if<UpdateMessage>(&msg)) {
    return encode(*update);
  }
  net::BufferWriter w(64);
  if (std::holds_alternative<KeepaliveMessage>(msg)) {
    write_header(w, MessageType::kKeepalive);
  } else if (const auto* open = std::get_if<OpenMessage>(&msg)) {
    write_header(w, MessageType::kOpen);
    w.u8(4);  // version
    // 2-byte my-AS field; 4-byte ASNs above 65535 use AS_TRANS (RFC 6793).
    w.u16(open->asn > 65535 ? 23456 : static_cast<std::uint16_t>(open->asn));
    w.u16(open->hold_time_s);
    w.u32(open->bgp_id);
    w.u8(0);  // no optional parameters
  } else {
    const auto& notif = std::get<NotificationMessage>(msg);
    write_header(w, MessageType::kNotification);
    w.u8(notif.code);
    w.u8(notif.subcode);
  }
  return finish(w);
}

void MessageReader::append(std::span<const std::uint8_t> data) {
  if (head_ > 0) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
  buffer_.insert(buffer_.end(), data.begin(), data.end());
}

std::optional<BgpMessage> MessageReader::next() {
  const std::uint8_t* at = buffer_.data() + head_;
  const std::size_t available = buffer_.size() - head_;
  if (available < kHeaderSize) return std::nullopt;
  std::size_t length = (static_cast<std::size_t>(at[16]) << 8) | at[17];
  if (length < kHeaderSize || length > 4096) {
    throw util::CodecError("BGP: bad message length");
  }
  if (available < length) return std::nullopt;

  util::BufReader r(std::span<const std::uint8_t>(at, length));
  for (int i = 0; i < 16; ++i) {
    if (r.u8() != 0xff) throw util::CodecError("BGP: bad marker");
  }
  r.u16();  // length (validated above)
  auto type = static_cast<MessageType>(r.u8());

  BgpMessage msg = KeepaliveMessage{};
  switch (type) {
    case MessageType::kKeepalive:
      break;
    case MessageType::kOpen: {
      OpenMessage open;
      if (r.u8() != 4) throw util::CodecError("BGP: bad version");
      open.asn = r.u16();
      open.hold_time_s = r.u16();
      open.bgp_id = r.u32();
      std::uint8_t opt_len = r.u8();
      r.skip(opt_len);
      msg = open;
      break;
    }
    case MessageType::kNotification: {
      NotificationMessage notif;
      notif.code = r.u8();
      notif.subcode = r.u8();
      msg = notif;
      break;
    }
    case MessageType::kUpdate: {
      UpdateMessage update;
      std::uint16_t withdrawn_len = r.u16();
      std::size_t withdrawn_end = r.position() + withdrawn_len;
      while (r.position() < withdrawn_end) {
        update.withdrawn.push_back(read_prefix(r));
      }
      std::uint16_t attrs_len = r.u16();
      std::size_t attrs_end = r.position() + attrs_len;
      while (r.position() < attrs_end) {
        std::uint8_t flags = r.u8();
        (void)flags;
        std::uint8_t attr_type = r.u8();
        std::uint8_t attr_len = r.u8();
        switch (attr_type) {
          case kAttrOrigin:
            r.skip(attr_len);
            break;
          case kAttrAsPath: {
            std::size_t end = r.position() + attr_len;
            if (attr_len > 0) {
              r.u8();  // segment type (AS_SEQUENCE)
              std::uint8_t count = r.u8();
              for (int i = 0; i < count; ++i) update.as_path.push_back(r.u32());
            }
            if (r.position() != end) throw util::CodecError("BGP: AS_PATH");
            break;
          }
          case kAttrNextHop:
            update.next_hop = ip::Ipv4Addr(r.u32());
            break;
          default:
            r.skip(attr_len);
        }
      }
      while (r.remaining() > 0) update.nlri.push_back(read_prefix(r));
      msg = std::move(update);
      break;
    }
    default:
      throw util::CodecError("BGP: unknown message type");
  }

  head_ += length;
  if (head_ == buffer_.size()) {
    buffer_.clear();
    head_ = 0;
  }
  return msg;
}

}  // namespace mrmtp::bgp
