#include "ip/packet.hpp"

#include <algorithm>

namespace mrmtp::ip {

std::uint16_t internet_checksum(std::span<const std::uint8_t> data) {
  std::uint32_t sum = 0;
  std::size_t i = 0;
  for (; i + 1 < data.size(); i += 2) {
    sum += static_cast<std::uint32_t>((data[i] << 8) | data[i + 1]);
  }
  if (i < data.size()) sum += static_cast<std::uint32_t>(data[i] << 8);
  while (sum >> 16) sum = (sum & 0xffff) + (sum >> 16);
  return static_cast<std::uint16_t>(~sum);
}

std::vector<std::uint8_t> Ipv4Header::serialize(
    std::span<const std::uint8_t> payload) const {
  if (options.size() % 4 != 0 || options.size() > kMaxSize - kSize) {
    throw util::CodecError("IPv4: options must be 0..40 bytes in 32-bit words");
  }
  const std::size_t hlen = header_length();
  util::BufWriter w(hlen + payload.size());
  w.u8(static_cast<std::uint8_t>(0x40 | (hlen / 4)));
  w.u8(tos);
  w.u16(static_cast<std::uint16_t>(hlen + payload.size()));
  w.u16(identification);
  w.u16(0x4000);  // DF, no fragmentation in this fabric
  w.u8(ttl);
  w.u8(static_cast<std::uint8_t>(protocol));
  w.u16(0);  // checksum placeholder
  w.u32(src.value());
  w.u32(dst.value());
  w.bytes(options);
  std::uint16_t csum = internet_checksum(
      std::span<const std::uint8_t>(w.data().data(), hlen));
  auto out = w.take();
  out[10] = static_cast<std::uint8_t>(csum >> 8);
  out[11] = static_cast<std::uint8_t>(csum & 0xff);
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

net::Buffer Ipv4Header::encapsulate(net::Buffer payload) const {
  if (options.size() % 4 != 0 || options.size() > kMaxSize - kSize) {
    throw util::CodecError("IPv4: options must be 0..40 bytes in 32-bit words");
  }
  const std::size_t hlen = header_length();
  std::uint8_t hdr[kMaxSize];
  hdr[0] = static_cast<std::uint8_t>(0x40 | (hlen / 4));
  hdr[1] = tos;
  const auto total = static_cast<std::uint16_t>(hlen + payload.size());
  hdr[2] = static_cast<std::uint8_t>(total >> 8);
  hdr[3] = static_cast<std::uint8_t>(total & 0xff);
  hdr[4] = static_cast<std::uint8_t>(identification >> 8);
  hdr[5] = static_cast<std::uint8_t>(identification & 0xff);
  hdr[6] = 0x40;  // DF, no fragmentation in this fabric
  hdr[7] = 0x00;
  hdr[8] = ttl;
  hdr[9] = static_cast<std::uint8_t>(protocol);
  hdr[10] = 0;  // checksum placeholder
  hdr[11] = 0;
  const std::uint32_t s = src.value();
  const std::uint32_t d = dst.value();
  hdr[12] = static_cast<std::uint8_t>(s >> 24);
  hdr[13] = static_cast<std::uint8_t>((s >> 16) & 0xff);
  hdr[14] = static_cast<std::uint8_t>((s >> 8) & 0xff);
  hdr[15] = static_cast<std::uint8_t>(s & 0xff);
  hdr[16] = static_cast<std::uint8_t>(d >> 24);
  hdr[17] = static_cast<std::uint8_t>((d >> 16) & 0xff);
  hdr[18] = static_cast<std::uint8_t>((d >> 8) & 0xff);
  hdr[19] = static_cast<std::uint8_t>(d & 0xff);
  std::copy(options.begin(), options.end(), hdr + kSize);
  const std::uint16_t csum =
      internet_checksum(std::span<const std::uint8_t>(hdr, hlen));
  hdr[10] = static_cast<std::uint8_t>(csum >> 8);
  hdr[11] = static_cast<std::uint8_t>(csum & 0xff);
  payload.prepend(std::span<const std::uint8_t>(hdr, hlen));
  return payload;
}

void Ipv4Header::decrement_ttl(net::Buffer& packet) {
  if (packet.size() < kSize) throw util::CodecError("IPv4: header truncated");
  std::uint8_t* p = packet.mutable_data();
  const std::size_t ihl = static_cast<std::size_t>(p[0] & 0xf) * 4;
  if (ihl < kSize) throw util::CodecError("IPv4: IHL below 5");
  if (ihl > packet.size()) throw util::CodecError("IPv4: header truncated");
  --p[8];
  p[10] = 0;
  p[11] = 0;
  const std::uint16_t csum =
      internet_checksum(std::span<const std::uint8_t>(p, ihl));
  p[10] = static_cast<std::uint8_t>(csum >> 8);
  p[11] = static_cast<std::uint8_t>(csum & 0xff);
}

Ipv4Header Ipv4Header::parse(std::span<const std::uint8_t> data,
                             std::span<const std::uint8_t>& out_payload) {
  util::BufReader r(data);
  std::uint8_t ver_ihl = r.u8();
  if ((ver_ihl >> 4) != 4) throw util::CodecError("IPv4: bad version");
  std::size_t ihl = static_cast<std::size_t>(ver_ihl & 0xf) * 4;
  if (ihl < kSize) throw util::CodecError("IPv4: IHL below 5");
  if (ihl > data.size()) throw util::CodecError("IPv4: header truncated");

  Ipv4Header h;
  h.tos = r.u8();
  std::uint16_t total_length = r.u16();
  h.identification = r.u16();
  r.u16();  // flags/frag
  h.ttl = r.u8();
  h.protocol = static_cast<IpProto>(r.u8());
  r.u16();  // checksum (verified over the whole header below)
  h.src = Ipv4Addr(r.u32());
  h.dst = Ipv4Addr(r.u32());
  h.options.assign(data.data() + kSize, data.data() + ihl);

  if (total_length < ihl || total_length > data.size()) {
    throw util::CodecError("IPv4: bad total length");
  }
  if (internet_checksum(data.subspan(0, ihl)) != 0) {
    throw util::CodecError("IPv4: header checksum mismatch");
  }
  out_payload = data.subspan(ihl, total_length - ihl);
  return h;
}

std::size_t Ipv4Header::payload_offset(std::span<const std::uint8_t> packet) {
  if (packet.empty()) throw util::CodecError("IPv4: empty packet");
  std::size_t ihl = static_cast<std::size_t>(packet[0] & 0xf) * 4;
  if (ihl < kSize) throw util::CodecError("IPv4: IHL below 5");
  return ihl;
}

}  // namespace mrmtp::ip
