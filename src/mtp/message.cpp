#include "mtp/message.hpp"

#include <array>
#include <cstring>

namespace mrmtp::mtp {

namespace {

template <typename Writer>
void write_vids(Writer& w, const std::vector<Vid>& vids) {
  w.u8(list_count(vids.size()));
  for (const Vid& v : vids) v.serialize(w);
}

/// An owning copy of a validated list, for the messages decode() returns.
std::vector<Vid> to_vector(const VidListView& list) {
  std::vector<Vid> out;
  out.reserve(list.size());
  for (const Vid v : list) out.push_back(v);
  return out;
}

/// A VID list is the last field of every message that carries one, so it
/// is read from the rest of the payload.
std::vector<Vid> read_vids(util::BufReader& r) {
  return to_vector(VidListView::parse(r.rest()));
}

template <typename Writer>
void write_roots(Writer& w, const std::vector<std::uint16_t>& roots) {
  w.u8(list_count(roots.size()));
  for (std::uint16_t root : roots) w.u16(root);
}

std::vector<std::uint16_t> read_roots(util::BufReader& r) {
  std::uint8_t count = r.u8();
  std::vector<std::uint16_t> out;
  out.reserve(count);
  for (int i = 0; i < count; ++i) out.push_back(r.u16());
  return out;
}

/// Type, tier and seq: the ADVERTISE bytes in front of the VID list.
constexpr std::size_t kAdvertiseHeader = 6;

AdvertiseView read_advertise(util::BufReader& r, const VidListView& held) {
  AdvertiseView out;
  out.tier = r.u8();
  out.seq = r.u32();
  const std::span<const std::uint8_t> list = r.rest();
  out.extends_held = held.leads(list);
  const VidListView known = out.extends_held ? held : VidListView{};
  out.vids = VidListView::parse(list, known);
  out.added = out.vids.after(known);
  return out;
}

}  // namespace

VidListView VidListView::parse(std::span<const std::uint8_t> wire,
                               const VidListView& known) {
  util::BufReader r(wire);
  const std::size_t count = r.u8();
  r.skip(known.vids_.size());
  for (std::size_t i = known.size_; i < count; ++i) Vid::skip_wire(r);
  return VidListView(wire.subspan(1, r.position() - 1), count);
}

bool VidListView::leads(std::span<const std::uint8_t> wire) const {
  return size_ != 0 && wire.size() > vids_.size() && wire[0] >= size_ &&
         std::memcmp(wire.data() + 1, vids_.data(), vids_.size()) == 0;
}

bool VidListView::contains(const Vid& vid) const {
  std::array<std::uint8_t, 2 * Vid::kMaxDepth> labels{};
  for (std::size_t i = 0; i < vid.depth(); ++i) {
    labels[2 * i] = static_cast<std::uint8_t>(vid.label(i) >> 8);
    labels[2 * i + 1] = static_cast<std::uint8_t>(vid.label(i) & 0xff);
  }
  const std::uint8_t* at = vids_.data();
  const std::uint8_t* const end = at + vids_.size();
  for (; at != end; at += 1 + 2 * std::size_t{*at}) {
    if (*at == vid.depth() && std::memcmp(at + 1, labels.data(), 2 * *at) == 0) {
      return true;
    }
  }
  return false;
}

std::uint8_t list_count(std::size_t entries) {
  if (entries > kMaxListEntries) {
    throw util::CodecError("MTP: list of " + std::to_string(entries) +
                           " entries exceeds the 1-byte count");
  }
  return static_cast<std::uint8_t>(entries);
}

MsgType type_of(const MtpMessage& msg) {
  return std::visit(
      [](const auto& m) -> MsgType {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, HelloMsg>) return MsgType::kHello;
        else if constexpr (std::is_same_v<T, AdvertiseMsg>) return MsgType::kAdvertise;
        else if constexpr (std::is_same_v<T, JoinRequestMsg>) return MsgType::kJoinRequest;
        else if constexpr (std::is_same_v<T, JoinOfferMsg>) return MsgType::kJoinOffer;
        else if constexpr (std::is_same_v<T, CtrlAckMsg>) return MsgType::kCtrlAck;
        else if constexpr (std::is_same_v<T, VidWithdrawMsg>) return MsgType::kVidWithdraw;
        else if constexpr (std::is_same_v<T, DestUnreachMsg>) return MsgType::kDestUnreach;
        else if constexpr (std::is_same_v<T, DestClearMsg>) return MsgType::kDestClear;
        else return MsgType::kData;
      },
      msg);
}

net::Buffer encode(MtpMessage msg) {
  // Data path: prepend the 6-byte header over the IP packet's headroom —
  // in place when the caller moved a uniquely owned payload in, a counted
  // pool copy otherwise. Identical bytes either way.
  if (auto* d = std::get_if<DataMsg>(&msg)) {
    const std::uint8_t hdr[DataMsg::kHeaderSize] = {
        static_cast<std::uint8_t>(MsgType::kData),
        static_cast<std::uint8_t>(d->src_root >> 8),
        static_cast<std::uint8_t>(d->src_root & 0xff),
        static_cast<std::uint8_t>(d->dst_root >> 8),
        static_cast<std::uint8_t>(d->dst_root & 0xff),
        d->ttl};
    net::Buffer out = std::move(d->ip_packet);
    out.prepend(hdr);
    return out;
  }

  net::BufferWriter w(32);
  w.u8(static_cast<std::uint8_t>(type_of(msg)));

  std::visit(
      [&w](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, HelloMsg>) {
          // Nothing: the keep-alive is the single type byte 0x06.
        } else if constexpr (std::is_same_v<T, AdvertiseMsg>) {
          w.u8(m.tier);
          w.u32(m.seq);
          write_vids(w, m.vids);
        } else if constexpr (std::is_same_v<T, JoinRequestMsg>) {
          write_vids(w, m.vids);
        } else if constexpr (std::is_same_v<T, JoinOfferMsg>) {
          w.u16(m.msg_id);
          write_vids(w, m.vids);
        } else if constexpr (std::is_same_v<T, CtrlAckMsg>) {
          w.u16(m.msg_id);
        } else if constexpr (std::is_same_v<T, VidWithdrawMsg>) {
          w.u16(m.msg_id);
          write_vids(w, m.vids);
        } else if constexpr (std::is_same_v<T, DestUnreachMsg>) {
          w.u16(m.msg_id);
          write_roots(w, m.roots);
        } else if constexpr (std::is_same_v<T, DestClearMsg>) {
          w.u16(m.msg_id);
          write_roots(w, m.roots);
        }
      },
      msg);
  return w.take();
}

MtpMessage decode(net::Buffer payload) {
  util::BufReader r(payload.span());
  auto type = static_cast<MsgType>(r.u8());
  switch (type) {
    case MsgType::kHello:
      return HelloMsg{};
    case MsgType::kAdvertise: {
      const AdvertiseView view = read_advertise(r, {});
      return AdvertiseMsg{view.tier, view.seq, to_vector(view.vids)};
    }
    case MsgType::kJoinRequest:
      return JoinRequestMsg{read_vids(r)};
    case MsgType::kJoinOffer: {
      JoinOfferMsg m;
      m.msg_id = r.u16();
      m.vids = read_vids(r);
      return m;
    }
    case MsgType::kCtrlAck: {
      CtrlAckMsg m;
      m.msg_id = r.u16();
      return m;
    }
    case MsgType::kVidWithdraw: {
      VidWithdrawMsg m;
      m.msg_id = r.u16();
      m.vids = read_vids(r);
      return m;
    }
    case MsgType::kDestUnreach: {
      DestUnreachMsg m;
      m.msg_id = r.u16();
      m.roots = read_roots(r);
      return m;
    }
    case MsgType::kDestClear: {
      DestClearMsg m;
      m.msg_id = r.u16();
      m.roots = read_roots(r);
      return m;
    }
    case MsgType::kData: {
      DataMsg m;
      m.src_root = r.u16();
      m.dst_root = r.u16();
      m.ttl = r.u8();
      // The IP packet is the rest of the frame payload: share the slab at
      // offset 6 instead of copying the bytes out.
      m.ip_packet = payload.slice(r.position());
      return m;
    }
  }
  throw util::CodecError("MTP: unknown message type");
}

net::Buffer encode_advertise(std::uint8_t tier, std::uint32_t seq,
                             std::span<const std::uint8_t> vid_list) {
  net::BufferWriter w(kAdvertiseHeader + vid_list.size());
  w.u8(static_cast<std::uint8_t>(MsgType::kAdvertise));
  w.u8(tier);
  w.u32(seq);
  w.bytes(vid_list);
  return w.take();
}

AdvertiseView decode_advertise(std::span<const std::uint8_t> payload,
                               const VidListView& held) {
  util::BufReader r(payload);
  if (static_cast<MsgType>(r.u8()) != MsgType::kAdvertise) {
    throw util::CodecError("MTP: not an ADVERTISE");
  }
  return read_advertise(r, held);
}

}  // namespace mrmtp::mtp
