// Unit tests: MR-MTP message codecs — every type round-trips; the HELLO is
// the paper's single byte 0x06; update messages stay tiny.
#include <gtest/gtest.h>

#include "mtp/message.hpp"

#include "net/frame.hpp"

namespace mrmtp::mtp {
namespace {

template <typename T>
T round_trip(const T& msg) {
  auto bytes = encode(MtpMessage{msg});
  MtpMessage decoded = decode(bytes);
  return std::get<T>(decoded);
}

TEST(MtpCodecTest, HelloIsExactlyOneByte0x06) {
  auto bytes = encode(MtpMessage{HelloMsg{}});
  ASSERT_EQ(bytes.size(), 1u);
  EXPECT_EQ(bytes[0], 0x06);  // the paper's Fig. 10 capture: "Data: 06"
  EXPECT_TRUE(std::holds_alternative<HelloMsg>(decode(bytes)));
}

TEST(MtpCodecTest, EtherTypeIsThePapersUnused0x8850) {
  EXPECT_EQ(kMtpEtherType, 0x8850);
  EXPECT_EQ(static_cast<std::uint16_t>(net::EtherType::kMtp), 0x8850);
}

TEST(MtpCodecTest, AdvertiseRoundTrip) {
  AdvertiseMsg m;
  m.tier = 2;
  m.vids = {Vid::parse("11.1"), Vid::parse("12.1")};
  auto out = round_trip(m);
  EXPECT_EQ(out.tier, 2);
  ASSERT_EQ(out.vids.size(), 2u);
  EXPECT_EQ(out.vids[1].str(), "12.1");
}

TEST(MtpCodecTest, JoinRequestRoundTrip) {
  JoinRequestMsg m;
  m.vids = {Vid::parse("11"), Vid::parse("12")};
  auto out = round_trip(m);
  ASSERT_EQ(out.vids.size(), 2u);
  EXPECT_EQ(out.vids[0].str(), "11");
}

TEST(MtpCodecTest, JoinOfferCarriesMsgId) {
  JoinOfferMsg m;
  m.msg_id = 777;
  m.vids = {Vid::parse("11.1.1")};
  auto out = round_trip(m);
  EXPECT_EQ(out.msg_id, 777);
  EXPECT_EQ(out.vids[0].str(), "11.1.1");
}

TEST(MtpCodecTest, CtrlAckRoundTrip) {
  EXPECT_EQ(round_trip(CtrlAckMsg{42}).msg_id, 42);
}

TEST(MtpCodecTest, WithdrawRoundTrip) {
  VidWithdrawMsg m;
  m.msg_id = 5;
  m.vids = {Vid::parse("11.1.1"), Vid::parse("12.1.1")};
  auto out = round_trip(m);
  EXPECT_EQ(out.msg_id, 5);
  ASSERT_EQ(out.vids.size(), 2u);
}

TEST(MtpCodecTest, DestUnreachAndClearRoundTrip) {
  DestUnreachMsg u;
  u.msg_id = 9;
  u.roots = {11, 12};
  auto out = round_trip(u);
  EXPECT_EQ(out.roots, (std::vector<std::uint16_t>{11, 12}));

  DestClearMsg c;
  c.msg_id = 10;
  c.roots = {11};
  EXPECT_EQ(round_trip(c).roots, (std::vector<std::uint16_t>{11}));
}

TEST(MtpCodecTest, UpdateMessagesStayTiny) {
  // The whole point of Fig. 6: an MTP update is an order of magnitude
  // smaller than a BGP UPDATE frame.
  VidWithdrawMsg w;
  w.msg_id = 1;
  w.vids = {Vid::parse("11.1.1")};
  EXPECT_LE(encode(MtpMessage{w}).size() + 14, 60u);  // fits minimum frame

  DestUnreachMsg u;
  u.msg_id = 2;
  u.roots = {11, 12};
  EXPECT_EQ(encode(MtpMessage{u}).size(), 1u + 2 + 1 + 4);
}

TEST(MtpCodecTest, DataEncapsulatesIpPacketUnchanged) {
  DataMsg m;
  m.src_root = 11;
  m.dst_root = 14;
  m.ttl = 16;
  m.ip_packet = {0x45, 0, 0, 20, 1, 2, 3, 4};
  auto out = round_trip(m);
  EXPECT_EQ(out.src_root, 11);
  EXPECT_EQ(out.dst_root, 14);
  EXPECT_EQ(out.ttl, 16);
  EXPECT_EQ(out.ip_packet, m.ip_packet);
  // Encapsulation overhead is the 5-byte MTP header + 1 type byte.
  EXPECT_EQ(encode(MtpMessage{m}).size(), m.ip_packet.size() + 6);
}

TEST(MtpCodecTest, DecodeRejectsGarbage) {
  std::vector<std::uint8_t> empty;
  EXPECT_THROW(decode(empty), util::CodecError);
  std::vector<std::uint8_t> unknown{0xee};
  EXPECT_THROW(decode(unknown), util::CodecError);
  std::vector<std::uint8_t> truncated{
      static_cast<std::uint8_t>(MsgType::kJoinOffer), 0x00};
  EXPECT_THROW(decode(truncated), util::CodecError);
}

TEST(MtpCodecTest, ListsOf255EntriesEncode) {
  AdvertiseMsg adv;
  adv.tier = 3;
  DestUnreachMsg unreach;
  for (std::size_t i = 0; i < kMaxListEntries; ++i) {
    adv.vids.emplace_back(static_cast<std::uint16_t>(11 + i));
    unreach.roots.push_back(static_cast<std::uint16_t>(11 + i));
  }
  EXPECT_EQ(round_trip(adv).vids, adv.vids);
  EXPECT_EQ(round_trip(unreach).roots, unreach.roots);
  EXPECT_EQ(list_count(kMaxListEntries), 255);
}

// A count byte that wrapped at 256 would make the receiver decode a
// truncated list, so every encoder refuses instead.
TEST(MtpCodecTest, ListsOf256EntriesThrowInsteadOfWrapping) {
  std::vector<Vid> vids;
  std::vector<std::uint16_t> roots;
  for (std::size_t i = 0; i <= kMaxListEntries; ++i) {
    vids.emplace_back(static_cast<std::uint16_t>(11 + i));
    roots.push_back(static_cast<std::uint16_t>(11 + i));
  }
  EXPECT_THROW((void)encode(AdvertiseMsg{.tier = 2, .seq = 1, .vids = vids}),
               util::CodecError);
  EXPECT_THROW((void)encode(JoinRequestMsg{vids}), util::CodecError);
  EXPECT_THROW((void)encode(JoinOfferMsg{1, vids}), util::CodecError);
  EXPECT_THROW((void)encode(VidWithdrawMsg{1, vids}), util::CodecError);
  EXPECT_THROW((void)encode(DestUnreachMsg{1, roots}), util::CodecError);
  EXPECT_THROW((void)encode(DestClearMsg{1, roots}), util::CodecError);
  EXPECT_THROW((void)list_count(kMaxListEntries + 1), util::CodecError);
}

TEST(MtpCodecTest, PreEncodedVidListFramesLikeEncode) {
  AdvertiseMsg m;
  m.tier = 2;
  m.seq = 0x01020304;
  m.vids = {Vid::parse("11.1"), Vid::parse("12.3"), Vid::parse("13")};
  util::BufWriter list;
  list.u8(list_count(m.vids.size()));
  for (const Vid& v : m.vids) v.serialize(list);
  EXPECT_EQ(encode_advertise(m.tier, m.seq, list.data()), encode(MtpMessage{m}));
}

TEST(MtpCodecTest, DecodeAdvertiseViewsThePayloadInPlace) {
  AdvertiseMsg m;
  m.tier = 3;
  m.seq = 9;
  for (std::uint16_t root = 11; root < 75; ++root) m.vids.push_back(Vid(root).child(2));
  m.vids.push_back(Vid::parse("1.2.3.4.5.6.7.8"));
  const net::Buffer payload = encode(MtpMessage{m});

  const AdvertiseView view = decode_advertise(payload);
  EXPECT_EQ(view.tier, 3);
  EXPECT_EQ(view.seq, 9u);
  ASSERT_EQ(view.vids.size(), m.vids.size());
  EXPECT_EQ(std::vector<Vid>(view.vids.begin(), view.vids.end()), m.vids);
  for (const Vid& v : m.vids) EXPECT_TRUE(view.vids.contains(v)) << v.str();
  for (const char* absent : {"11", "11.2.1", "11.3", "75.2", "1.2.3.4.5.6.7"}) {
    EXPECT_FALSE(view.vids.contains(Vid::parse(absent))) << absent;
  }
  EXPECT_FALSE(view.vids.contains(Vid()));
  // decode() reads the same list into an owning message.
  EXPECT_EQ(std::get<AdvertiseMsg>(decode(payload)).vids, m.vids);

  const AdvertiseView none = decode_advertise(encode(MtpMessage{AdvertiseMsg{}}));
  EXPECT_TRUE(none.vids.empty());
  EXPECT_EQ(none.vids.begin(), none.vids.end());
  EXPECT_FALSE(none.vids.contains(Vid(11)));

  EXPECT_THROW((void)decode_advertise(encode(MtpMessage{HelloMsg{}})),
               util::CodecError);
}

// VidListView::parse is the one VID-list validator: decode() and
// decode_advertise() reject the same malformed lists, whatever message
// carries them.
TEST(MtpCodecTest, MalformedVidListsAreRejectedByEveryDecoder) {
  auto advertise = [](std::initializer_list<std::uint8_t> list) {
    std::vector<std::uint8_t> out{static_cast<std::uint8_t>(MsgType::kAdvertise),
                                  3, 0, 0, 0, 1};
    for (std::uint8_t b : list) out.push_back(b);
    return out;
  };
  const std::vector<std::vector<std::uint8_t>> bad = {
      advertise({1, 0}),                          // zero-label VID
      advertise({1, 9, 0, 1, 0, 2, 0, 3, 0, 4,    // 9-label VID
                 0, 5, 0, 6, 0, 7, 0, 8, 0, 9}),
      advertise({2, 1, 0, 11}),                   // count past the end
      advertise({1, 2, 0, 11}),                   // labels past the end
      advertise({}),                              // no count byte
      {static_cast<std::uint8_t>(MsgType::kAdvertise), 3, 0, 0},  // header
  };
  for (const auto& payload : bad) {
    EXPECT_THROW((void)decode_advertise(payload), util::CodecError);
    EXPECT_THROW((void)decode(payload), util::CodecError);
    if (payload.size() > 5) {  // the same list in a JOIN_REQUEST
      std::vector<std::uint8_t> request(payload.begin() + 5, payload.end());
      request[0] = static_cast<std::uint8_t>(MsgType::kJoinRequest);
      EXPECT_THROW((void)decode(request), util::CodecError);
    }
  }
  EXPECT_EQ(decode_advertise(advertise({1, 1, 0, 11, 0xee})).vids.size(), 1u)
      << "bytes after the list are not read";
}

// Given the list of an earlier statement, decode_advertise skips the VIDs
// a new list repeats byte for byte and validates only the ones after them;
// a list that does not start with the held one is read whole.
TEST(MtpCodecTest, DecodeAdvertiseReadsOnlyPastAHeldPrefix) {
  auto payload = [](std::initializer_list<std::uint8_t> list) {
    std::vector<std::uint8_t> out{static_cast<std::uint8_t>(MsgType::kAdvertise),
                                  3, 0, 0, 0, 1};
    for (const std::uint8_t byte : list) out.push_back(byte);
    return out;
  };
  // 11.2 and 12.2, held; 13.2 is appended.
  const std::vector<std::uint8_t> first = payload({2, 2, 0, 11, 0, 2, 2, 0, 12, 0, 2});
  const VidListView held = decode_advertise(first).vids;
  const std::vector<Vid> both = {Vid::parse("11.2"), Vid::parse("12.2")};

  const std::vector<std::uint8_t> appended =
      payload({3, 2, 0, 11, 0, 2, 2, 0, 12, 0, 2, 2, 0, 13, 0, 2});
  const AdvertiseView longer = decode_advertise(appended, held);
  EXPECT_TRUE(longer.extends_held);
  EXPECT_EQ(longer.vids.size(), 3u);
  EXPECT_EQ(std::vector<Vid>(longer.added.begin(), longer.added.end()),
            std::vector<Vid>{Vid::parse("13.2")});

  const AdvertiseView same = decode_advertise(first, held);
  EXPECT_TRUE(same.extends_held);
  EXPECT_TRUE(same.added.empty());

  // The appended VIDs are still validated.
  EXPECT_THROW((void)decode_advertise(
                   payload({3, 2, 0, 11, 0, 2, 2, 0, 12, 0, 2, 0}), held),
               util::CodecError);
  EXPECT_THROW((void)decode_advertise(
                   payload({4, 2, 0, 11, 0, 2, 2, 0, 12, 0, 2, 2, 0, 13, 0, 2}),
                   held),
               util::CodecError);

  // Shorter, reordered, the held bytes under a smaller count, and any list
  // against an empty held one: read whole.
  const std::vector<std::vector<std::uint8_t>> whole = {
      payload({1, 2, 0, 11, 0, 2}),
      payload({3, 2, 0, 12, 0, 2, 2, 0, 11, 0, 2, 2, 0, 13, 0, 2}),
      payload({1, 2, 0, 11, 0, 2, 2, 0, 12, 0, 2}),
  };
  for (const auto& p : whole) {
    const AdvertiseView view = decode_advertise(p, held);
    EXPECT_FALSE(view.extends_held);
    EXPECT_EQ(std::vector<Vid>(view.added.begin(), view.added.end()),
              std::vector<Vid>(view.vids.begin(), view.vids.end()));
  }
  const AdvertiseView unheld = decode_advertise(first, VidListView{});
  EXPECT_FALSE(unheld.extends_held);
  EXPECT_EQ(std::vector<Vid>(unheld.added.begin(), unheld.added.end()), both);
}

TEST(MtpCodecTest, TypeOfCoversAllAlternatives) {
  EXPECT_EQ(type_of(MtpMessage{HelloMsg{}}), MsgType::kHello);
  EXPECT_EQ(type_of(MtpMessage{AdvertiseMsg{}}), MsgType::kAdvertise);
  EXPECT_EQ(type_of(MtpMessage{JoinRequestMsg{}}), MsgType::kJoinRequest);
  EXPECT_EQ(type_of(MtpMessage{JoinOfferMsg{}}), MsgType::kJoinOffer);
  EXPECT_EQ(type_of(MtpMessage{CtrlAckMsg{}}), MsgType::kCtrlAck);
  EXPECT_EQ(type_of(MtpMessage{VidWithdrawMsg{}}), MsgType::kVidWithdraw);
  EXPECT_EQ(type_of(MtpMessage{DestUnreachMsg{}}), MsgType::kDestUnreach);
  EXPECT_EQ(type_of(MtpMessage{DestClearMsg{}}), MsgType::kDestClear);
  EXPECT_EQ(type_of(MtpMessage{DataMsg{}}), MsgType::kData);
}

}  // namespace
}  // namespace mrmtp::mtp
