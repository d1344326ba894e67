// Decoder-robustness property tests: random and mutated bytes must never
// crash, hang, or corrupt a router — malformed frames are dropped, malformed
// BGP messages reset the session, and a converged fabric keeps working while
// being sprayed with garbage.
#include <gtest/gtest.h>

#include "bgp/message.hpp"
#include "harness/auditor.hpp"
#include "harness/deploy.hpp"
#include "mtp/message.hpp"
#include "sim/random.hpp"
#include "topo/chaos.hpp"

namespace mrmtp {
namespace {

std::vector<std::uint8_t> random_bytes(sim::Rng& rng, std::size_t max_len) {
  std::vector<std::uint8_t> out(rng.below(max_len + 1));
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next());
  return out;
}

class FuzzSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzSeeds, MtpDecoderNeverCrashes) {
  sim::Rng rng(GetParam());
  for (int i = 0; i < 5000; ++i) {
    auto bytes = random_bytes(rng, 128);
    try {
      auto msg = mtp::decode(bytes);
      // If it decoded, re-encoding must not crash either.
      auto reenc = mtp::encode(msg);
      (void)reenc;
    } catch (const util::CodecError&) {
      // Expected for malformed input.
    }
  }
}

TEST_P(FuzzSeeds, MtpDecoderRejectsMutatedValidMessages) {
  sim::Rng rng(GetParam() * 31);
  mtp::JoinOfferMsg offer;
  offer.msg_id = 7;
  offer.vids = {mtp::Vid::parse("11.1.2"), mtp::Vid::parse("12.1")};
  auto valid = mtp::encode(mtp::MtpMessage{offer});

  for (int i = 0; i < 2000; ++i) {
    std::vector<std::uint8_t> mutated(valid.begin(), valid.end());
    // Flip 1-4 random bytes.
    int flips = static_cast<int>(rng.range(1, 4));
    for (int f = 0; f < flips; ++f) {
      mutated[rng.below(mutated.size())] ^=
          static_cast<std::uint8_t>(rng.next());
    }
    // Occasionally truncate.
    if (rng.chance(0.3)) {
      mutated.resize(rng.below(mutated.size() + 1));
    }
    try {
      (void)mtp::decode(mutated);
    } catch (const util::CodecError&) {
    }
  }
}

TEST_P(FuzzSeeds, BgpReaderNeverCrashes) {
  sim::Rng rng(GetParam() * 97);
  // One message for every stream, as a session reuses one: decoding into
  // whatever the last stream left there is fuzzed too.
  bgp::BgpMessage msg;
  for (int i = 0; i < 2000; ++i) {
    bgp::MessageReader reader;
    // Mix of garbage and valid fragments fed in random chunks.
    std::vector<std::uint8_t> stream;
    if (rng.chance(0.5)) {
      bgp::UpdateMessage u;
      u.as_path = {64512};
      u.next_hop = ip::Ipv4Addr::parse("1.2.3.4");
      u.nlri = {ip::Ipv4Prefix::parse("10.0.0.0/8")};
      auto enc = bgp::encode(u);
      stream.insert(stream.end(), enc.begin(), enc.end());
    }
    auto junk = random_bytes(rng, 64);
    stream.insert(stream.end(), junk.begin(), junk.end());

    std::size_t pos = 0;
    try {
      while (pos < stream.size()) {
        std::size_t n = 1 + rng.below(7);
        n = std::min(n, stream.size() - pos);
        reader.append(std::span(stream).subspan(pos, n));
        pos += n;
        while (reader.next(msg)) {
        }
      }
    } catch (const util::CodecError&) {
      // A session would reset here; the reader must simply stop.
    }
  }
}

TEST_P(FuzzSeeds, RoutersSurviveGarbageFramesWhileForwarding) {
  net::SimContext ctx(GetParam());
  topo::ClosBlueprint bp(topo::ClosParams::paper_2pod());
  harness::Deployment dep(ctx, bp, harness::Proto::kMtp, {});
  dep.start();
  ctx.sched.run_until(sim::Time::from_ns(sim::Duration::seconds(2).ns()));
  ASSERT_TRUE(dep.converged());

  // Spray garbage MTP-ethertype and IPv4-ethertype frames at S-1-1 from
  // its ToR-facing port while real traffic flows.
  auto& spine = dep.mtp(bp.pod_spine(1, 1));
  sim::Rng rng(GetParam() * 7);
  for (int i = 0; i < 500; ++i) {
    ctx.sched.schedule_after(
        sim::Duration::micros(100 * i), [&spine, &rng] {
          net::Frame junk;
          junk.ethertype = rng.chance(0.5) ? net::EtherType::kMtp
                                           : net::EtherType::kIpv4;
          junk.payload = random_bytes(rng, 96);
          spine.handle_frame(spine.port(3), std::move(junk));
        });
  }

  auto& sender = dep.host(0);
  auto& receiver = dep.host(3);
  receiver.listen();
  traffic::FlowConfig flow;
  flow.dst = receiver.addr();
  flow.count = 300;
  flow.gap = sim::Duration::micros(300);
  sender.start_flow(flow);
  ctx.sched.run_until(ctx.now() + sim::Duration::seconds(1));

  EXPECT_EQ(receiver.sink_stats().unique_received, 300u);
  EXPECT_TRUE(dep.converged());  // garbage must not perturb the trees
}

// Seeded chaos campaign: spray a converged 2-PoD MR-MTP fabric with random
// unidirectional blackholes and partial loss, each healing before the next
// hits, while the FabricAuditor sweeps. After every re-convergence window
// (just before the next onset, and once the dust fully settles) the fabric
// must be free of loops and blackhole violations.
TEST_P(FuzzSeeds, ChaosCampaignKeepsForwardingInvariants) {
  net::SimContext ctx(GetParam());
  topo::ClosBlueprint bp(topo::ClosParams::paper_2pod());
  harness::Deployment dep(ctx, bp, harness::Proto::kMtp, {});
  dep.start();
  ctx.sched.run_until(sim::Time::zero() + sim::Duration::seconds(3));
  ASSERT_TRUE(dep.converged());

  topo::ChaosEngine chaos(dep.network(), bp, GetParam() * 13);
  topo::ChaosEngine::CampaignSpec spec;
  spec.events = 4;
  spec.start = ctx.now() + sim::Duration::millis(100);
  spec.spacing = sim::Duration::millis(1500);
  spec.heal_after = sim::Duration::millis(400);
  spec.w_blackhole = 0.5;
  spec.w_loss = 0.5;
  spec.w_ramp = spec.w_flap = 0.0;
  chaos.run_campaign(spec);
  // Every onset also logs its heal (satellite: full-timeline records).
  ASSERT_EQ(chaos.log().size(), 8u);
  int onsets = 0;
  for (const topo::ChaosEventRecord& r : chaos.log()) {
    if (r.phase == topo::ChaosPhase::kOnset) ++onsets;
  }
  ASSERT_EQ(onsets, 4);

  harness::FabricAuditor auditor(dep);
  auto assert_no_forwarding_violations = [&](int window) {
    std::size_t before = auditor.violations().size();
    auditor.sweep();
    for (std::size_t i = before; i < auditor.violations().size(); ++i) {
      const harness::Violation& v = auditor.violations()[i];
      EXPECT_NE(v.kind, harness::InvariantKind::kForwardingLoop)
          << "window " << window << ": " << v.str();
      EXPECT_NE(v.kind, harness::InvariantKind::kForwardingBlackhole)
          << "window " << window << ": " << v.str();
      EXPECT_NE(v.kind, harness::InvariantKind::kExclusionBlackhole)
          << "window " << window << ": " << v.str();
    }
  };

  // Sweep just before each next onset: the previous impairment healed
  // 400 ms ago and MR-MTP had ~1.1 s to re-accept and rejoin.
  for (int e = 1; e < spec.events; ++e) {
    ctx.sched.run_until(spec.start + spec.spacing * e -
                        sim::Duration::millis(10));
    assert_no_forwarding_violations(e);
  }
  ctx.sched.run_until(spec.start + spec.spacing * spec.events +
                      sim::Duration::seconds(2));
  assert_no_forwarding_violations(spec.events);
  EXPECT_TRUE(dep.converged());
}

// --- systematic truncation / bit-flip round-trips -------------------------
// Exhaustive prefixes and dense single-byte corruption of every control
// message type. The decoders must reject or parse — never crash or read
// past the supplied bytes (the sanitized variant enforces the over-read
// half) — and anything that does parse must re-encode stably.

std::vector<std::vector<std::uint8_t>> mtp_corpus() {
  std::vector<std::vector<std::uint8_t>> corpus;
  auto add = [&](mtp::MtpMessage msg) {
    net::Buffer enc = mtp::encode(std::move(msg));
    corpus.emplace_back(enc.begin(), enc.end());
  };
  add(mtp::HelloMsg{});
  add(mtp::AdvertiseMsg{.tier = 2,
                        .vids = {mtp::Vid::parse("11"),
                                 mtp::Vid::parse("12.3")}});
  add(mtp::JoinRequestMsg{.vids = {mtp::Vid::parse("11.1")}});
  add(mtp::JoinOfferMsg{.msg_id = 42,
                        .vids = {mtp::Vid::parse("11.1.2"),
                                 mtp::Vid::parse("12.1")}});
  add(mtp::CtrlAckMsg{.msg_id = 7});
  add(mtp::VidWithdrawMsg{.msg_id = 9, .vids = {mtp::Vid::parse("13.2")}});
  add(mtp::DestUnreachMsg{.msg_id = 3, .roots = {11, 12, 14}});
  add(mtp::DestClearMsg{.msg_id = 4, .roots = {11}});
  mtp::DataMsg data;
  data.src_root = 11;
  data.dst_root = 14;
  data.ttl = 12;
  const std::uint8_t ip_bytes[] = {0xde, 0xad, 0xbe, 0xef, 0x01};
  data.ip_packet = net::Buffer::copy_of(ip_bytes);
  add(mtp::MtpMessage{std::move(data)});
  return corpus;
}

// If a truncated or corrupted MTP payload still decodes (DataMsg prefixes
// legitimately can — the tail is the opaque IP packet), the parse must be
// self-consistent: re-encoding cannot invent bytes beyond the input, and a
// second decode/encode cycle must be byte-for-byte stable.
void expect_parse_or_reject(const std::vector<std::uint8_t>& bytes) {
  try {
    mtp::MtpMessage msg = mtp::decode(bytes);
    net::Buffer reenc = mtp::encode(std::move(msg));
    std::vector<std::uint8_t> first(reenc.begin(), reenc.end());
    ASSERT_LE(first.size(), bytes.size());
    mtp::MtpMessage again = mtp::decode(first);
    net::Buffer reenc2 = mtp::encode(std::move(again));
    std::vector<std::uint8_t> second(reenc2.begin(), reenc2.end());
    EXPECT_EQ(first, second);
  } catch (const util::CodecError&) {
    // Reject is always acceptable.
  }
}

TEST(DecodeRoundTrip, MtpEveryTruncationRejectsOrParses) {
  for (const auto& valid : mtp_corpus()) {
    // The untruncated message must round-trip exactly.
    mtp::MtpMessage msg = mtp::decode(valid);
    net::Buffer reenc = mtp::encode(std::move(msg));
    EXPECT_EQ(std::vector<std::uint8_t>(reenc.begin(), reenc.end()), valid);
    for (std::size_t len = 0; len < valid.size(); ++len) {
      expect_parse_or_reject(
          std::vector<std::uint8_t>(valid.data(), valid.data() + len));
    }
  }
}

// A VID with more than Vid::kMaxDepth labels is malformed even when every
// label byte is present: each message type that carries VIDs rejects the
// whole frame. The same frame with 8 labels parses.
TEST(DecodeRoundTrip, MtpOversizedVidLabelCountRejects) {
  const std::vector<std::vector<std::uint8_t>> headers = {
      {0x01, 2, 0, 0, 0, 1, 1},  // ADVERTISE tier 2, seq 1, one VID
      {0x02, 1},                 // JOIN_REQUEST, one VID
      {0x03, 0, 42, 1},          // JOIN_OFFER id 42, one VID
      {0x05, 0, 9, 1},           // VID_WITHDRAW id 9, one VID
  };
  for (const auto& header : headers) {
    for (int count : {8, 9, 255}) {
      std::vector<std::uint8_t> bytes = header;
      bytes.push_back(static_cast<std::uint8_t>(count));
      for (int i = 0; i < count; ++i) {
        bytes.push_back(0);
        bytes.push_back(static_cast<std::uint8_t>(i + 1));
      }
      if (count <= static_cast<int>(mtp::Vid::kMaxDepth)) {
        EXPECT_NO_THROW((void)mtp::decode(bytes)) << int{header[0]};
      } else {
        EXPECT_THROW((void)mtp::decode(bytes), util::CodecError)
            << int{header[0]} << " count " << count;
      }
    }
  }
}

TEST_P(FuzzSeeds, MtpBitFlipsRejectOrParse) {
  sim::Rng rng(GetParam() * 131);
  for (const auto& valid : mtp_corpus()) {
    // Dense pass: every byte position, every bit.
    for (std::size_t pos = 0; pos < valid.size(); ++pos) {
      for (int bit = 0; bit < 8; ++bit) {
        std::vector<std::uint8_t> mutated = valid;
        mutated[pos] ^= static_cast<std::uint8_t>(1u << bit);
        expect_parse_or_reject(mutated);
      }
    }
    // Random pass: multi-byte corruption plus truncation.
    for (int i = 0; i < 200; ++i) {
      std::vector<std::uint8_t> mutated = valid;
      int flips = static_cast<int>(rng.range(1, 4));
      for (int f = 0; f < flips; ++f) {
        mutated[rng.below(mutated.size())] ^=
            static_cast<std::uint8_t>(rng.next());
      }
      if (rng.chance(0.5)) mutated.resize(rng.below(mutated.size() + 1));
      expect_parse_or_reject(mutated);
    }
  }
}

std::vector<std::vector<std::uint8_t>> bgp_corpus() {
  std::vector<std::vector<std::uint8_t>> corpus;
  auto add = [&corpus](const net::Buffer& bytes) {
    corpus.emplace_back(bytes.begin(), bytes.end());
  };
  add(bgp::encode(
      bgp::OpenMessage{.asn = 64601, .hold_time_s = 3, .bgp_id = 0x0a000101}));
  bgp::UpdateMessage reachable;
  reachable.as_path = {64601, 64512};
  reachable.next_hop = ip::Ipv4Addr::parse("172.16.0.1");
  reachable.nlri = {ip::Ipv4Prefix::parse("192.168.11.0/24"),
                    ip::Ipv4Prefix::parse("192.168.12.0/24")};
  add(bgp::encode(reachable));
  bgp::UpdateMessage withdraw;
  withdraw.withdrawn = {ip::Ipv4Prefix::parse("192.168.13.0/24")};
  add(bgp::encode(withdraw));
  add(bgp::encode(bgp::NotificationMessage{.code = 6}));
  add(bgp::encode(bgp::KeepaliveMessage{}));
  return corpus;
}

// A strict prefix of a BGP message can never complete (the header carries
// the full length): the reader must wait for more bytes or throw — it must
// never fabricate a message from a partial one.
TEST(DecodeRoundTrip, BgpEveryTruncationWaitsOrRejects) {
  bgp::BgpMessage msg;
  for (const auto& valid : bgp_corpus()) {
    for (std::size_t len = 0; len < valid.size(); ++len) {
      bgp::MessageReader reader;
      reader.append(std::span(valid.data(), len));
      try {
        EXPECT_FALSE(reader.next(msg)) << "prefix len " << len;
      } catch (const util::CodecError&) {
      }
    }
    // The full message parses, and appending the tail after a strict
    // prefix completes the very same parse (stream reassembly).
    for (std::size_t split : {std::size_t{1}, valid.size() / 2}) {
      if (split >= valid.size()) continue;
      bgp::MessageReader reader;
      reader.append(std::span(valid.data(), split));
      EXPECT_FALSE(reader.next(msg));
      reader.append(
          std::span(valid.data() + split, valid.size() - split));
      EXPECT_TRUE(reader.next(msg));
      EXPECT_EQ(reader.buffered(), 0u);
    }
  }
}

TEST_P(FuzzSeeds, BgpBitFlipsRejectOrParse) {
  sim::Rng rng(GetParam() * 173);
  bgp::BgpMessage msg;
  for (const auto& valid : bgp_corpus()) {
    for (std::size_t pos = 0; pos < valid.size(); ++pos) {
      for (int bit = 0; bit < 8; ++bit) {
        std::vector<std::uint8_t> mutated = valid;
        mutated[pos] ^= static_cast<std::uint8_t>(1u << bit);
        bgp::MessageReader reader;
        reader.append(std::span(mutated));
        try {
          while (reader.next(msg)) {
          }
        } catch (const util::CodecError&) {
          // Session reset; the reader must simply stop.
        }
      }
    }
    for (int i = 0; i < 200; ++i) {
      std::vector<std::uint8_t> mutated = valid;
      int flips = static_cast<int>(rng.range(1, 4));
      for (int f = 0; f < flips; ++f) {
        mutated[rng.below(mutated.size())] ^=
            static_cast<std::uint8_t>(rng.next());
      }
      if (rng.chance(0.5)) mutated.resize(rng.below(mutated.size() + 1));
      bgp::MessageReader reader;
      reader.append(std::span(mutated));
      try {
        while (reader.next(msg)) {
        }
      } catch (const util::CodecError&) {
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeeds, ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace mrmtp
