// Heap allocations of ADVERTISE handling. A counting global operator new
// sees every allocation in this binary, and each check brackets exactly one
// MtpRouter::handle_frame call: the second of two equal statements (the
// second with a higher seq) must allocate nothing, whatever the statement's
// size. The router decodes into storage it keeps across frames and releases
// the frame's slab before handling. This binary has no sanitizer variant:
// the sanitizers supply their own operator new.
#include <gtest/gtest.h>

#include <cstdlib>
#include <new>

#include "mtp/router.hpp"

namespace {
std::size_t g_allocs = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++g_allocs;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace mrmtp::mtp {
namespace {

enum class From { kDownstream, kUpstream };

/// Converges leaf (VID 11) -- spine -- top, then hands the spine two
/// `n`-VID statements from the leaf's or the top's port and returns the
/// allocations made while handling the second one.
std::size_t second_statement_allocs(From from, std::size_t n) {
  net::SimContext ctx(7);
  net::Network network(ctx);
  MtpConfig leaf_cfg;
  leaf_cfg.tier = 1;
  leaf_cfg.server_subnet = ip::Ipv4Prefix::parse("192.168.11.0/24");
  MtpConfig spine_cfg;
  spine_cfg.tier = 2;
  MtpConfig top_cfg;
  top_cfg.tier = 3;
  auto& leaf = network.add_node<MtpRouter>("leaf", leaf_cfg);
  auto& spine = network.add_node<MtpRouter>("spine", spine_cfg);
  auto& top = network.add_node<MtpRouter>("top", top_cfg);
  network.connect(leaf, spine);  // spine port 1
  network.connect(spine, top);   // spine port 2
  network.start_all();
  ctx.sched.run_until(ctx.now() + sim::Duration::millis(500));
  EXPECT_TRUE(top.vid_table().contains(Vid::parse("11.1.2")));

  AdvertiseMsg adv;
  std::uint32_t port = 0;
  if (from == From::kDownstream) {
    adv.tier = 1;
    port = 1;
    // Trees the spine has not joined: the first statement makes every one
    // a pending join, the second finds them all pending already.
    for (std::size_t i = 0; i < n; ++i) {
      adv.vids.emplace_back(static_cast<std::uint16_t>(100 + i));
    }
  } else {
    adv.tier = 3;
    port = 2;
    // The top's real holdings keep the spine's assignment listed, so the
    // stale-assignment check runs on both statements and prunes nothing.
    for (const VidEntry& e : top.vid_table().entries()) adv.vids.push_back(e.vid);
    for (std::size_t i = adv.vids.size(); i < n; ++i) {
      adv.vids.push_back(
          Vid(static_cast<std::uint16_t>(100 + i)).child(1).child(1));
    }
  }
  auto statement = [&](std::uint32_t seq) {
    adv.seq = seq;
    net::Frame f;
    f.dst = net::MacAddr::broadcast();
    f.ethertype = net::EtherType::kMtp;
    f.payload = encode(adv);
    return f;
  };
  net::Frame first = statement(1'000'000);
  net::Frame second = statement(1'000'001);

  spine.handle_frame(spine.port(port), std::move(first));
  const std::size_t before = g_allocs;
  spine.handle_frame(spine.port(port), std::move(second));
  const std::size_t allocs = g_allocs - before;

  if (from == From::kUpstream) {
    EXPECT_NE(spine.neighbor_summary().find("assigned 11.1.2"),
              std::string::npos);
  }
  return allocs;
}

TEST(AdvertiseAllocations, RepeatedStatementFromBelowAllocatesNothing) {
  EXPECT_EQ(second_statement_allocs(From::kDownstream, 4), 0u);
  EXPECT_EQ(second_statement_allocs(From::kDownstream, kMaxListEntries), 0u);
}

TEST(AdvertiseAllocations, RepeatedStatementFromAboveAllocatesNothing) {
  EXPECT_EQ(second_statement_allocs(From::kUpstream, 4), 0u);
  EXPECT_EQ(second_statement_allocs(From::kUpstream, kMaxListEntries), 0u);
}

}  // namespace
}  // namespace mrmtp::mtp
