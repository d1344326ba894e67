// Heap allocations of ADVERTISE handling. A counting global operator new
// sees every allocation in this binary, and each check brackets exactly one
// MtpRouter::handle_frame call. Once a spine has handled one statement from
// a port, a later one over the same trees must allocate nothing, whatever
// its size: the router reads each statement in place from the frame's
// bytes. This binary has no sanitizer variant: the sanitizers supply their
// own operator new.
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

/// leaf (VID 11) -- spine -- top, converged: the spine holds 11.1 and has
/// assigned 11.1.2 to the top.
class Fabric {
 public:
  Fabric() {
    MtpConfig leaf_cfg;
    leaf_cfg.tier = 1;
    leaf_cfg.server_subnet = ip::Ipv4Prefix::parse("192.168.11.0/24");
    MtpConfig spine_cfg;
    spine_cfg.tier = 2;
    MtpConfig top_cfg;
    top_cfg.tier = 3;
    auto& leaf = network_.add_node<MtpRouter>("leaf", leaf_cfg);
    spine_ = &network_.add_node<MtpRouter>("spine", spine_cfg);
    top_ = &network_.add_node<MtpRouter>("top", top_cfg);
    network_.connect(leaf, *spine_);   // spine port 1
    network_.connect(*spine_, *top_);  // spine port 2
    network_.start_all();
    ctx_.sched.run_until(ctx_.now() + sim::Duration::millis(500));
    EXPECT_TRUE(top_->vid_table().contains(Vid::parse("11.1.2")));
  }

  /// Allocations made while the spine handles `adv`, sent from the leaf's
  /// port (kDownstream) or the top's (kUpstream).
  std::size_t handle_allocs(From from, const AdvertiseMsg& adv) {
    net::Frame f;
    f.dst = net::MacAddr::broadcast();
    f.ethertype = net::EtherType::kMtp;
    f.payload = encode(adv);
    const std::uint32_t port = from == From::kDownstream ? 1 : 2;
    const std::size_t before = g_allocs;
    spine_->handle_frame(spine_->port(port), std::move(f));
    return g_allocs - before;
  }

  [[nodiscard]] bool top_assigned() const {
    return spine_->neighbor_summary().find("assigned 11.1.2") !=
           std::string::npos;
  }

  [[nodiscard]] const MtpRouter& top() const { return *top_; }

 private:
  net::SimContext ctx_{7};
  net::Network network_{ctx_};
  MtpRouter* spine_ = nullptr;
  MtpRouter* top_ = nullptr;
};

/// Hands the spine two `n`-VID statements from the leaf's or the top's port
/// and returns the allocations made while handling the second one.
std::size_t second_statement_allocs(From from, std::size_t n) {
  Fabric fabric;
  AdvertiseMsg adv;
  if (from == From::kDownstream) {
    adv.tier = 1;
    // Trees the spine has not joined: the first statement makes every one
    // a pending join, the second finds them all pending already.
    for (std::size_t i = 0; i < n; ++i) {
      adv.vids.emplace_back(static_cast<std::uint16_t>(100 + i));
    }
  } else {
    adv.tier = 3;
    // The top's real holdings keep the spine's assignment listed, so the
    // stale-assignment check runs on both statements and prunes nothing.
    for (const VidEntry& e : fabric.top().vid_table().entries()) {
      adv.vids.push_back(e.vid);
    }
    for (std::size_t i = adv.vids.size(); i < n; ++i) {
      adv.vids.push_back(
          Vid(static_cast<std::uint16_t>(100 + i)).child(1).child(1));
    }
  }
  adv.seq = 1'000'000;
  (void)fabric.handle_allocs(from, adv);
  adv.seq = 1'000'001;
  const std::size_t allocs = fabric.handle_allocs(from, adv);
  if (from == From::kUpstream) {
    EXPECT_TRUE(fabric.top_assigned());
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

// A statement longer than any before it is read in place too: nothing is
// sized to the longest statement seen, so only the first statement from
// the port may allocate.
TEST(AdvertiseAllocations, GrowingStatementFromAboveAllocatesNothing) {
  Fabric fabric;
  AdvertiseMsg adv;
  adv.tier = 3;
  adv.seq = 1'000'000;
  // Four trees, the spine's real assignment among them; every longer
  // statement adds VIDs in the same four trees.
  for (std::uint16_t root = 11; root < 15; ++root) {
    adv.vids.push_back(Vid(root).child(1).child(2));
  }
  (void)fabric.handle_allocs(From::kUpstream, adv);
  for (const std::size_t n : {std::size_t{64}, kMaxListEntries}) {
    for (std::size_t i = adv.vids.size(); i < n; ++i) {
      adv.vids.push_back(Vid(static_cast<std::uint16_t>(11 + i % 4))
                             .child(1)
                             .child(static_cast<std::uint16_t>(3 + i)));
    }
    ++adv.seq;
    EXPECT_EQ(fabric.handle_allocs(From::kUpstream, adv), 0u) << n << " VIDs";
    EXPECT_TRUE(fabric.top_assigned());
  }
}

}  // namespace
}  // namespace mrmtp::mtp
