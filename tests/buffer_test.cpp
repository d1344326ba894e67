// Unit tests for the pooled frame-buffer pipeline: headroom prepends and
// their counted fallbacks, refcount semantics across shared views and
// duplicated link deliveries, allocation churn bounds, poison mode, and the
// acceptance proof that steady-state MTP forwarding neither allocates nor
// copies payload bytes (tracked by the pool's own counters).
#include <gtest/gtest.h>

#include <thread>

#include "harness/deploy.hpp"
#include "net/buffer.hpp"
#include "net/network.hpp"
#include "traffic/host.hpp"

namespace mrmtp {
namespace {

using net::Buffer;
using net::BufferPool;
using net::BufferPoolStats;
using net::BufferWriter;

BufferPoolStats delta(const BufferPoolStats& before) {
  const BufferPoolStats& now = BufferPool::instance().stats();
  BufferPoolStats d;
  d.slab_allocs = now.slab_allocs - before.slab_allocs;
  d.slab_reuses = now.slab_reuses - before.slab_reuses;
  d.oversize_allocs = now.oversize_allocs - before.oversize_allocs;
  d.prepend_inplace = now.prepend_inplace - before.prepend_inplace;
  d.prepend_copies = now.prepend_copies - before.prepend_copies;
  d.writer_regrows = now.writer_regrows - before.writer_regrows;
  d.import_bytes = now.import_bytes - before.import_bytes;
  d.bytes_copied = now.bytes_copied - before.bytes_copied;
  d.bytes_shared = now.bytes_shared - before.bytes_shared;
  d.live_high_water = now.live_high_water;
  return d;
}

TEST(BufferTest, VectorCompatibilitySurface) {
  Buffer b = {1, 2, 3, 4};
  EXPECT_EQ(b.size(), 4u);
  EXPECT_EQ(b[2], 3);
  EXPECT_EQ(b, (std::vector<std::uint8_t>{1, 2, 3, 4}));

  std::vector<std::uint8_t> v(10, 0xee);
  b = v;
  EXPECT_EQ(b, v);

  Buffer filled;
  filled.assign(5, 0xab);
  EXPECT_EQ(filled, (std::vector<std::uint8_t>{0xab, 0xab, 0xab, 0xab, 0xab}));
}

TEST(BufferTest, PrependUsesHeadroomInPlace) {
  auto before = BufferPool::instance().stats();
  Buffer b = Buffer::copy_of(std::vector<std::uint8_t>(32, 0x11));
  ASSERT_EQ(b.headroom(), Buffer::kDefaultHeadroom);
  const std::uint8_t* payload_ptr = b.data();

  const std::uint8_t hdr[6] = {9, 8, 7, 6, 5, 4};
  b.prepend(hdr);

  EXPECT_EQ(b.size(), 38u);
  EXPECT_EQ(b.headroom(), Buffer::kDefaultHeadroom - 6);
  EXPECT_EQ(b.data() + 6, payload_ptr);  // payload bytes did not move
  EXPECT_EQ(b[0], 9);
  EXPECT_EQ(b[6], 0x11);
  auto d = delta(before);
  EXPECT_EQ(d.prepend_inplace, 1u);
  EXPECT_EQ(d.prepend_copies, 0u);
}

TEST(BufferTest, HeadroomExhaustionFallsBackToCountedCopy) {
  Buffer b = Buffer::allocate(16, /*headroom=*/2);
  auto before = BufferPool::instance().stats();

  const std::uint8_t hdr[6] = {1, 2, 3, 4, 5, 6};
  b.prepend(hdr);  // needs 6 bytes of headroom, only 2 available

  EXPECT_EQ(b.size(), 22u);
  EXPECT_EQ(b[0], 1);
  EXPECT_EQ(b[5], 6);
  EXPECT_EQ(b[6], 0);
  auto d = delta(before);
  EXPECT_EQ(d.prepend_inplace, 0u);
  EXPECT_EQ(d.prepend_copies, 1u);
  EXPECT_GE(d.bytes_copied, 16u);
  // The fallback re-homes header + payload behind fresh default headroom,
  // so the next prepend is in-place again.
  EXPECT_EQ(b.headroom(), Buffer::kDefaultHeadroom);
}

TEST(BufferTest, SharedSlabPrependCopiesAndLeavesSiblingIntact) {
  Buffer a = Buffer::copy_of(std::vector<std::uint8_t>(8, 0x22));
  Buffer b = a;  // share
  EXPECT_EQ(a.refcount(), 2u);
  auto before = BufferPool::instance().stats();

  const std::uint8_t hdr[2] = {0xf0, 0x0d};
  b.prepend(hdr);

  EXPECT_EQ(a.size(), 8u);  // sibling untouched
  EXPECT_EQ(a[0], 0x22);
  EXPECT_EQ(b.size(), 10u);
  EXPECT_EQ(b[0], 0xf0);
  EXPECT_EQ(a.refcount(), 1u);  // b moved to its own slab
  EXPECT_EQ(b.refcount(), 1u);
  EXPECT_EQ(delta(before).prepend_copies, 1u);
}

TEST(BufferTest, SliceSharesTheSlab) {
  Buffer a = Buffer::copy_of(std::vector<std::uint8_t>{10, 11, 12, 13, 14});
  Buffer tail = a.slice(2);
  EXPECT_EQ(tail.size(), 3u);
  EXPECT_EQ(tail[0], 12);
  EXPECT_EQ(tail.data(), a.data() + 2);  // same bytes, no copy
  EXPECT_EQ(a.refcount(), 2u);

  Buffer mid = a.slice(1, 2);
  EXPECT_EQ(mid.size(), 2u);
  EXPECT_EQ(mid[0], 11);
  EXPECT_THROW((void)a.slice(6), std::out_of_range);
  EXPECT_THROW((void)a.slice(2, 4), std::out_of_range);
}

TEST(BufferTest, MutableDataUnsharesFirst) {
  Buffer a = Buffer::copy_of(std::vector<std::uint8_t>(4, 0x33));
  Buffer b = a;
  b.mutable_data()[0] = 0x99;
  EXPECT_EQ(a[0], 0x33);  // copy-on-shared protected the sibling
  EXPECT_EQ(b[0], 0x99);
  EXPECT_EQ(a.refcount(), 1u);
  EXPECT_EQ(b.refcount(), 1u);

  // Unique buffers mutate in place with no copy.
  auto before = BufferPool::instance().stats();
  b.mutable_data()[1] = 0x77;
  EXPECT_EQ(delta(before).bytes_copied, 0u);
}

// Static storage, as a ConstantPayload requires.
constinit const net::ConstantPayload<3> kConstant{{0xc0, 0xff, 0xee}};

TEST(BufferTest, ConstantPayloadIsSharedWithoutRefcountOrPool) {
  const auto before = BufferPool::instance().stats();
  const std::uint64_t live = before.live_slabs;
  Buffer a = kConstant.buffer();
  Buffer b = a;
  Buffer c = b.slice(1);
  EXPECT_EQ(a, (std::vector<std::uint8_t>{0xc0, 0xff, 0xee}));
  EXPECT_EQ(c, (std::vector<std::uint8_t>{0xff, 0xee}));
  EXPECT_EQ(a.data(), b.data());
  // The refcount never moves, and no copy is unique, so a write copies.
  EXPECT_EQ(a.refcount(), 2u);
  EXPECT_FALSE(a.unique());
  b.mutable_data()[0] = 0x11;
  EXPECT_EQ(b[0], 0x11);
  EXPECT_EQ(a[0], 0xc0);
  EXPECT_EQ(kConstant.buffer()[0], 0xc0);
  EXPECT_TRUE(b.unique());  // b now owns a pooled copy
  Buffer d = kConstant.buffer();
  d.prepend(std::vector<std::uint8_t>{0x01});
  EXPECT_EQ(d, (std::vector<std::uint8_t>{0x01, 0xc0, 0xff, 0xee}));
  EXPECT_EQ(kConstant.buffer().size(), 3u);
  b = Buffer{};
  d = Buffer{};
  a = Buffer{};
  c = Buffer{};
  EXPECT_EQ(BufferPool::instance().stats().live_slabs, live);
  EXPECT_EQ(kConstant.buffer().refcount(), 2u);
}

TEST(BufferTest, ConstantPayloadCrossesThreadsWithoutARace) {
  // Shard threads copy and drop the same HELLO payload concurrently; with
  // the refcount untouched there is nothing to race on (TSan checks this
  // in the tsan preset).
  auto churn = [] {
    std::vector<Buffer> held;
    for (int i = 0; i < 20000; ++i) {
      held.push_back(kConstant.buffer());
      if (held.size() == 64) held.clear();
    }
  };
  std::thread t1(churn);
  std::thread t2(churn);
  churn();
  t1.join();
  t2.join();
  EXPECT_EQ(kConstant.buffer().refcount(), 2u);
}

TEST(BufferTest, WriterProducesPrependableBuffer) {
  BufferWriter w(16);
  w.u32(0xdeadbeef);
  w.u16(0x0102);
  Buffer b = w.take();
  EXPECT_EQ(b.size(), 6u);
  EXPECT_EQ(b[0], 0xde);
  EXPECT_EQ(b.headroom(), Buffer::kDefaultHeadroom);

  auto before = BufferPool::instance().stats();
  const std::uint8_t hdr[1] = {0xcc};
  b.prepend(hdr);
  EXPECT_EQ(delta(before).prepend_inplace, 1u);
}

TEST(BufferTest, WriterRegrowIsCounted) {
  auto before = BufferPool::instance().stats();
  BufferWriter w(8);
  for (int i = 0; i < 1000; ++i) w.u32(static_cast<std::uint32_t>(i));
  Buffer b = w.take();
  EXPECT_EQ(b.size(), 4000u);
  EXPECT_EQ(b[3], 0);
  EXPECT_GE(delta(before).writer_regrows, 1u);
}

// A duplicated (impaired) delivery hands two frames sharing one slab to the
// receiver; writes through either must not leak into the other.
TEST(BufferTest, DuplicatedDeliverySharesSlabUntilWritten) {
  class SinkNode : public net::Node {
   public:
    using Node::Node;
    void handle_frame(net::Port& in, net::Frame&& frame) override {
      (void)in;
      arrivals.push_back(std::move(frame));
    }
    std::vector<net::Frame> arrivals;
  };

  net::SimContext ctx(123);
  net::Network network(ctx);
  auto& a = network.add_node<SinkNode>("a", 1);
  auto& b = network.add_node<SinkNode>("b", 2);
  network.connect(a, b, {.duplicate_probability = 1.0});

  net::Frame f;
  f.dst = net::MacAddr::broadcast();
  f.ethertype = net::EtherType::kIpv4;
  f.payload.assign(50, 0xab);
  a.transmit(a.port(1), std::move(f));
  ctx.sched.run();

  ASSERT_EQ(b.arrivals.size(), 2u);
  net::Buffer& first = b.arrivals[0].payload;
  net::Buffer& second = b.arrivals[1].payload;
  EXPECT_EQ(first, second);
  // Exactly one of the two deliveries was the move of the original frame;
  // the duplicate shares its slab rather than copying 50 bytes.
  EXPECT_EQ(first.refcount(), 2u);
  EXPECT_EQ(first.data(), second.data());

  first.mutable_data()[0] = 0x01;  // copy-on-shared
  EXPECT_EQ(second[0], 0xab);
  EXPECT_EQ(second.refcount(), 1u);
}

TEST(BufferTest, MillionBufferChurnKeepsHighWaterBounded) {
  BufferPool& pool = BufferPool::instance();
  pool.reset_stats();
  const std::uint64_t baseline_live = pool.stats().live_slabs;

  // A ring of live buffers cycling through every size class: the pool must
  // serve the churn from its freelists, not the heap.
  constexpr std::size_t kRing = 8;
  constexpr std::size_t kSizes[] = {40, 200, 1500, 4000};
  Buffer ring[kRing];
  for (int i = 0; i < 1'000'000; ++i) {
    ring[static_cast<std::size_t>(i) % kRing] =
        Buffer::allocate(kSizes[static_cast<std::size_t>(i) % 4]);
  }
  for (auto& b : ring) b = Buffer();

  const BufferPoolStats& s = pool.stats();
  EXPECT_LE(s.live_high_water, baseline_live + kRing + 1);
  // Warm-up allocates at most one slab per ring slot per class; everything
  // after that is freelist reuse.
  EXPECT_LE(s.slab_allocs, kRing * 4);
  EXPECT_GE(s.slab_reuses, 999'000u);
  EXPECT_EQ(s.live_slabs, baseline_live);
}

TEST(BufferTest, PoisonModeRecyclesCleanly) {
  BufferPool& pool = BufferPool::instance();
  const bool was = pool.poison();
  pool.set_poison(true);
  for (int i = 0; i < 100; ++i) {
    Buffer b = Buffer::allocate(64);
    EXPECT_EQ(b[0], 0);  // re-acquired slabs are unpoisoned and zero-filled
    b.mutable_data()[0] = 0xff;
  }
  pool.set_poison(was);
}

// ---------------------------------------------------------------------------
// Acceptance: steady-state MTP forwarding (host -> ToR -> spine -> ToR ->
// host) performs zero payload heap allocations and zero payload byte copies
// per hop, proven by pool-counter deltas over a pure-traffic window.
// ---------------------------------------------------------------------------
TEST(BufferPipeline, SteadyStateForwardingIsZeroCopy) {
  net::SimContext ctx(7);
  topo::ClosBlueprint bp(topo::ClosParams::paper_2pod());
  harness::Deployment dep(ctx, bp, harness::Proto::kMtp, {});
  dep.start();
  ctx.sched.run_until(sim::Time::from_ns(sim::Duration::seconds(3).ns()));
  ASSERT_TRUE(dep.converged());

  auto& src = dep.host(0);
  auto& dst = dep.host(static_cast<std::uint32_t>(dep.host_count() - 1));
  dst.listen();
  traffic::FlowConfig flow;
  flow.dst = dst.addr();
  flow.count = 0;  // continuous
  flow.gap = sim::Duration::micros(100);
  flow.payload_size = 256;
  src.start_flow(flow);

  // Warm the pool freelists (and every per-flow cache) for half a second...
  ctx.sched.run_until(
      sim::Time::from_ns(sim::Duration::millis(3500).ns()));
  BufferPool::instance().reset_stats();
  const BufferPoolStats before = BufferPool::instance().stats();

  // ...then measure a full second of pure forwarding: ~10k packets, each
  // crossing host -> ToR -> spine -> ToR -> host plus the idle hellos.
  ctx.sched.run_until(sim::Time::from_ns(sim::Duration::seconds(5).ns()));
  src.stop_flow();

  const BufferPoolStats& s = BufferPool::instance().stats();
  EXPECT_GT(dst.sink_stats().unique_received, 9000u);

  // Zero payload heap allocations: every slab comes from a freelist.
  EXPECT_EQ(s.slab_allocs - before.slab_allocs, 0u);
  EXPECT_EQ(s.oversize_allocs - before.oversize_allocs, 0u);
  // Zero payload memcpys: every header prepend hit headroom in place, no
  // writer outgrew its slab, nothing imported foreign storage.
  EXPECT_EQ(s.prepend_copies - before.prepend_copies, 0u);
  EXPECT_EQ(s.bytes_copied - before.bytes_copied, 0u);
  EXPECT_EQ(s.writer_regrows - before.writer_regrows, 0u);
  EXPECT_EQ(s.import_bytes - before.import_bytes, 0u);
  // And the work did happen zero-copy, not zero-work: each delivered packet
  // prepends UDP + IP at the host and MTP at the ToR, all in place.
  EXPECT_GT(s.prepend_inplace - before.prepend_inplace, 25'000u);
  EXPECT_GT(s.bytes_shared - before.bytes_shared, 0u);
}

}  // namespace
}  // namespace mrmtp
