// Heap allocations of the MR-MTP keep-alive steady state. A counting global
// operator new sees every allocation in this binary. Once the 2-PoD fabric
// has converged and gone quiet, each router only sends a 1-byte HELLO on
// every link each hello interval and resets its dead timers on receipt:
// every HELLO shares one constant payload slab, its delivery closure waits
// in a scheduler capture block, and every timer closure sits inside its
// event slot, so a whole simulated second of this allocates nothing. This
// binary has no sanitizer variant: the sanitizers supply their own
// operator new.
#include <gtest/gtest.h>

#include <cstdlib>
#include <new>

#include "harness/deploy.hpp"

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

namespace mrmtp {
namespace {

TEST(KeepaliveAllocations, QuietFabricSecondAllocatesNothing) {
  net::SimContext ctx(7);
  topo::ClosBlueprint blueprint(topo::ClosParams::paper_2pod());
  harness::Deployment dep(ctx, blueprint, harness::Proto::kMtp);
  dep.start();
  ctx.sched.run_until(ctx.now() + sim::Duration::seconds(3));
  ASSERT_TRUE(dep.converged());

  const std::uint64_t fired = ctx.sched.events_fired();
  const std::size_t before = g_allocs;
  ctx.sched.run_until(ctx.now() + sim::Duration::seconds(1));
  const std::size_t allocs = g_allocs - before;

  // 32 link directions, one HELLO each per 50 ms: 640 sends (hello timer
  // events) and 640 deliveries.
  EXPECT_EQ(ctx.sched.events_fired() - fired, 1280u);
  EXPECT_EQ(allocs, 0u);
  EXPECT_TRUE(dep.converged());
}

}  // namespace
}  // namespace mrmtp
