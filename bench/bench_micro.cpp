// Micro-benchmarks (google-benchmark) for the hot paths: VID operations,
// LPM route lookup, ECMP hashing, codec throughput, buffer-pipeline
// encap/decap and link transit (ns/frame with allocs/frame from the pool
// counters), scheduler throughput, and full simulated-fabric event rates.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "bgp/message.hpp"
#include "harness/deploy.hpp"
#include "ip/packet.hpp"
#include "ip/route_table.hpp"
#include "mtp/message.hpp"
#include "mtp/vid_table.hpp"
#include "net/buffer.hpp"
#include "net/network.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"
#include "transport/l3_node.hpp"

namespace {

using namespace mrmtp;

void BM_VidChildDerivation(benchmark::State& state) {
  mtp::Vid base = mtp::Vid::parse("11.1");
  std::uint16_t port = 1;
  for (auto _ : state) {
    mtp::Vid child = base.child(port++);
    benchmark::DoNotOptimize(child);
  }
}
BENCHMARK(BM_VidChildDerivation);

void BM_VidParseFormat(benchmark::State& state) {
  for (auto _ : state) {
    mtp::Vid v = mtp::Vid::parse("11.1.2");
    benchmark::DoNotOptimize(v.str());
  }
}
BENCHMARK(BM_VidParseFormat);

void BM_VidTableLookup(benchmark::State& state) {
  mtp::VidTable table;
  auto racks = static_cast<std::uint16_t>(state.range(0));
  for (std::uint16_t r = 0; r < racks; ++r) {
    table.add(mtp::Vid(static_cast<std::uint16_t>(11 + r)).child(1).child(2),
              (r % 4) + 1);
  }
  std::uint16_t root = 11;
  for (auto _ : state) {
    auto entries = table.entries_for_root(root);
    benchmark::DoNotOptimize(entries);
    root = static_cast<std::uint16_t>(11 + (root - 10) % racks);
  }
}
BENCHMARK(BM_VidTableLookup)->Arg(8)->Arg(64)->Arg(512);

void BM_LpmLookup(benchmark::State& state) {
  ip::RouteTable table;
  sim::Rng rng(1);
  auto routes = static_cast<int>(state.range(0));
  for (int i = 0; i < routes; ++i) {
    table.set(ip::Ipv4Prefix(ip::Ipv4Addr(static_cast<std::uint32_t>(rng.next())),
                             static_cast<std::uint8_t>(rng.range(8, 28))),
              ip::RouteProto::kBgp, {{ip::Ipv4Addr(1), 1}});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        table.lookup(ip::Ipv4Addr(static_cast<std::uint32_t>(rng.next()))));
  }
}
BENCHMARK(BM_LpmLookup)->Arg(16)->Arg(256)->Arg(4096);

void BM_EcmpSelect(benchmark::State& state) {
  net::SimContext ctx;
  transport::L3Node router(ctx, "r", 1);
  std::vector<ip::NextHop> hops;
  for (std::uint32_t i = 0; i < 8; ++i) {
    hops.push_back({ip::Ipv4Addr(i), i + 1});
  }
  router.routes().set(ip::Ipv4Prefix::parse("192.168.0.0/16"),
                      ip::RouteProto::kBgp, hops);
  std::uint64_t h = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        router.select_next_hop(ip::Ipv4Addr::parse("192.168.14.1"), h++));
  }
}
BENCHMARK(BM_EcmpSelect);

void BM_MtpDataEncode(benchmark::State& state) {
  mtp::DataMsg msg;
  msg.src_root = 11;
  msg.dst_root = 14;
  msg.ip_packet.assign(static_cast<std::size_t>(state.range(0)), 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mtp::encode(mtp::MtpMessage{msg}));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MtpDataEncode)->Arg(64)->Arg(1400);

/// Spine transit cycle on one pooled buffer: decode slices the IP packet out
/// of the frame, encode prepends the 6-byte MTP header back into the same
/// headroom. allocs/frame and copied_B/frame come from the pool's own
/// counters and must both be ~0.
void BM_MtpTransitEncapDecap(benchmark::State& state) {
  mtp::DataMsg seed;
  seed.src_root = 11;
  seed.dst_root = 14;
  seed.ip_packet.assign(static_cast<std::size_t>(state.range(0)), 0xab);
  net::Buffer wire = mtp::encode(mtp::MtpMessage{std::move(seed)});

  const net::BufferPoolStats& stats = net::BufferPool::instance().stats();
  const std::uint64_t allocs_before = stats.slab_allocs;
  const std::uint64_t copied_before = stats.bytes_copied;
  for (auto _ : state) {
    mtp::MtpMessage msg = mtp::decode(std::move(wire));
    auto* d = std::get_if<mtp::DataMsg>(&msg);
    --d->ttl;
    wire = mtp::encode(std::move(msg));
    benchmark::DoNotOptimize(wire.data());
  }
  state.SetItemsProcessed(state.iterations());
  const auto frames = static_cast<double>(state.iterations());
  state.counters["allocs/frame"] =
      static_cast<double>(stats.slab_allocs - allocs_before) / frames;
  state.counters["copied_B/frame"] =
      static_cast<double>(stats.bytes_copied - copied_before) / frames;
}
BENCHMARK(BM_MtpTransitEncapDecap)->Arg(64)->Arg(1400);

/// Headroom-based IPv4 encapsulation vs the legacy serialize-into-vector.
void BM_IpEncapsulate(benchmark::State& state) {
  ip::Ipv4Header h;
  h.src = ip::Ipv4Addr::parse("10.1.1.2");
  h.dst = ip::Ipv4Addr::parse("10.2.4.2");
  const auto n = static_cast<std::size_t>(state.range(0));
  net::Buffer payload = net::Buffer::allocate(n);
  for (auto _ : state) {
    net::Buffer pkt = h.encapsulate(std::move(payload));
    benchmark::DoNotOptimize(pkt.data());
    payload = pkt.slice(h.header_length());  // shed the header, keep the slab
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_IpEncapsulate)->Arg(64)->Arg(1400);

void BM_IpSerializeLegacy(benchmark::State& state) {
  ip::Ipv4Header h;
  h.src = ip::Ipv4Addr::parse("10.1.1.2");
  h.dst = ip::Ipv4Addr::parse("10.2.4.2");
  std::vector<std::uint8_t> payload(static_cast<std::size_t>(state.range(0)),
                                    0xab);
  for (auto _ : state) {
    auto pkt = h.serialize(payload);
    benchmark::DoNotOptimize(pkt.data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_IpSerializeLegacy)->Arg(64)->Arg(1400);

/// One frame through a link (transmit -> serialization/propagation events ->
/// delivery), pooled payload end to end. allocs/frame must settle at ~0:
/// every slab is recycled through the freelist.
void BM_LinkTransitPooledFrames(benchmark::State& state) {
  class SinkNode : public net::Node {
   public:
    using Node::Node;
    void handle_frame(net::Port& in, net::Frame&& frame) override {
      (void)in;
      last = std::move(frame);
    }
    net::Frame last;
  };

  net::SimContext ctx(1);
  net::Network network(ctx);
  auto& a = network.add_node<SinkNode>("a", 1);
  auto& b = network.add_node<SinkNode>("b", 2);
  network.connect(a, b, {});
  const auto payload_size = static_cast<std::size_t>(state.range(0));

  const net::BufferPoolStats& stats = net::BufferPool::instance().stats();
  const std::uint64_t allocs_before = stats.slab_allocs;
  for (auto _ : state) {
    net::Frame f;
    f.dst = net::MacAddr::broadcast();
    f.ethertype = net::EtherType::kIpv4;
    f.payload = net::Buffer::allocate(payload_size);
    a.transmit(a.port(1), std::move(f));
    ctx.sched.run();
    benchmark::DoNotOptimize(b.last.payload.data());
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["allocs/frame"] =
      static_cast<double>(stats.slab_allocs - allocs_before) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_LinkTransitPooledFrames)->Arg(64)->Arg(1400);

void BM_BgpUpdateCodec(benchmark::State& state) {
  bgp::UpdateMessage u;
  u.as_path = {64513, 64600};
  u.next_hop = ip::Ipv4Addr::parse("172.16.0.1");
  for (int i = 0; i < 8; ++i) {
    u.nlri.push_back(ip::Ipv4Prefix(
        ip::Ipv4Addr(192, 168, static_cast<std::uint8_t>(11 + i), 0), 24));
  }
  bgp::BgpMessage msg;
  for (auto _ : state) {
    auto bytes = bgp::encode(u);
    bgp::MessageReader reader;
    reader.append(bytes);
    benchmark::DoNotOptimize(reader.next(msg));
  }
}
BENCHMARK(BM_BgpUpdateCodec);

/// Deterministic inter-event gap stream (splitmix-style), so every run sees
/// the identical schedule pattern.
struct GapStream {
  std::uint64_t s = 0x9e3779b97f4a7c15ull;
  std::int64_t next() {
    s += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = s;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return static_cast<std::int64_t>((z ^ (z >> 31)) % 1'000'000);  // <= 1 ms
  }
};

/// Steady-state churn at a fixed population: fire the earliest event,
/// schedule its replacement at now + gap. This is the fabric's hold pattern
/// (N armed timers, one event firing at a time) at 1k/100k/1M pending, with
/// random gaps: one pop plus one insert per iteration, so most pops re-deal
/// a radix bucket.
void BM_SchedulerChurn(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  sim::Scheduler sched;
  GapStream gaps;
  for (int i = 0; i < n; ++i) {
    sched.schedule_at(sim::Time::from_ns(gaps.next()), [] {});
  }
  for (auto _ : state) {
    sched.step();
    sched.schedule_at(sched.now() + sim::Duration::nanos(gaps.next()), [] {});
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["pending"] = static_cast<double>(sched.pending());
}
BENCHMARK(BM_SchedulerChurn)
    ->Arg(1'000)
    ->Arg(100'000)
    ->Arg(1'000'000);

/// Timer-rearm storm: every iteration pushes one armed timer further out,
/// round-robin over the population, with no event firing: each rearm moves
/// the event's slot index from one radix bucket to another.
void BM_SchedulerReschedule(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  sim::Scheduler sched;
  GapStream gaps;
  std::vector<sim::EventId> ids;
  ids.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    ids.push_back(
        sched.schedule_at(sim::Time::from_ns(1'000'000 + gaps.next()), [] {}));
  }
  std::int64_t horizon = 2'000'000;
  std::size_t i = 0;
  for (auto _ : state) {
    horizon += gaps.next();
    sched.reschedule(ids[i], sim::Time::from_ns(horizon));
    i = (i + 1) % ids.size();
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["pending"] = static_cast<double>(sched.pending());
}
BENCHMARK(BM_SchedulerReschedule)
    ->Arg(1'000)
    ->Arg(100'000)
    ->Arg(1'000'000);

/// The fabric's keep-alive steady state: N ports whose 50 ms hello timers
/// fire at the same instant; each fire delivers a frame 5.1 us later, and
/// each delivery re-arms the port's 100 ms dead timer. One iteration fires
/// one event, so a round is N hellos then N deliveries (N reschedules).
void BM_SchedulerKeepaliveBurst(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  sim::Scheduler sched;
  std::vector<std::unique_ptr<sim::Timer>> dead;
  std::vector<std::unique_ptr<sim::Timer>> hello;
  for (std::size_t i = 0; i < n; ++i) {
    dead.push_back(std::make_unique<sim::Timer>(sched, [] {}));
    dead.back()->start(sim::Duration::millis(100));
  }
  for (std::size_t i = 0; i < n; ++i) {
    sim::Timer* d = dead[i].get();
    hello.push_back(std::make_unique<sim::Timer>(sched, [&sched, d] {
      sched.schedule_after(sim::Duration::nanos(5'100), [d] { d->restart(); });
    }));
    hello.back()->start_periodic(sim::Duration::millis(50));
  }
  for (auto _ : state) benchmark::DoNotOptimize(sched.step());
  state.SetItemsProcessed(state.iterations());
  state.counters["pending"] = static_cast<double>(sched.pending());
  state.counters["reschedules"] = static_cast<double>(sched.reschedules());
}
BENCHMARK(BM_SchedulerKeepaliveBurst)->Arg(512)->Arg(2'048)->Arg(8'192);

void BM_SchedulerThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Scheduler sched;
    for (int i = 0; i < 1000; ++i) {
      sched.schedule_at(sim::Time::from_ns(i), [] {});
    }
    sched.run();
    benchmark::DoNotOptimize(sched.events_fired());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SchedulerThroughput);

/// End-to-end: one simulated second of a converged idle fabric.
void BM_SimulatedSecondIdleFabric(benchmark::State& state) {
  bool mtp = state.range(0) == 0;
  for (auto _ : state) {
    net::SimContext ctx(1);
    topo::ClosBlueprint bp(topo::ClosParams::paper_2pod());
    harness::Deployment dep(ctx, bp,
                            mtp ? harness::Proto::kMtp : harness::Proto::kBgp,
                            {});
    dep.start();
    ctx.sched.run_until(sim::Time::from_ns(sim::Duration::seconds(1).ns()));
    benchmark::DoNotOptimize(ctx.sched.events_fired());
  }
}
BENCHMARK(BM_SimulatedSecondIdleFabric)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
