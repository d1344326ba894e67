// Unit tests: frames, links (delay/serialization/impairments), nodes, and
// the one-sided interface-failure semantics the paper's TC analysis needs.
#include <gtest/gtest.h>

#include <set>
#include <string_view>

#include "net/network.hpp"
#include "net/switch_buffer.hpp"

namespace mrmtp::net {
namespace {

/// Test node that records every received frame with its arrival time.
class SinkNode : public Node {
 public:
  using Node::Node;

  void handle_frame(Port& in, Frame&& frame) override {
    const std::uint32_t refs = frame.payload.refcount();
    arrivals.push_back({ctx_.now(), in.number(), refs, std::move(frame)});
  }
  void on_port_down(Port& port) override { downs.push_back(port.number()); }
  void on_port_up(Port& port) override { ups.push_back(port.number()); }

  struct Arrival {
    sim::Time at;
    std::uint32_t port;
    /// Payload refcount as handle_frame saw it (1 = its only owner).
    std::uint32_t refs;
    Frame frame;
  };
  std::vector<Arrival> arrivals;
  std::vector<std::uint32_t> downs;
  std::vector<std::uint32_t> ups;
};

Frame make_frame(std::size_t payload_size,
                 TrafficClass tc = TrafficClass::kOther) {
  Frame f;
  f.dst = MacAddr::broadcast();
  f.ethertype = EtherType::kIpv4;
  f.payload.assign(payload_size, 0xab);
  f.traffic_class = tc;
  return f;
}

class LinkTest : public ::testing::Test {
 protected:
  void wire(Link::Params params = {}) {
    a_ = &network_.add_node<SinkNode>("a", 1);
    b_ = &network_.add_node<SinkNode>("b", 2);
    link_ = &network_.connect(*a_, *b_, params);
  }

  SimContext ctx_{123};
  Network network_{ctx_};
  SinkNode* a_ = nullptr;
  SinkNode* b_ = nullptr;
  Link* link_ = nullptr;
};

// Per-class names key the capture tables of the Fig. 9 bench; each class
// has its own.
TEST(TrafficClassTest, EveryClassHasADistinctName) {
  std::set<std::string_view> names;
  for (std::size_t c = 0; c < kTrafficClassCount; ++c) {
    std::string_view name = to_string(static_cast<TrafficClass>(c));
    EXPECT_NE(name, "?") << c;
    names.insert(name);
  }
  EXPECT_EQ(names.size(), kTrafficClassCount);
  EXPECT_EQ(to_string(TrafficClass::kBfd), "bfd");
  EXPECT_EQ(to_string(TrafficClass::kMtpHello), "mtp-hello");
}

TEST_F(LinkTest, DeliversWithPropagationAndSerialization) {
  wire({.delay = sim::Duration::micros(10), .bandwidth_bps = 1'000'000'000});
  a_->transmit(a_->port(1), make_frame(100));
  ctx_.sched.run();

  ASSERT_EQ(b_->arrivals.size(), 1u);
  // 100B payload + 14 header -> 114, padded irrelevant (>60), +20 preamble/IFG
  // = 134 B = 1072 bits at 1 Gb/s = 1.072 us, plus 10 us propagation.
  EXPECT_EQ(b_->arrivals[0].at.ns(), 11072);
  EXPECT_EQ(b_->arrivals[0].frame.payload.size(), 100u);
}

TEST_F(LinkTest, BackToBackFramesQueueBehindSerialization) {
  wire({.delay = sim::Duration::micros(1), .bandwidth_bps = 1'000'000'000});
  a_->transmit(a_->port(1), make_frame(1000));
  a_->transmit(a_->port(1), make_frame(1000));
  ctx_.sched.run();
  ASSERT_EQ(b_->arrivals.size(), 2u);
  // Second frame waits for the first one's serialization slot.
  sim::Duration ser = b_->arrivals[1].at - b_->arrivals[0].at;
  EXPECT_EQ(ser.ns(), (1000 + 14 + 20) * 8);  // @ 1 Gb/s: 1 ns per bit
}

TEST_F(LinkTest, MinimumFramePadding) {
  Frame f = make_frame(1);
  EXPECT_EQ(f.wire_size(), 15u);
  EXPECT_EQ(f.padded_wire_size(), 60u);
  Frame big = make_frame(100);
  EXPECT_EQ(big.padded_wire_size(), big.wire_size());
}

TEST_F(LinkTest, OneSidedFailureNotifiesOwnerOnly) {
  wire();
  a_->set_interface_down(1);
  EXPECT_EQ(a_->downs, std::vector<std::uint32_t>{1});
  EXPECT_TRUE(b_->downs.empty());  // the peer learns nothing (paper §IV)
}

TEST_F(LinkTest, FramesTowardDownedInterfaceAreDropped) {
  wire();
  a_->set_interface_down(1);
  // b's interface is still up; its transmission is dropped at arrival.
  b_->transmit(b_->port(1), make_frame(50));
  ctx_.sched.run();
  EXPECT_TRUE(a_->arrivals.empty());
  EXPECT_EQ(link_->stats().dropped_dst_down(), 1u);
  // The drop is attributed to the direction that carried the frame.
  EXPECT_EQ(link_->stats().ba.dropped_dst_down, 1u);
  EXPECT_EQ(link_->stats().ab.dropped_dst_down, 0u);
}

TEST_F(LinkTest, FramesFromDownedInterfaceAreNotSent) {
  wire();
  a_->set_interface_down(1);
  a_->transmit(a_->port(1), make_frame(50));
  ctx_.sched.run();
  EXPECT_TRUE(b_->arrivals.empty());
  EXPECT_EQ(link_->stats().delivered(), 0u);
}

TEST_F(LinkTest, InterfaceUpRestoresDelivery) {
  wire();
  a_->set_interface_down(1);
  a_->set_interface_up(1);
  EXPECT_EQ(a_->ups, std::vector<std::uint32_t>{1});
  b_->transmit(b_->port(1), make_frame(50));
  ctx_.sched.run();
  EXPECT_EQ(a_->arrivals.size(), 1u);
}

TEST_F(LinkTest, FramesInFlightWhenInterfaceGoesDownAreLost) {
  wire({.delay = sim::Duration::millis(1), .bandwidth_bps = 10'000'000'000});
  b_->transmit(b_->port(1), make_frame(50));
  ctx_.sched.schedule_after(sim::Duration::micros(100),
                            [this] { a_->set_interface_down(1); });
  ctx_.sched.run();
  EXPECT_TRUE(a_->arrivals.empty());
}

TEST_F(LinkTest, RandomLossDropsApproximatelyTheConfiguredFraction) {
  wire();
  link_->set_loss(Link::Dir::kAToB, 0.3);
  link_->set_loss(Link::Dir::kBToA, 0.3);
  const int n = 2000;
  for (int i = 0; i < n; ++i) a_->transmit(a_->port(1), make_frame(50));
  ctx_.sched.run();
  double rate = 1.0 - static_cast<double>(b_->arrivals.size()) / n;
  EXPECT_NEAR(rate, 0.3, 0.05);
}

TEST_F(LinkTest, DuplicationDeliversTwice) {
  wire({.duplicate_probability = 1.0});
  a_->transmit(a_->port(1), make_frame(50));
  ctx_.sched.run();
  EXPECT_EQ(b_->arrivals.size(), 2u);
  EXPECT_EQ(link_->stats().duplicated(), 1u);
}

TEST_F(LinkTest, ReorderJitterCanSwapFrames) {
  wire({.delay = sim::Duration::micros(1),
        .bandwidth_bps = 100'000'000'000ull,
        .reorder_jitter = sim::Duration::millis(1)});
  bool reordered = false;
  for (int attempt = 0; attempt < 20 && !reordered; ++attempt) {
    b_->arrivals.clear();
    Frame f1 = make_frame(50);
    f1.payload.mutable_data()[0] = 1;
    Frame f2 = make_frame(50);
    f2.payload.mutable_data()[0] = 2;
    a_->transmit(a_->port(1), std::move(f1));
    a_->transmit(a_->port(1), std::move(f2));
    ctx_.sched.run();
    ASSERT_EQ(b_->arrivals.size(), 2u);
    reordered = b_->arrivals[0].frame.payload[0] == 2;
  }
  EXPECT_TRUE(reordered);
}

TEST_F(LinkTest, TrafficStatsAccumulatePerClass) {
  wire();
  a_->transmit(a_->port(1), make_frame(1, TrafficClass::kMtpHello));
  a_->transmit(a_->port(1), make_frame(100, TrafficClass::kMtpData));
  ctx_.sched.run();

  const auto& tx = a_->port(1).tx_stats();
  EXPECT_EQ(tx.of(TrafficClass::kMtpHello).frames, 1u);
  EXPECT_EQ(tx.of(TrafficClass::kMtpHello).bytes, 15u);
  EXPECT_EQ(tx.of(TrafficClass::kMtpHello).padded_bytes, 60u);
  EXPECT_EQ(tx.of(TrafficClass::kMtpData).frames, 1u);
  EXPECT_EQ(tx.total().frames, 2u);
  EXPECT_EQ(b_->port(1).rx_stats().total().frames, 2u);
}

// Every hop from Node::transmit to handle_frame moves the frame. Whether it
// leaves an idle link at once, waits in a priority band behind a backlog, or
// is held by a PAUSE until the RESUME, the receiver gets the slab the sender
// filled as its only owner, and no payload byte is copied on the way.
TEST_F(LinkTest, FramesReachTheReceiverOnTheSentSlab) {
  wire({.delay = sim::Duration::micros(1),
        .bandwidth_bps = 1'000'000'000,
        .priority_queues = true});
  const BufferPoolStats before = BufferPool::instance().stats();
  std::vector<const std::uint8_t*> sent;
  auto send = [&] {
    Frame f = make_frame(1000, TrafficClass::kMtpData);
    sent.push_back(f.payload.data());
    a_->transmit(a_->port(1), std::move(f));
  };
  auto flow_control = [&](std::uint8_t opcode) {  // 1 = PAUSE, 0 = RESUME
    Frame f = make_frame(1, TrafficClass::kPfc);
    f.ethertype = EtherType::kFlowControl;
    f.payload.mutable_data()[0] = opcode;
    b_->transmit(b_->port(1), std::move(f));
  };

  send();  // idle link: straight onto the wire
  send();  // waits in the data band behind the first
  ctx_.sched.run();
  ASSERT_EQ(b_->arrivals.size(), 2u);
  ASSERT_GT(link_->stats().ab.data_backlog_hw_ns, 0u);

  flow_control(1);
  ctx_.sched.run();
  ASSERT_TRUE(link_->data_paused(Link::Dir::kAToB));
  send();  // held in the paused data band
  ctx_.sched.run();
  EXPECT_EQ(b_->arrivals.size(), 2u);
  flow_control(0);
  ctx_.sched.run();

  ASSERT_EQ(b_->arrivals.size(), 3u);
  for (std::size_t i = 0; i < sent.size(); ++i) {
    EXPECT_EQ(b_->arrivals[i].frame.payload.data(), sent[i]) << "frame " << i;
    EXPECT_EQ(b_->arrivals[i].refs, 1u) << "frame " << i;
  }
  const BufferPoolStats& after = BufferPool::instance().stats();
  EXPECT_EQ(after.bytes_copied, before.bytes_copied);
  EXPECT_EQ(after.prepend_copies, before.prepend_copies);
}

// Priority mode and a switch buffer that never refuses, marks or pauses
// must be one egress path: a data burst followed by control frames leaves
// both links in the same order, at the same instants, with the same
// counters — the control frames overtaking the queued data in both.
TEST(BandedEgressTest, PriorityModeMatchesAnInertSwitchBuffer) {
  struct Run {
    std::vector<std::pair<std::uint8_t, std::int64_t>> arrivals;  // (id, ns)
    LinkDirStats ab;
    SwitchBufferStats buffer;
  };
  auto run = [](bool switch_buffer) {
    SimContext ctx(7);
    Network network(ctx);
    auto& a = network.add_node<SinkNode>("a", 1);
    auto& b = network.add_node<SinkNode>("b", 2);
    Link& link = network.connect(
        a, b,
        {.delay = sim::Duration::micros(2),
         .bandwidth_bps = 1'000'000'000,
         .priority_queues = !switch_buffer});
    if (switch_buffer) {
      a.enable_switch_buffer({.pool_bytes = 1u << 30,
                              .dt_alpha = 0.0,
                              .ecn_data_threshold = 0,
                              .pfc_xoff_bytes = 0});
    }
    std::uint8_t id = 0;
    auto send = [&](std::size_t size, TrafficClass tc) {
      Frame f = make_frame(size, tc);
      f.payload.mutable_data()[0] = id++;
      a.transmit(a.port(1), std::move(f));
    };
    for (int i = 0; i < 6; ++i) send(1000, TrafficClass::kMtpData);
    for (int i = 0; i < 3; ++i) send(1, TrafficClass::kMtpHello);
    send(200, TrafficClass::kMtpControl);
    // Once the link is idle again, a control frame takes the fast path and
    // a data frame queues behind it.
    ctx.sched.schedule_at(sim::Time::zero() + sim::Duration::millis(1), [&] {
      send(1, TrafficClass::kMtpHello);
      send(1000, TrafficClass::kMtpData);
    });
    ctx.sched.run();

    Run r;
    for (const auto& arr : b.arrivals) {
      r.arrivals.emplace_back(arr.frame.payload[0], arr.at.ns());
    }
    r.ab = link.stats().ab;
    if (switch_buffer) r.buffer = a.switch_buffer()->stats();
    return r;
  };
  const Run prio = run(false);
  const Run buffered = run(true);

  // The first data frame takes the idle fast path; the four control frames
  // (ids 6-9) go out right behind it, ahead of the five queued data frames.
  std::vector<std::uint8_t> order;
  for (const auto& [id, at] : prio.arrivals) order.push_back(id);
  EXPECT_EQ(order, (std::vector<std::uint8_t>{0, 6, 7, 8, 9, 1, 2, 3, 4, 5,
                                              10, 11}));
  EXPECT_EQ(prio.arrivals, buffered.arrivals);
  EXPECT_EQ(prio.ab, buffered.ab);
  EXPECT_EQ(prio.ab.delivered, 12u);
  EXPECT_GT(prio.ab.data_backlog_hw_ns, 0u);
  EXPECT_GT(prio.ab.control_backlog_hw_ns, 0u);
  // The buffered run really took the buffer's admission steps.
  EXPECT_EQ(buffered.buffer.data_admitted, 6u);
  EXPECT_EQ(buffered.buffer.ctrl_admitted, 4u);
}

TEST(NodeTest, PortNumbersAreOneBasedInCreationOrder) {
  SimContext ctx(1);
  Network network(ctx);
  auto& n = network.add_node<SinkNode>("n", 1);
  EXPECT_EQ(n.add_port().number(), 1u);
  EXPECT_EQ(n.add_port().number(), 2u);
  EXPECT_THROW((void)n.port(0), std::out_of_range);
  EXPECT_THROW((void)n.port(3), std::out_of_range);
}

TEST(NodeTest, TransmitOnUnwiredPortIsSilentlyDropped) {
  SimContext ctx(1);
  Network network(ctx);
  auto& n = network.add_node<SinkNode>("n", 1);
  n.add_port();
  n.transmit(n.port(1), make_frame(10));  // no link: no crash
  ctx.sched.run();
}

TEST(NodeTest, MacAddressesAreUniquePerPort) {
  SimContext ctx(1);
  Network network(ctx);
  auto& x = network.add_node<SinkNode>("x", 1);
  auto& y = network.add_node<SinkNode>("y", 1);
  network.connect(x, y);
  network.connect(x, y);
  EXPECT_FALSE(x.add_port().connected());
  EXPECT_NE(x.port(1).mac(), x.port(2).mac());
  EXPECT_NE(x.port(1).mac(), y.port(1).mac());
  EXPECT_FALSE(x.port(1).mac().is_broadcast());
  EXPECT_TRUE(MacAddr::broadcast().is_broadcast());
  // Wired or not, a port's MAC is derived from its node id and number, and
  // the port accessor stays range-checked on both overloads.
  for (const Node* node : {static_cast<const Node*>(&x),
                           static_cast<const Node*>(&y)}) {
    for (std::uint32_t n = 1; n <= node->port_count(); ++n) {
      const Port& p = node->port(n);
      EXPECT_EQ(p.mac(), MacAddr::for_port(node->id(), p.number())) << p.str();
    }
    EXPECT_THROW((void)node->port(0), std::out_of_range);
    EXPECT_THROW((void)node->port(node->port_count() + 1), std::out_of_range);
  }
  EXPECT_THROW((void)x.port(0), std::out_of_range);
  EXPECT_THROW((void)x.port(x.port_count() + 1), std::out_of_range);
}

TEST(NodeTest, PeerNavigation) {
  SimContext ctx(1);
  Network network(ctx);
  auto& x = network.add_node<SinkNode>("x", 1);
  auto& y = network.add_node<SinkNode>("y", 1);
  network.connect(x, y);
  ASSERT_NE(x.port(1).peer(), nullptr);
  EXPECT_EQ(&x.port(1).peer()->owner(), &y);
}

TEST(NetworkTest, FindByName) {
  SimContext ctx(1);
  Network network(ctx);
  network.add_node<SinkNode>("alpha", 1);
  EXPECT_EQ(network.find("alpha").name(), "alpha");
  EXPECT_THROW((void)network.find("missing"), std::out_of_range);
  EXPECT_EQ(network.find_or_null("missing"), nullptr);
}

TEST(NetworkTest, DoubleWiringAPortThrows) {
  SimContext ctx(1);
  Network network(ctx);
  auto& x = network.add_node<SinkNode>("x", 1);
  auto& y = network.add_node<SinkNode>("y", 1);
  auto& z = network.add_node<SinkNode>("z", 1);
  network.connect(x, y);
  Port& used = x.port(1);
  Port& fresh = z.add_port();
  EXPECT_THROW(Link(used, fresh, {}), std::logic_error);
}

TEST(FrameTest, SerializeLayout) {
  Frame f = make_frame(2);
  f.ethertype = EtherType::kMtp;
  auto bytes = f.serialize();
  ASSERT_EQ(bytes.size(), 16u);
  // Broadcast destination MAC.
  for (int i = 0; i < 6; ++i) EXPECT_EQ(bytes[static_cast<size_t>(i)], 0xff);
  // EtherType 0x8850 (the paper's MTP type).
  EXPECT_EQ(bytes[12], 0x88);
  EXPECT_EQ(bytes[13], 0x50);
}

}  // namespace
}  // namespace mrmtp::net
