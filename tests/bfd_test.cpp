// Unit tests: BFD packet codec, session FSM (Down/Init/Up), detection
// timing (tx interval x multiplier), and the 66-byte L2 frame size.
#include <gtest/gtest.h>

#include "bfd/bfd.hpp"
#include "net/network.hpp"

namespace mrmtp::bfd {
namespace {

TEST(BfdPacketTest, SerializesTo24Bytes) {
  BfdPacket p;
  p.state = BfdState::kUp;
  p.my_discriminator = 7;
  auto bytes = p.serialize();
  EXPECT_EQ(bytes.size(), BfdPacket::kSize);
  // At L2: 14 (eth) + 20 (IP) + 8 (UDP) + 24 = 66 bytes — the frame size in
  // the paper's Fig. 9 capture.
  EXPECT_EQ(14 + 20 + 8 + BfdPacket::kSize, 66u);
}

TEST(BfdPacketTest, RoundTrip) {
  BfdPacket p;
  p.state = BfdState::kInit;
  p.detect_mult = 5;
  p.my_discriminator = 42;
  p.your_discriminator = 17;
  p.desired_min_tx_us = 100000;
  BfdPacket q = BfdPacket::parse(p.serialize());
  EXPECT_EQ(q.state, BfdState::kInit);
  EXPECT_EQ(q.detect_mult, 5);
  EXPECT_EQ(q.my_discriminator, 42u);
  EXPECT_EQ(q.your_discriminator, 17u);
  EXPECT_EQ(q.desired_min_tx_us, 100000u);
}

TEST(BfdPacketTest, RejectsMalformed) {
  BfdPacket p;
  auto bytes = p.serialize();
  bytes.mutable_data()[0] = 0x00;  // version 0
  EXPECT_THROW(BfdPacket::parse(bytes), util::CodecError);
  auto short_buf = std::vector<std::uint8_t>(bytes.begin(), bytes.begin() + 10);
  EXPECT_THROW(BfdPacket::parse(short_buf), util::CodecError);
}

/// Two L3 nodes on one link, BFD sessions both sides.
class BfdSessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    a_ = &network_.add_node<transport::L3Node>("a", 1);
    b_ = &network_.add_node<transport::L3Node>("b", 1);
    network_.connect(*a_, *b_);
    a_->configure_port(1, addr_a_, 31);
    b_->configure_port(1, addr_b_, 31);
    mgr_a_ = std::make_unique<BfdManager>(*a_);
    mgr_b_ = std::make_unique<BfdManager>(*b_);
  }

  void start_sessions() {
    sa_ = &mgr_a_->create_session(addr_a_, addr_b_,
                                  [this](bool up) { a_events_.push_back(up); });
    sb_ = &mgr_b_->create_session(addr_b_, addr_a_,
                                  [this](bool up) { b_events_.push_back(up); });
    sa_->start();
    sb_->start();
  }

  void run_for(sim::Duration d) { ctx_.sched.run_until(ctx_.now() + d); }

  net::SimContext ctx_{21};
  net::Network network_{ctx_};
  transport::L3Node* a_ = nullptr;
  transport::L3Node* b_ = nullptr;
  ip::Ipv4Addr addr_a_ = ip::Ipv4Addr::parse("172.16.0.0");
  ip::Ipv4Addr addr_b_ = ip::Ipv4Addr::parse("172.16.0.1");
  std::unique_ptr<BfdManager> mgr_a_;
  std::unique_ptr<BfdManager> mgr_b_;
  BfdSession* sa_ = nullptr;
  BfdSession* sb_ = nullptr;
  std::vector<bool> a_events_;
  std::vector<bool> b_events_;
};

TEST_F(BfdSessionTest, ComesUpThroughInitHandshake) {
  start_sessions();
  run_for(sim::Duration::millis(500));
  EXPECT_EQ(sa_->state(), BfdState::kUp);
  EXPECT_EQ(sb_->state(), BfdState::kUp);
  ASSERT_EQ(a_events_.size(), 1u);
  EXPECT_TRUE(a_events_[0]);
}

TEST_F(BfdSessionTest, DetectsFailureWithinDetectionTime) {
  start_sessions();
  run_for(sim::Duration::millis(500));
  ASSERT_EQ(sa_->state(), BfdState::kUp);

  // b's interface dies; a hears nothing and must declare Down within
  // 3 x 100 ms (+ one interval of phase).
  sim::Time fail_at = ctx_.now();
  b_->set_interface_down(1);
  run_for(sim::Duration::millis(450));
  EXPECT_EQ(sa_->state(), BfdState::kDown);
  ASSERT_EQ(a_events_.size(), 2u);
  EXPECT_FALSE(a_events_[1]);
  (void)fail_at;
}

TEST_F(BfdSessionTest, DetectionTimeMatchesConfig) {
  start_sessions();
  EXPECT_EQ(sa_->detection_time().to_millis(), 300.0);  // 100 ms x 3
}

TEST_F(BfdSessionTest, RecoversAfterInterfaceRestored) {
  start_sessions();
  run_for(sim::Duration::millis(500));
  b_->set_interface_down(1);
  run_for(sim::Duration::millis(500));
  ASSERT_EQ(sa_->state(), BfdState::kDown);
  // b also went down (its own detect timer fired; nothing arrives).
  ASSERT_EQ(sb_->state(), BfdState::kDown);

  b_->set_interface_up(1);
  run_for(sim::Duration::millis(500));
  EXPECT_EQ(sa_->state(), BfdState::kUp);
  EXPECT_EQ(sb_->state(), BfdState::kUp);
}

TEST_F(BfdSessionTest, StopSilencesSession) {
  start_sessions();
  run_for(sim::Duration::millis(500));
  sa_->stop();
  EXPECT_EQ(sa_->state(), BfdState::kAdminDown);
  // b eventually declares a down.
  run_for(sim::Duration::millis(500));
  EXPECT_EQ(sb_->state(), BfdState::kDown);
}

TEST_F(BfdSessionTest, ControlPacketsAre66BytesOnTheWire) {
  start_sessions();
  run_for(sim::Duration::millis(300));
  const auto& c = a_->port(1).tx_stats().of(net::TrafficClass::kBfd);
  ASSERT_GT(c.frames, 0u);
  EXPECT_EQ(c.bytes / c.frames, 66u);
  EXPECT_EQ(c.padded_bytes / c.frames, 66u);  // above the 60-byte minimum
}

TEST_F(BfdSessionTest, SteadyStateRateMatchesTxInterval) {
  start_sessions();
  run_for(sim::Duration::millis(500));
  std::uint64_t before =
      a_->port(1).tx_stats().of(net::TrafficClass::kBfd).frames;
  run_for(sim::Duration::seconds(1));
  std::uint64_t frames =
      a_->port(1).tx_stats().of(net::TrafficClass::kBfd).frames - before;
  EXPECT_NEAR(static_cast<double>(frames), 10.0, 1.0);  // ~10/s at 100 ms
}

TEST_F(BfdSessionTest, ManagerDemuxesByPeer) {
  start_sessions();
  EXPECT_EQ(mgr_a_->find(addr_b_), sa_);
  EXPECT_EQ(mgr_a_->find(ip::Ipv4Addr::parse("9.9.9.9")), nullptr);
  EXPECT_EQ(mgr_a_->session_count(), 1u);

  // Sessions created out of address order are each found by their peer;
  // of two sessions to one peer, the first created answers.
  std::vector<std::pair<ip::Ipv4Addr, BfdSession*>> made;
  for (const char* peer : {"172.16.0.9", "10.0.0.1", "192.168.1.1",
                           "172.16.0.3", "10.0.0.1"}) {
    const auto addr = ip::Ipv4Addr::parse(peer);
    made.emplace_back(addr, &mgr_a_->create_session(addr_a_, addr, {}));
  }
  EXPECT_EQ(mgr_a_->session_count(), 6u);
  EXPECT_EQ(mgr_a_->find(addr_b_), sa_);
  for (std::size_t i = 0; i + 1 < made.size(); ++i) {
    EXPECT_EQ(mgr_a_->find(made[i].first), made[i].second)
        << made[i].first.str();
  }
  EXPECT_NE(made.back().second, made[1].second);
  EXPECT_EQ(mgr_a_->find(ip::Ipv4Addr::parse("10.0.0.0")), nullptr);
  EXPECT_EQ(mgr_a_->find(ip::Ipv4Addr::parse("172.16.0.4")), nullptr);
  EXPECT_EQ(mgr_a_->find(ip::Ipv4Addr::parse("255.255.255.255")), nullptr);
}

}  // namespace
}  // namespace mrmtp::bfd
