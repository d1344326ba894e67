// Bidirectional Forwarding Detection (RFC 5880), asynchronous mode.
//
// The paper enables BFD under BGP with a 100 ms transmit interval and detect
// multiplier 3 (300 ms dead time). Control packets are the real 24-byte
// format carried in UDP/IP, so each one costs 14+20+8+24 = 66 bytes at L2 —
// the size visible in the paper's Fig. 9 capture.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "sim/random.hpp"
#include "transport/l3_node.hpp"

namespace mrmtp::bfd {

constexpr std::uint16_t kBfdPort = 3784;
/// Transmit interval and detect multiplier of every session (paper §VII.F).
inline constexpr sim::Duration kTxInterval = sim::Duration::millis(100);
inline constexpr int kDetectMult = 3;

enum class BfdState : std::uint8_t {
  kAdminDown = 0,
  kDown = 1,
  kInit = 2,
  kUp = 3,
};

/// RFC 5880 section 4.1 control packet (mandatory section only).
struct BfdPacket {
  static constexpr std::size_t kSize = 24;

  BfdState state = BfdState::kDown;
  std::uint8_t detect_mult = 3;
  std::uint32_t my_discriminator = 0;
  std::uint32_t your_discriminator = 0;
  std::uint32_t desired_min_tx_us = 100000;
  std::uint32_t required_min_rx_us = 100000;

  /// The 24 bytes in a pooled buffer whose headroom takes the UDP and IP
  /// headers in place.
  [[nodiscard]] net::Buffer serialize() const;
  static BfdPacket parse(std::span<const std::uint8_t> data);
};

class BfdSession {
 public:
  /// `on_state_change(up)` fires on every Up <-> Down transition.
  using StateCallback = std::function<void(bool up)>;

  BfdSession(transport::L3Node& node, ip::Ipv4Addr local, ip::Ipv4Addr peer,
             StateCallback on_state_change, std::uint32_t discriminator);

  void start();
  void stop();

  /// Moves the tx-jitter draws onto a private stream so they depend only on
  /// this session's own send order (sharded-run determinism). Call before
  /// start().
  void use_stream_rng(std::uint64_t seed) { rng_.emplace(seed); }

  void handle_packet(const BfdPacket& pkt);

  [[nodiscard]] BfdState state() const { return state_; }
  [[nodiscard]] ip::Ipv4Addr peer() const { return peer_; }
  [[nodiscard]] static constexpr sim::Duration detection_time() {
    return kTxInterval * kDetectMult;
  }

 private:
  void send_control();
  void arm_tx();
  void set_state(BfdState s);
  void arm_detect();

  transport::L3Node& node_;
  ip::Ipv4Addr local_;
  ip::Ipv4Addr peer_;
  StateCallback on_state_change_;
  std::uint32_t discriminator_;
  std::uint32_t remote_discriminator_ = 0;

  BfdState state_ = BfdState::kDown;
  std::optional<sim::Rng> rng_;  // empty: draw from the node's shared rng
  sim::Timer tx_timer_;
  sim::Timer detect_timer_;
};

/// Owns all BFD sessions of one router and demuxes UDP 3784 by source.
class BfdManager {
 public:
  explicit BfdManager(transport::L3Node& node);

  BfdSession& create_session(ip::Ipv4Addr local, ip::Ipv4Addr peer,
                             BfdSession::StateCallback on_state_change);

  /// The session to `peer`; of several, the first created.
  [[nodiscard]] BfdSession* find(ip::Ipv4Addr peer);
  [[nodiscard]] std::size_t session_count() const { return sessions_.size(); }

 private:
  transport::L3Node& node_;
  /// Sorted by peer; sessions to one peer in creation order.
  std::vector<std::unique_ptr<BfdSession>> sessions_;
  std::uint32_t next_discriminator_ = 1;
};

}  // namespace mrmtp::bfd
