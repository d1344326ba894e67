// 48-bit MAC addresses.
//
// MR-MTP frames use the broadcast destination MAC (paper §VII.F): links are
// point-to-point, so broadcast delivers to exactly the peer and avoids ARP.
#pragma once

#include <array>
#include <compare>
#include <cstdint>

namespace mrmtp::net {

struct MacAddr {
  std::array<std::uint8_t, 6> bytes{};

  static constexpr MacAddr broadcast() {
    return MacAddr{{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}};
  }

  /// Deterministic locally-administered unicast MAC for (node, port).
  static constexpr MacAddr for_port(std::uint32_t node_id, std::uint32_t port) {
    return MacAddr{{0x02, 0x00,
                    static_cast<std::uint8_t>(node_id >> 8),
                    static_cast<std::uint8_t>(node_id & 0xff),
                    static_cast<std::uint8_t>(port >> 8),
                    static_cast<std::uint8_t>(port & 0xff)}};
  }

  [[nodiscard]] bool is_broadcast() const { return *this == broadcast(); }

  auto operator<=>(const MacAddr&) const = default;
};

}  // namespace mrmtp::net
