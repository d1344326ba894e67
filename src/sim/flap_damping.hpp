// Flap damping (RFC 2439-flavoured), shared by MR-MTP ports and BGP
// sessions: every flap adds a figure of merit that halves each
// kDampingHalfLife. At or above kDampingSuppress the neighbor is held off
// (MR-MTP stops re-accepting it, BGP defers its reconnect) until the penalty
// decays to kDampingReuse. With a per-flap penalty of 1500 a single clean
// failure/recovery never suppresses; three flaps inside a couple of seconds
// do.
#pragma once

#include <cmath>

#include "sim/time.hpp"

namespace mrmtp::sim {

inline constexpr double kDampingSuppress = 2500;
inline constexpr double kDampingReuse = 750;
inline constexpr Duration kDampingHalfLife = Duration::seconds(2);

/// A penalty decayed lazily: it is stored with the instant it was last
/// brought up to date and decayed on read.
struct FlapPenalty {
  double value = 0;
  Time updated{};

  /// The penalty decayed to `now` (no mutation).
  [[nodiscard]] double at(Time now) const {
    if (value <= 0.0) return 0.0;
    Duration dt = now - updated;
    if (dt <= Duration{}) return value;
    return value * std::exp2(-static_cast<double>(dt.ns()) /
                             static_cast<double>(kDampingHalfLife.ns()));
  }
  /// Decays the stored penalty to `now` in place.
  void decay_to(Time now) {
    value = at(now);
    updated = now;
  }
  /// One flap at `now`: decay, then add `amount`.
  void charge(Time now, double amount) {
    decay_to(now);
    value += amount;
  }
};

}  // namespace mrmtp::sim
