// Span recorder for the traced benchmark run.
//
// Spans are taken in the benchmark's own code, around each call it makes
// into a simulator layer (blueprint, deployment, start, converged(), each
// run_until slice, the auditor sweep, the workload engine). They are kept in
// memory and written once, at the end, as Chrome trace-event JSON through
// util::Json, so the file loads in Perfetto (ui.perfetto.dev) or
// chrome://tracing with no extra dependency.
#pragma once

#include <chrono>
#include <string>

#include "util/json.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point from,
                                            Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

class Trace {
 public:
  /// A disabled trace records nothing; every call is a cheap no-op.
  explicit Trace(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// One complete span ("ph":"X"). `layer` becomes the event category, so
  /// Perfetto can filter by src/ module; `args` carries counter deltas.
  void span(const std::string& name, const std::string& layer,
            Clock::time_point start, Clock::time_point end,
            mrmtp::util::Json args = mrmtp::util::JsonObject{});

  /// A counter sample ("ph":"C"); each member of `values` is one series.
  void counter(const std::string& name, Clock::time_point at,
               mrmtp::util::Json values);

  /// The whole trace as a Chrome trace-event document; `metadata` lands in
  /// "otherData" (workload, seed, build provenance).
  [[nodiscard]] mrmtp::util::Json to_chrome(mrmtp::util::Json metadata) const;

 private:
  [[nodiscard]] double micros_since_origin(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }

  bool enabled_;
  Clock::time_point origin_;
  mrmtp::util::JsonArray events_;
};

}  // namespace perfbench
