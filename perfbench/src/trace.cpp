#include "trace.hpp"

namespace perfbench {

using mrmtp::util::Json;
using mrmtp::util::JsonObject;

void Trace::span(const std::string& name, const std::string& layer,
                 Clock::time_point start, Clock::time_point end, Json args) {
  if (!enabled_) return;
  Json ev = JsonObject{};
  ev["name"] = name;
  ev["cat"] = layer;
  ev["ph"] = "X";
  ev["ts"] = micros_since_origin(start);
  ev["dur"] = micros_since_origin(end) - micros_since_origin(start);
  ev["pid"] = 1;
  ev["tid"] = 1;
  ev["args"] = std::move(args);
  events_.push_back(std::move(ev));
}

void Trace::counter(const std::string& name, Clock::time_point at,
                    Json values) {
  if (!enabled_) return;
  Json ev = JsonObject{};
  ev["name"] = name;
  ev["ph"] = "C";
  ev["ts"] = micros_since_origin(at);
  ev["pid"] = 1;
  ev["args"] = std::move(values);
  events_.push_back(std::move(ev));
}

Json Trace::to_chrome(Json metadata) const {
  Json doc = JsonObject{};
  doc["traceEvents"] = events_;
  doc["displayTimeUnit"] = "ms";
  doc["otherData"] = std::move(metadata);
  return doc;
}

}  // namespace perfbench
