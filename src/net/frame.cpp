#include "net/frame.hpp"

namespace mrmtp::net {

std::string_view to_string(TrafficClass tc) {
  switch (tc) {
    case TrafficClass::kMtpControl: return "mtp-control";
    case TrafficClass::kMtpHello: return "mtp-hello";
    case TrafficClass::kMtpData: return "mtp-data";
    case TrafficClass::kBgpUpdate: return "bgp-update";
    case TrafficClass::kBgpKeepalive: return "bgp-keepalive";
    case TrafficClass::kBfd: return "bfd";
    case TrafficClass::kTcpAck: return "tcp-ack";
    case TrafficClass::kIpData: return "ip-data";
    case TrafficClass::kOther: return "other";
    case TrafficClass::kPfc: return "pfc";
  }
  return "?";
}

std::vector<std::uint8_t> Frame::serialize() const {
  util::BufWriter w(wire_size());
  w.bytes(dst.bytes.data(), dst.bytes.size());
  w.bytes(src.bytes.data(), src.bytes.size());
  w.u16(static_cast<std::uint16_t>(ethertype));
  if (!payload.empty()) w.bytes(payload.data(), payload.size());
  return w.take();
}

}  // namespace mrmtp::net
