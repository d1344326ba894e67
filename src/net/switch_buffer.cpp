#include "net/switch_buffer.hpp"

#include <algorithm>

#include "net/link.hpp"
#include "net/node.hpp"

namespace mrmtp::net {

SwitchBuffer::SwitchBuffer(Node& owner, const Params& params)
    : owner_(&owner),
      params_(params),
      effective_pool_(params.pool_bytes) {}

SwitchBuffer::PortState& SwitchBuffer::state(std::uint32_t port_no) {
  if (port_no >= ports_.size()) ports_.resize(port_no + 1);
  return ports_[port_no];
}

bool SwitchBuffer::ingress_paused(std::uint32_t port_no) const {
  return port_no < ports_.size() && ports_[port_no].paused_peer;
}

bool SwitchBuffer::admit_egress(std::uint32_t port_no, std::uint64_t bytes) {
  PortState& ps = state(port_no);
  if (pool_used_ + bytes > effective_pool_) {
    ++stats_.dropped;
    return false;
  }
  if (params_.dt_alpha > 0) {
    std::uint64_t free = effective_pool_ - pool_used_;
    auto cap = params_.port_reserve_bytes +
               static_cast<std::uint64_t>(params_.dt_alpha *
                                          static_cast<double>(free));
    if (ps.egress_bytes + bytes > cap) {
      ++stats_.dropped;
      return false;
    }
  }
  ps.egress_bytes += bytes;
  pool_used_ += bytes;
  ++stats_.data_admitted;
  stats_.occupancy_hw = std::max(stats_.occupancy_hw, pool_used_);
  stats_.port_occupancy_hw =
      std::max(stats_.port_occupancy_hw, ps.egress_bytes);
  return true;
}

void SwitchBuffer::release_egress(std::uint32_t port_no, std::uint64_t bytes) {
  PortState& ps = state(port_no);
  ps.egress_bytes -= std::min(bytes, ps.egress_bytes);
  pool_used_ -= std::min(bytes, pool_used_);
}

void SwitchBuffer::charge_ingress(std::uint32_t port_no, std::uint64_t bytes) {
  if (params_.pfc_xoff_bytes == 0) return;
  PortState& ps = state(port_no);
  ps.ingress_bytes += bytes;
  if (!ps.paused_peer && ps.ingress_bytes >= params_.pfc_xoff_bytes) {
    ps.paused_peer = true;
    ++stats_.pause_onsets;
    signal(port_no, true);
  }
}

void SwitchBuffer::release_ingress(std::uint32_t port_no, std::uint64_t bytes) {
  if (params_.pfc_xoff_bytes == 0) return;
  PortState& ps = state(port_no);
  ps.ingress_bytes -= std::min(bytes, ps.ingress_bytes);
  if (ps.paused_peer && ps.ingress_bytes <= params_.pfc_xon_bytes) {
    ps.paused_peer = false;
    ++stats_.resume_onsets;
    signal(port_no, false);
  }
}

void SwitchBuffer::signal(std::uint32_t port_no, bool pause) {
  Port& p = owner_->port(port_no);
  if (!p.connected() || !p.admin_up()) return;
  Frame f;
  f.dst = MacAddr::broadcast();
  f.src = p.mac();
  f.ethertype = EtherType::kFlowControl;
  f.traffic_class = TrafficClass::kPfc;
  // [opcode, band mask]: opcode 1 = PAUSE, 0 = RESUME; only the data band
  // (bit 1) is pausable today.
  f.payload = {static_cast<std::uint8_t>(pause ? 1 : 0), std::uint8_t{0x02}};
  p.link()->note_pause_tx(p);
  owner_->transmit(p, std::move(f));
}

void SwitchBuffer::squeeze(double frac) {
  frac = std::clamp(frac, 0.0, 1.0);
  auto shrunk = static_cast<std::uint64_t>(
      static_cast<double>(params_.pool_bytes) * frac);
  effective_pool_ = std::max<std::uint64_t>(1, shrunk);
}

void SwitchBuffer::restore() { effective_pool_ = params_.pool_bytes; }

bool mark_ce(Frame& frame) {
  int off = frame.ip_offset();
  if (off < 0) return false;
  std::size_t o = static_cast<std::size_t>(off);
  if (frame.payload.size() < o + 20) return false;
  // mutable_data() copies the slab first if it is shared (e.g. a pcap tap
  // retaining the original bytes), so captures can never mutate after the
  // fact.
  std::uint8_t* b = frame.payload.mutable_data() + o;
  if ((b[0] >> 4) != 4) return false;
  std::size_t ihl = static_cast<std::size_t>(b[0] & 0x0f) * 4;
  if (ihl < 20 || frame.payload.size() < o + ihl) return false;
  if ((b[1] & 0x03) == 0x03) return false;  // already CE
  b[1] |= 0x03;
  // Recompute the header checksum (RFC 1071, mirrors ip::internet_checksum —
  // net cannot link against the ip codec).
  b[10] = 0;
  b[11] = 0;
  std::uint32_t sum = 0;
  for (std::size_t i = 0; i + 1 < ihl; i += 2) {
    sum += static_cast<std::uint32_t>(b[i]) << 8 | b[i + 1];
  }
  while ((sum >> 16) != 0) sum = (sum & 0xffff) + (sum >> 16);
  auto ck = static_cast<std::uint16_t>(~sum);
  b[10] = static_cast<std::uint8_t>(ck >> 8);
  b[11] = static_cast<std::uint8_t>(ck & 0xff);
  return true;
}

}  // namespace mrmtp::net
