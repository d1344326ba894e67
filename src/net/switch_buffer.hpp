// Finite shared egress buffering for one switch, with ECN marking and
// PFC-style per-class backpressure.
//
// Every Link so far bounded its queue by serialization-time depth alone —
// effectively elastic memory. A SwitchBuffer makes bytes the scarce resource:
// data-band frames admitted to any of the node's egress bands are charged
// (at padded wire size) against one shared per-switch pool, optionally
// capped per port by a dynamic threshold (DT: cap = reserve + alpha * free
// shared bytes, the classic Choudhury–Hahne scheme) or left fully shared
// (alpha <= 0, the commodity tail-drop configuration that congestion can
// drive to 100% occupancy). The control band keeps its serialization-time
// carve-out from the priority-queue feature and is never charged to the
// pool, which is what keeps hellos/ACKs deliverable at full data occupancy.
//
// PFC: each admitted data frame is also charged to the *ingress* port it
// arrived on. When an ingress account crosses `pfc_xoff_bytes` the switch
// sends a PAUSE frame out that port (EtherType::kFlowControl, control band);
// the peer Link stops serving its data band toward us until a RESUME follows
// at `pfc_xon_bytes`. Pause state lives in the Link (the entity that owns
// the paused transmitter), so backpressure propagates hop by hop as each
// upstream switch's own buffers fill in turn.
//
// ECN: data frames admitted behind more than `ecn_data_threshold` bytes of
// data-band backlog get their IPv4 ECN field set to CE in place (checksum
// patched), wire-accurately — receivers and transports see exactly what a
// real ECN-marking switch would have produced. Control frames are never
// marked.
#pragma once

#include <cstdint>
#include <vector>

#include "net/frame.hpp"
#include "net/stats.hpp"

namespace mrmtp::net {

class Node;

/// Configuration of one switch's shared buffer. Defaults model a shallow
/// merchant-silicon ToR: 1 MiB shared, DT alpha 1, DCTCP-ish marking step.
struct SwitchBufferParams {
  /// Shared data-band pool in bytes.
  std::uint64_t pool_bytes = 1u << 20;
  /// Per-egress-port guaranteed bytes (admitted even when the DT cap would
  /// otherwise refuse; only meaningful with dt_alpha > 0).
  std::uint64_t port_reserve_bytes = 16u << 10;
  /// Dynamic-threshold alpha: per-port cap = reserve + alpha * free shared
  /// bytes. <= 0 disables the per-port cap entirely — pure shared tail-drop,
  /// under which one incast can fill the pool to 100%.
  double dt_alpha = 1.0;
  /// ECN CE-mark threshold for the data band, in bytes of same-band backlog
  /// at admission. 0 = no data-band marking.
  std::uint64_t ecn_data_threshold = 64u << 10;
  /// PFC thresholds on the per-ingress-port account: PAUSE above xoff,
  /// RESUME at/below xon. xoff = 0 disables PFC generation.
  std::uint64_t pfc_xoff_bytes = 96u << 10;
  std::uint64_t pfc_xon_bytes = 32u << 10;
};

class SwitchBuffer {
 public:
  using Params = SwitchBufferParams;
  using Stats = SwitchBufferStats;

  SwitchBuffer(Node& owner, const Params& params);

  SwitchBuffer(const SwitchBuffer&) = delete;
  SwitchBuffer& operator=(const SwitchBuffer&) = delete;

  /// Charges `bytes` to the pool and the egress port's DT account. False =
  /// refused (pool or cap exhausted); the caller drops the frame.
  [[nodiscard]] bool admit_egress(std::uint32_t port_no, std::uint64_t bytes);
  void release_egress(std::uint32_t port_no, std::uint64_t bytes);

  /// Charges `bytes` to the ingress port the frame arrived on; crossing the
  /// PFC xoff threshold sends a PAUSE frame out that port. No-op with PFC
  /// disabled.
  void charge_ingress(std::uint32_t port_no, std::uint64_t bytes);
  void release_ingress(std::uint32_t port_no, std::uint64_t bytes);

  void note_ctrl_admitted() { ++stats_.ctrl_admitted; }
  void note_ecn_mark() { ++stats_.ecn_marked; }

  /// Chaos hook (kBufferSqueeze): shrinks the effective pool to
  /// `frac * pool_bytes` (floor 1). Already-buffered bytes stay; only new
  /// admissions see the squeezed pool. restore() undoes it.
  void squeeze(double frac);
  void restore();

  [[nodiscard]] const Params& params() const { return params_; }
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] std::uint64_t pool_used() const { return pool_used_; }
  [[nodiscard]] std::uint64_t effective_pool() const { return effective_pool_; }
  [[nodiscard]] bool exhausted() const { return pool_used_ >= effective_pool_; }
  /// True while this switch has PAUSEd the peer on `port_no`.
  [[nodiscard]] bool ingress_paused(std::uint32_t port_no) const;

 private:
  struct PortState {
    std::uint64_t egress_bytes = 0;   // charged to this egress port
    std::uint64_t ingress_bytes = 0;  // buffered bytes that arrived here
    bool paused_peer = false;         // we sent PAUSE, no RESUME yet
  };

  PortState& state(std::uint32_t port_no);
  /// Sends a PFC PAUSE (true) / RESUME (false) frame out `port_no`.
  void signal(std::uint32_t port_no, bool pause);

  Node* owner_;
  Params params_;
  /// Pool cap admissions are checked against; == params_.pool_bytes unless
  /// squeezed by chaos.
  std::uint64_t effective_pool_;
  std::uint64_t pool_used_ = 0;
  /// Indexed by 1-based port number; grown on demand (live expansion can
  /// wire ports after the buffer is enabled).
  std::vector<PortState> ports_;
  Stats stats_;
};

/// Sets the IPv4 ECN field of the frame's (possibly encapsulated) IP header
/// to CE, in place, patching the header checksum — the raw-byte equivalent
/// of ip::Ipv4Header round-tripping, kept here because net cannot depend on
/// the ip codec layer. Returns true iff a new mark was applied (false when
/// there is no reachable IPv4 header or the packet is already CE).
bool mark_ce(Frame& frame);

}  // namespace mrmtp::net
