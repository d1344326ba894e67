// TCP-lite: a reliable, in-order byte stream for BGP sessions.
//
// Implements the parts of TCP that matter for the paper's measurements:
//   * three-way handshake, cumulative acknowledgements, go-back-N
//     retransmission with exponential backoff, fast retransmit on three
//     duplicate ACKs, delayed pure ACKs;
//   * a 32-byte header (20 base + 12 bytes of timestamp option), which makes
//     a BGP KEEPALIVE 14 + 20 + 32 + 19 = 85 bytes at layer 2 — the exact
//     size the paper reports from its captures (Section VII.F);
//   * pure ACKs are traffic-classified separately, since the paper calls out
//     "Included in BGP communications is TCP acknowledgements" as overhead.
//
// Segments are carried over an IpSender abstraction provided by the router
// node, so the transport is testable without any topology.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "ip/addr.hpp"
#include "ip/packet.hpp"
#include "net/buffer.hpp"
#include "net/frame.hpp"
#include "net/node.hpp"
#include "util/byte_io.hpp"

namespace mrmtp::transport {

/// Services a transport endpoint needs from its host node.
class IpSender {
 public:
  virtual ~IpSender() = default;

  /// Emits an IP packet into the fabric (routed by the host's data plane).
  /// The payload is a pooled buffer; movable callers keep its slab unique so
  /// the IP header prepends into headroom without a copy. Vectors convert
  /// implicitly (one counted import copy).
  virtual void send_ip(ip::Ipv4Addr src, ip::Ipv4Addr dst, ip::IpProto proto,
                       net::Buffer payload,
                       net::TrafficClass traffic_class) = 0;

  virtual net::SimContext& sim() = 0;
};

struct TcpFlags {
  bool syn = false;
  bool ack = false;
  bool fin = false;
  bool rst = false;
  /// ECN-Echo: the receiver saw CE on its most recent data segment (DCTCP's
  /// per-ACK echo — no RFC 3168 latching).
  bool ece = false;
  /// Congestion Window Reduced: first data segment after an ECE-driven cut.
  bool cwr = false;
};

struct TcpSegment {
  static constexpr std::size_t kHeaderSize = 32;  // 20 base + 12 TS option

  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint32_t seq = 0;
  std::uint32_t ack = 0;
  TcpFlags flags;
  net::Buffer payload;

  /// Writes this segment's header in front of `data` (ignoring `payload`)
  /// through net::Buffer::prepend: in place when `data` owns its slab alone,
  /// otherwise into a fresh slab, so the result is never shared with the
  /// view it was sliced from.
  [[nodiscard]] net::Buffer encapsulate(net::Buffer data) const;
  /// Header + payload, leaving `payload` untouched.
  [[nodiscard]] net::Buffer serialize() const;
  /// The payload of the result is a slice sharing `data`'s slab.
  static TcpSegment parse(const net::Buffer& data);
};

/// Retransmission and segmentation knobs for TCP-lite connections.
struct TcpTuning {
  sim::Duration rto = sim::Duration::millis(200);
  int max_retransmits = 8;
  std::size_t mss = 1448;
  /// Delayed-ACK timer; a pure ACK is sent when it fires with no piggyback
  /// opportunity.
  sim::Duration delayed_ack = sim::Duration::millis(10);
  /// Ceiling for the exponential RTO backoff (a lost SYN no longer waits
  /// 200 ms * 2^6 before the cap applies).
  sim::Duration rto_max = sim::Duration::seconds(5);
  /// ± fractional seeded jitter applied to every armed RTO, so an incast's
  /// synchronized retransmit storm de-correlates instead of re-colliding
  /// every backoff epoch. The draw stream is per-connection, seeded from the
  /// 4-tuple — deterministic at any shard count.
  double rto_jitter = 0.1;
  /// Initial/idle congestion window in segments. Deliberately generous so
  /// uncongested control-plane sessions (the pre-finite-buffer behavior)
  /// never hit the window; DCTCP cuts it only when CE marks arrive.
  std::size_t init_cwnd_segments = 64;
  /// DCTCP gain g for the EWMA of the marked-byte fraction.
  double dctcp_g = 0.0625;
  /// Echo + react to ECN CE marks (DCTCP-style fractional cwnd reduction).
  bool ecn_enabled = true;
};

/// One TCP-lite connection. Created by TcpStack.
class TcpConnection {
 public:
  enum class State {
    kClosed,
    kListen,
    kSynSent,
    kSynReceived,
    kEstablished,
  };

  struct Callbacks {
    std::function<void()> on_established;
    std::function<void(std::span<const std::uint8_t>)> on_data;
    /// Connection reset or failed (retransmission exhausted / RST received).
    std::function<void()> on_closed;
  };

  TcpConnection(IpSender& ip, ip::Ipv4Addr local, std::uint16_t local_port,
                ip::Ipv4Addr remote, std::uint16_t remote_port,
                Callbacks callbacks, TcpTuning tuning = {});
  ~TcpConnection();

  TcpConnection(const TcpConnection&) = delete;
  TcpConnection& operator=(const TcpConnection&) = delete;

  /// Active open (sends SYN).
  void connect();
  /// Passive open (awaits SYN).
  void listen();

  /// Queues application bytes; `traffic_class` labels the frames that carry
  /// them (BGP UPDATE vs KEEPALIVE accounting). The queue keeps `data` until
  /// it is acknowledged. A segment carrying exactly one queued message is a
  /// slice of it, copied once into a fresh pooled slab as the TCP header is
  /// prepended, so the frame sent owns its slab alone and may cross shards.
  void send(net::Buffer data, net::TrafficClass traffic_class);

  /// Aborts with RST.
  void reset();

  /// `ce` = the IP packet carrying this segment arrived CE-marked.
  void handle_segment(const TcpSegment& seg, bool ce = false);

  /// The backed-off RTO for the given consecutive-retransmit count: rto *
  /// 2^count, clamped at rto_max, with ±rto_jitter applied from `rng`.
  /// Static so tests can assert the clamp/jitter envelope directly.
  [[nodiscard]] static sim::Duration backoff_rto(const TcpTuning& tuning,
                                                 int retransmits,
                                                 sim::Rng& rng);

  [[nodiscard]] std::uint64_t cwnd() const { return cwnd_; }
  [[nodiscard]] double dctcp_alpha() const { return dctcp_alpha_; }

  /// Replaces the callback set (used by passive acceptors).
  void set_callbacks(Callbacks callbacks) { callbacks_ = std::move(callbacks); }

  [[nodiscard]] State state() const { return state_; }
  [[nodiscard]] bool established() const { return state_ == State::kEstablished; }
  [[nodiscard]] ip::Ipv4Addr local_addr() const { return local_; }
  [[nodiscard]] ip::Ipv4Addr remote_addr() const { return remote_; }
  [[nodiscard]] std::uint16_t local_port() const { return local_port_; }
  [[nodiscard]] std::uint16_t remote_port() const { return remote_port_; }

 private:
  struct SendChunk {
    net::Buffer data;  // unacknowledged bytes of one send() call
    net::TrafficClass traffic_class;
  };

  void emit(TcpFlags flags, std::uint32_t seq, net::Buffer payload,
            net::TrafficClass tc);
  /// Up to `limit` queued bytes starting `offset` bytes into chunk `index`,
  /// and the traffic class of that chunk. Bytes within one chunk are a
  /// slice of it; a segment spanning chunks is gathered into a new buffer.
  [[nodiscard]] std::pair<net::Buffer, net::TrafficClass> queued_bytes(
      std::size_t index, std::size_t offset, std::size_t limit) const;
  void try_send_data();
  void retransmit();
  /// Resends one MSS from snd_una_ (go-back-N head).
  void resend_head();
  void arm_rto();
  void schedule_ack();
  void fail_connection();

  IpSender& ip_;
  ip::Ipv4Addr local_;
  std::uint16_t local_port_;
  ip::Ipv4Addr remote_;
  std::uint16_t remote_port_;
  Callbacks callbacks_;
  TcpTuning tuning_;

  State state_ = State::kClosed;

  std::uint32_t snd_una_ = 0;  // oldest unacked seq
  std::uint32_t snd_nxt_ = 0;  // next seq to send
  std::uint32_t rcv_nxt_ = 0;  // next expected remote seq

  /// Unacknowledged + unsent application data, in seq order from snd_una_.
  std::deque<SendChunk> send_queue_;
  /// Where the first unsent byte (seq snd_nxt_) sits in send_queue_: chunk
  /// `index`, `offset` bytes in, with offset < that chunk's size; index ==
  /// send_queue_.size() when every queued byte is in flight.
  struct Cursor {
    std::size_t index = 0;
    std::size_t offset = 0;
  };
  Cursor unsent_;

  sim::Timer rto_timer_;
  sim::Timer ack_timer_;
  /// Per-connection RTO-jitter stream, seeded from the 4-tuple (see
  /// TcpTuning::rto_jitter).
  sim::Rng jitter_rng_;

  /// Congestion control: byte-denominated cwnd (slow start below ssthresh_,
  /// AIMD above) plus DCTCP state — the EWMA `dctcp_alpha_` of the
  /// ECE-acked byte fraction, accumulated per ~RTT observation window
  /// ending at `dctcp_window_end_`.
  std::uint64_t cwnd_ = 0;
  std::uint64_t ssthresh_ = 0;
  double dctcp_alpha_ = 0.0;
  std::uint64_t ce_acked_ = 0;
  std::uint64_t total_acked_ = 0;
  std::uint32_t dctcp_window_end_ = 0;
  /// Receiver side: CE state of the most recent in-order data segment,
  /// echoed as ECE on every ACK until it changes (DCTCP echo).
  bool ce_to_echo_ = false;
  /// Sender side: set CWR on the next data segment after an ECE cut.
  bool cwr_pending_ = false;

  int retransmit_count_ = 0;
  int dup_acks_ = 0;  // fast retransmit after 3 duplicate ACKs
  /// NewReno-style recovery: after a fast retransmit, partial ACKs below
  /// this point each trigger another head retransmission.
  std::uint32_t recover_point_ = 0;
  bool in_recovery_ = false;
  bool ack_pending_ = false;
};

/// Demultiplexes TCP segments to connections; owns them.
class TcpStack {
 public:
  explicit TcpStack(IpSender& ip) : ip_(ip) {}

  /// Registers a passive listener. `on_accept` receives each freshly
  /// created connection (in kListen state) to install callbacks via
  /// set_callbacks() and stash the pointer.
  using Acceptor = std::function<void(TcpConnection&)>;
  void listen(std::uint16_t port, Acceptor on_accept);

  /// Creates and actively opens a connection.
  TcpConnection& connect(ip::Ipv4Addr local, std::uint16_t local_port,
                         ip::Ipv4Addr remote, std::uint16_t remote_port,
                         TcpConnection::Callbacks callbacks,
                         TcpTuning tuning = {});

  /// Entry point from the host's IP demux. `ce` = the carrying IP packet
  /// arrived with ECN CE set (a finite-buffer switch marked it en route).
  void handle_packet(ip::Ipv4Addr src, ip::Ipv4Addr dst,
                     const net::Buffer& payload, bool ce = false);

  /// Destroys a connection (its callbacks must not run afterwards).
  void destroy(TcpConnection& conn);

  /// Node-reboot teardown: RSTs every connection (established peers learn
  /// immediately; half-open peers exhaust their own retransmits) and drops
  /// all listeners, so a later listen() starts from a clean stack instead
  /// of accumulating duplicate acceptors.
  void shutdown();

  [[nodiscard]] std::size_t connection_count() const { return conns_.size(); }

 private:
  struct Listener {
    std::uint16_t port;
    Acceptor acceptor;
  };

  TcpConnection* find(ip::Ipv4Addr local, std::uint16_t local_port,
                      ip::Ipv4Addr remote, std::uint16_t remote_port);

  IpSender& ip_;
  std::vector<Listener> listeners_;
  std::vector<std::unique_ptr<TcpConnection>> conns_;
};

}  // namespace mrmtp::transport
