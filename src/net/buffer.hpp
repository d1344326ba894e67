// Pooled, refcounted frame payload buffers.
//
// Every frame payload in the simulator is a `Buffer`: a view (offset, length)
// into a refcounted slab drawn from a per-thread pool of fixed size classes.
// Copying a Buffer shares the slab (refcount bump, no bytes move), which is
// what lets a data frame travel host -> ToR -> spine -> ToR -> host in one
// allocation: links hand the same slab to the next node, pcap taps retain it,
// and encapsulation *prepends* headers into reserved headroom instead of
// re-serializing the packet behind them.
//
// Mutation discipline: in-place writes (prepend, patch) are only legal while
// the slab is uniquely owned. Shared slabs — a tap holding a capture, a
// duplicated delivery in flight — force a counted copy-on-write instead, so
// captured bytes can never change after the fact. The pool tracks both paths
// (`prepend_inplace` vs `prepend_copies`, `bytes_shared` vs `bytes_copied`),
// which is how tests assert the steady-state forwarding loop is zero-copy.
//
// Released slabs return to a bounded freelist; in poison mode (on by default
// under ASan) their bytes are clobbered and the region is ASan-poisoned so a
// stale view faults instead of silently reading recycled payload.
#pragma once

#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <span>
#include <vector>

namespace mrmtp::net {

/// Pool-wide counters; deltas across a run window are the zero-copy proof.
struct BufferPoolStats {
  std::uint64_t slab_allocs = 0;     // new slabs from the heap
  std::uint64_t slab_reuses = 0;     // slabs served from a freelist
  std::uint64_t slab_returns = 0;    // slabs returned to a freelist
  std::uint64_t oversize_allocs = 0; // larger than every size class
  std::uint64_t prepend_inplace = 0; // headers written into headroom
  std::uint64_t prepend_copies = 0;  // headroom/uniqueness miss -> copy
  std::uint64_t writer_regrows = 0;  // BufferWriter outgrew its slab
  std::uint64_t import_bytes = 0;    // bytes copied in from foreign storage
  std::uint64_t bytes_copied = 0;    // payload bytes physically copied
  std::uint64_t bytes_shared = 0;    // payload bytes reused via refcount
  std::uint64_t live_slabs = 0;      // currently checked-out slabs
  std::uint64_t live_high_water = 0; // max simultaneous checked-out slabs
};

class Buffer;
class BufferWriter;

/// Per-thread slab pool (the simulator is single-threaded per SimContext;
/// thread-local state keeps the pool trivially race-free under TSan).
class BufferPool {
 public:
  static constexpr std::size_t kClassSizes[] = {128, 512, 2048, 8192};
  static constexpr std::size_t kClassCount = 4;
  static constexpr std::size_t kMaxFreePerClass = 256;

  static BufferPool& instance();

  [[nodiscard]] const BufferPoolStats& stats() const { return stats_; }
  void reset_stats();

  /// Poison released slabs (0xDD fill + ASan region poisoning). Defaults to
  /// on under ASan builds, off otherwise; tests flip it explicitly.
  void set_poison(bool on) { poison_ = on; }
  [[nodiscard]] bool poison() const { return poison_; }

  /// Drops every cached slab back to the heap.
  void trim();

  ~BufferPool();

 private:
  friend class Buffer;
  friend class BufferWriter;

  struct Slab {
    std::uint32_t refs;
    std::uint32_t capacity;
    std::int8_t cls;  // size-class index, -1 = oversize (never pooled)
    // Payload bytes follow the header.
    [[nodiscard]] std::uint8_t* data() {
      return reinterpret_cast<std::uint8_t*>(this + 1);
    }
  };

  BufferPool();
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  [[nodiscard]] Slab* acquire(std::size_t capacity);
  void release(Slab* slab);
  static void retain(Slab* slab) { ++slab->refs; }

  BufferPoolStats stats_;
  std::vector<Slab*> free_[kClassCount];
  bool poison_ = kDefaultPoison;

  static constexpr bool kDefaultPoison =
#if defined(__SANITIZE_ADDRESS__)
      true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
      true;
#else
      false;
#endif
#else
      false;
#endif
};

/// A refcounted view into a pooled slab. Value semantics: copy shares the
/// slab, move transfers it. API mirrors the std::vector<uint8_t> it replaced
/// so codec and test code reads unchanged.
class Buffer {
 public:
  /// Headroom reserved in front of freshly written payloads — more than the
  /// deepest header stack prepended on the hot path (TCP 20 + IPv4 20; MTP 6
  /// over UDP 8 + IPv4 20). It sets which size class a slab lands in, so it
  /// stays at 64 to keep pool counts stable (see DESIGN.md §4).
  static constexpr std::size_t kDefaultHeadroom = 64;

  Buffer() = default;

  /// Imports foreign bytes (one counted copy) with default headroom. Implicit
  /// so existing `payload = some_vector` call sites keep compiling.
  Buffer(const std::vector<std::uint8_t>& bytes)  // NOLINT(google-explicit-*)
      : Buffer(copy_of(bytes)) {}
  Buffer(std::initializer_list<std::uint8_t> bytes)  // NOLINT
      : Buffer(copy_of({bytes.begin(), bytes.size()})) {}

  Buffer(const Buffer& other) noexcept
      : slab_(other.slab_), off_(other.off_), len_(other.len_) {
    if (slab_ != nullptr) BufferPool::retain(slab_);
  }
  Buffer(Buffer&& other) noexcept
      : slab_(other.slab_), off_(other.off_), len_(other.len_) {
    other.slab_ = nullptr;
    other.off_ = other.len_ = 0;
  }
  Buffer& operator=(const Buffer& other) noexcept {
    if (this != &other) {
      Buffer tmp(other);
      swap(tmp);
    }
    return *this;
  }
  Buffer& operator=(Buffer&& other) noexcept {
    if (this != &other) {
      if (slab_ != nullptr) reset();
      slab_ = other.slab_;
      off_ = other.off_;
      len_ = other.len_;
      other.slab_ = nullptr;
      other.off_ = other.len_ = 0;
    }
    return *this;
  }
  Buffer& operator=(const std::vector<std::uint8_t>& bytes) {
    *this = copy_of(bytes);
    return *this;
  }
  Buffer& operator=(std::initializer_list<std::uint8_t> bytes) {
    *this = copy_of({bytes.begin(), bytes.size()});
    return *this;
  }
  ~Buffer() { if (slab_ != nullptr) reset(); }

  /// A zero-filled pooled buffer of `size` bytes behind `headroom`.
  [[nodiscard]] static Buffer allocate(std::size_t size,
                                       std::size_t headroom = kDefaultHeadroom);
  /// Imports `bytes` into a pooled slab (counted as one copy).
  [[nodiscard]] static Buffer copy_of(std::span<const std::uint8_t> bytes,
                                      std::size_t headroom = kDefaultHeadroom);

  [[nodiscard]] std::size_t size() const { return len_; }
  [[nodiscard]] bool empty() const { return len_ == 0; }
  [[nodiscard]] const std::uint8_t* data() const {
    return slab_ == nullptr ? nullptr : slab_->data() + off_;
  }
  [[nodiscard]] const std::uint8_t* begin() const { return data(); }
  [[nodiscard]] const std::uint8_t* end() const { return data() + len_; }
  [[nodiscard]] std::uint8_t operator[](std::size_t i) const {
    return data()[i];
  }

  /// A Buffer is a contiguous sized range, so it also converts implicitly
  /// to std::span<const std::uint8_t> through span's range constructor (a
  /// conversion operator beside it would compete with that constructor).
  [[nodiscard]] std::span<const std::uint8_t> span() const {
    return {data(), len_};
  }

  /// Bytes available in front of the view for in-place prepends.
  [[nodiscard]] std::size_t headroom() const { return off_; }
  /// True while this view is the slab's only owner (in-place writes legal).
  [[nodiscard]] bool unique() const {
    return slab_ != nullptr && slab_->refs == 1;
  }
  [[nodiscard]] std::uint32_t refcount() const {
    return slab_ == nullptr ? 0 : slab_->refs;
  }

  /// Mutable access; copies the slab first if it is shared (counted).
  [[nodiscard]] std::uint8_t* mutable_data();

  /// Fills with `count` copies of `value` (vector-API compatibility).
  void assign(std::size_t count, std::uint8_t value);

  /// A sub-view sharing the slab (no bytes move). Out-of-range throws.
  [[nodiscard]] Buffer slice(std::size_t offset) const;
  [[nodiscard]] Buffer slice(std::size_t offset, std::size_t length) const;

  /// Grows the view forward by writing `header` immediately before the
  /// current first byte. In place when the slab is unique and headroom
  /// suffices; otherwise a counted copy into a fresh slab. Either way the
  /// result is byte-identical — only the pool counters differ.
  void prepend(std::span<const std::uint8_t> header);

  /// Content equality (the vector semantics tests rely on).
  friend bool operator==(const Buffer& a, const Buffer& b) {
    return a.len_ == b.len_ &&
           (a.len_ == 0 || std::memcmp(a.data(), b.data(), a.len_) == 0);
  }
  friend bool operator==(const Buffer& a, const std::vector<std::uint8_t>& b) {
    return a.len_ == b.size() &&
           (a.len_ == 0 || std::memcmp(a.data(), b.data(), a.len_) == 0);
  }
  friend bool operator==(const std::vector<std::uint8_t>& a, const Buffer& b) {
    return b == a;
  }

  void swap(Buffer& other) noexcept {
    std::swap(slab_, other.slab_);
    std::swap(off_, other.off_);
    std::swap(len_, other.len_);
  }

 private:
  friend class BufferWriter;
  Buffer(BufferPool::Slab* slab, std::uint32_t off, std::uint32_t len)
      : slab_(slab), off_(off), len_(len) {}

  void reset();

  BufferPool::Slab* slab_ = nullptr;
  std::uint32_t off_ = 0;
  std::uint32_t len_ = 0;
};

/// Network-order write cursor over a pooled slab — the Buffer-producing
/// sibling of util::BufWriter (same method surface, `take()` yields a Buffer
/// whose headroom is still available for later prepends).
class BufferWriter {
 public:
  explicit BufferWriter(std::size_t reserve = 0,
                        std::size_t headroom = Buffer::kDefaultHeadroom);

  void u8(std::uint8_t v) {
    ensure(1);
    cur()[len_++] = v;
  }
  void u16(std::uint16_t v) {
    ensure(2);
    cur()[len_++] = static_cast<std::uint8_t>(v >> 8);
    cur()[len_++] = static_cast<std::uint8_t>(v & 0xff);
  }
  void u32(std::uint32_t v) {
    u16(static_cast<std::uint16_t>(v >> 16));
    u16(static_cast<std::uint16_t>(v & 0xffff));
  }
  void u64(std::uint64_t v) {
    u32(static_cast<std::uint32_t>(v >> 32));
    u32(static_cast<std::uint32_t>(v & 0xffffffffu));
  }
  void bytes(std::span<const std::uint8_t> data) {
    ensure(data.size());
    if (!data.empty()) std::memcpy(cur() + len_, data.data(), data.size());
    len_ += static_cast<std::uint32_t>(data.size());
  }
  void zeros(std::size_t count) {
    ensure(count);
    std::memset(cur() + len_, 0, count);
    len_ += static_cast<std::uint32_t>(count);
  }
  void patch_u16(std::size_t offset, std::uint16_t v);

  [[nodiscard]] std::size_t size() const { return len_; }
  /// Finishes the write and hands the bytes over as a Buffer (headroom
  /// preserved). The writer is empty afterwards.
  [[nodiscard]] Buffer take();

  ~BufferWriter();
  BufferWriter(const BufferWriter&) = delete;
  BufferWriter& operator=(const BufferWriter&) = delete;

 private:
  [[nodiscard]] std::uint8_t* cur() { return slab_->data() + headroom_; }
  void ensure(std::size_t more) {
    if (headroom_ + len_ + more > slab_->capacity) grow(more);
  }
  /// Moves the bytes written so far into a slab with room for `more`.
  void grow(std::size_t more);

  BufferPool::Slab* slab_ = nullptr;
  std::uint32_t headroom_;
  std::uint32_t len_ = 0;
};

}  // namespace mrmtp::net
