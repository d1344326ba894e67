#include "net/buffer.hpp"

#include <algorithm>
#include <new>
#include <stdexcept>

namespace mrmtp::net {
namespace {

void poison_region(std::uint8_t* p, std::size_t n) {
  std::memset(p, 0xDD, n);
  util::asan_poison(p, n);
}

void unpoison_region(std::uint8_t* p, std::size_t n) {
  util::asan_unpoison(p, n);
}

}  // namespace

BufferPool::BufferPool() {
  // Full-size freelists from the start: returning a slab never allocates,
  // so whether a handler allocates does not depend on how many slabs other
  // frames happen to hold at that moment.
  for (auto& list : free_) list.reserve(kMaxFreePerClass);
}

BufferPool& BufferPool::instance() {
  static thread_local BufferPool pool;
  return pool;
}

void BufferPool::reset_stats() {
  const std::uint64_t live = stats_.live_slabs;
  stats_ = BufferPoolStats{};
  stats_.live_slabs = live;
  stats_.live_high_water = live;
}

void BufferPool::trim() {
  for (auto& list : free_) {
    for (Slab* slab : list) {
      if (poison_) unpoison_region(slab->data(), slab->capacity);
      ::operator delete(slab);
    }
    list.clear();
  }
}

BufferPool::~BufferPool() { trim(); }

BufferPool::Slab* BufferPool::acquire(std::size_t capacity) {
  std::int8_t cls = kOversize;
  for (std::size_t i = 0; i < kClassCount; ++i) {
    if (capacity <= kClassSizes[i]) {
      cls = static_cast<std::int8_t>(i);
      capacity = kClassSizes[i];
      break;
    }
  }

  Slab* slab = nullptr;
  if (cls >= 0 && !free_[static_cast<std::size_t>(cls)].empty()) {
    auto& list = free_[static_cast<std::size_t>(cls)];
    slab = list.back();
    list.pop_back();
    if (poison_) unpoison_region(slab->data(), slab->capacity);
    ++stats_.slab_reuses;
  } else {
    slab = static_cast<Slab*>(::operator new(sizeof(Slab) + capacity));
    slab->capacity = static_cast<std::uint32_t>(capacity);
    slab->cls = cls;
    ++stats_.slab_allocs;
    if (cls < 0) ++stats_.oversize_allocs;
  }
  slab->refs = 1;
  ++stats_.live_slabs;
  stats_.live_high_water = std::max(stats_.live_high_water, stats_.live_slabs);
  return slab;
}

void BufferPool::release(Slab* slab) {
  --stats_.live_slabs;
  if (slab->cls >= 0 &&
      free_[static_cast<std::size_t>(slab->cls)].size() < kMaxFreePerClass) {
    if (poison_) poison_region(slab->data(), slab->capacity);
    free_[static_cast<std::size_t>(slab->cls)].push_back(slab);
    ++stats_.slab_returns;
  } else {
    ::operator delete(slab);
  }
}

// --- Buffer ---------------------------------------------------------------

void Buffer::reset() {
  if (slab_ != nullptr) {
    if (slab_->cls != BufferPool::kConstant && --slab_->refs == 0) {
      BufferPool::instance().release(slab_);
    }
    slab_ = nullptr;
  }
  off_ = len_ = 0;
}

Buffer Buffer::allocate(std::size_t size, std::size_t headroom) {
  auto& pool = BufferPool::instance();
  BufferPool::Slab* slab = pool.acquire(headroom + size);
  std::memset(slab->data() + headroom, 0, size);
  return Buffer(slab, static_cast<std::uint32_t>(headroom),
                static_cast<std::uint32_t>(size));
}

Buffer Buffer::copy_of(std::span<const std::uint8_t> bytes,
                       std::size_t headroom) {
  auto& pool = BufferPool::instance();
  BufferPool::Slab* slab = pool.acquire(headroom + bytes.size());
  if (!bytes.empty()) {
    std::memcpy(slab->data() + headroom, bytes.data(), bytes.size());
  }
  pool.stats_.import_bytes += bytes.size();
  pool.stats_.bytes_copied += bytes.size();
  return Buffer(slab, static_cast<std::uint32_t>(headroom),
                static_cast<std::uint32_t>(bytes.size()));
}

std::uint8_t* Buffer::mutable_data() {
  if (slab_ == nullptr) return nullptr;
  if (!unique()) {
    Buffer clone = copy_of(span(), off_);
    swap(clone);
  }
  return slab_->data() + off_;
}

void Buffer::assign(std::size_t count, std::uint8_t value) {
  if (slab_ == nullptr || !unique() ||
      off_ + count > slab_->capacity) {
    *this = allocate(count);
  } else {
    len_ = static_cast<std::uint32_t>(count);
  }
  if (count > 0) std::memset(slab_->data() + off_, value, count);
}

Buffer Buffer::slice(std::size_t offset) const {
  return slice(offset, len_ - std::min<std::size_t>(offset, len_));
}

Buffer Buffer::slice(std::size_t offset, std::size_t length) const {
  if (offset + length > len_) {
    throw std::out_of_range("Buffer::slice out of range");
  }
  if (slab_ == nullptr) return Buffer{};
  BufferPool::retain(slab_);
  BufferPool::instance().stats_.bytes_shared += length;
  return Buffer(slab_, off_ + static_cast<std::uint32_t>(offset),
                static_cast<std::uint32_t>(length));
}

void Buffer::prepend(std::span<const std::uint8_t> header) {
  auto& pool = BufferPool::instance();
  if (slab_ != nullptr && unique() && off_ >= header.size()) {
    off_ -= static_cast<std::uint32_t>(header.size());
    len_ += static_cast<std::uint32_t>(header.size());
    if (!header.empty()) {
      std::memcpy(slab_->data() + off_, header.data(), header.size());
    }
    ++pool.stats_.prepend_inplace;
    pool.stats_.bytes_shared += len_ - header.size();
    return;
  }
  // Shared slab or exhausted headroom: copy header + payload into a fresh
  // slab with full default headroom restored.
  BufferPool::Slab* slab = pool.acquire(kDefaultHeadroom + header.size() + len_);
  if (!header.empty()) {
    std::memcpy(slab->data() + kDefaultHeadroom, header.data(), header.size());
  }
  if (len_ > 0) {
    std::memcpy(slab->data() + kDefaultHeadroom + header.size(), data(), len_);
  }
  ++pool.stats_.prepend_copies;
  pool.stats_.bytes_copied += len_;
  Buffer replaced(slab, static_cast<std::uint32_t>(kDefaultHeadroom),
                  static_cast<std::uint32_t>(header.size() + len_));
  swap(replaced);
}

// --- BufferWriter ---------------------------------------------------------

BufferWriter::BufferWriter(std::size_t reserve, std::size_t headroom)
    : headroom_(static_cast<std::uint32_t>(headroom)) {
  slab_ = BufferPool::instance().acquire(headroom + std::max<std::size_t>(
                                                        reserve, 1));
}

BufferWriter::~BufferWriter() {
  if (slab_ != nullptr && --slab_->refs == 0) {
    BufferPool::instance().release(slab_);
  }
}

void BufferWriter::grow(std::size_t more) {
  const std::size_t need = headroom_ + len_ + more;
  auto& pool = BufferPool::instance();
  BufferPool::Slab* bigger = pool.acquire(std::max<std::size_t>(
      need, static_cast<std::size_t>(slab_->capacity) * 2));
  if (len_ > 0) std::memcpy(bigger->data() + headroom_, cur(), len_);
  ++pool.stats_.writer_regrows;
  pool.stats_.bytes_copied += len_;
  if (--slab_->refs == 0) pool.release(slab_);
  slab_ = bigger;
}

void BufferWriter::patch_u16(std::size_t offset, std::uint16_t v) {
  if (offset + 2 > len_) {
    throw std::out_of_range("BufferWriter::patch_u16 out of range");
  }
  cur()[offset] = static_cast<std::uint8_t>(v >> 8);
  cur()[offset + 1] = static_cast<std::uint8_t>(v & 0xff);
}

Buffer BufferWriter::take() {
  Buffer out(slab_, headroom_, len_);
  slab_ = nullptr;
  len_ = 0;
  return out;
}

}  // namespace mrmtp::net
