// AddressSanitizer hooks for the pools that recycle memory themselves
// (net::BufferPool slabs, sim::Scheduler capture blocks). A region parked on
// a free list is poisoned, so a stale pointer into it faults under ASan
// instead of reading the next owner's bytes. Without ASan the hooks compile
// to nothing.
#pragma once

#include <cstddef>

#if defined(__SANITIZE_ADDRESS__)
#define MRMTP_HAS_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define MRMTP_HAS_ASAN 1
#endif
#endif

#ifdef MRMTP_HAS_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace mrmtp::util {

#ifdef MRMTP_HAS_ASAN
inline constexpr bool kAsan = true;
#else
inline constexpr bool kAsan = false;
#endif

inline void asan_poison(const void* p, std::size_t n) {
#ifdef MRMTP_HAS_ASAN
  __asan_poison_memory_region(p, n);
#else
  (void)p;
  (void)n;
#endif
}

inline void asan_unpoison(const void* p, std::size_t n) {
#ifdef MRMTP_HAS_ASAN
  __asan_unpoison_memory_region(p, n);
#else
  (void)p;
  (void)n;
#endif
}

}  // namespace mrmtp::util
