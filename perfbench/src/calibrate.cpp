#include "calibrate.hpp"

#include <malloc.h>

#include <chrono>
#include <fstream>
#include <functional>
#include <map>
#include <queue>
#include <string>
#include <vector>

namespace perfbench {

namespace {
// Receives the kernel's result so the optimizer cannot drop the work.
volatile std::uint64_t g_sink = 0;
}  // namespace

double calibration_seconds() {
  const auto start = std::chrono::steady_clock::now();
  std::uint64_t x = 88172645463325252ull;  // xorshift64 state
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                      std::greater<>>
      queue;
  std::map<std::uint32_t, std::uint64_t> table;
  std::vector<std::uint64_t> slab(std::size_t{1} << 22);  // 32 MiB
  for (int i = 0; i < 60000; ++i) queue.push(next() & 0xffffffffu);
  std::uint64_t acc = 0;
  for (int i = 0; i < 200000; ++i) {
    const std::uint64_t t = queue.top();
    queue.pop();
    queue.push(t + (next() & 0xffffu));
    const auto key = static_cast<std::uint32_t>(next() % 200000);
    auto [it, fresh] = table.try_emplace(key, t);
    if (!fresh) {
      acc += it->second;
      if ((t & 3) == 0) table.erase(it);
    }
    std::uint64_t& cell = slab[next() & (slab.size() - 1)];
    cell += t;
    acc ^= cell;
  }
  g_sink = acc;
  const double s = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  // Hand the kernel's freed heap back to the OS: the RSS high-water reset
  // that follows then starts from the workload's own footprint.
  malloc_trim(0);
  return s;
}

bool reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

std::int64_t peak_rss_kib() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      std::int64_t kib = -1;
      status >> kib;
      return kib;
    }
    status.ignore(1 << 16, '\n');
  }
  return -1;
}

}  // namespace perfbench
