#include "harness/stats.hpp"

#include <algorithm>
#include <cstdio>

namespace mrmtp::harness {

double Distribution::median() const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t mid = sorted.size() / 2;
  return sorted.size() % 2 == 1 ? sorted[mid]
                                : (sorted[mid - 1] + sorted[mid]) / 2;
}

std::string Distribution::str(int decimals) const {
  char buf[64];
  if (n_ < 2) {
    std::snprintf(buf, sizeof(buf), "%.*f", decimals, mean());
  } else {
    std::snprintf(buf, sizeof(buf), "%.*f \xc2\xb1%.*f", decimals, mean(),
                  decimals, stddev());
  }
  return buf;
}

}  // namespace mrmtp::harness
