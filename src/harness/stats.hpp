// Small statistics accumulator for seed-averaged experiment results (mean,
// standard deviation, min, max via Welford's algorithm, plus the median of
// the kept samples) — the error bars behind the paper's "averaged over
// multiple runs" plots.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace mrmtp::harness {

class Distribution {
 public:
  void add(double value) {
    ++n_;
    double delta = value - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (value - mean_);
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
    values_.push_back(value);
  }
  /// Adds every sample of `other`.
  void merge(const Distribution& other) {
    for (double v : other.values_) add(v);
  }

  [[nodiscard]] std::uint64_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ == 0 ? 0.0 : mean_; }
  /// Sample standard deviation (n-1); 0 for fewer than two samples.
  [[nodiscard]] double stddev() const {
    return n_ < 2 ? 0.0 : std::sqrt(m2_ / static_cast<double>(n_ - 1));
  }
  [[nodiscard]] double min() const { return n_ == 0 ? 0.0 : min_; }
  [[nodiscard]] double max() const { return n_ == 0 ? 0.0 : max_; }
  /// Middle sample, or the mean of the two middle ones for an even count;
  /// 0 when empty. Unlike the mean, one outlier run cannot move it far.
  [[nodiscard]] double median() const;

  /// "12.3 ±1.2" rendering for tables.
  [[nodiscard]] std::string str(int decimals = 1) const;

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
  std::vector<double> values_;
};

}  // namespace mrmtp::harness
