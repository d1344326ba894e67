// Fixed-width table and CSV reporters for the figure-reproduction benches.
#pragma once

#include <string>
#include <vector>

namespace mrmtp::net {
class Network;
}

namespace mrmtp::harness {

/// Accumulates rows and prints an aligned ASCII table plus (optionally) CSV,
/// matching the "rows the paper reports" requirement: one table per figure.
class Table {
 public:
  explicit Table(std::vector<std::string> columns)
      : columns_(std::move(columns)) {}

  void add_row(std::vector<std::string> cells) {
    rows_.push_back(std::move(cells));
  }

  /// Aligned human-readable rendering.
  [[nodiscard]] std::string str() const;
  /// Machine-readable CSV.
  [[nodiscard]] std::string csv() const;

  void print(bool with_csv = false) const;

 private:
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

/// printf-style float formatting helper ("%.1f" etc.).
[[nodiscard]] std::string fmt(double value, int decimals = 1);

/// Per-direction link delivery/drop counters, one row per direction — the
/// asymmetry of a gray failure shows as one dirty and one clean row. With
/// `busy_only` (default) links with no drops in either direction are elided.
[[nodiscard]] Table link_direction_table(const net::Network& network,
                                         bool busy_only = true);

class Deployment;

/// Per-node data-path health: forwards served, allocation-free picks, and
/// uplink candidate-cache hits/misses with the per-node hit rate, closed by
/// a TOTAL row and a [scheduler] row (events fired, heap high-water,
/// reschedules). With `busy_only` (default) MTP routers that
/// forwarded nothing are elided; under BGP only the scheduler row remains.
[[nodiscard]] Table hot_path_table(Deployment& dep, bool busy_only = true);

}  // namespace mrmtp::harness
