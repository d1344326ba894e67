// Shared scaffolding for the figure-reproduction benches: the paper's
// 6-deployment grid (2-PoD and 4-PoD, each under MR-MTP, BGP/ECMP, and
// BGP/ECMP/BFD) swept over the four failure test cases, averaged over seeds
// the way the paper averages over runs.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/report.hpp"
#include "util/json.hpp"

namespace mrmtp::bench {

/// Command-line flags every bench understands:
///   --threads=N    run experiments on N engine shards, one thread each
///                  (0 or 1 = one shard, inline on the calling thread)
///   --json-out=P   write the bench's JSON artifact to P instead of the
///                  default committed at the repo root
struct BenchFlags {
  std::uint32_t threads = 0;
  std::string json_out;

  static BenchFlags parse(int argc, char** argv,
                          std::string default_json = "") {
    BenchFlags flags;
    flags.json_out = std::move(default_json);
    for (int i = 1; i < argc; ++i) {
      const char* arg = argv[i];
      if (std::strncmp(arg, "--threads=", 10) == 0) {
        flags.threads = static_cast<std::uint32_t>(
            std::strtoul(arg + 10, nullptr, 10));
      } else if (std::strncmp(arg, "--json-out=", 11) == 0) {
        flags.json_out = arg + 11;
      } else {
        std::fprintf(stderr,
                     "usage: %s [--threads=N] [--json-out=PATH]\n"
                     "unknown flag: %s\n",
                     argv[0], arg);
        std::exit(2);
      }
    }
    return flags;
  }
};

inline const std::vector<std::uint64_t>& default_seeds() {
  static const std::vector<std::uint64_t> seeds{11, 23, 37, 51, 73};
  return seeds;
}

/// Stamps the seed campaign into a bench artifact: every committed
/// BENCH_*.json records exactly which seeds produced it, so a regenerated
/// artifact that silently ran a different campaign fails review (and
/// scripts/check.sh) instead of drifting.
inline void stamp_campaign(
    util::Json& doc, const std::vector<std::uint64_t>& seeds = default_seeds()) {
  util::JsonArray arr;
  for (std::uint64_t s : seeds) arr.emplace_back(static_cast<std::int64_t>(s));
  doc["campaign_seeds"] = std::move(arr);
}

struct GridPoint {
  std::string topo_name;
  topo::ClosParams topo;
  harness::Proto proto;
  topo::TestCase tc;
  harness::AveragedResult result;
};

/// Runs the full paper grid; `tweak` may adjust each spec (e.g. reverse the
/// traffic flow for Fig. 8) before it runs.
inline std::vector<GridPoint> run_paper_grid(
    const std::function<void(harness::ExperimentSpec&)>& tweak = {}) {
  std::vector<GridPoint> out;
  const std::pair<std::string, topo::ClosParams> topologies[] = {
      {"2-PoD", topo::ClosParams::paper_2pod()},
      {"4-PoD", topo::ClosParams::paper_4pod()},
  };
  for (const auto& [topo_name, params] : topologies) {
    for (harness::Proto proto : harness::kAllProtos) {
      for (topo::TestCase tc : topo::kAllTestCases) {
        harness::ExperimentSpec spec;
        spec.topo = params;
        spec.proto = proto;
        spec.tc = tc;
        if (tweak) tweak(spec);
        out.push_back(GridPoint{topo_name, params, proto, tc,
                                harness::run_averaged(spec, default_seeds())});
      }
    }
  }
  return out;
}

/// Prints one table per topology: rows are protocols, columns are TC1..TC4,
/// cells come from `cell(result)`.
inline void print_metric_tables(
    const std::vector<GridPoint>& grid, const std::string& unit,
    const std::function<std::string(const harness::AveragedResult&)>& cell) {
  for (const std::string topo_name : {"2-PoD", "4-PoD"}) {
    std::printf("%s topology (%s):\n", topo_name.c_str(), unit.c_str());
    harness::Table table({"protocol", "TC1", "TC2", "TC3", "TC4"});
    for (harness::Proto proto : harness::kAllProtos) {
      std::vector<std::string> row{std::string(to_string(proto))};
      for (topo::TestCase tc : topo::kAllTestCases) {
        for (const auto& p : grid) {
          if (p.topo_name == topo_name && p.proto == proto && p.tc == tc) {
            row.push_back(cell(p.result));
          }
        }
      }
      table.add_row(std::move(row));
    }
    table.print(/*with_csv=*/true);
    std::printf("\n");
  }
}

inline void print_header(const std::string& title, const std::string& paper_ref) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("Reproduces: %s\n", paper_ref.c_str());
  std::printf("Averaged over %zu seeds.\n", default_seeds().size());
  std::printf("==============================================================\n\n");
}

}  // namespace mrmtp::bench
