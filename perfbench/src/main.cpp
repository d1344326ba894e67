// perfbench_sim: runs one repetition of one benchmark workload and prints
// its record as one JSON line. perfbench/run.py builds this binary, runs it
// repeatedly in fresh processes, checks the records and reports metrics.
//
//   perfbench_sim --workload mtp64_failover --seed 1 [--smoke]
//                 [--trace-out trace.json]
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

#include "trace.hpp"
#include "workload.hpp"

namespace {

using mrmtp::util::Json;
using mrmtp::util::JsonObject;

[[noreturn]] void usage(const char* argv0, const char* problem) {
  std::fprintf(stderr,
               "%s\nusage: %s --workload NAME --seed N [--smoke] "
               "[--trace-out PATH]\n",
               problem, argv0);
  std::exit(2);
}

Json build_info() {
  Json b = JsonObject{};
  b["compiler"] = PERFBENCH_COMPILER;
  b["build_type"] = PERFBENCH_BUILD_TYPE;
  b["flags"] = PERFBENCH_CXX_FLAGS;
  b["hardware_concurrency"] =
      static_cast<std::int64_t>(std::thread::hardware_concurrency());
  return b;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string trace_out;
  std::uint64_t seed = 0;
  bool have_seed = false;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0], ("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      workload = value();
    } else if (arg == "--seed") {
      const std::string v = value();
      char* end = nullptr;
      seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') usage(argv[0], "--seed takes an integer");
      have_seed = true;
    } else if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--trace-out") {
      trace_out = value();
    } else {
      usage(argv[0], ("unknown argument: " + arg).c_str());
    }
  }
  if (workload.empty() || !have_seed) {
    usage(argv[0], "--workload and --seed are required");
  }

  try {
    const perfbench::WorkloadDef def = perfbench::make_workload(workload, smoke);
    perfbench::Trace trace(!trace_out.empty());
    Json rec = perfbench::run_rep(def, seed, trace);
    rec["smoke"] = smoke;
    rec["build"] = build_info();

    if (trace.enabled()) {
      Json meta = JsonObject{};
      meta["workload"] = workload;
      meta["seed"] = static_cast<std::int64_t>(seed);
      meta["build"] = build_info();
      std::ofstream out(trace_out);
      out << trace.to_chrome(std::move(meta)).dump(false) << "\n";
      if (!out) {
        std::fprintf(stderr, "cannot write %s\n", trace_out.c_str());
        return 1;
      }
    }
    std::printf("%s\n", rec.dump(false).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_sim: %s\n", e.what());
    return 1;
  }
  return 0;
}
