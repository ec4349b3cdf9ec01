// Entry point of the repository benchmark; perfbench/run.py builds it and
// passes the settings recorded in perfbench/spec.json.
//
//   tilelink_perfbench --workload <fabric-2x8|tune-fig11|serve-mixed>
//       --seed <n> --seconds <s> --trace <0|1> [--threads <n>]
//       [--out-dir <dir>] [--p99-limit-ms <ms>] [--rates <r1,r2,...>]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <string>

#include "harness.h"

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opts;
  std::string workload;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      workload = val;
    } else if (key == "--seed") {
      opts.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opts.seconds = std::atof(val.c_str());
    } else if (key == "--trace") {
      opts.trace = val == "1";
    } else if (key == "--threads") {
      opts.threads = std::max(1, std::atoi(val.c_str()));
    } else if (key == "--out-dir") {
      opts.out_dir = val;
    } else if (key == "--p99-limit-ms") {
      opts.p99_limit_ms = std::atof(val.c_str());
    } else if (key == "--rates") {
      std::size_t pos = 0;
      while (pos < val.size()) {
        std::size_t end = val.find(',', pos);
        if (end == std::string::npos) end = val.size();
        opts.rates.push_back(std::atof(val.substr(pos, end - pos).c_str()));
        pos = end + 1;
      }
    } else {
      std::fprintf(stderr, "unknown option %s\n", key.c_str());
      return 2;
    }
  }
  std::unique_ptr<Workload> w;
  if (workload == "fabric-2x8") {
    w = MakeFabric(opts);
  } else if (workload == "tune-fig11") {
    w = MakeTune(opts);
  } else if (workload == "serve-mixed") {
    if (opts.rates.empty() || opts.p99_limit_ms <= 0) {
      std::fprintf(stderr, "serve-mixed needs --rates and --p99-limit-ms\n");
      return 2;
    }
    w = MakeServe(opts);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
    return 2;
  }
  try {
    return Drive(*w, workload, opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
