// perfbench: end-to-end and per-layer benchmark of the VMC iteration and the
// amplitude server.  See README.md in this directory.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out <dir>] [--corrupt]
//
// Prints human-readable lines, then one JSON result line; exits non-zero when
// a correctness check fails.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hpp"
#include "common/logging.hpp"

namespace {

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--out <dir>] [--corrupt]\n",
               msg);
  std::exit(2);
}

void printMetrics(const std::map<std::string, perfbench::Metric>& m) {
  bool first = true;
  for (const auto& [name, metric] : m) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ",
                name.c_str(), metric.value, metric.unit.c_str());
    first = false;
  }
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opts;
  bool haveWorkload = false, haveSeed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        opts.workload = value();
        haveWorkload = true;
      } else if (a == "--seed") {
        opts.seed = std::stoull(value());
        haveSeed = true;
      } else if (a == "--seconds") {
        opts.seconds = std::stod(value());
      } else if (a == "--trace") {
        opts.trace = std::stoi(value()) != 0;
      } else if (a == "--out") {
        opts.outDir = value();
      } else if (a == "--corrupt") {
        opts.corrupt = true;
      } else {
        usage(("unknown argument " + a).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + a).c_str());
    }
  }
  if (!haveWorkload || !haveSeed) usage("--workload and --seed are required");
  if (!(opts.seconds > 0)) usage("--seconds must be positive");
  nnqs::log::setLevel(nnqs::log::Level::kWarn);

  perfbench::Result r;
  try {
    r = opts.workload.rfind("serve-", 0) == 0 ? perfbench::runServeWorkload(opts)
                                              : perfbench::runVmcWorkload(opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  r.endToEnd["success_frac"] = {
      1.0 - static_cast<double>(r.failed) / static_cast<double>(r.attempted), "ratio"};

  for (const std::string& line : r.notes) std::printf("%s\n", line.c_str());
  std::printf("fail_frac         = %.6f   (%llu failed of %llu attempted)\n",
              static_cast<double>(r.failed) / static_cast<double>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.attempted));
  for (const auto& [name, ok] : r.checks)
    std::printf("check %-4s %s\n", ok ? "ok" : "FAIL", name.c_str());
  if (opts.trace) {
    for (const auto& [name, m] : r.perLayer)
      std::printf("  %-28s %14.6g %s\n", name.c_str(), m.value, m.unit.c_str());
  }
  const bool correct = r.allChecksPassed();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  printMetrics(opts.trace ? r.perLayer : r.endToEnd);
  std::printf("}}\n");
  return correct ? 0 : 1;
}
