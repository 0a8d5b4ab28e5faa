// mip_perfbench: the repository benchmark program (see README.md).
//
//   mip_perfbench --workload fed_sql|disk_mixed|study --seed N --seconds S
//                 --trace 0|1
//   mip_perfbench --selftest
//
// Prints human-readable lines, then one JSON object as the last line of
// stdout. Exits non-zero when any answer is wrong or the run cannot finish.

#include <malloc.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "bench.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "mip_perfbench: %s\nusage: mip_perfbench --workload "
               "fed_sql|disk_mixed|study --seed N --seconds S --trace 0|1\n"
               "       mip_perfbench --selftest\n",
               why);
  return 2;
}

void PrintJson(const perfbench::RunOutcome& out) {
  std::string json = "{\"correct\": ";
  json += out.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value_unit] : out.metrics) {
    char value[64];
    const double v = std::isfinite(value_unit.first) ? value_unit.first : 0.0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    if (!first) json += ", ";
    first = false;
    json += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
            value_unit.second + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  // A fixed allocator policy: glibc's dynamic mmap threshold otherwise
  // settles differently from run to run (and with it page faults, CPU time
  // and peak RSS of the whole federation).
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 256 << 20);
  perfbench::RunConfig config;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") {
      const int failures = perfbench::RunSelfTests();
      std::printf("selftest: %d failure(s)\n", failures);
      return failures == 0 ? 0 : 1;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    if (arg == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      config.seconds = std::atoi(value.c_str());
    } else if (arg == "--trace") {
      config.trace = value == "1";
    } else {
      return Usage(("unknown flag " + arg).c_str());
    }
  }
  if (!have_workload) return Usage("--workload is required");
  if (config.seconds < 1) return Usage("--seconds must be at least 1");

  config.work_dir = ".bench_build/data/run-" + std::to_string(getpid());
  mip::Result<perfbench::RunOutcome> out = perfbench::RunWorkload(config);
  std::error_code ec;
  std::filesystem::remove_all(config.work_dir, ec);
  if (!out.ok()) {
    std::fprintf(stderr, "mip_perfbench: %s\n", out.status().ToString().c_str());
    return 1;
  }
  for (const std::string& line : out->notes) std::printf("%s\n", line.c_str());
  PrintJson(*out);
  std::fflush(stdout);
  return out->correct ? 0 : 1;
}
