// perfbench: the repository benchmark's main program.
//
//   perfbench --workload audit-german|serve-read|serve-write --seed N
//             --seconds S --trace 0|1
//   perfbench --selftest
//
// Prints a human-readable report, one "machine:" line, and as its last line
// one JSON object {"correct","attempted","failed","metrics"}: the gated
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// Normally run through run.py, which builds this program first and checks
// the result line against BENCHMARK.json. Writes go to .bench_out/ under
// the current directory.

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

#include "machine.h"
#include "serve/protocol.h"
#include "workloads.h"

namespace {

using namespace perfbench;

bool ParseArgs(int argc, char** argv, Options* opts, bool* selftest) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      *selftest = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::cerr << "missing value for " << flag << "\n";
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      opts->workload = value;
    } else if (flag == "--seed") {
      opts->seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return false;
    } else if (flag == "--seconds") {
      opts->seconds = static_cast<int>(std::strtol(value.c_str(), &end, 10));
      if (end == value.c_str() || *end != '\0' || opts->seconds < 1) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      opts->trace = value == "1";
    } else {
      std::cerr << "unknown flag " << flag << "\n";
      return false;
    }
  }
  return true;
}

std::string ResultJson(const RunResult& r) {
  std::string out = std::string("{\"correct\": ") + (r.correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(r.attempted) +
                    ", \"failed\": " + std::to_string(r.failed) +
                    ", \"metrics\": {";
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    if (i > 0) out += ", ";
    fume::serve::AppendJsonString(&out, m.name);
    out += ": {\"value\": ";
    fume::serve::AppendJsonDouble(&out, m.value);
    out += ", \"unit\": ";
    fume::serve::AppendJsonString(&out, m.unit);
    out += "}";
  }
  return out + "}}";
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  bool selftest = false;
  if (!ParseArgs(argc, argv, &opts, &selftest)) {
    std::cerr << "usage: perfbench --workload W --seed N --seconds S --trace 0|1"
                 " | --selftest\n";
    return 2;
  }
  const int selftest_failures = RunSelfTests();
  if (selftest) {
    std::cout << "selftest: " << selftest_failures << " failures\n";
    return selftest_failures == 0 ? 0 : 1;
  }
  if (selftest_failures != 0) {
    std::cerr << "benchmark self-tests failed; no measurement taken\n";
    return 1;
  }
  std::error_code ec;
  std::filesystem::create_directories(opts.out_dir, ec);
  if (ec) {
    std::cerr << "cannot create " << opts.out_dir << ": " << ec.message() << "\n";
    return 1;
  }

  const double calibration_start = CalibrationLoopMs();
  fume::Result<RunResult> result = fume::Status::Invalid("unknown workload " +
                                                         opts.workload);
  if (opts.workload == "audit-german") {
    result = RunAuditGerman(opts);
  } else if (opts.workload == "serve-read") {
    result = RunServeRead(opts);
  } else if (opts.workload == "serve-write") {
    result = RunServeWrite(opts);
  }
  const double calibration_end = CalibrationLoopMs();
  if (!result.ok()) {
    std::cerr << "workload " << opts.workload << " did not run: "
              << result.status().ToString() << "\n";
    return 1;
  }
  const RunResult& r = *result;

  for (const Metric& m : r.metrics) {
    if (!std::isfinite(m.value)) {
      std::cerr << "metric " << m.name << " is not finite\n";
      return 1;
    }
  }

  std::cout << "workload " << opts.workload << " seed " << opts.seed
            << " seconds " << opts.seconds << " trace " << opts.trace << "\n";
  for (const std::string& line : r.report) std::cout << "  " << line << "\n";
  for (const Metric& m : r.metrics) {
    std::cout << "  " << m.name << " = " << m.value << " " << m.unit << "\n";
  }
  std::cout << "  attempted " << r.attempted << ", failed " << r.failed << "\n";
  std::cout << "machine: " << MachineRecordJson(calibration_start, calibration_end)
            << "\n";
  std::cout << ResultJson(r) << std::endl;
  return 0;
}
