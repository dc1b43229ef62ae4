#include "machine.h"

#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>

#include "common.h"
#include "serve/protocol.h"

namespace perfbench {

double CalibrationLoopMs() {
  const int64_t start = NowNs();
  uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (int i = 0; i < 20'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  const int64_t end = NowNs();
  // Keep the loop's result observable so it is not folded away.
  volatile uint64_t sink = x;
  (void)sink;
  return NsToMs(end - start);
}

namespace {

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        return line.substr(colon + 2);
      }
    }
  }
  return "unknown";
}

}  // namespace

std::string MachineRecordJson(double calibration_start_ms,
                              double calibration_end_ms) {
  const char* commit = std::getenv("PERFBENCH_COMMIT");
  std::string out = "{\"nproc\":" + std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  out += ",\"cpu_model\":";
  fume::serve::AppendJsonString(&out, CpuModel());
  out += ",\"compiler\":";
  fume::serve::AppendJsonString(&out, PERFBENCH_COMPILER);
  out += ",\"build_type\":";
  fume::serve::AppendJsonString(&out, PERFBENCH_BUILD_TYPE);
  out += ",\"cxx_flags\":";
  fume::serve::AppendJsonString(&out, PERFBENCH_CXX_FLAGS);
  out += ",\"commit\":";
  fume::serve::AppendJsonString(&out, commit != nullptr ? commit : "unknown");
  out += ",\"calibration_ms_start\":" + Fmt(calibration_start_ms, 3);
  out += ",\"calibration_ms_end\":" + Fmt(calibration_end_ms, 3) + "}";
  return out;
}

}  // namespace perfbench
