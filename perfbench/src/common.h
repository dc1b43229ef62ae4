// Shared pieces of the repository benchmark: run options, the paper's
// German Credit pipeline, the serve fixture (carve-out plus generated
// requests), process clocks, and result reporting.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/fume.h"
#include "data/dataset.h"
#include "forest/forest.h"
#include "subset/predicate.h"
#include "util/result.h"

namespace perfbench {

using fume::Dataset;
using fume::GroupSpec;
using fume::Predicate;
using fume::Result;
using fume::Status;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Directory for spans, exact-count records and temp files, relative to
  /// the current directory (the checkout root).
  std::string out_dir = ".bench_out";
};

/// Independent sub-seeds of the run seed: stream 1 synthesizes data,
/// stream 2 orders requests, stream 3 draws the write sequence.
uint64_t DeriveSeed(uint64_t seed, uint64_t stream);

int64_t NowNs();
inline double NsToMs(int64_t ns) { return static_cast<double>(ns) / 1e6; }
inline double NsToUs(int64_t ns) { return static_cast<double>(ns) / 1e3; }
/// CPU time of the whole process (all threads).
double ProcessCpuMs();
double PeakRssMb();

/// One generated German Credit instance split 70/30 as in the paper.
struct GermanData {
  Dataset train;
  Dataset test;
  GroupSpec group;
};
Result<GermanData> MakeGerman(int64_t rows, uint64_t data_seed);

/// The paper's German Credit model: 10 trees, depth 8 (the values of the
/// bench harness's BenchForestConfig, frozen here so the workload does not
/// move when the harness does).
fume::ForestConfig PaperForestConfig();
/// The paper's search (k=5, support 5-15%, eta=2) on two worker threads.
fume::FumeConfig PaperFumeConfig(const GroupSpec& group);

/// Serving inputs derived from one GermanData: fume_serve's carve-out (the
/// last third of train held back as an insert pool) plus the seeded
/// requests every serve workload and probe draws from.
struct ServeFixture {
  Dataset initial_train;
  Dataset pool;
  Dataset test;
  GroupSpec group;
  /// Single- and two-literal equality predicates, each matching >= 1 row of
  /// initial_train; the first half single-literal, the second half two.
  std::vector<Predicate> predicates;
  /// Rows of each predict request (64 test rows each).
  std::vector<std::vector<std::vector<int32_t>>> predict_batches;
  /// Seeded request order: index into predicates / predict_batches.
  std::vector<int> whatif_order;
  std::vector<int> predict_order;
};
ServeFixture MakeServeFixture(const GermanData& data, uint64_t request_seed);

/// Rows of `data` the predicate selects, as training-row ids.
std::vector<fume::RowId> MatchingIds(const Predicate& p, const Dataset& data);

/// Bit-exact double comparison (the served numbers round-trip %.17g).
bool SameBits(double a, double b);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable lines printed before the result line.
  std::vector<std::string> report;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
  void Line(const std::string& text) { report.push_back(text); }
  /// Records a failed correctness check (counted as one failed op).
  void Fail(const std::string& what);
};

/// A fresh directory under Options::out_dir for op-logs and checkpoints,
/// removed with everything in it on destruction.
class StateDir {
 public:
  explicit StateDir(const Options& opts);
  ~StateDir();
  StateDir(const StateDir&) = delete;
  StateDir& operator=(const StateDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Fixed-point formatting for report lines.
std::string Fmt(double v, int precision = 4);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
