// Per-layer measurement from outside the program: each probe calls one
// layer's public functions on the workload's own inputs and times them
// with the benchmark's spans. Every traced run runs every probe, so each
// per-layer metric is reported for every workload; the workload decides
// which inputs the probes see (see README.md for the layer map).

#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "serve/tenant.h"
#include "spans.h"
#include "write_sequence.h"

namespace perfbench {

/// One FUME search run through a timing decorator around
/// UnlearnRemovalMethod, plus registry deltas of the counters it moves.
struct SearchMeasure {
  fume::FumeResult result;
  double wall_ms = 0.0;
  int64_t calls = 0;
  int64_t rows_total = 0;
  double busy_ms = 0.0;
  /// Audit wall time not covered by any evaluate span.
  double self_ms = 0.0;
  /// Sum of BeginParallel..EndParallel wall time.
  double bracket_ms = 0.0;
  int workers = 1;
  /// Registry deltas, in the order of kSearchCounters.
  std::vector<int64_t> counters;
  /// Row set of every evaluation and the fairness it produced, when
  /// captured.
  std::vector<std::vector<fume::RowId>> row_sets;
  std::vector<double> row_set_fairness;
};

/// Current values of the named registry counters.
std::vector<int64_t> ReadCounters(const std::vector<std::string>& names);

/// fume.rowset_cache.hit/miss, forest.unlearn.{subtrees_retrained,
/// rows_retrained, cow_nodes_copied}, removal.unlearn.cow_rows_rescored.
extern const std::vector<std::string> kSearchCounters;

Result<SearchMeasure> RunDecoratedSearch(const fume::DareForest& model,
                                         const Dataset& train,
                                         const Dataset& test,
                                         const fume::FumeConfig& config,
                                         SpanRecorder* spans, int64_t request,
                                         bool capture_row_sets);

/// Counts a run must repeat exactly (same seed, same program).
using ExactCounts = std::map<std::string, int64_t>;

/// Tenant config of the serve workloads: the paper's model and search,
/// 2 what-if threads, default batching. With a state dir, the tenant keeps
/// an op-log and a checkpoint there and both drift thresholds are pinned
/// to infinity, so writes never re-run the search.
fume::serve::TenantConfig MakeTenantConfig(const GroupSpec& group,
                                           const std::string& state_dir);

/// Length of the write sequence the stream probes replay on a workload that
/// has no writer of its own.
constexpr int kProbeWrites = 400;

/// Inputs of the probes that run on every workload.
struct ProbeInputs {
  /// The searches the core probe measured (>= 1; all with equal inputs).
  std::vector<SearchMeasure> searches;
  const fume::DareForest* model = nullptr;
  const Dataset* search_train = nullptr;
  const Dataset* test = nullptr;
  fume::FumeConfig fume;
  const ServeFixture* fixture = nullptr;
  /// The tenant whose whatif path is probed in process (the workload's own
  /// server tenant, or a standalone one for the audit workload).
  fume::serve::Tenant* tenant = nullptr;
  int whatif_concurrency = 1;
  const WriteSequence* writes = nullptr;
  /// Directory for the probes' op-logs and checkpoints.
  std::string state_dir;
};

/// Runs the replay, subset, protocol, tenant, snapshot and stream probes
/// and appends every per-layer metric (README.md) to `out`, together with
/// the exact counts they produce. Correctness mismatches inside the probes
/// are recorded on `out` as failed ops.
Status RunLayerProbes(const ProbeInputs& in, SpanRecorder* spans,
                      RunResult* out, ExactCounts* exact);

/// Compares `counts` with the record an earlier run of the same workload,
/// seed, length and binary left under `out_dir` (writing one when none
/// exists). Returns false on a mismatch.
bool CheckExactCountsAcrossRuns(const Options& opts, const ExactCounts& counts,
                                std::string* detail);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
