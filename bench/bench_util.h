// Shared setup for the benchmark harness that regenerates the paper's
// tables and figures (DESIGN.md §4). Every bench uses the same pipeline:
// generate the calibrated synthetic dataset, split 70/30, train a DaRE
// forest with per-dataset hyperparameters, run FUME.
//
// Sizes: by default the larger datasets are scaled down so the whole bench
// suite completes in minutes on a small container (the factor is printed
// with every table); set FUME_BENCH_FULL=1 or pass --full for paper-sized
// runs.

#ifndef FUME_BENCH_BENCH_UTIL_H_
#define FUME_BENCH_BENCH_UTIL_H_

#include <string>

#include "core/baseline.h"
#include "core/fume.h"
#include "core/report.h"
#include "data/split.h"
#include "synth/registry.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace fume {
namespace bench {

/// Everything a table bench needs about one dataset.
struct Pipeline {
  std::string name;
  std::string index_prefix;
  int64_t rows_used = 0;
  int64_t paper_rows = 0;
  Dataset train;
  Dataset test;
  GroupSpec group;
  ForestConfig forest_config;
  DareForest model;
  double train_seconds = 0.0;
};

/// True when --full was passed or FUME_BENCH_FULL=1 is set.
bool FullMode(int argc, char** argv);

/// True when --smoke was passed or FUME_BENCH_SMOKE=1 is set: benches that
/// support it run only their smallest substrate with a handful of
/// iterations — a crash/NaN tripwire for CI (scripts/run_bench_smoke.sh),
/// not a measurement. Takes precedence over FullMode in benches honouring
/// both.
bool SmokeMode(int argc, char** argv);

/// Rows to generate for a dataset in scaled/full mode.
int64_t BenchRows(const synth::RegisteredDataset& dataset, bool full);

/// Per-dataset forest hyperparameters (tree depth tuned so the model shows
/// a clear violation, mirroring the paper's setting of a biased classifier).
ForestConfig BenchForestConfig(const std::string& dataset_name);

/// The paper's search hyperparameters: k = 5, support 5-15%, eta = 2.
FumeConfig BenchFumeConfig(const GroupSpec& group,
                           FairnessMetric metric =
                               FairnessMetric::kStatisticalParity);

/// Generates, splits and trains for one registered dataset.
Result<Pipeline> SetupPipeline(const synth::RegisteredDataset& dataset,
                               bool full, uint64_t seed = 4);

/// Prints the standard bench banner.
void PrintBanner(const std::string& title, const std::string& paper_ref);

/// Runs FUME + baseline on one dataset and prints the paper-shaped table
/// (used by the Table 3-7 benches).
int RunTopKBench(const std::string& dataset_name, int argc, char** argv);

/// Writes bench_artifacts/<name>.csv (creating the directory on first use)
/// with plottable data for the figure benches, plus a sibling
/// bench_artifacts/<name>.metrics.json embedding a snapshot of the global
/// metrics registry — so every artifact carries the counter context
/// (pruning work, unlearning work, cache behaviour) of the run that
/// produced it. Failures are reported but non-fatal to the bench itself.
void WriteArtifact(const std::string& name,
                   const std::vector<std::string>& header,
                   const std::vector<std::vector<std::string>>& rows);

/// Writes bench_artifacts/<name>.metrics.json from the global registry
/// (also called by WriteArtifact). Use after table benches that emit no
/// CSV to still persist the run's counters.
void WriteMetricsSnapshot(const std::string& name);

/// One-line description of the host and build for BENCH_*.json artifacts
/// ("nproc=4; cpu=<model name>; compiler=<__VERSION__>; NDEBUG"), so a
/// baseline says which machine its numbers came from. JSON-safe: quotes
/// and backslashes are dropped.
std::string MachineDescription();

/// A privately-owned copy of `model` — every node refcount 1, its own
/// training store — made by an untimed SaveForest -> LoadForest round trip,
/// so a timed loop over the copy contains pure deletion work (no CoW
/// unshares).
DareForest PrivateCopy(const DareForest& model);

}  // namespace bench
}  // namespace fume

#endif  // FUME_BENCH_BENCH_UTIL_H_
