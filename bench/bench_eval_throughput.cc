// What-if evaluation throughput of the production path, on the parametric
// forests of the Figure 5 efficiency study (docs/performance.md): the
// `fused` pipeline, UnlearnRemovalMethod's TestPredictionCache::
// ScoreWithout, which plays the deletion against the base forest without
// writing to it and builds no clone at all.
//
// The bench sweeps the deletion batch size: small batches are the
// streaming engine's common case, the largest batch approximates the
// search's support-range row sets where unlearning work dominates. Reports
// evaluations/sec per cell, full top-k searches at 1/4/8 threads whose
// outputs are checked identical, a direct arena-vs-pointer byte-identity
// probe, and a fused-vs-clone identity probe (predictions, probability
// bits and deletion work). Artifacts: eval_throughput.csv (+ metrics
// snapshot) and BENCH_eval.json in bench_artifacts/.

#include <algorithm>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <vector>

#include "bench_util.h"
#include "synth/datasets.h"

namespace {

using namespace fume;
using namespace fume::bench;

struct Setup {
  int64_t rows = 0;
  Dataset train;
  Dataset test;
  GroupSpec group;
  DareForest model;
};

Setup MakeSetup(int64_t rows) {
  auto bundle = synth::MakeParametric(rows, 10, 2, 7);
  FUME_ABORT_NOT_OK(bundle.status());
  SplitOptions split_opts;
  split_opts.test_fraction = 0.3;
  split_opts.seed = 2;
  auto split = SplitTrainTest(bundle->data, split_opts);
  FUME_ABORT_NOT_OK(split.status());
  ForestConfig forest_config;  // the Figure 5 forest
  forest_config.num_trees = 10;
  forest_config.max_depth = 8;
  forest_config.random_depth = 2;
  forest_config.seed = 31;
  auto model = DareForest::Train(split->train, forest_config);
  FUME_ABORT_NOT_OK(model.status());
  return Setup{rows, std::move(split->train), std::move(split->test),
               bundle->group, std::move(*model)};
}

// Deterministic spread-out batches of live training rows; every evaluation
// starts from the pristine model, so batches never compound.
std::vector<std::vector<RowId>> MakeBatches(const Setup& s, int batch_size,
                                            int num_batches) {
  const int64_t n = s.model.num_training_rows();
  std::vector<std::vector<RowId>> batches;
  batches.reserve(static_cast<size_t>(num_batches));
  for (int b = 0; b < num_batches; ++b) {
    std::vector<RowId> rows;
    rows.reserve(static_cast<size_t>(batch_size));
    for (int j = 0; j < batch_size; ++j) {
      const uint64_t key = static_cast<uint64_t>(b) * 131 +
                           static_cast<uint64_t>(j) * 977;
      rows.push_back(static_cast<RowId>(key % static_cast<uint64_t>(n)));
    }
    std::sort(rows.begin(), rows.end());
    rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
    batches.push_back(std::move(rows));
  }
  return batches;
}

// Hard predictions by single-row pointer descent (DareForest::Predict), the
// reference the arena batch traversal must reproduce.
std::vector<int> PointerPredictions(const DareForest& forest,
                                    const Dataset& data) {
  std::vector<int> out(static_cast<size_t>(data.num_rows()));
  for (int64_t r = 0; r < data.num_rows(); ++r) {
    out[static_cast<size_t>(r)] = forest.Predict(data, r);
  }
  return out;
}

std::vector<double> PointerProbabilities(const DareForest& forest,
                                         const Dataset& data) {
  std::vector<double> out(static_cast<size_t>(data.num_rows()));
  for (int64_t r = 0; r < data.num_rows(); ++r) {
    out[static_cast<size_t>(r)] = forest.PredictProb(data, r);
  }
  return out;
}

struct Throughput {
  int64_t evaluations = 0;
  double seconds = 0.0;
  double evals_per_sec = 0.0;
};

// Serial evaluation loop. The warm-up evaluation (which also seeds the
// base prediction cache, a one-off cost amortized across a search) is
// excluded, matching how a search amortizes it.
Throughput Measure(const Setup& s,
                   const std::vector<std::vector<RowId>>& batches) {
  UnlearnRemovalMethod removal(&s.model, &s.test, s.group,
                               FairnessMetric::kStatisticalParity);
  auto warmup = removal.EvaluateWithout(batches.front());
  FUME_ABORT_NOT_OK(warmup.status());

  Throughput t;
  Stopwatch watch;
  for (const auto& rows : batches) {
    auto eval = removal.EvaluateWithout(rows);
    FUME_ABORT_NOT_OK(eval.status());
    ++t.evaluations;
  }
  t.seconds = watch.ElapsedSeconds();
  t.evals_per_sec = t.seconds > 0.0
                        ? static_cast<double>(t.evaluations) / t.seconds
                        : 0.0;
  return t;
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// The fused walk against the materialized clone path it replaces, batch by
// batch: same predictions, same probability bits, same deletion work
// (except nodes_copied, which only the clone incurs).
bool FusedMatchesClone(const Setup& s,
                       const std::vector<std::vector<RowId>>& batches) {
  TestPredictionCache cache;
  cache.Rebuild(s.model, s.test);
  TestPredictionCache::WhatIfScratch fused, cloned;
  fused.want_probs = cloned.want_probs = true;
  DeletionScratch deletion;
  for (const auto& rows : batches) {
    if (!cache.ScoreWithout(s.model, rows, s.test, &fused, &deletion).ok()) {
      return false;
    }
    DareForest what_if = s.model.Clone();
    if (!what_if.DeleteRows(rows, nullptr, &deletion).ok()) return false;
    cache.ScoreWhatIf(s.model, what_if, s.test, &cloned);
    DeletionStats work = what_if.deletion_stats();
    work.nodes_copied = 0;
    if (fused.preds != cloned.preds || !SameBits(fused.probs, cloned.probs) ||
        !(fused.deletion_stats == work)) {
      return false;
    }
  }
  return true;
}

std::string TopKSignature(const FumeResult& result, const Schema& schema) {
  std::ostringstream os;
  os.precision(17);
  for (const auto& s : result.top_k) {
    os << s.predicate.ToString(schema) << '|' << s.attribution << '|'
       << s.new_fairness << '|' << s.new_accuracy << '\n';
  }
  os << result.stats.attribution_evaluations;
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = SmokeMode(argc, argv);
  const bool full = !smoke && FullMode(argc, argv);
  PrintBanner("What-if evaluation throughput: fused ScoreWithout",
              "docs/performance.md / Figure 5 forests");

  const std::vector<int64_t> sizes =
      smoke ? std::vector<int64_t>{2000}
            : (full ? std::vector<int64_t>{5000, 10000, 20000, 50000}
                    : std::vector<int64_t>{2000, 5000, 10000, 20000});
  const int64_t mid_size = sizes[sizes.size() / 2];
  // 1/4: streaming-style single-op what-ifs; 64/1024: toward the search's
  // support-range subsets where shared unlearning work dominates.
  const std::vector<int> batch_sizes =
      smoke ? std::vector<int>{1, 4, 64} : std::vector<int>{1, 4, 64, 1024};
  const int num_batches = smoke ? 8 : (full ? 96 : 48);

  TablePrinter table({"rows", "batch", "strategy", "evals", "evals/sec"});
  std::vector<std::vector<std::string>> artifact;

  for (int64_t rows : sizes) {
    Setup s = MakeSetup(rows);
    for (int batch : batch_sizes) {
      const Throughput t = Measure(s, MakeBatches(s, batch, num_batches));
      table.AddRow({std::to_string(rows), std::to_string(batch), "fused",
                    std::to_string(t.evaluations),
                    FormatDouble(t.evals_per_sec, 1)});
      artifact.push_back({std::to_string(rows), std::to_string(batch),
                          "fused", std::to_string(t.evaluations),
                          FormatDouble(t.seconds, 4),
                          FormatDouble(t.evals_per_sec, 2)});
    }
  }
  table.Print(std::cout);
  WriteArtifact("eval_throughput",
                {"rows", "batch_rows", "strategy", "evaluations", "seconds",
                 "evals_per_sec"},
                artifact);

  // Full searches: the fused search must rank identical subsets with
  // identical scores at every thread count.
  std::cout << "\nSearch identity check (mid-size forest, " << mid_size
            << " rows)\n";
  Setup s = MakeSetup(mid_size);
  FumeConfig config = BenchFumeConfig(s.group);
  std::string reference;
  bool identical = true;
  TablePrinter search_table({"threads", "search sec"});
  for (const int threads : {1, 4, 8}) {
    UnlearnRemovalMethod removal(&s.model, &s.test, s.group,
                                 FairnessMetric::kStatisticalParity);
    config.num_threads = threads;
    Stopwatch watch;
    auto result = ExplainWithRemoval(s.model, s.train, s.test, config,
                                     &removal);
    const double seconds = watch.ElapsedSeconds();
    FUME_ABORT_NOT_OK(result.status());
    const std::string sig = TopKSignature(*result, s.train.schema());
    if (reference.empty()) {
      reference = sig;
    } else if (sig != reference) {
      identical = false;
    }
    search_table.AddRow({std::to_string(threads), FormatDouble(seconds, 3)});
  }
  search_table.Print(std::cout);

  // Direct arena-vs-pointer probe on the mid-size model: the compiled-arena
  // batch traversal must reproduce the per-row pointer walk byte for byte.
  const bool arena_identical =
      s.model.PredictProbAll(s.test) == PointerProbabilities(s.model, s.test) &&
      s.model.PredictAll(s.test) == PointerPredictions(s.model, s.test);
  // Direct fused-vs-clone probe on the mid-size model over every batch
  // size the throughput cells ran.
  bool fused_identical = true;
  for (int batch : batch_sizes) {
    fused_identical =
        fused_identical &&
        FusedMatchesClone(s, MakeBatches(s, batch, num_batches));
  }
  std::cout << "top-k identical across thread counts: "
            << (identical ? "yes" : "NO — exactness violation") << '\n'
            << "arena vs pointer predictions byte-identical: "
            << (arena_identical ? "yes" : "NO — exactness violation") << '\n'
            << "fused vs clone + delete + rescore identical: "
            << (fused_identical ? "yes" : "NO — exactness violation") << '\n';

  std::ofstream json("bench_artifacts/BENCH_eval.json");
  if (json) {
    json.precision(6);
    json << "{\n  \"bench\": \"eval_throughput\",\n"
         << "  \"machine\": \"" << MachineDescription() << "\",\n"
         << "  \"forest\": \"figure5-parametric (10 trees, depth 8)\",\n"
         << "  \"mid_size_rows\": " << mid_size << ",\n"
         << "  \"topk_identical\": " << (identical ? "true" : "false")
         << ",\n"
         << "  \"arena_pointer_identical\": "
         << (arena_identical ? "true" : "false") << ",\n"
         << "  \"fused_clone_identical\": "
         << (fused_identical ? "true" : "false") << ",\n"
         << "  \"cells\": [\n";
    for (size_t i = 0; i < artifact.size(); ++i) {
      const auto& row = artifact[i];
      json << "    {\"rows\": " << row[0] << ", \"batch_rows\": " << row[1]
           << ", \"strategy\": \"" << row[2]
           << "\", \"evaluations\": " << row[3] << ", \"seconds\": " << row[4]
           << ", \"evals_per_sec\": " << row[5] << '}'
           << (i + 1 < artifact.size() ? "," : "") << '\n';
    }
    json << "  ]\n}\n";
    std::cout << "wrote bench_artifacts/BENCH_eval.json\n";
  } else {
    std::cout << "could not write bench_artifacts/BENCH_eval.json\n";
  }
  return identical && arena_identical && fused_identical ? 0 : 1;
}
