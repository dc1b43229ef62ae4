// What-if evaluation throughput across four pipelines, on the parametric
// forests of the Figure 5 efficiency study (docs/performance.md):
//  * deep-copy — DeepClone, DeleteRows, a per-row Predict loop (pointer
//    descent; the seed reference);
//  * cow-delta — CoW Clone, DeleteRows, pointer diff-walk rescore;
//  * arena — CoW Clone, DeleteRows, and from kArenaFullRescoreMinBatch up
//    a full rescore of the changed trees through their flat arenas;
//  * fused — TestPredictionCache::ScoreWithout, the production path of
//    UnlearnRemovalMethod: the deletion is played against the base forest
//    without writing to it, and no clone is built at all.
//
// The first three are assembled here from public calls, so their cells
// keep measuring what the committed BENCH_eval.json baselines measured.
// The bench sweeps the deletion batch size: small batches isolate the
// clone and rescore legs (the streaming engine's common case), the
// largest batch approximates the search's support-range row sets where
// unlearning work dominates. Reports evaluations/sec and bytes cloned per
// evaluation per cell, full top-k searches at 1/4/8 threads whose outputs
// are checked identical across every strategy x thread cell, a direct
// arena-vs-pointer byte-identity probe, and a fused-vs-clone identity
// probe (predictions, probability bits and deletion work). Artifacts:
// eval_throughput.csv (+ metrics snapshot) and BENCH_eval.json in
// bench_artifacts/.

#include <algorithm>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <vector>

#include "bench_util.h"
#include "obs/metrics.h"
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

enum class Strategy { kDeepCopy, kCowDelta, kArena, kFused };

struct StrategySpec {
  const char* name;
  Strategy strategy;
};

const StrategySpec kStrategies[] = {
    {"deep-copy", Strategy::kDeepCopy},
    {"cow-delta", Strategy::kCowDelta},
    {"arena", Strategy::kArena},
    {"fused", Strategy::kFused},
};

// The materialized pipelines as a RemovalMethod, so the searches below can
// run them at any thread count: per-worker scratch inside a
// BeginParallel/EndParallel bracket, one serialized slot outside it.
class CloneRemoval : public RemovalMethod {
 public:
  CloneRemoval(const Setup& s, Strategy strategy)
      : s_(s), strategy_(strategy), workers_(1) {
    cache_.Rebuild(s.model, s.test);
  }

  Result<ModelEval> EvaluateWithout(const std::vector<RowId>& rows) override {
    std::lock_guard<std::mutex> lock(mu_);
    return Evaluate(&workers_[0], rows);
  }
  Result<ModelEval> EvaluateWithoutOn(int worker,
                                      const std::vector<RowId>& rows) override {
    if (!in_parallel_) return EvaluateWithout(rows);
    return Evaluate(&workers_[static_cast<size_t>(worker)], rows);
  }
  void BeginParallel(int num_workers) override {
    if (workers_.size() < static_cast<size_t>(num_workers)) {
      workers_.resize(static_cast<size_t>(num_workers));
    }
    in_parallel_ = true;
  }
  void EndParallel() override { in_parallel_ = false; }
  const char* name() const override { return "bench-clone-removal"; }

 private:
  struct Worker {
    TestPredictionCache::WhatIfScratch scratch;
    DeletionScratch deletion;
  };

  Result<ModelEval> Evaluate(Worker* w, const std::vector<RowId>& rows) {
    if (strategy_ == Strategy::kDeepCopy) {
      // The seed reference: eager copy, pointer-walk prediction, so the
      // identity checks diff two independent traversal implementations.
      DareForest what_if = s_.model.DeepClone();
      FUME_RETURN_NOT_OK(what_if.DeleteRows(rows, nullptr, &w->deletion));
      return EvaluatePredictions(s_.test, PointerPredictions(what_if, s_.test),
                                 s_.group, FairnessMetric::kStatisticalParity);
    }
    DareForest what_if = s_.model.Clone();
    FUME_RETURN_NOT_OK(what_if.DeleteRows(rows, nullptr, &w->deletion));
    cache_.ScoreWhatIf(
        s_.model, what_if, s_.test, &w->scratch,
        strategy_ == Strategy::kArena &&
            rows.size() >= UnlearnRemovalMethod::kArenaFullRescoreMinBatch);
    return EvaluatePredictions(s_.test, w->scratch.preds, s_.group,
                               FairnessMetric::kStatisticalParity);
  }

  const Setup& s_;
  Strategy strategy_;
  TestPredictionCache cache_;
  std::vector<Worker> workers_;
  bool in_parallel_ = false;
  std::mutex mu_;
};

std::unique_ptr<RemovalMethod> MakeRemoval(const Setup& s, Strategy strategy) {
  if (strategy == Strategy::kFused) {
    return std::make_unique<UnlearnRemovalMethod>(
        &s.model, &s.test, s.group, FairnessMetric::kStatisticalParity);
  }
  return std::make_unique<CloneRemoval>(s, strategy);
}

struct Throughput {
  int64_t evaluations = 0;
  double seconds = 0.0;
  double evals_per_sec = 0.0;
  int64_t clone_bytes_per_eval = 0;
};

// Serial evaluation loop. The warm-up evaluation (which also seeds the
// base prediction cache, a one-off cost amortized across a search) is
// excluded, matching how a search amortizes it.
Throughput Measure(const Setup& s,
                   const std::vector<std::vector<RowId>>& batches,
                   Strategy strategy) {
  std::unique_ptr<RemovalMethod> removal = MakeRemoval(s, strategy);
  auto warmup = removal->EvaluateWithout(batches.front());
  FUME_ABORT_NOT_OK(warmup.status());

  obs::Counter* copied = obs::GetCounter("forest.unlearn.cow_nodes_copied");
  const int64_t copied_before = copied->Value();
  Throughput t;
  Stopwatch watch;
  for (const auto& rows : batches) {
    auto eval = removal->EvaluateWithout(rows);
    FUME_ABORT_NOT_OK(eval.status());
    ++t.evaluations;
  }
  t.seconds = watch.ElapsedSeconds();
  t.evals_per_sec = t.seconds > 0.0
                        ? static_cast<double>(t.evaluations) / t.seconds
                        : 0.0;
  const int64_t forest_bytes = s.model.ApproxHeapBytes();
  if (strategy == Strategy::kDeepCopy) {
    t.clone_bytes_per_eval = forest_bytes;  // every eval copies everything
  } else {
    // CoW copies individual nodes; charge each the forest's mean node size.
    // The fused walk copies none.
    const int64_t nodes = s.model.num_nodes();
    const int64_t node_bytes = nodes > 0 ? forest_bytes / nodes : 0;
    t.clone_bytes_per_eval = t.evaluations > 0
                                 ? (copied->Value() - copied_before) *
                                       node_bytes / t.evaluations
                                 : 0;
  }
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
  PrintBanner(
      "What-if evaluation throughput: deep-copy vs CoW + delta vs arena vs "
      "fused",
      "docs/performance.md / Figure 5 forests");

  const std::vector<int64_t> sizes =
      smoke ? std::vector<int64_t>{2000}
            : (full ? std::vector<int64_t>{5000, 10000, 20000, 50000}
                    : std::vector<int64_t>{2000, 5000, 10000, 20000});
  const int64_t mid_size = sizes[sizes.size() / 2];
  // 1/4: streaming-style single-op what-ifs (the clone + rescore legs
  // dominate); 64/1024: toward the search's support-range subsets where
  // shared unlearning work dominates both strategies. Smoke keeps one
  // small and one large batch so the arena full-rescore leg runs in CI.
  const std::vector<int> batch_sizes =
      smoke ? std::vector<int>{1, 4, 64} : std::vector<int>{1, 4, 64, 1024};
  const int kHeadlineBatch = 4;
  const int kArenaHeadlineBatch = 64;
  const int num_batches = smoke ? 8 : (full ? 96 : 48);

  TablePrinter table({"rows", "batch", "strategy", "evals", "evals/sec",
                      "clone KiB/eval", "speedup"});
  std::vector<std::vector<std::string>> artifact;
  double mid_speedup = 0.0;
  double arena_speedup = 0.0;
  double fused_speedup = 0.0;

  for (int64_t rows : sizes) {
    Setup s = MakeSetup(rows);
    for (int batch : batch_sizes) {
      const auto batches = MakeBatches(s, batch, num_batches);
      std::vector<Throughput> results;
      for (const StrategySpec& strategy : kStrategies) {
        results.push_back(Measure(s, batches, strategy.strategy));
      }
      const double deep_rate = results.front().evals_per_sec;
      const double cow_rate = results[1].evals_per_sec;
      const double arena_rate = results[2].evals_per_sec;
      if (rows == mid_size && batch == kHeadlineBatch && deep_rate > 0.0) {
        mid_speedup = cow_rate / deep_rate;
      }
      if (rows == mid_size && batch == kArenaHeadlineBatch && cow_rate > 0.0) {
        arena_speedup = arena_rate / cow_rate;
      }
      if (rows == mid_size && batch == kArenaHeadlineBatch &&
          arena_rate > 0.0) {
        fused_speedup = results[3].evals_per_sec / arena_rate;
      }
      for (size_t i = 0; i < std::size(kStrategies); ++i) {
        const Throughput& t = results[i];
        const double speedup =
            i == 0 ? 1.0
                   : (deep_rate > 0.0 ? t.evals_per_sec / deep_rate : 0.0);
        table.AddRow(
            {std::to_string(rows), std::to_string(batch), kStrategies[i].name,
             std::to_string(t.evaluations),
             FormatDouble(t.evals_per_sec, 1),
             FormatDouble(
                 static_cast<double>(t.clone_bytes_per_eval) / 1024.0, 1),
             FormatDouble(speedup, 2) + "x"});
        artifact.push_back(
            {std::to_string(rows), std::to_string(batch), kStrategies[i].name,
             std::to_string(t.evaluations), FormatDouble(t.seconds, 4),
             FormatDouble(t.evals_per_sec, 2),
             std::to_string(t.clone_bytes_per_eval),
             FormatDouble(speedup, 3)});
      }
    }
  }
  table.Print(std::cout);
  WriteArtifact("eval_throughput",
                {"rows", "batch_rows", "strategy", "evaluations", "seconds",
                 "evals_per_sec", "clone_bytes_per_eval", "speedup_vs_deep"},
                artifact);

  // Full searches: every strategy x thread cell must produce the same top-k
  // (each pipeline's exactness claim, end to end — deep-copy cells walk
  // pointers, arena cells stream the compiled arenas, fused cells never
  // build the what-if forest, and their searches must rank identical
  // subsets with identical scores).
  std::cout << "\nSearch identity check (mid-size forest, " << mid_size
            << " rows)\n";
  Setup s = MakeSetup(mid_size);
  FumeConfig config = BenchFumeConfig(s.group);
  std::string reference;
  bool identical = true;
  TablePrinter search_table({"strategy", "threads", "search sec"});
  for (const StrategySpec& strategy : kStrategies) {
    for (const int threads : {1, 4, 8}) {
      std::unique_ptr<RemovalMethod> removal =
          MakeRemoval(s, strategy.strategy);
      config.num_threads = threads;
      Stopwatch watch;
      auto result =
          ExplainWithRemoval(s.model, s.train, s.test, config, removal.get());
      const double seconds = watch.ElapsedSeconds();
      FUME_ABORT_NOT_OK(result.status());
      const std::string sig = TopKSignature(*result, s.train.schema());
      if (reference.empty()) {
        reference = sig;
      } else if (sig != reference) {
        identical = false;
      }
      search_table.AddRow({strategy.name, std::to_string(threads),
                           FormatDouble(seconds, 3)});
    }
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
  std::cout << "top-k identical across all cells: "
            << (identical ? "yes" : "NO — exactness violation") << '\n'
            << "arena vs pointer predictions byte-identical: "
            << (arena_identical ? "yes" : "NO — exactness violation") << '\n'
            << "fused vs clone + delete + rescore identical: "
            << (fused_identical ? "yes" : "NO — exactness violation") << '\n'
            << "cow-delta speedup at " << mid_size << " rows, batch "
            << kHeadlineBatch
            << ", 1 thread: " << FormatDouble(mid_speedup, 2) << "x\n"
            << "arena speedup over cow-delta at " << mid_size
            << " rows, batch " << kArenaHeadlineBatch << ", 1 thread: "
            << FormatDouble(arena_speedup, 2) << "x\n"
            << "fused speedup over arena at " << mid_size << " rows, batch "
            << kArenaHeadlineBatch << ", 1 thread: "
            << FormatDouble(fused_speedup, 2) << "x\n";

  std::ofstream json("bench_artifacts/BENCH_eval.json");
  if (json) {
    json.precision(6);
    json << "{\n  \"bench\": \"eval_throughput\",\n"
         << "  \"machine\": \"" << MachineDescription() << "\",\n"
         << "  \"forest\": \"figure5-parametric (10 trees, depth 8)\",\n"
         << "  \"mid_size_rows\": " << mid_size << ",\n"
         << "  \"headline_batch_rows\": " << kHeadlineBatch << ",\n"
         << "  \"arena_headline_batch_rows\": " << kArenaHeadlineBatch
         << ",\n"
         << "  \"topk_identical\": " << (identical ? "true" : "false")
         << ",\n"
         << "  \"arena_pointer_identical\": "
         << (arena_identical ? "true" : "false") << ",\n"
         << "  \"fused_clone_identical\": "
         << (fused_identical ? "true" : "false") << ",\n"
         << "  \"cow_speedup_1thread_mid\": " << mid_speedup << ",\n"
         << "  \"arena_speedup_1thread_mid\": " << arena_speedup << ",\n"
         << "  \"fused_speedup_1thread_mid\": " << fused_speedup << ",\n"
         << "  \"cells\": [\n";
    for (size_t i = 0; i < artifact.size(); ++i) {
      const auto& row = artifact[i];
      json << "    {\"rows\": " << row[0] << ", \"batch_rows\": " << row[1]
           << ", \"strategy\": \"" << row[2]
           << "\", \"evaluations\": " << row[3] << ", \"seconds\": " << row[4]
           << ", \"evals_per_sec\": " << row[5]
           << ", \"clone_bytes_per_eval\": " << row[6]
           << ", \"speedup_vs_deep\": " << row[7] << '}'
           << (i + 1 < artifact.size() ? "," : "") << '\n';
    }
    json << "  ]\n}\n";
    std::cout << "wrote bench_artifacts/BENCH_eval.json\n";
  } else {
    std::cout << "could not write bench_artifacts/BENCH_eval.json\n";
  }
  return identical && arena_identical && fused_identical ? 0 : 1;
}
