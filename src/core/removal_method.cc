#include "core/removal_method.h"

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"

namespace fume {

ModelEval EvaluatePredictions(const Dataset& test,
                              const std::vector<int>& preds, GroupSpec group,
                              FairnessMetric metric) {
  ModelEval eval;
  eval.fairness = ComputeFairness(test, preds, group, metric);
  int64_t correct = 0;
  for (int64_t r = 0; r < test.num_rows(); ++r) {
    if (preds[static_cast<size_t>(r)] == test.Label(r)) ++correct;
  }
  eval.accuracy = test.num_rows() == 0
                      ? 0.0
                      : static_cast<double>(correct) /
                            static_cast<double>(test.num_rows());
  return eval;
}

UnlearnRemovalMethod::UnlearnRemovalMethod(const DareForest* model,
                                           const Dataset* test,
                                           GroupSpec group,
                                           FairnessMetric metric)
    : forest_(model), test_(test), group_(group), metric_(metric) {}

UnlearnRemovalMethod::UnlearnRemovalMethod(
    const ShardedForest* model, const Dataset* test, GroupSpec group,
    FairnessMetric metric, const ShardedPredictionCache* base_cache)
    : model_(model),
      test_(test),
      group_(group),
      metric_(metric),
      external_cache_(base_cache) {}

UnlearnRemovalMethod::Worker& UnlearnRemovalMethod::WorkerSlot(int worker) {
  FUME_CHECK_GE(worker, 0);
  if (!in_parallel_ && static_cast<size_t>(worker) >= workers_.size()) {
    // Use without a BeginParallel bracket: grow on demand — safe because
    // serial_mutex_ serializes the whole non-bracketed evaluation. Inside a
    // bracket the slots are pre-sized, so growth (a data race) cannot occur.
    workers_.resize(static_cast<size_t>(worker) + 1);
  }
  FUME_CHECK(static_cast<size_t>(worker) < workers_.size());
  auto& slot = workers_[static_cast<size_t>(worker)];
  if (slot == nullptr) slot = std::make_unique<Worker>();
  return *slot;
}

const ShardedPredictionCache& UnlearnRemovalMethod::BaseCache() {
  if (external_cache_ != nullptr) return *external_cache_;
  // Seeded lazily at the first evaluation: one full prediction pass over
  // the base model, amortized across every subsequent what-if. A bare
  // forest's one-shard view is built here too, after the caller's own
  // predictions compiled the arenas its clone inherits.
  std::call_once(base_cache_once_, [this] {
    if (model_ == nullptr) {
      view_ = ShardedForest::FromForest(*forest_);
      model_ = &view_;
    }
    base_cache_.Rebuild(*model_, *test_);
  });
  return base_cache_;
}

void UnlearnRemovalMethod::BeginParallel(int num_workers) {
  FUME_CHECK_GE(num_workers, 1);
  FUME_CHECK(!in_parallel_);
  if (workers_.size() < static_cast<size_t>(num_workers)) {
    workers_.resize(static_cast<size_t>(num_workers));
  }
  for (auto& slot : workers_) {
    if (slot == nullptr) slot = std::make_unique<Worker>();
  }
  BaseCache();  // seed before threads fan out
  in_parallel_ = true;
}

void UnlearnRemovalMethod::EndParallel() {
  FUME_CHECK(in_parallel_);
  in_parallel_ = false;
  // The level barrier has passed: merge the contention-free per-worker
  // accumulators in slot order (deterministic, no per-evaluation mutex).
  for (auto& slot : workers_) {
    if (slot == nullptr) continue;
    deletion_stats_.Add(slot->stats);
    slot->stats = DeletionStats{};
  }
}

Result<ModelEval> UnlearnRemovalMethod::EvaluateWithout(
    const std::vector<RowId>& rows) {
  return EvaluateWithoutOn(0, rows);
}

Result<ModelEval> UnlearnRemovalMethod::EvaluateWithoutOn(
    int worker, const std::vector<RowId>& rows) {
  if (!in_parallel_) {
    // Outside a BeginParallel bracket every caller resolves to the same
    // worker slot, so the interface's "safe to call concurrently" promise
    // is kept by serializing the whole evaluation. The bracketed path
    // (distinct worker ids, slots pre-sized, stats merged at EndParallel)
    // never takes this lock.
    std::lock_guard<std::mutex> lock(serial_mutex_);
    return EvaluateOnSlot(worker, rows);
  }
  return EvaluateOnSlot(worker, rows);
}

Result<ModelEval> UnlearnRemovalMethod::EvaluateOnSlot(
    int worker, const std::vector<RowId>& rows) {
  static obs::Counter* evals = obs::GetCounter("removal.unlearn.evaluations");
  static obs::Histogram* rows_hist =
      obs::GetHistogram("removal.unlearn.rows_per_evaluation");
  static obs::Counter* rows_rescored =
      obs::GetCounter("removal.unlearn.cow_rows_rescored");
  static obs::Counter* shards_changed =
      obs::GetCounter("removal.unlearn.shards_changed");
  evals->Inc();
  rows_hist->Record(static_cast<int64_t>(rows.size()));
  obs::TraceSpan span("removal.unlearn.evaluate",
                      {{"rows", static_cast<int64_t>(rows.size())}});
  Worker& w = WorkerSlot(worker);
  // Unlearn and rescore in one walk per tree of each shard owning a deleted
  // row, over the shared base model: nothing is cloned, and only test rows
  // whose descent reaches a region the deletion changes are rescored. No
  // pool: FUME's parallelism is across evaluations.
  const ShardedPredictionCache& cache = BaseCache();
  FUME_RETURN_NOT_OK(cache.ScoreWithout(*model_, rows, *test_, &w.scratch,
                                        &w.unlearn_scratch));
  w.stats.Add(w.scratch.deletion_stats);
  rows_rescored->Inc(w.scratch.rows_rescored);
  shards_changed->Inc(w.scratch.shards_changed);

  const ModelEval eval =
      EvaluatePredictions(*test_, w.scratch.preds, group_, metric_);
  if (!in_parallel_) {
    deletion_stats_.Add(w.stats);
    w.stats = DeletionStats{};
  }
  return eval;
}

RetrainRemovalMethod::RetrainRemovalMethod(const Dataset* train,
                                           const Dataset* test,
                                           ForestConfig config,
                                           GroupSpec group,
                                           FairnessMetric metric)
    : train_(train),
      test_(test),
      config_(config),
      group_(group),
      metric_(metric) {}

Result<ModelEval> RetrainRemovalMethod::EvaluateWithout(
    const std::vector<RowId>& rows) {
  static obs::Counter* evals = obs::GetCounter("removal.retrain.evaluations");
  evals->Inc();
  obs::TraceSpan span("removal.retrain.evaluate",
                      {{"rows", static_cast<int64_t>(rows.size())}});
  std::vector<int64_t> to_drop(rows.begin(), rows.end());
  const Dataset reduced = train_->DropRows(to_drop);
  FUME_ASSIGN_OR_RETURN(DareForest model, DareForest::Train(reduced, config_));
  ModelEval eval;
  eval.fairness = ComputeFairness(model, *test_, group_, metric_);
  eval.accuracy = model.Accuracy(*test_);
  return eval;
}

}  // namespace fume
