#include "core/sharded_removal.h"

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"

namespace fume {

ShardedRemovalMethod::ShardedRemovalMethod(const ShardedForest* model,
                                           const Dataset* test,
                                           GroupSpec group,
                                           FairnessMetric metric)
    : ShardedRemovalMethod(model, test, group, metric, nullptr) {}

ShardedRemovalMethod::ShardedRemovalMethod(
    const ShardedForest* model, const Dataset* test, GroupSpec group,
    FairnessMetric metric, const ShardedPredictionCache* base_cache)
    : model_(model),
      test_(test),
      group_(group),
      metric_(metric),
      external_cache_(base_cache) {}

ShardedRemovalMethod::Worker& ShardedRemovalMethod::WorkerSlot(int worker) {
  FUME_CHECK_GE(worker, 0);
  if (!in_parallel_ && static_cast<size_t>(worker) >= workers_.size()) {
    // Non-bracketed use is serialized by serial_mutex_, so on-demand growth
    // cannot race; bracketed slots are pre-sized by BeginParallel.
    workers_.resize(static_cast<size_t>(worker) + 1);
  }
  FUME_CHECK(static_cast<size_t>(worker) < workers_.size());
  auto& slot = workers_[static_cast<size_t>(worker)];
  if (slot == nullptr) slot = std::make_unique<Worker>();
  return *slot;
}

const ShardedPredictionCache& ShardedRemovalMethod::BaseCache() {
  if (external_cache_ != nullptr) return *external_cache_;
  std::call_once(base_cache_once_,
                 [this] { base_cache_.Rebuild(*model_, *test_); });
  return base_cache_;
}

void ShardedRemovalMethod::BeginParallel(int num_workers) {
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

void ShardedRemovalMethod::EndParallel() {
  FUME_CHECK(in_parallel_);
  in_parallel_ = false;
  for (auto& slot : workers_) {
    if (slot == nullptr) continue;
    deletion_stats_.Add(slot->stats);
    slot->stats = DeletionStats{};
  }
}

Result<ModelEval> ShardedRemovalMethod::EvaluateWithout(
    const std::vector<RowId>& rows) {
  return EvaluateWithoutOn(0, rows);
}

Result<ModelEval> ShardedRemovalMethod::EvaluateWithoutOn(
    int worker, const std::vector<RowId>& rows) {
  if (!in_parallel_) {
    std::lock_guard<std::mutex> lock(serial_mutex_);
    return EvaluateOnSlot(worker, rows);
  }
  return EvaluateOnSlot(worker, rows);
}

Result<ModelEval> ShardedRemovalMethod::EvaluateOnSlot(
    int worker, const std::vector<RowId>& rows) {
  static obs::Counter* evals = obs::GetCounter("removal.sharded.evaluations");
  static obs::Histogram* rows_hist =
      obs::GetHistogram("removal.sharded.rows_per_evaluation");
  static obs::Counter* shards_changed =
      obs::GetCounter("removal.sharded.shards_changed");
  static obs::Counter* rows_rescored =
      obs::GetCounter("removal.sharded.rows_rescored");
  evals->Inc();
  rows_hist->Record(static_cast<int64_t>(rows.size()));
  obs::TraceSpan span("removal.sharded.evaluate",
                      {{"rows", static_cast<int64_t>(rows.size())}});
  Worker& w = WorkerSlot(worker);
  // Shard-local unlearning and rescoring in one walk per touched shard,
  // serially: FUME's parallelism is across evaluations (one worker per
  // lattice job), and a what-if batch rarely crosses many shards anyway.
  FUME_RETURN_NOT_OK(BaseCache().ScoreWithout(*model_, rows, *test_,
                                              &w.scratch, &w.unlearn_scratch));
  // Shard-order sum of exactly this evaluation's work.
  w.stats.Add(w.scratch.deletion_stats);
  shards_changed->Inc(w.scratch.shards_changed);
  rows_rescored->Inc(w.scratch.rows_rescored);

  const ModelEval eval =
      EvaluatePredictions(*test_, w.scratch.preds, group_, metric_);
  if (!in_parallel_) {
    deletion_stats_.Add(w.stats);
    w.stats = DeletionStats{};
  }
  return eval;
}

}  // namespace fume
