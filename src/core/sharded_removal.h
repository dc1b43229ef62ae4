// RemovalMethod over a SISA-style ShardedForest: a leave-out evaluation
// exactly unlearns each row from its owning shard and rescores in one
// fused walk per shard (ShardedPredictionCache::ScoreWithout, no clone) —
// shards untouched by the row set contribute their cached vote for free.
// FUME, the stream engine and fume_serve plug it in wherever they would
// use UnlearnRemovalMethod; the top-k it produces differs from the
// monolithic forest's only through the ensemble's vote (the fidelity
// trade-off measured by bench_shard), never through scheduling.

#ifndef FUME_CORE_SHARDED_REMOVAL_H_
#define FUME_CORE_SHARDED_REMOVAL_H_

#include <memory>
#include <mutex>
#include <vector>

#include "core/removal_method.h"
#include "forest/sharded_forest.h"

namespace fume {

class ShardedRemovalMethod : public RemovalMethod {
 public:
  /// Pointers must outlive this object; the model must not be mutated
  /// while evaluations run. The base prediction cache is built lazily at
  /// the first evaluation.
  ShardedRemovalMethod(const ShardedForest* model, const Dataset* test,
                       GroupSpec group, FairnessMetric metric);

  /// As above, but rescoring through `base_cache` (e.g. the stream
  /// engine's warm per-shard cache) instead of building one internally.
  /// `base_cache` must have been rebuilt/updated against `model` and must
  /// stay valid and unmutated for this object's lifetime.
  ShardedRemovalMethod(const ShardedForest* model, const Dataset* test,
                       GroupSpec group, FairnessMetric metric,
                       const ShardedPredictionCache* base_cache);

  Result<ModelEval> EvaluateWithout(const std::vector<RowId>& rows) override;
  Result<ModelEval> EvaluateWithoutOn(
      int worker, const std::vector<RowId>& rows) override;
  void BeginParallel(int num_workers) override;
  void EndParallel() override;
  const char* name() const override { return "dare-unlearn-sharded"; }

  /// Shard-order-merged unlearning work across evaluations (same contract
  /// as UnlearnRemovalMethod::deletion_stats).
  const DeletionStats& deletion_stats() const { return deletion_stats_; }

 private:
  struct Worker {
    DeletionStats stats;
    ShardedPredictionCache::WhatIfScratch scratch;
    /// Shard-affine deletion scratches (entry s always serves shard s).
    std::vector<DeletionScratch> unlearn_scratch;
  };

  Worker& WorkerSlot(int worker);
  const ShardedPredictionCache& BaseCache();
  Result<ModelEval> EvaluateOnSlot(int worker, const std::vector<RowId>& rows);

  const ShardedForest* model_;
  const Dataset* test_;
  GroupSpec group_;
  FairnessMetric metric_;
  const ShardedPredictionCache* external_cache_ = nullptr;
  std::vector<std::unique_ptr<Worker>> workers_;
  bool in_parallel_ = false;
  std::mutex serial_mutex_;
  std::once_flag base_cache_once_;
  ShardedPredictionCache base_cache_;
  DeletionStats deletion_stats_;
};

}  // namespace fume

#endif  // FUME_CORE_SHARDED_REMOVAL_H_
