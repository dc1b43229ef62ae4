// RemovalMethod: the pluggable R of Eq. (2) — evaluates the model as if it
// had been trained without a given set of training rows. FUME uses the DaRE
// unlearning implementation; the scratch-retraining implementation provides
// ground truth for the RQ1 fidelity experiment (Figure 3) and a reference
// for tests.

#ifndef FUME_CORE_REMOVAL_METHOD_H_
#define FUME_CORE_REMOVAL_METHOD_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "fairness/metrics.h"
#include "forest/forest.h"
#include "forest/sharded_forest.h"
#include "util/result.h"

namespace fume {

/// Evaluation of a counterfactual model ("trained without T") on test data.
struct ModelEval {
  /// Signed fairness F(h_T, D_test).
  double fairness = 0.0;
  double accuracy = 0.0;
};

/// Fairness and accuracy of hard predictions `preds` (one per test row).
ModelEval EvaluatePredictions(const Dataset& test,
                              const std::vector<int>& preds, GroupSpec group,
                              FairnessMetric metric);

/// \brief Interface: evaluate fairness/accuracy of the model trained without
/// the given training rows.
///
/// Implementations used with FumeConfig::num_threads > 1 must make
/// EvaluateWithout / EvaluateWithoutOn safe to call concurrently (both
/// built-in methods are).
class RemovalMethod {
 public:
  virtual ~RemovalMethod() = default;

  /// Must be a deterministic pure function of the row set (for fixed
  /// construction state): FUME relies on this to evaluate each distinct
  /// row set at most once per lattice level — duplicates within a level
  /// share a single evaluation even with FumeConfig::cache_by_rowset off,
  /// and the rowset cache additionally memoizes results across levels. A
  /// stochastic implementation would make those reuses observable.
  virtual Result<ModelEval> EvaluateWithout(
      const std::vector<RowId>& rows) = 0;

  /// Worker-aware variant used by the parallel search: `worker` names the
  /// per-thread scratch slot reserved by BeginParallel, in
  /// [0, num_workers). The search guarantees at most one in-flight call per
  /// worker id, so implementations may keep lock-free per-worker state.
  /// Defaults to plain EvaluateWithout.
  virtual Result<ModelEval> EvaluateWithoutOn(int worker,
                                              const std::vector<RowId>& rows) {
    (void)worker;
    return EvaluateWithout(rows);
  }

  /// Brackets a batch of concurrent EvaluateWithoutOn calls. BeginParallel
  /// sizes per-worker state for ids [0, num_workers); EndParallel (called
  /// with no evaluation in flight) merges it back. Defaults are no-ops.
  virtual void BeginParallel(int num_workers) { (void)num_workers; }
  virtual void EndParallel() {}

  virtual const char* name() const = 0;
};

/// \brief Machine unlearning removal: exactly unlearns the rows from the
/// trained DaRE model — no retraining pass over the data — and rescores
/// the test set.
///
/// The model is a ShardedForest; a bare DareForest is its one-shard view
/// (ShardedForest::FromForest), so one class serves offline audits, the
/// stream engine, fume_cli and repair. Each evaluation is one fused
/// ShardedPredictionCache::ScoreWithout walk: the deletion is played
/// against the base model without writing to it, only the shards owning a
/// deleted row are walked, and only test rows whose descent reaches a
/// changed region are rescored against the base model's cached
/// predictions. No counterfactual forest is built. Results are
/// bit-identical to cloning the model, deleting the rows and predicting,
/// and to retraining from scratch without them (DESIGN.md §6).
class UnlearnRemovalMethod : public RemovalMethod {
 public:
  /// Deletion-batch size from which a caller scoring a materialized what-if
  /// clone (TestPredictionCache::ScoreWhatIf) should pass
  /// arena_full_rescore: at 4 doomed rows the pointer diff-walk still
  /// rescores a small fraction of the test set; by 64 it touches most of
  /// it. Evaluations of this class use ScoreWithout, which needs no such
  /// switch.
  static constexpr size_t kArenaFullRescoreMinBatch = 16;

  /// Pointers must outlive this object. The model must not be mutated
  /// while evaluations run. Its one-shard view and base prediction cache
  /// are built at the first evaluation: by then the caller has predicted
  /// on the forest, so the view's clone inherits its compiled arenas.
  UnlearnRemovalMethod(const DareForest* model, const Dataset* test,
                       GroupSpec group, FairnessMetric metric);

  /// As above, over a sharded ensemble. With `base_cache` (e.g. the stream
  /// engine's warm per-shard cache) rescoring reads it instead of a cache
  /// built at the first evaluation; it must have been rebuilt/updated
  /// against `model` and stay valid and unmutated for this object's
  /// lifetime.
  UnlearnRemovalMethod(const ShardedForest* model, const Dataset* test,
                       GroupSpec group, FairnessMetric metric,
                       const ShardedPredictionCache* base_cache = nullptr);

  Result<ModelEval> EvaluateWithout(const std::vector<RowId>& rows) override;
  Result<ModelEval> EvaluateWithoutOn(
      int worker, const std::vector<RowId>& rows) override;
  void BeginParallel(int num_workers) override;
  void EndParallel() override;
  const char* name() const override { return "dare-unlearn"; }

  /// Unlearning work counters accumulated across evaluations, summed in
  /// shard order. Outside a BeginParallel/EndParallel bracket this is up
  /// to date after every evaluation; inside one, per-worker counters are
  /// merged at EndParallel (do not call while evaluations are in flight).
  const DeletionStats& deletion_stats() const { return deletion_stats_; }

 private:
  /// Per-worker state: contention-free deletion-stat accumulation plus
  /// reusable rescoring and unlearning-kernel scratch. unique_ptr keeps
  /// slots cache-isolated.
  struct Worker {
    DeletionStats stats;
    ShardedPredictionCache::WhatIfScratch scratch;
    /// Shard-affine deletion scratches (entry s always serves shard s),
    /// reused by every what-if this worker scores, so steady-state
    /// evaluations run allocation-free.
    std::vector<DeletionScratch> unlearn_scratch;
  };

  Worker& WorkerSlot(int worker);
  const ShardedPredictionCache& BaseCache();
  Result<ModelEval> EvaluateOnSlot(int worker, const std::vector<RowId>& rows);

  /// Source of the one-shard view; null when constructed over an ensemble.
  const DareForest* forest_ = nullptr;
  ShardedForest view_;
  /// The ensemble scored; &view_ once a bare forest's view is built.
  const ShardedForest* model_ = nullptr;
  const Dataset* test_;
  GroupSpec group_;
  FairnessMetric metric_;
  const ShardedPredictionCache* external_cache_ = nullptr;
  std::vector<std::unique_ptr<Worker>> workers_;
  bool in_parallel_ = false;
  /// Serializes evaluations outside a BeginParallel bracket (they all share
  /// slot 0 and the global deletion_stats_), keeping the RemovalMethod
  /// concurrency contract without taxing the bracketed per-worker path.
  std::mutex serial_mutex_;
  std::once_flag base_cache_once_;
  ShardedPredictionCache base_cache_;
  DeletionStats deletion_stats_;
};

/// \brief Naive removal: drops the rows from the training set and retrains a
/// forest from scratch.
class RetrainRemovalMethod : public RemovalMethod {
 public:
  /// `config.seed` controls the retrained forest's randomness: pass the
  /// original seed to reproduce the unlearned model exactly (tests), or a
  /// different seed to model a fresh retrain (the paper's Figure 3 setting).
  RetrainRemovalMethod(const Dataset* train, const Dataset* test,
                       ForestConfig config, GroupSpec group,
                       FairnessMetric metric);

  Result<ModelEval> EvaluateWithout(const std::vector<RowId>& rows) override;
  const char* name() const override { return "scratch-retrain"; }

 private:
  const Dataset* train_;
  const Dataset* test_;
  ForestConfig config_;
  GroupSpec group_;
  FairnessMetric metric_;
};

}  // namespace fume

#endif  // FUME_CORE_REMOVAL_METHOD_H_
