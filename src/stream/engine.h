// StreamEngine: a long-lived incremental FUME service. It consumes an
// ordered op-log of training-set mutations (stream/op_log.h), applies them
// exactly to a SISA ShardedForest via AddData/DeleteRows (one shard, the
// default, is the monolithic DaRE forest), keeps the group-fairness metric
// current through a per-shard, per-tree test-prediction cache, and re-runs the
// FUME top-k search only when the metric has drifted past a configurable
// threshold since the last search — otherwise it serves the cached top-k
// with a staleness annotation.
//
// Exactness contract (pinned by tests/stream_test.cc): after any prefix of
// the op-log, each shard's predictions are byte-identical to training a
// fresh forest on that shard's surviving rows (the shard's derived seed),
// and the fairness metric is the vote of those forests. With one shard
// that is a cold retrain on the surviving rows, and right after a search
// the top-k equals a fresh FUME search on it. Checkpoints serialize model +
// engine state, so an engine killed mid-log can be restored and replayed
// to the same state an uninterrupted run reaches (docs/streaming.md).

#ifndef FUME_STREAM_ENGINE_H_
#define FUME_STREAM_ENGINE_H_

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "core/fume.h"
#include "forest/sharded_forest.h"
#include "stream/op_log.h"
#include "util/result.h"
#include "util/thread_pool.h"

namespace fume {
namespace stream {

/// When to re-run the FUME search. The signed metric F is compared against
/// its value at the last search; a re-search triggers when EITHER bound is
/// crossed. Set both to infinity to pin the cached explanation forever.
struct DriftPolicy {
  /// Absolute drift: |F_now - F_last_search| >= abs_threshold.
  double abs_threshold = 0.01;
  /// Relative drift: |F_now - F_last_search| >= rel_threshold * |F_last|.
  /// Ignored while |F_last| is 0.
  double rel_threshold = 0.10;

  bool ShouldSearch(double last, double now) const;
};

struct StreamEngineConfig {
  ForestConfig forest;
  FumeConfig fume;
  DriftPolicy drift;
  /// The model's SISA layout. Ops route to owning shards and run by
  /// (shard, tree) on the engine's pool; searches run UnlearnRemovalMethod
  /// over the ensemble and its warm cache. The default of one shard is the
  /// monolithic forest, byte for byte.
  ShardConfig shard;
  /// Refresh the explanation at Checkpoint ops when any op was applied
  /// since the last search, regardless of drift — so checkpointed top-k is
  /// never stale (and the exactness tests can compare it cold).
  bool search_on_checkpoint = true;
  /// When non-empty, every Checkpoint op (re)writes this checkpoint file.
  std::string checkpoint_path;
};

/// What one Apply() did, for timelines and logs.
struct OpOutcome {
  int64_t seq = 0;
  OpKind kind = OpKind::kCheckpoint;
  /// Signed F(h, D_test) after the op.
  double metric = 0.0;
  double accuracy = 0.0;
  int64_t rows_live = 0;
  /// True when this op triggered a FUME re-search (drift or checkpoint).
  bool searched = false;
  /// Ops applied since the serving explanation was last refreshed
  /// (0 right after a search).
  int64_t staleness_ops = 0;
  double apply_seconds = 0.0;
  double search_seconds = 0.0;
};

class StreamEngine {
 public:
  /// Trains the initial forest on `initial_train`, primes the prediction
  /// cache against `test`, and runs the first search (unless |F| is below
  /// config.fume.min_original_bias — then the engine starts with an empty
  /// explanation and searches once a violation appears).
  static Result<StreamEngine> Create(const Dataset& initial_train,
                                     Dataset test, StreamEngineConfig config);

  /// Applies one op. Ops must arrive with strictly increasing seq.
  Result<OpOutcome> Apply(const StreamOp& op);

  /// Convenience: applies every op in order, returning per-op outcomes.
  Result<std::vector<OpOutcome>> Replay(const std::vector<StreamOp>& ops);

  // ---- lazy deferral (config.forest.lazy_unlearn) --------------------
  /// Retires every deferred subtree retrain, brings the prediction cache
  /// up to date with the whole burst, and refreshes the metric. No-op
  /// unless a delete burst is pending. Called automatically at every flush
  /// boundary — checkpoint ops, inserts, SaveCheckpoint — and callable
  /// directly before reading model()/current_metric() mid-burst.
  void FlushLazy();
  /// True while a deferred delete burst is pending: the model may hold
  /// lazy tags and current_metric()/prediction_cache() reflect the state
  /// at the last flush, not the last op.
  bool deferring() const { return metric_stale_ || model_.HasLazyTags(); }

  // ---- serving state -------------------------------------------------
  int64_t last_seq() const { return last_seq_; }
  /// Signed F(h, D_test) of the current model.
  double current_metric() const { return metric_; }
  double current_accuracy() const { return accuracy_; }
  /// F at the last search — the drift reference.
  double metric_at_last_search() const { return metric_at_last_search_; }
  /// Ops applied since the last search (the staleness annotation).
  int64_t staleness() const { return staleness_ops_; }
  /// Cached explanation from the last search; nullptr when the model
  /// satisfied the metric at every search so far. Valid until the next
  /// Apply() that searches.
  const FumeResult* explanation() const { return explanation_.get(); }
  /// The same explanation, shared: only a search or a restore replaces it,
  /// so every snapshot published between two searches holds this pointer
  /// instead of a copy.
  const std::shared_ptr<const FumeResult>& shared_explanation() const {
    return explanation_;
  }
  /// The model; with one shard, model().shard(0) is the monolithic forest.
  const ShardedForest& model() const { return model_; }
  /// Warm per-shard test-set prediction cache, kept exact after every
  /// Apply. A served snapshot copies it so ScoreWithout runs off the
  /// snapshot's own state.
  const ShardedPredictionCache& prediction_cache() const { return cache_; }
  const StreamEngineConfig& config() const { return config_; }
  /// Surviving training rows, dense, in arrival order — what a cold
  /// retrain would train on. Built from the model's stores on each call
  /// (O(rows × attributes)); a search builds it once.
  Dataset train_data() const;
  const Dataset& test_data() const { return test_; }
  int64_t rows_live() const { return static_cast<int64_t>(store_ids_.size()); }
  /// Engine id (the model's global row id) of each live row, dense order.
  const std::vector<RowId>& live_ids() const { return store_ids_; }

  // ---- checkpoint / restore ------------------------------------------
  /// Serializes engine state (seq, metrics, drift reference, live-id map,
  /// cached top-k) followed by the model's FUMESHRD container. Search
  /// statistics and all_candidates are not persisted — a restored engine
  /// serves the same top-k but reports empty stats until its next search.
  Status SaveCheckpoint(std::ostream& out) const;
  Status SaveCheckpointToFile(const std::string& path) const;

  /// Rebuilds an engine from a checkpoint. `schema` must be the training
  /// schema the original engine was created with (the checkpoint stores
  /// codes, not category names); `test` and `config` likewise, and the
  /// persisted shard layout must equal config.shard. Replaying the ops with
  /// seq > last_seq() afterwards reproduces the uninterrupted engine's
  /// state exactly. Version-1 (pre-ensemble) checkpoints are rejected: the
  /// op-log replayed from seq 0 rebuilds the same state.
  static Result<StreamEngine> Restore(std::istream& in, const Schema& schema,
                                      Dataset test, StreamEngineConfig config);
  static Result<StreamEngine> RestoreFromFile(const std::string& path,
                                              const Schema& schema,
                                              Dataset test,
                                              StreamEngineConfig config);

 private:
  StreamEngine(Dataset test, StreamEngineConfig config);

  Status ApplyInsert(const StreamOp& op);
  Status ApplyDelete(const StreamOp& op);
  /// Recomputes metric_ / accuracy_ from the prediction cache.
  void RefreshMetric();
  /// Runs the FUME search against the current model (or records "no
  /// violation" when |F| is below the configured floor).
  Status RunSearch();
  /// The shared pool, created lazily at first use (nullptr while
  /// config_.fume.num_threads <= 1). Serves search fan-out across
  /// evaluations and the (shard, tree) fan-out of training, ops and cache
  /// refresh — never two at once (ops and searches are strictly sequenced
  /// by Apply, and a search passes no pool into its evaluations).
  util::ThreadPool* MaybePool();

  Dataset test_;
  StreamEngineConfig config_;
  /// The training schema: inserted rows are validated against it, and
  /// train_data() is built with it.
  Schema schema_;
  ShardedForest model_;
  /// Kernel scratches, one per pool worker (entry w serves worker w),
  /// reused across every insert/delete op so the unlearning kernel stays
  /// allocation-free in the steady state.
  std::vector<DeletionScratch> scratch_;
  /// store_ids_[dense row] = engine (global) id of each live row, strictly
  /// ascending, so deletes find ids by binary search.
  std::vector<RowId> store_ids_;
  ShardedPredictionCache cache_;
  /// Shared pool for every search and (shard, tree) fan-out this engine
  /// runs; created at first use when config_.fume.num_threads > 1.
  std::unique_ptr<util::ThreadPool> pool_;

  /// True between a deferred delete and the next flush boundary: metric_,
  /// accuracy_ and cache_ describe the pre-burst model. Drift gating is
  /// suspended while set (evaluated at flush points only).
  bool metric_stale_ = false;

  int64_t last_seq_ = -1;
  double metric_ = 0.0;
  double accuracy_ = 0.0;
  double metric_at_last_search_ = 0.0;
  int64_t staleness_ops_ = 0;
  std::shared_ptr<const FumeResult> explanation_;
};

}  // namespace stream
}  // namespace fume

#endif  // FUME_STREAM_ENGINE_H_
