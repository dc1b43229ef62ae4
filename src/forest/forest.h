// DareForest: ensemble of DareTrees with exact batch unlearning — the
// removal method R used by FUME (paper §5.1).

#ifndef FUME_FOREST_FOREST_H_
#define FUME_FOREST_FOREST_H_

#include <memory>
#include <vector>

#include "data/dataset.h"
#include "forest/tree.h"
#include "util/result.h"

namespace fume {

/// \brief A data-removal-enabled random forest.
///
/// Train() is a pure function of (training data, config.seed): two forests
/// trained on identical data with identical configs are structurally equal.
/// DeleteRows() exactly unlearns training rows, yielding the forest Train()
/// would produce on the reduced data. Typical FUME usage:
///
///   auto forest = DareForest::Train(train, config).ValueOrDie();
///   DareForest what_if = forest.Clone();
///   what_if.DeleteRows(subset_row_ids);   // estimate "trained without T"
class DareForest {
 public:
  DareForest() = default;
  /// Debug builds audit the CoW node graph on destruction
  /// (DareTree::DebugCheckCowConsistency); release builds do nothing.
  ~DareForest();
  // Copying is explicit — Clone() (CoW, cheap) — so an accidental `DareForest f = other;` can't silently share node
  // graphs and pay surprise CoW unshares later.
  DareForest(const DareForest&) = delete;
  DareForest& operator=(const DareForest&) = delete;
  DareForest(DareForest&&) = default;
  DareForest& operator=(DareForest&&) = default;

  /// Trains on an all-categorical dataset. Every tree sees all rows (DaRE
  /// forests do not bootstrap — deletion must remove a row from every tree);
  /// diversity comes from per-node random attribute subsets and random
  /// upper levels.
  static Result<DareForest> Train(const Dataset& train,
                                  const ForestConfig& config);

  /// Exactly unlearns training rows (ids into the training dataset given to
  /// Train). Duplicate ids are an error.
  Status DeleteRows(const std::vector<RowId>& rows) {
    return DeleteRows(rows, nullptr);
  }

  /// As above, additionally reporting the work done in each tree by THIS
  /// call (one entry per tree, zeroed first). Pass nullptr to skip the
  /// report.
  Status DeleteRows(const std::vector<RowId>& rows,
                    std::vector<DeletionStats>* per_tree) {
    return DeleteRows(rows, per_tree, nullptr);
  }

  /// As above with caller-owned kernel scratch. Long-lived callers (what-if
  /// evaluation workers, the stream engine) pass the same scratch to every
  /// call so steady-state deletions allocate nothing; a warm reuse bumps
  /// forest.unlearn.scratch_reuse. nullptr uses call-local scratch. The
  /// scratch is an execution resource only — results are byte-identical
  /// whatever is passed.
  Status DeleteRows(const std::vector<RowId>& rows,
                    std::vector<DeletionStats>* per_tree,
                    DeletionScratch* scratch);

  /// Validates a deletion batch as DeleteRows does — ids in range, no
  /// duplicates — marks it doomed in a fresh batch of `scratch`, and counts
  /// it in forest.unlearn.{batches,rows_deleted,batch_rows,scratch_reuse}.
  /// DeleteRows starts here, and so does the fused what-if walk
  /// (TestPredictionCache::ScoreWithout), which validates and counts a
  /// what-if exactly like the delete it stands in for. `rows` must be
  /// non-empty.
  Status BeginDeletionBatch(const std::vector<RowId>& rows,
                            DeletionScratch* scratch) const;

  /// Exactly adds new training instances: the updated forest equals Train()
  /// on the enlarged dataset (same config/seed). `rows` must be
  /// all-categorical with the same attribute count and cardinalities as the
  /// training data. Returns the ids assigned to the new rows.
  Result<std::vector<RowId>> AddData(const Dataset& rows) {
    return AddData(rows, nullptr);
  }

  /// As above with the per-tree work report of DeleteRows' overload.
  Result<std::vector<RowId>> AddData(const Dataset& rows,
                                     std::vector<DeletionStats>* per_tree) {
    return AddData(rows, per_tree, nullptr);
  }

  /// As above with caller-owned kernel scratch (see DeleteRows).
  Result<std::vector<RowId>> AddData(const Dataset& rows,
                                     std::vector<DeletionStats>* per_tree,
                                     DeletionScratch* scratch);

  /// Rebuilds every pending lazy-tag subtree across all trees (no-op when
  /// none are pending — only meaningful with config().lazy_unlearn). The
  /// retrain work lands in deletion_stats() and, when `per_tree` is
  /// non-null, is ADDED into its entries (zero-sized vectors are sized and
  /// zeroed first).
  void FlushAll(std::vector<DeletionStats>* per_tree = nullptr,
                DeletionScratch* scratch = nullptr);
  /// True while any tree holds a pending LazyTag.
  bool HasLazyTags() const;
  /// Pending deferred doomed rows / tag nodes summed across trees.
  int64_t lazy_rows() const;
  int64_t lazy_nodes() const;
  /// Logically-const flush used by the const traversal entry points
  /// (PredictProbAll and friends, the prediction cache's walks). A tagged
  /// forest is thread-confined by contract — engine forests live behind the
  /// stream/serve writer lock and what-if clones are worker-private, while
  /// every published snapshot is flushed before it is shared — so the
  /// const_cast never races. No-op unless lazy_unlearn is on with pending
  /// tags.
  void EnsureFlushed() const;
  /// Toggles config().lazy_unlearn on this forest and every tree. Disabling
  /// flushes pending tags first.
  void SetLazyUnlearn(bool on);
  /// Zeroes deletion_stats(). Lazy-vs-eager byte-identity checks reset both
  /// forests' counters before serializing: the model bytes converge after a
  /// flush, the work counters (deliberately) do not — lazy does less work.
  void ResetDeletionStats() { deletion_stats_ = DeletionStats{}; }

  /// P(label = 1): mean of per-tree leaf positive fractions.
  double PredictProb(const Dataset& data, int64_t row) const;
  /// Hard prediction at the 0.5 probability threshold.
  int Predict(const Dataset& data, int64_t row) const;
  /// Batch prediction over every row of `data`: the rows stream through
  /// each tree's flat arena (compiled on demand, cached until the next
  /// mutation). Results are byte-identical to a PredictProb loop, the
  /// pointer descent the arena tests compare against.
  std::vector<double> PredictProbAll(const Dataset& data) const;
  std::vector<int> PredictAll(const Dataset& data) const;

  /// Fraction of rows of `data` predicted correctly.
  double Accuracy(const Dataset& data) const;

  /// Copy-on-write copy: O(num_trees), shares every node refcounted (and the
  /// immutable training snapshot). Mutating either forest privately copies
  /// just the nodes the mutation touches, so clones stay fully independent in
  /// behaviour. This is what FUME's what-if evaluations use.
  DareForest Clone() const;

  bool StructurallyEquals(const DareForest& other) const;
  /// Revalidates every cached node statistic in every tree.
  bool ValidateStats() const;

  int num_trees() const { return static_cast<int>(trees_.size()); }
  const DareTree& tree(int i) const { return trees_[i]; }
  int64_t num_nodes() const;
  /// Rows still learned (after deletions).
  int64_t num_training_rows() const;
  const ForestConfig& config() const { return config_; }
  /// Work counters accumulated over every DeleteRows call on this forest.
  const DeletionStats& deletion_stats() const { return deletion_stats_; }

  const TrainingStore& store() const { return *store_; }

  /// Reassembles a forest from deserialized parts (forest/serialize.cc).
  /// `stats` restores the unlearning work counters accumulated before the
  /// forest was saved, so a save/load round trip preserves them.
  static DareForest FromParts(std::shared_ptr<TrainingStore> store,
                              const ForestConfig& config,
                              std::vector<DareTree> trees,
                              const DeletionStats& stats = DeletionStats{});

 private:
  friend class ShardedForest;

  Status CheckCompatible(const Dataset& data) const;

  // ---- per-tree steps -------------------------------------------------
  // Train, DeleteRows, AddData and FlushAll each set up once, run one
  // independent step per tree, and add the trees' work into
  // deletion_stats_ in tree order. A step touches only its own tree and
  // the scratch it is handed, so the steps may run in any order on any
  // threads, one scratch per thread. This class runs them in a loop;
  // ShardedForest fans the steps of all its shards out as one pool batch.

  /// Train's set-up: validates the config, counts the call and stores
  /// `train`. The forest has no trees until BuildTree fills them.
  static Result<DareForest> TrainUntreed(const Dataset& train,
                                         const ForestConfig& config);
  /// Train's step: tree t built over every stored row.
  DareTree BuildTree(int t) const;
  /// AddData's set-up: counts the batch, validates `rows` and appends them
  /// to the store; returns their ids.
  Result<std::vector<RowId>> AppendRows(const Dataset& rows);
  /// DeleteRows' step: unlearns `rows` from tree t. `scratch` must hold the
  /// batch's doomed marks (BeginDeletionBatch, or DeletionScratch::
  /// MarkBatch on a batch already validated).
  DeletionStats DeleteFromTree(int t, const std::vector<RowId>& rows,
                               DeletionScratch* scratch);
  /// AddData's step: retires tree t's pending tags (an insert is a flush
  /// boundary), then adds the appended `ids` to it.
  DeletionStats AddToTree(int t, const std::vector<RowId>& ids,
                          DeletionScratch* scratch);
  /// FlushAll's step on tree t (no work without tags).
  DeletionStats FlushTree(int t, DeletionScratch* scratch);
  /// Adds tree t's step work into deletion_stats_ and, when non-null,
  /// into (*per_tree)[t].
  void AddTreeWork(int t, const DeletionStats& work,
                   std::vector<DeletionStats>* per_tree);
  /// True when pending lazy tags exceed the staleness budget, so the
  /// delete that left them must flush now (counted in
  /// forest.lazy.budget_flushes).
  bool LazyBudgetExceeded() const;

  std::shared_ptr<TrainingStore> store_;
  ForestConfig config_;
  std::vector<DareTree> trees_;
  DeletionStats deletion_stats_;
};

}  // namespace fume

#endif  // FUME_FOREST_FOREST_H_
