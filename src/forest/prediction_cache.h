// Per-tree test-set prediction cache.
//
// The cache keeps, per tree, the leaf probability each test row reaches,
// and the tree generation it last synced with. Every node records the
// generation of the batch that last wrote it (tree.h), and a DaRE op
// writes only the nodes on the paths it changes: each leaf whose counts
// moved, each retrained subtree, and their ancestors. The refresh after an
// op (UpdateTree, driven for every shard's trees by
// ShardedPredictionCache::Update) therefore partitions the test rows from
// the root only through nodes stamped since the last sync and rewrites
// only the rows that reach a stamped leaf. A
// node stamped earlier heads a subtree no op since has changed, reached by
// the same rows as at the sync, so those rows keep their cached
// probability; a tree whose root is unstamped is not visited at all.
//
// ScoreWithout() serves a second consumer: FUME's what-if evaluations. It
// plays a deletion against the base forest without writing to it
// (DareTree::ScoreWithout) and re-scores only the test rows whose descent
// reaches a region the deletion changes, so no counterfactual forest is
// ever built (see docs/performance.md). ScoreWhatIf() scores an already
// materialized what-if instead: a copy-on-write clone shares every node
// it did not mutate, so diffing base vs. clone by node identity finds the
// changed regions without visiting them.
//
// Exactness: probabilities and hard predictions are byte-identical to
// DareForest::PredictProbAll / PredictAll — per-row tree probabilities are
// summed in tree order before one division, mirroring PredictProb.

#ifndef FUME_FOREST_PREDICTION_CACHE_H_
#define FUME_FOREST_PREDICTION_CACHE_H_

#include <cstdint>
#include <vector>

#include "data/dataset.h"
#include "forest/forest.h"

namespace fume {

class TestPredictionCache {
 public:
  /// Reusable working memory for ScoreWithout / ScoreWhatIf. One instance
  /// per worker thread; after the first evaluation no allocations occur in
  /// steady state (epoch counters take the place of clearing).
  struct WhatIfScratch {
    /// Hard predictions for the what-if forest, byte-identical to
    /// what_if.PredictAll(test). Valid after the call returns, until the
    /// next call on this scratch.
    std::vector<int> preds;
    /// Opt-in: when true, the call also fills `probs` with the what-if
    /// mean probability per row, byte-identical to
    /// what_if.PredictProbAll(test) (same sum-then-divide arithmetic that
    /// produces preds). Off by default — the extra row-major vector only
    /// pays for itself when a consumer needs the probabilities, e.g. the
    /// sharded cache voting across shards.
    bool want_probs = false;
    std::vector<double> probs;
    /// Test rows whose descent, in at least one tree, crossed a region the
    /// deletion changed (their hard prediction did not necessarily flip).
    int64_t rows_rescored = 0;
    /// Trees with a changed region on some test row's descent
    /// (ScoreWithout), or whose root handle differed from the base
    /// forest's (ScoreWhatIf).
    int64_t trees_changed = 0;
    /// ScoreWithout only: the unlearning work of the call, exactly as
    /// DareForest::DeleteRows would have reported it, except nodes_copied,
    /// which stays 0 because nothing is copied.
    DeletionStats deletion_stats;

   private:
    friend class TestPredictionCache;
    std::vector<std::vector<double>> tree_prob;  // [t][r] where tree dirty
    std::vector<uint32_t> tree_epoch;
    std::vector<uint32_t> row_epoch;
    std::vector<int64_t> touched;  // rows rescored this evaluation
    std::vector<int64_t> order;    // row-index buffer, partitioned in place
    /// ScoreWithout's per-tree outputs, merged in tree order at the end.
    std::vector<std::vector<int64_t>> tree_rescored;
    std::vector<DeletionStats> tree_stats;
    uint32_t epoch = 0;
  };

  /// Full pass of every test row through every tree's arena. Call after
  /// building, loading or replacing the forest.
  void Rebuild(const DareForest& forest, const Dataset& test);

  /// Scores the forest this cache was seeded from as if `rows` had been
  /// deleted from it, without cloning or mutating it: each tree plays the
  /// deletion through DareTree::ScoreWithout, and only test rows whose
  /// descent reaches a changed region are re-summed. `base` must be that
  /// seed forest (alive, unmutated since Rebuild/Update). Fills
  /// scratch->preds (and scratch->probs when wanted) bit-identically to
  /// ScoreWhatIf on Clone() + DeleteRows(rows), and scratch->
  /// deletion_stats with the deletion's work. Returns the Status DeleteRows
  /// would for out-of-range or duplicate ids. `deletion` is the caller's
  /// kernel scratch. Thread-safe for concurrent calls on one
  /// cache and one base with distinct scratches; allocation-free once they
  /// are warm.
  Status ScoreWithout(const DareForest& base, const std::vector<RowId>& rows,
                      const Dataset& test, WhatIfScratch* scratch,
                      DeletionScratch* deletion) const;

  /// Scores a copy-on-write clone of the forest this cache was seeded
  /// from, re-walking only test rows whose cached descent crosses a
  /// mutated region. The materialized counterpart of ScoreWithout, kept
  /// for callers that hold a mutated clone anyway. `base` must be that seed forest (alive, unmutated
  /// since Rebuild/Update); `what_if` a Clone() of it, arbitrarily
  /// mutated. Fills scratch->preds with predictions byte-identical to
  /// what_if.PredictAll(test). Thread-safe for concurrent calls on one
  /// cache with distinct scratches.
  ///
  /// `arena_full_rescore` trades the pointer diff-walk for a full pass of
  /// every test row through each changed tree's flat arena — the right
  /// call when the mutation was broad (large deletion batches unshare most
  /// paths, so the diff-walk would re-walk nearly everything through
  /// pointers anyway). Results are byte-identical either way.
  void ScoreWhatIf(const DareForest& base, const DareForest& what_if,
                   const Dataset& test, WhatIfScratch* scratch,
                   bool arena_full_rescore = false) const;

  /// Mean forest probability per test row; byte-identical to
  /// forest.PredictProbAll(test).
  const std::vector<double>& probs() const { return mean_prob_; }
  /// Hard predictions at the 0.5 threshold; byte-identical to PredictAll.
  const std::vector<int>& predictions() const { return pred_; }

  int num_trees() const { return static_cast<int>(prob_.size()); }

 private:
  friend class ShardedPredictionCache;

  // ---- per-tree steps -------------------------------------------------
  // Rebuild, the refresh after ops, and ScoreWithout set up once, run one
  // independent step per tree, and finish with a pass in tree order. A step writes only its
  // own tree's entries and the buffers it is handed, so the steps may run
  // in any order on any threads. This class runs them in a loop;
  // ShardedPredictionCache fans the steps of all its shards out as one
  // pool batch.

  /// Rebuild's set-up: sizes the cache for `forest` and `n_rows` test rows.
  void Reset(const DareForest& forest, int64_t n_rows);
  /// Rebuild's step: every test row through tree t's arena.
  void RebuildTree(const DareForest& forest, int t, const PackedCodes& packed);
  /// ShardedPredictionCache::Update's step: after any number of ops on the
  /// forest this cache last synced with, rewrites the rows of
  /// tree t that reach a node stamped since that sync. Returns the rows
  /// rewritten, or -1 when no op since has changed the tree. `order` is
  /// the caller's row buffer.
  int64_t UpdateTree(const DareForest& forest, int t, const PackedCodes& packed,
                     std::vector<int64_t>* order);
  /// Rebuild's finish, and Update's for a shard it changed: every row's
  /// mean and prediction.
  void Finalize(const DareForest& forest);
  /// ScoreWithout's set-up: checks the base, starts an evaluation on
  /// `scratch`, and validates `rows` and marks them doomed in `deletion`
  /// (counted as the DeleteRows it stands in for).
  Status BeginScoreWithout(const DareForest& base,
                           const std::vector<RowId>& rows, const Dataset& test,
                           WhatIfScratch* scratch,
                           DeletionScratch* deletion) const;
  /// ScoreWithout's step: plays the deletion through tree t into the
  /// scratch's entries for t. `deletion` must hold the batch's doomed
  /// marks; `order` is the caller's row buffer.
  void ScoreTreeWithout(const DareForest& base, int t,
                        const std::vector<RowId>& rows, const Dataset& test,
                        WhatIfScratch* scratch, std::vector<int64_t>* order,
                        DeletionScratch* deletion) const;
  /// ScoreWithout's finish: merges the trees' work and rescored rows in
  /// tree order, then re-sums the rescored rows.
  void FinishScoreWithout(WhatIfScratch* scratch) const;
  void DiffWalk(const TreeNode* base, const TreeNode* changed,
                const Dataset& test, int t, size_t begin, size_t end,
                WhatIfScratch* scratch) const;
  /// Starts an evaluation on `scratch`: new epoch, buffers sized.
  void BeginWhatIf(WhatIfScratch* scratch) const;
  /// Re-sums the rescored rows (every row when `all`) over every tree in
  /// tree order into scratch->preds / probs.
  void ResumWhatIf(WhatIfScratch* scratch, bool all) const;

  // prob_[t][r]: the positive fraction of the leaf of tree t that test row
  // r reaches (0.5 when the tree has no root). synced_[t]: tree t's
  // generation when prob_[t] was last brought up to date.
  std::vector<std::vector<double>> prob_;
  std::vector<uint64_t> synced_;
  std::vector<double> mean_prob_;
  std::vector<int> pred_;
};

}  // namespace fume

#endif  // FUME_FOREST_PREDICTION_CACHE_H_
