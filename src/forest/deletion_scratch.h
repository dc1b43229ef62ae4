// DeletionScratch: reusable working memory for the batched unlearning
// kernel (DareTree::DeleteRows / AddRows via DareForest).
//
// One DeleteRows call on a forest marks its doomed rows ONCE in an
// epoch-stamped membership array sized to the training store; every leaf
// update and subtree retrain in every tree then answers "is this row
// doomed?" with one array load — no per-leaf or per-retrain hash set.
// Epoch stamping replaces clearing (the same trick as
// TestPredictionCache::WhatIfScratch), so a warm scratch performs no
// allocation and, but for one clear every 255 batches when the one-byte
// epoch wraps, no O(store) work between batches. One byte per store row
// keeps the array small: a served tenant holds one scratch per pool
// worker, each sized to every row id its store ever assigned. The routing
// and retrain-collection buffers are likewise reused across the trees of
// one batch and across batches.
//
// Ownership: DareForest::DeleteRows/AddData accept an optional scratch;
// long-lived callers (UnlearnRemovalMethod workers, the stream engine, a
// tenant's what-if pool) keep one per worker thread so thousands of
// what-if evaluations share the same memory. A ShardedForest op fanned out
// by tree hands each pool worker its own. A scratch must never be used by
// two threads at once.

#ifndef FUME_FOREST_DELETION_SCRATCH_H_
#define FUME_FOREST_DELETION_SCRATCH_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "forest/split_stats.h"
#include "forest/training_store.h"
#include "util/check.h"

namespace fume {

class DeletionScratch {
 public:
  /// Starts a new batch over a store with `num_store_rows` rows,
  /// invalidating all previous doomed marks in O(1). Returns true when the
  /// scratch was already warm (no membership-array growth — the
  /// forest.unlearn.scratch_reuse signal).
  bool BeginBatch(int64_t num_store_rows) {
    bool warm = true;
    if (epoch_of_.size() < static_cast<size_t>(num_store_rows)) {
      epoch_of_.resize(static_cast<size_t>(num_store_rows), 0);
      warm = false;
    }
    ++epoch_;
    if (epoch_ == 0) {  // wrapped: stale stamps could collide, clear once
      std::fill(epoch_of_.begin(), epoch_of_.end(), 0);
      epoch_ = 1;
      warm = false;
    }
    return warm;
  }

  /// Marks a row doomed in the current batch. Returns false if it already
  /// was (duplicate detection falls out of the stamp for free).
  bool MarkDoomed(RowId row) {
    FUME_DCHECK(row >= 0 &&
                static_cast<size_t>(row) < epoch_of_.size());
    if (epoch_of_[static_cast<size_t>(row)] == epoch_) return false;
    epoch_of_[static_cast<size_t>(row)] = epoch_;
    return true;
  }

  /// Starts a batch and marks `rows` doomed without checking them: how a
  /// pool worker stamps a batch its caller already validated
  /// (DareForest::BeginDeletionBatch) into its own scratch.
  void MarkBatch(int64_t num_store_rows, const std::vector<RowId>& rows) {
    BeginBatch(num_store_rows);
    for (const RowId r : rows) MarkDoomed(r);
  }

  bool IsDoomed(RowId row) const {
    return static_cast<size_t>(row) < epoch_of_.size() &&
           epoch_of_[static_cast<size_t>(row)] == epoch_;
  }

  /// Routing buffer: DareTree::DeleteRows copies the batch in once, then
  /// the recursion partitions spans of it in place (no per-node vectors).
  std::vector<RowId> route;
  /// Retrain collection buffer: leaf rows of a retrained subtree, filtered
  /// of doomed rows in place.
  std::vector<RowId> remaining;
  /// Spill buffer for the stable in-place span partition (right-going rows
  /// park here for one pass, then are copied back after the left-going
  /// rows). Stability keeps leaf membership in canonical (ascending) order,
  /// so serialized bytes depend only on the row set.
  std::vector<RowId> partition_tmp;
  /// Working statistics of the fused what-if walk (DareTree::ScoreWithout):
  /// a node's cached statistics minus the doomed rows, or a replayed
  /// rebuild node's histograms. Each node's decision is made before the
  /// walk descends, so one buffer serves the whole walk.
  NodeStats stats;
  /// Doomed rows actually removed so far in the current tree (leaf removals
  /// plus rows filtered out of retrain collections). DareTree::DeleteRows
  /// checks this against the batch size once per tree.
  int64_t settled = 0;

 private:
  /// epoch_of_[row] == epoch_  <=>  row is doomed in the current batch.
  std::vector<uint8_t> epoch_of_;
  uint8_t epoch_ = 0;
};

}  // namespace fume

#endif  // FUME_FOREST_DELETION_SCRATCH_H_
