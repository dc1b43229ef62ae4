// Cached per-node split statistics and the deterministic split-decision
// function shared by tree construction and unlearning.
//
// The decision at a node is a *pure function* of (node data multiset, depth,
// node path key, config). Construction computes it from raw rows; deletion
// recomputes it from incrementally-updated histograms and rebuilds the
// subtree only when the decision changed. This is what makes
//   DeleteRows(Build(D), T) == Build(D \ T)
// hold node-for-node (DESIGN.md §2).

#ifndef FUME_FOREST_SPLIT_STATS_H_
#define FUME_FOREST_SPLIT_STATS_H_

#include <cstdint>
#include <vector>

#include "forest/config.h"
#include "forest/training_store.h"

namespace fume {

/// \brief Cached statistics of one decision node: label counts plus, for each
/// candidate attribute, per-value (count, positive) histograms.
///
/// The histograms live in ONE flat interleaved buffer instead of a
/// vector-of-vectors: a node costs 3 allocations instead of 2 + 2 per
/// candidate attribute, which is what makes CoW node copies, what-if
/// destruction, and subtree retrains cheap (every internal TreeNode embeds
/// a NodeStats). Bin (i, v) holds its count at hist[2*(hist_offsets[i]+v)]
/// and its positive count right next to it — the unlearning update loops
/// touch both with one cache line.
struct NodeStats {
  int64_t count = 0;
  int64_t pos = 0;
  /// Candidate attributes, ascending. Chosen by the node's path key, so the
  /// set never changes under deletions.
  std::vector<int> cand_attrs;
  /// Prefix sums of the candidate attributes' cardinalities, size
  /// cand_attrs.size() + 1. Fixed by the schema: deletions update hist
  /// values only, never this shape.
  std::vector<int32_t> hist_offsets;
  /// All histograms, interleaved: hist[2*(hist_offsets[i]+v)] = #instances
  /// with code(cand_attrs[i]) == v, hist[2*(hist_offsets[i]+v)+1] = the
  /// positives among them. Size 2 * hist_offsets.back().
  std::vector<int64_t> hist;

  /// #instances at this node with code(cand_attrs[i]) == v.
  int64_t HistCount(size_t i, int32_t v) const {
    return hist[2 * (static_cast<size_t>(hist_offsets[i]) +
                     static_cast<size_t>(v))];
  }
  /// #positives among HistCount(i, v).
  int64_t HistPos(size_t i, int32_t v) const {
    return hist[2 * (static_cast<size_t>(hist_offsets[i]) +
                     static_cast<size_t>(v)) +
                1];
  }
  /// Base of candidate i's interleaved (count, pos) bin pairs: bin v's
  /// count at [2*v], its positives at [2*v + 1].
  const int64_t* HistRow(size_t i) const {
    return hist.data() + 2 * static_cast<size_t>(hist_offsets[i]);
  }
  /// Number of bins of candidate i (its attribute's cardinality).
  int32_t HistCard(size_t i) const {
    return hist_offsets[i + 1] - hist_offsets[i];
  }

  /// Index of `attr` within cand_attrs, or -1.
  int CandIndex(int attr) const;

  /// Recomputes everything from raw rows (used at build / rebuild time).
  void ComputeFromRows(const TrainingStore& store,
                       const std::vector<RowId>& rows,
                       std::vector<int> cand_attrs_sorted);

  /// Span variant for the batched kernel's rebuild path (rows live in a
  /// partitioned scratch buffer, not a per-node vector).
  void ComputeFromRows(const TrainingStore& store, const RowId* rows,
                       int64_t n, std::vector<int> cand_attrs_sorted);

  /// Recomputes counts and histograms from raw rows over the candidate
  /// attributes already held in cand_attrs. Reuses the buffers' capacity,
  /// so a scratch NodeStats refilled node after node stops allocating.
  void Recompute(const TrainingStore& store, const RowId* rows, int64_t n);

  /// Adds a batch (used during incremental addition) in one pass over the
  /// rows: each row-major store line and label is loaded exactly once while
  /// the small histograms stay cache-resident for the whole batch.
  void AddRows(const TrainingStore& store, const RowId* rows, int64_t n);

  /// Subtracts the rows of [begin, end) and stably partitions them around
  /// (attr, threshold) in one pass: every row's store line is visited
  /// exactly once to update the histograms AND route the row (left side
  /// kept in place, right side staged in *spill and copied back). Returns
  /// the boundary. Integer decrements commute, so the statistics equal a
  /// ComputeFromRows over the surviving rows — the batched kernel's
  /// one-pass internal-node step. (Deletion-only: the add path cannot fuse
  /// — an add retrain reuses its routed span in batch order, which
  /// partitioning would destroy.)
  RowId* RemoveRowsAndPartition(const TrainingStore& store, RowId* begin,
                                RowId* end, int attr, int32_t threshold,
                                std::vector<RowId>* spill);

  bool Equals(const NodeStats& other) const;
};

/// What a node should be, given its data.
struct SplitDecision {
  bool is_leaf = true;
  int attr = -1;
  int32_t threshold = -1;  // left child takes code <= threshold
  bool is_random = false;

  bool SameSplit(const SplitDecision& other) const {
    return is_leaf == other.is_leaf && attr == other.attr &&
           threshold == other.threshold && is_random == other.is_random;
  }
};

/// Deterministic candidate-attribute choice for the node identified by
/// `path_key`: p~ distinct attributes (plus, at random-depth nodes, the
/// random split attribute), sorted ascending. Written into *out, whose
/// capacity is reused. Requires num_attrs > 0.
void ChooseCandidateAttrs(uint64_t path_key, int num_attrs, int depth,
                          const ForestConfig& config, std::vector<int>* out);

/// Returning form of the above.
std::vector<int> ChooseCandidateAttrs(uint64_t path_key, int num_attrs,
                                      int depth, const ForestConfig& config);

/// Candidate thresholds for `attr` at this node: all inter-bin thresholds in
/// kExact mode, or a path-keyed sample of k' in kSampled mode. Ascending.
std::vector<int32_t> CandidateThresholds(uint64_t path_key, int attr,
                                         int32_t cardinality,
                                         const ForestConfig& config);

/// The histogram-free part of the split decision: a node with these
/// counts at this depth is a leaf whatever its histograms say. DecideSplit
/// starts with this test, and the rebuild recursions (BuildNodeKernel and
/// the fused what-if walk) call it to skip the histogram pass of nodes it
/// already settles, so all three agree by construction.
inline bool IsForcedLeaf(int64_t count, int64_t pos, int depth,
                         const ForestConfig& config) {
  return count < config.min_samples_split || pos == 0 || pos == count ||
         depth >= config.max_depth;
}

/// The split-decision function. `stats` must already hold the node's
/// histograms over ChooseCandidateAttrs(path_key, ...).
SplitDecision DecideSplit(const NodeStats& stats, const TrainingStore& store,
                          int depth, uint64_t path_key,
                          const ForestConfig& config);

/// Weighted Gini impurity of a binary split; lower is better.
/// Exposed for unit tests.
double WeightedGini(int64_t left_count, int64_t left_pos, int64_t right_count,
                    int64_t right_pos);

/// Path keys for the two children of the node with key `parent_key`.
uint64_t ChildPathKey(uint64_t parent_key, int side);

/// Path key of a tree's root.
uint64_t RootPathKey(uint64_t seed, int tree_id);

}  // namespace fume

#endif  // FUME_FOREST_SPLIT_STATS_H_
