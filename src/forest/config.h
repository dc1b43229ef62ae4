// Configuration for DaRE random forests (Data Removal-Enabled Random
// Forests, Brophy & Lowd ICML'21), the unlearning substrate of FUME.

#ifndef FUME_FOREST_CONFIG_H_
#define FUME_FOREST_CONFIG_H_

#include <cstdint>

namespace fume {

/// How candidate split thresholds are enumerated at greedy nodes.
enum class ThresholdMode {
  /// Every inter-bin threshold is a candidate. Slightly slower builds but
  /// the strongest unlearning guarantee (structural equality with scratch
  /// retraining; see DESIGN.md §2).
  kExact,
  /// k' thresholds sampled per candidate attribute, keyed by the node path
  /// (data-independent, as in the DaRE paper). Faster on high-cardinality
  /// attributes; still exactly unlearnable because the candidate set never
  /// depends on the data.
  kSampled,
};

struct ForestConfig {
  /// Number of trees in the ensemble.
  int num_trees = 20;
  /// Maximum tree depth (root has depth 0).
  int max_depth = 10;
  /// Levels [0, random_depth) use data-independent random splits — the DaRE
  /// trick that makes deletions rarely retrain the expensive top of a tree.
  int random_depth = 2;
  /// A node with fewer instances becomes a leaf.
  int min_samples_split = 2;
  /// Both children of a valid split must hold at least this many instances.
  int min_samples_leaf = 1;
  /// Candidate attributes considered per greedy node (p~ in the paper);
  /// 0 means ceil(sqrt(p)).
  int num_candidate_attrs = 0;
  ThresholdMode threshold_mode = ThresholdMode::kExact;
  /// k': thresholds sampled per attribute in kSampled mode.
  int num_sampled_thresholds = 8;
  uint64_t seed = 42;
};

/// Counters describing the work done by one DeleteRows call; used by the
/// ablation bench and the complexity discussion in the paper's §5.1.
struct DeletionStats {
  int64_t nodes_visited = 0;
  int64_t nodes_updated = 0;     // stats decremented in place
  int64_t subtrees_retrained = 0;
  int64_t rows_retrained = 0;    // instances gathered into rebuilds
  int64_t leaves_updated = 0;
  // Nodes replaced by a private shallow copy (CoW unshare) because a live
  // clone still referenced them.
  int64_t nodes_copied = 0;

  void Add(const DeletionStats& other) {
    nodes_visited += other.nodes_visited;
    nodes_updated += other.nodes_updated;
    subtrees_retrained += other.subtrees_retrained;
    rows_retrained += other.rows_retrained;
    leaves_updated += other.leaves_updated;
    nodes_copied += other.nodes_copied;
  }

  friend bool operator==(const DeletionStats& a, const DeletionStats& b) {
    return a.nodes_visited == b.nodes_visited &&
           a.nodes_updated == b.nodes_updated &&
           a.subtrees_retrained == b.subtrees_retrained &&
           a.rows_retrained == b.rows_retrained &&
           a.leaves_updated == b.leaves_updated &&
           a.nodes_copied == b.nodes_copied;
  }

  /// Field count guard. Add()/operator==/the serializer's stats block and
  /// the stats_test field sweep all enumerate the fields by hand; a new
  /// counter that misses one of those paths would merge/compare/serialize
  /// silently wrong. Adding a field trips this assert — bump the count
  /// AFTER extending every enumeration (see deletion_stats_test.cc).
  static constexpr int kNumFields = 6;
};
static_assert(sizeof(DeletionStats) == DeletionStats::kNumFields * sizeof(int64_t),
              "DeletionStats gained or lost a field: update Add(), "
              "operator==, serialize.cc's stats block and "
              "deletion_stats_test.cc, then adjust kNumFields");

}  // namespace fume

#endif  // FUME_FOREST_CONFIG_H_
