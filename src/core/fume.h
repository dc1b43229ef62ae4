// FUME (Algorithm 1): top-k predicate-based training-data subsets
// attributable to a group-fairness violation, found by expanding the
// apriori lattice under pruning Rules 1-5 and estimating attribution via
// machine unlearning.

#ifndef FUME_CORE_FUME_H_
#define FUME_CORE_FUME_H_

#include <vector>

#include "core/attribution.h"
#include "core/removal_method.h"
#include "fairness/metrics.h"
#include "forest/forest.h"
#include "subset/lattice.h"
#include "util/result.h"

namespace fume {

namespace util {
class ThreadPool;
}  // namespace util

/// Hyperparameters of the search (paper §5 and §6.1).
struct FumeConfig {
  /// Number of subsets to report (paper default 5).
  int top_k = 5;
  /// Rule 2 support range [tau_min, tau_max] as fractions of |D|.
  double support_min = 0.05;
  double support_max = 0.15;
  /// Rule 3: maximum literals per subset (eta; paper reports 2-literal
  /// subsets).
  int max_literals = 2;
  FairnessMetric metric = FairnessMetric::kStatisticalParity;
  GroupSpec group;
  LatticeOptions lattice;

  /// Pruning-rule toggles (all on for the paper's algorithm; the ablation
  /// bench switches them off individually).
  bool rule2_support = true;
  bool rule4_parent = true;
  bool rule5_positive = true;

  /// A |F(h)| below this is treated as "no violation" and refused.
  double min_original_bias = 1e-9;

  /// Worker threads for attribution evaluations within a level (1 =
  /// sequential). Results are deterministic regardless of thread count.
  /// With > 1, the RemovalMethod's EvaluateWithout must be thread-safe
  /// (both built-in methods are).
  int num_threads = 1;

  /// Optional shared evaluation pool. When set, its workers run the level
  /// evaluations and `num_threads` is ignored; when null, the search
  /// creates its own pool once (if num_threads > 1) and reuses it across
  /// levels. Long-lived callers (stream engine, bench harness) share one
  /// pool across many searches to pay thread start-up exactly once.
  util::ThreadPool* pool = nullptr;

  /// Maximum Jaccard overlap (|A intersect B| / |A union B|) allowed between
  /// the row sets of any two reported top-k subsets. 1.0 disables the
  /// filter (the paper's default behaviour); lower values force the top-k
  /// to cover distinct cohorts, e.g. 0.5 drops a subset sharing more than
  /// half its rows with a better-ranked one. all_candidates is unaffected.
  double max_row_overlap = 1.0;
};

/// Per-level exploration counters (paper Table 9), with the pruning work
/// attributed to the individual rule that did it.
struct LevelStats {
  int level = 0;
  /// Syntactic candidates: literal count at level 1, apriori join pairs at
  /// deeper levels.
  int64_t possible = 0;
  /// Nodes whose attribution was actually estimated.
  int64_t explored = 0;
  double seconds = 0.0;

  /// Rule 1: join pairs dropped as contradictory/degenerate while forming
  /// this level's candidates (always 0 at level 1 — no join happened).
  int64_t rule1_pruned = 0;
  /// Rule 2 lower bound: support < tau_min, whole subtree abandoned.
  int64_t rule2_pruned_low = 0;
  /// Rule 2 upper bound: support > tau_max, kept expandable but never
  /// estimated.
  int64_t rule2_expand_only = 0;
  /// Rule 4: estimated but weaker than the strongest estimated parent.
  int64_t rule4_pruned = 0;
  /// Rule 5: estimated but attribution not positive.
  int64_t rule5_pruned = 0;

  double pruned_percent() const {
    if (possible == 0) return 0.0;
    return 100.0 * (1.0 - static_cast<double>(explored) /
                              static_cast<double>(possible));
  }
};

struct FumeStats {
  std::vector<LevelStats> levels;
  /// Removal-method invocations (cache hits excluded).
  int64_t attribution_evaluations = 0;
  /// Evaluations avoided because an identical row set was already scored
  /// (prior level or duplicate predicate within the level).
  int64_t cache_hits = 0;
  /// Distinct row sets entered into the memo table.
  int64_t cache_inserts = 0;
  /// Rule 3: expandable nodes left unexpanded at the literal-count cap.
  int64_t rule3_unexpanded = 0;
  double total_seconds = 0.0;
};

struct FumeResult {
  /// Signed F(h, D_test) of the original model.
  double original_fairness = 0.0;
  double original_accuracy = 0.0;
  /// Top-k attributable subsets, sorted by attribution descending (ties by
  /// predicate order for determinism). All have attribution > 0 and support
  /// within [support_min, support_max].
  std::vector<AttributableSubset> top_k;
  /// Every evaluated subset with positive attribution in the support range
  /// (top_k is its prefix) — used by the quality analysis of Figure 4.
  std::vector<AttributableSubset> all_candidates;
  FumeStats stats;
};

/// Runs Algorithm 1 model-agnostically: `original` is the evaluation of the
/// model being debugged (its fairness defines the violation), `train` the
/// all-categorical data it was trained on, and `removal` any RemovalMethod
/// over that model (paper §5: any parametric or non-parametric model works
/// by swapping EstimateAttribution's removal mechanism).
Result<FumeResult> ExplainWithRemoval(const ModelEval& original,
                                      const Dataset& train,
                                      const FumeConfig& config,
                                      RemovalMethod* removal);

/// DaRE-forest convenience: evaluates `model` on `test` and runs the
/// algorithm with the given removal method.
Result<FumeResult> ExplainWithRemoval(const DareForest& model,
                                      const Dataset& train,
                                      const Dataset& test,
                                      const FumeConfig& config,
                                      RemovalMethod* removal);

/// The standard entry point: removal = DaRE machine unlearning on `model`.
Result<FumeResult> ExplainFairnessViolation(const DareForest& model,
                                            const Dataset& train,
                                            const Dataset& test,
                                            const FumeConfig& config);

}  // namespace fume

#endif  // FUME_CORE_FUME_H_
