// The hierarchically ordered lattice of predicate subsets (paper §4),
// borrowed from apriori candidate generation: level l nodes carry l literals
// and are produced by joining two level-(l-1) nodes that share l-2 literals.

#ifndef FUME_SUBSET_LATTICE_H_
#define FUME_SUBSET_LATTICE_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "subset/posting_index.h"
#include "subset/predicate.h"

namespace fume {

/// \brief One lattice node: a predicate plus its matched training rows and
/// search bookkeeping filled in by FUME.
struct LatticeNode {
  Predicate predicate;
  Bitmap rows;          // matching training rows
  int64_t support_count = 0;  // |rows|, counted when rows was built
  double support = 0.0; // |rows| / |D|
  int level = 1;        // number of literals

  /// Bias attribution (positive = removing the subset reduces bias; the
  /// paper's "parity reduction" as a fraction). NaN until estimated —
  /// nodes kept for expansion only (support > tau_max) are never estimated.
  double attribution = std::numeric_limits<double>::quiet_NaN();
  /// Best parent attribution, for pruning Rule 4. NaN at level 1.
  double parent_attribution = std::numeric_limits<double>::quiet_NaN();

  bool attribution_known() const { return attribution == attribution; }
};

/// Level 1 holds one equality literal per (attribute, value) pair of the
/// discretized data: the paper's construction.
struct LatticeOptions {
  /// Attributes excluded from literals (e.g. the sensitive attribute when
  /// the practitioner wants explanations not phrased in terms of it).
  std::vector<int> excluded_attrs;
};

/// Work breakdown of one MergeLevel call (Rule 1 is the only rule applied
/// inside the lattice; the rest live in the FUME search loop).
struct LatticeMergeStats {
  /// Join pairs examined — the "possible subsets" column of Table 9.
  int64_t pairs_considered = 0;
  /// Pairs dropped because the merge is unsatisfiable (Rule 1 proper).
  int64_t rule1_contradictions = 0;
  /// Pairs dropped as degenerate (the joined literal already present).
  int64_t degenerate_merges = 0;
};

/// \brief Generates lattice levels over one training set.
class Lattice {
 public:
  Lattice(const Dataset& train, LatticeOptions options);

  /// Level-1 nodes: one per literal, with bitmaps from the posting index.
  std::vector<LatticeNode> MakeLevel1() const;

  /// Apriori join of level-(l-1) nodes into level-l candidates: two nodes
  /// sharing their first l-2 literals merge; contradictory results (Rule 1)
  /// are dropped. `parents` must be sorted by predicate (the join relies on
  /// the canonical order); MergeLevel sorts a copy if needed.
  ///
  /// Each candidate's rows = intersection of its parents' bitmaps (a
  /// level-l node IS parent ∩ its other parent's last literal — see
  /// DESIGN.md §6.4 — so no candidate ever consults the posting index),
  /// derived in one fused AND+popcount pass that also fills support_count.
  /// parent_attribution = max of the parents' known attributions.
  /// `stats` receives the pairs-considered / Rule 1 breakdown.
  std::vector<LatticeNode> MergeLevel(std::vector<LatticeNode> parents,
                                      LatticeMergeStats& stats) const;

  /// Same, reporting only the pairs-considered count (nullable).
  std::vector<LatticeNode> MergeLevel(std::vector<LatticeNode> parents,
                                      int64_t* pairs_considered) const;

  /// Number of syntactically possible subsets at level 1 (= sum of literal
  /// counts); reported by Table 9.
  int64_t NumPossibleLevel1() const;

  const PostingIndex& index() const { return index_; }
  const Schema& schema() const { return *schema_; }
  int64_t num_rows() const { return num_rows_; }

 private:
  std::vector<Literal> MakeLiterals() const;

  const Schema* schema_;
  int64_t num_rows_;
  LatticeOptions options_;
  PostingIndex index_;
};

}  // namespace fume

#endif  // FUME_SUBSET_LATTICE_H_
