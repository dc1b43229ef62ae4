// What-if repair analyses. FUME's output is a subset a data steward should
// inspect (paper §1: "mislabeled instances in the unprivileged group,
// fixing which may improve the downstream model"). This module closes that
// loop: it evaluates candidate *fixes* of a subset — removal, relabeling,
// or reweighting — without retraining, by combining exact unlearning
// (DeleteRows) with exact incremental addition (AddData).

#ifndef FUME_REPAIR_WHAT_IF_H_
#define FUME_REPAIR_WHAT_IF_H_

#include "core/removal_method.h"
#include "subset/predicate.h"

namespace fume {

/// How a subset's labels are rewritten by WhatIfRelabel.
enum class RelabelPolicy {
  /// Flip every label in the subset.
  kFlipAll,
  /// Give every subset member the favorable label.
  kSetPositive,
  /// Give every subset member the unfavorable label.
  kSetNegative,
  /// Give the subset's *protected* members the favorable label (the classic
  /// "correct the under-labeled cohort" repair); privileged members keep
  /// their labels.
  kSetProtectedPositive,
};

const char* RelabelPolicyName(RelabelPolicy policy);

/// Outcome of one what-if intervention.
struct WhatIfResult {
  ModelEval before;
  ModelEval after;
  /// Fraction of |original bias| removed by the intervention (negative =
  /// the intervention makes bias worse).
  double parity_reduction = 0.0;
  /// Training rows the intervention touched.
  int64_t rows_affected = 0;
};

/// Evaluates removing the subset (the standard FUME counterfactual),
/// exposed here for side-by-side comparison with the repairs. Scored like
/// a search evaluation, through UnlearnRemovalMethod: no clone.
Result<WhatIfResult> WhatIfRemove(const DareForest& model,
                                  const Dataset& train, const Dataset& test,
                                  const GroupSpec& group,
                                  FairnessMetric metric,
                                  const Predicate& subset);

/// Evaluates rewriting the subset's labels per `policy`: the subset's rows
/// are exactly unlearned and re-added with new labels — equivalent to
/// retraining on the corrected data, at unlearning cost.
Result<WhatIfResult> WhatIfRelabel(const DareForest& model,
                                   const Dataset& train, const Dataset& test,
                                   const GroupSpec& group,
                                   FairnessMetric metric,
                                   const Predicate& subset,
                                   RelabelPolicy policy);

/// Evaluates upweighting the subset by adding `extra_copies` duplicates of
/// each member (a pre-processing-style reweighing repair).
Result<WhatIfResult> WhatIfDuplicate(const DareForest& model,
                                     const Dataset& train,
                                     const Dataset& test,
                                     const GroupSpec& group,
                                     FairnessMetric metric,
                                     const Predicate& subset,
                                     int extra_copies);

}  // namespace fume

#endif  // FUME_REPAIR_WHAT_IF_H_
