#include "repair/what_if.h"

#include <cmath>

#include "fairness/metrics.h"

namespace fume {

namespace {

double ParityReduction(const ModelEval& before, const ModelEval& after) {
  const double original = std::fabs(before.fairness);
  if (original == 0.0) return 0.0;
  return (original - std::fabs(after.fairness)) / original;
}

Status CheckSubset(const Predicate& subset) {
  if (subset.empty()) {
    return Status::Invalid("what-if interventions need a non-empty subset");
  }
  return Status::OK();
}

// Builds the dataset of `rows` from `train`, with labels rewritten by
// `policy`.
Dataset RelabeledRows(const Dataset& train, const std::vector<int32_t>& rows,
                      const GroupSpec& group, RelabelPolicy policy) {
  Dataset out(train.schema());
  std::vector<int32_t> codes(static_cast<size_t>(train.num_attributes()));
  for (int32_t r : rows) {
    for (int j = 0; j < train.num_attributes(); ++j) {
      codes[static_cast<size_t>(j)] = train.Code(r, j);
    }
    int label = train.Label(r);
    switch (policy) {
      case RelabelPolicy::kFlipAll:
        label = 1 - label;
        break;
      case RelabelPolicy::kSetPositive:
        label = 1;
        break;
      case RelabelPolicy::kSetNegative:
        label = 0;
        break;
      case RelabelPolicy::kSetProtectedPositive:
        if (train.Code(r, group.sensitive_attr) != group.privileged_code) {
          label = 1;
        }
        break;
    }
    FUME_CHECK(out.AppendRow(codes, label).ok());
  }
  return out;
}

}  // namespace

const char* RelabelPolicyName(RelabelPolicy policy) {
  switch (policy) {
    case RelabelPolicy::kFlipAll:
      return "flip all labels";
    case RelabelPolicy::kSetPositive:
      return "set all favorable";
    case RelabelPolicy::kSetNegative:
      return "set all unfavorable";
    case RelabelPolicy::kSetProtectedPositive:
      return "set protected members favorable";
  }
  return "unknown";
}

Result<WhatIfResult> WhatIfRemove(const DareForest& model,
                                  const Dataset& train, const Dataset& test,
                                  const GroupSpec& group,
                                  FairnessMetric metric,
                                  const Predicate& subset) {
  FUME_RETURN_NOT_OK(CheckSubset(subset));
  WhatIfResult result;
  result.before =
      EvaluatePredictions(test, model.PredictAll(test), group, metric);
  const std::vector<int32_t> rows = subset.MatchingRows(train);
  result.rows_affected = static_cast<int64_t>(rows.size());

  // Unlearn and rescore in one fused walk off `model`: nothing is cloned.
  UnlearnRemovalMethod removal(&model, &test, group, metric);
  FUME_ASSIGN_OR_RETURN(result.after,
                        removal.EvaluateWithout(
                            std::vector<RowId>(rows.begin(), rows.end())));
  result.parity_reduction = ParityReduction(result.before, result.after);
  return result;
}

Result<WhatIfResult> WhatIfRelabel(const DareForest& model,
                                   const Dataset& train, const Dataset& test,
                                   const GroupSpec& group,
                                   FairnessMetric metric,
                                   const Predicate& subset,
                                   RelabelPolicy policy) {
  FUME_RETURN_NOT_OK(CheckSubset(subset));
  WhatIfResult result;
  result.before =
      EvaluatePredictions(test, model.PredictAll(test), group, metric);
  const std::vector<int32_t> rows = subset.MatchingRows(train);
  result.rows_affected = static_cast<int64_t>(rows.size());

  // Exactly equivalent to retraining on the relabeled data: unlearn the
  // original rows, then add them back with corrected labels.
  DareForest what_if = model.Clone();
  FUME_RETURN_NOT_OK(
      what_if.DeleteRows(std::vector<RowId>(rows.begin(), rows.end())));
  const Dataset relabeled = RelabeledRows(train, rows, group, policy);
  FUME_RETURN_NOT_OK(what_if.AddData(relabeled).status());
  result.after =
      EvaluatePredictions(test, what_if.PredictAll(test), group, metric);
  result.parity_reduction = ParityReduction(result.before, result.after);
  return result;
}

Result<WhatIfResult> WhatIfDuplicate(const DareForest& model,
                                     const Dataset& train,
                                     const Dataset& test,
                                     const GroupSpec& group,
                                     FairnessMetric metric,
                                     const Predicate& subset,
                                     int extra_copies) {
  FUME_RETURN_NOT_OK(CheckSubset(subset));
  if (extra_copies < 1) {
    return Status::Invalid("extra_copies must be >= 1");
  }
  WhatIfResult result;
  result.before =
      EvaluatePredictions(test, model.PredictAll(test), group, metric);
  const std::vector<int32_t> rows = subset.MatchingRows(train);
  result.rows_affected = static_cast<int64_t>(rows.size());

  Dataset copies(train.schema());
  std::vector<int32_t> codes(static_cast<size_t>(train.num_attributes()));
  for (int copy = 0; copy < extra_copies; ++copy) {
    for (int32_t r : rows) {
      for (int j = 0; j < train.num_attributes(); ++j) {
        codes[static_cast<size_t>(j)] = train.Code(r, j);
      }
      FUME_CHECK(copies.AppendRow(codes, train.Label(r)).ok());
    }
  }
  DareForest what_if = model.Clone();
  FUME_RETURN_NOT_OK(what_if.AddData(copies).status());
  result.after =
      EvaluatePredictions(test, what_if.PredictAll(test), group, metric);
  result.parity_reduction = ParityReduction(result.before, result.after);
  return result;
}

}  // namespace fume
