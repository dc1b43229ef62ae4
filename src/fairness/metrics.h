// Group-fairness metrics F(h, D) of paper §2.1: signed differences between
// the protected and privileged groups; 0 means fair, negative means biased
// against the protected group (Definition 2.1).

#ifndef FUME_FAIRNESS_METRICS_H_
#define FUME_FAIRNESS_METRICS_H_

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "fairness/confusion.h"
#include "forest/forest.h"

namespace fume {

enum class FairnessMetric {
  /// F = P(yhat=1 | protected) - P(yhat=1 | privileged).
  kStatisticalParity,
  /// Average odds difference:
  /// F = 0.5 * [(TPR_prot - TPR_priv) + (FPR_prot - FPR_priv)].
  /// Zero iff TPR and FPR differences cancel; the |F| used by FUME treats it
  /// as the scalarization of the equalized-odds criterion.
  kEqualizedOdds,
  /// F = PPV_protected - PPV_privileged.
  kPredictiveParity,
  /// Equal opportunity (Hardt et al. 2016): F = TPR_prot - TPR_priv —
  /// the true-positive-rate half of equalized odds.
  kEqualOpportunity,
  /// Disparate impact, centered at fairness:
  /// F = P(yhat=1 | protected) / P(yhat=1 | privileged) - 1.
  /// The classic four-fifths rule flags F < -0.2. Defined as 0 when the
  /// privileged rate is 0.
  kDisparateImpact,
};

const char* FairnessMetricName(FairnessMetric metric);

/// The metric a command-line spelling names: FairnessMetricName with '-'
/// for ' ' ("equalized-odds"). nullopt for any other text.
std::optional<FairnessMetric> ParseFairnessMetric(std::string_view name);

/// Signed metric value from precomputed group confusions.
double FairnessFromConfusion(const GroupConfusion& confusion,
                             FairnessMetric metric);

/// F(predictions, data): signed fairness of given predictions.
double ComputeFairness(const Dataset& data, const std::vector<int>& predictions,
                       const GroupSpec& group, FairnessMetric metric);

/// F(h, data): applies the classifier then measures.
double ComputeFairness(const DareForest& model, const Dataset& data,
                       const GroupSpec& group, FairnessMetric metric);

/// Convenience bundle of everything the evaluation section reports.
struct FairnessSummary {
  double statistical_parity = 0.0;
  double equalized_odds = 0.0;
  double predictive_parity = 0.0;
  double accuracy = 0.0;
  GroupConfusion confusion;
};

FairnessSummary Summarize(const DareForest& model, const Dataset& data,
                          const GroupSpec& group);

}  // namespace fume

#endif  // FUME_FAIRNESS_METRICS_H_
