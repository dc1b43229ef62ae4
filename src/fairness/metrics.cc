#include "fairness/metrics.h"

#include <algorithm>

namespace fume {

const char* FairnessMetricName(FairnessMetric metric) {
  switch (metric) {
    case FairnessMetric::kStatisticalParity:
      return "statistical parity";
    case FairnessMetric::kEqualizedOdds:
      return "equalized odds";
    case FairnessMetric::kPredictiveParity:
      return "predictive parity";
    case FairnessMetric::kEqualOpportunity:
      return "equal opportunity";
    case FairnessMetric::kDisparateImpact:
      return "disparate impact";
  }
  return "unknown";
}

std::optional<FairnessMetric> ParseFairnessMetric(std::string_view name) {
  for (const FairnessMetric metric :
       {FairnessMetric::kStatisticalParity, FairnessMetric::kEqualizedOdds,
        FairnessMetric::kPredictiveParity, FairnessMetric::kEqualOpportunity,
        FairnessMetric::kDisparateImpact}) {
    std::string spelling = FairnessMetricName(metric);
    std::replace(spelling.begin(), spelling.end(), ' ', '-');
    if (spelling == name) return metric;
  }
  return std::nullopt;
}

double FairnessFromConfusion(const GroupConfusion& confusion,
                             FairnessMetric metric) {
  const Confusion& prot = confusion.unprivileged;
  const Confusion& priv = confusion.privileged;
  switch (metric) {
    case FairnessMetric::kStatisticalParity:
      return prot.PositiveRate() - priv.PositiveRate();
    case FairnessMetric::kEqualizedOdds:
      return 0.5 * ((prot.Tpr() - priv.Tpr()) + (prot.Fpr() - priv.Fpr()));
    case FairnessMetric::kPredictiveParity:
      return prot.Ppv() - priv.Ppv();
    case FairnessMetric::kEqualOpportunity:
      return prot.Tpr() - priv.Tpr();
    case FairnessMetric::kDisparateImpact: {
      const double priv_rate = priv.PositiveRate();
      if (priv_rate == 0.0) return 0.0;
      return prot.PositiveRate() / priv_rate - 1.0;
    }
  }
  return 0.0;
}

double ComputeFairness(const Dataset& data,
                       const std::vector<int>& predictions,
                       const GroupSpec& group, FairnessMetric metric) {
  return FairnessFromConfusion(ComputeGroupConfusion(data, predictions, group),
                               metric);
}

double ComputeFairness(const DareForest& model, const Dataset& data,
                       const GroupSpec& group, FairnessMetric metric) {
  return ComputeFairness(data, model.PredictAll(data), group, metric);
}

FairnessSummary Summarize(const DareForest& model, const Dataset& data,
                          const GroupSpec& group) {
  FairnessSummary out;
  const std::vector<int> preds = model.PredictAll(data);
  out.confusion = ComputeGroupConfusion(data, preds, group);
  out.statistical_parity =
      FairnessFromConfusion(out.confusion, FairnessMetric::kStatisticalParity);
  out.equalized_odds =
      FairnessFromConfusion(out.confusion, FairnessMetric::kEqualizedOdds);
  out.predictive_parity =
      FairnessFromConfusion(out.confusion, FairnessMetric::kPredictiveParity);
  int64_t correct = 0;
  for (int64_t r = 0; r < data.num_rows(); ++r) {
    if (preds[static_cast<size_t>(r)] == data.Label(r)) ++correct;
  }
  out.accuracy = data.num_rows() == 0
                     ? 0.0
                     : static_cast<double>(correct) /
                           static_cast<double>(data.num_rows());
  return out;
}

}  // namespace fume
