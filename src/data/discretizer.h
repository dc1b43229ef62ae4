// Discretizer: converts numeric attributes to ordered categorical bins.
// The paper discretizes every numeric column before subset search (§6.1.1);
// the forest and the predicate lattice both require all-categorical data.

#ifndef FUME_DATA_DISCRETIZER_H_
#define FUME_DATA_DISCRETIZER_H_

#include <string>
#include <vector>

#include "data/dataset.h"
#include "util/result.h"

namespace fume {

/// Binning strategy for numeric columns.
enum class BinningStrategy {
  kEquiWidth,  // equal-width bins over [min, max]
  kQuantile,   // equal-frequency bins from empirical quantiles
};

struct DiscretizerOptions {
  BinningStrategy strategy = BinningStrategy::kQuantile;
  /// Number of bins per numeric attribute (capped by the number of distinct
  /// values actually present).
  int num_bins = 4;
};

/// \brief Learns bin boundaries on one dataset and applies them to others
/// (fit on train, transform train and test with the same edges).
class Discretizer {
 public:
  /// Learns boundaries for every numeric attribute of `data`.
  static Result<Discretizer> Fit(const Dataset& data,
                                 const DiscretizerOptions& options);

  /// Maps a dataset (same schema as fitted) to an all-categorical dataset.
  /// Numeric attributes become ordered bins named "[lo, hi)"; categorical
  /// attributes pass through unchanged.
  Result<Dataset> Transform(const Dataset& data) const;

  /// Upper bin edges for a numeric attribute (size = num bins - 1).
  const std::vector<double>& edges(int attr) const { return edges_[attr]; }

 private:
  Schema input_schema_;
  Schema output_schema_;
  /// Per input attribute: interior bin edges; empty for categorical.
  std::vector<std::vector<double>> edges_;
};

}  // namespace fume

#endif  // FUME_DATA_DISCRETIZER_H_
