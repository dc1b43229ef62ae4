// PostingIndex: per-literal row bitmaps over a training set. Level-1 lattice
// nodes take their bitmap straight from the index; deeper nodes intersect
// parent bitmaps, so no predicate ever rescans the data.

#ifndef FUME_SUBSET_POSTING_INDEX_H_
#define FUME_SUBSET_POSTING_INDEX_H_

#include <vector>

#include "data/dataset.h"
#include "subset/bitmap.h"
#include "subset/predicate.h"

namespace fume {

/// \brief Precomputed equality bitmaps for every (attribute, code) pair of an
/// all-categorical dataset; conjunctions of equality literals are evaluated
/// by intersecting them.
class PostingIndex {
 public:
  /// Builds bitmaps for `data` (must be all-categorical).
  static PostingIndex Build(const Dataset& data);

  int64_t num_rows() const { return num_rows_; }

  /// Bitmap of rows with code(attr) == value.
  const Bitmap& EqualityBitmap(int attr, int32_t value) const;

  /// Bitmap of rows matching a conjunction of equality literals (the only
  /// kind the lattice emits; any other operator FUME_CHECK-aborts), built
  /// from scratch by intersecting their bitmaps. The lattice never calls
  /// this on its search path — children derive from parent rowsets — so a
  /// call here counts as lattice.rowset.scratch.
  Bitmap Match(const Predicate& predicate) const;

 private:
  int64_t num_rows_ = 0;
  /// maps_[attr][code]
  std::vector<std::vector<Bitmap>> maps_;
};

}  // namespace fume

#endif  // FUME_SUBSET_POSTING_INDEX_H_
