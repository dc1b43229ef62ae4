#include "subset/posting_index.h"

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"

namespace fume {

namespace {

// Posting-list work counters: how many predicate lookups the search issues
// and how many bitmap intersections they cost. One relaxed add per Match
// call — per-row work stays uninstrumented.
obs::Counter* PredicateMatches() {
  static obs::Counter* c = obs::GetCounter("posting.match.predicate");
  return c;
}
obs::Counter* BitmapIntersections() {
  static obs::Counter* c = obs::GetCounter("posting.bitmap.intersect");
  return c;
}
// Predicate rowsets materialized from scratch (vs the lattice's
// parent-derived path, lattice.rowset.derived).
obs::Counter* ScratchRowsets() {
  static obs::Counter* c = obs::GetCounter("lattice.rowset.scratch");
  return c;
}

}  // namespace

PostingIndex PostingIndex::Build(const Dataset& data) {
  FUME_CHECK(data.schema().AllCategorical());
  obs::TraceSpan span("posting.build", {{"rows", data.num_rows()}});
  PostingIndex index;
  index.num_rows_ = data.num_rows();
  const int p = data.num_attributes();
  index.maps_.resize(static_cast<size_t>(p));
  for (int j = 0; j < p; ++j) {
    const int32_t card = data.schema().attribute(j).cardinality();
    index.maps_[static_cast<size_t>(j)].assign(static_cast<size_t>(card),
                                               Bitmap(data.num_rows()));
    const auto& codes = data.codes(j);
    for (int64_t r = 0; r < data.num_rows(); ++r) {
      index.maps_[static_cast<size_t>(j)]
                 [static_cast<size_t>(codes[static_cast<size_t>(r)])]
                     .Set(r);
    }
  }
  return index;
}

const Bitmap& PostingIndex::EqualityBitmap(int attr, int32_t value) const {
  return maps_[static_cast<size_t>(attr)][static_cast<size_t>(value)];
}

Bitmap PostingIndex::Match(const Predicate& predicate) const {
  PredicateMatches()->Inc();
  ScratchRowsets()->Inc();
  if (predicate.empty()) {
    Bitmap out(num_rows_);
    for (int64_t r = 0; r < num_rows_; ++r) out.Set(r);
    return out;
  }
  for (const Literal& lit : predicate.literals()) {
    FUME_CHECK(lit.op == LiteralOp::kEq);
  }
  const auto& literals = predicate.literals();
  Bitmap out = EqualityBitmap(literals.front().attr, literals.front().value);
  for (size_t i = 1; i < literals.size(); ++i) {
    BitmapIntersections()->Inc();
    out.IntersectWith(EqualityBitmap(literals[i].attr, literals[i].value));
  }
  return out;
}

}  // namespace fume
