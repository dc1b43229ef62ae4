#include "subset/lattice.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace fume {

Lattice::Lattice(const Dataset& train, LatticeOptions options)
    : schema_(&train.schema()),
      num_rows_(train.num_rows()),
      options_(std::move(options)),
      index_(PostingIndex::Build(train)) {}

std::vector<Literal> Lattice::MakeLiterals() const {
  std::vector<Literal> literals;
  auto excluded = [&](int attr) {
    return std::find(options_.excluded_attrs.begin(),
                     options_.excluded_attrs.end(),
                     attr) != options_.excluded_attrs.end();
  };
  // Generated in (attribute, value) order, which is Literal's canonical
  // order for equality literals, so the level is already sorted.
  for (int j = 0; j < schema_->num_attributes(); ++j) {
    if (excluded(j)) continue;
    const int32_t card = schema_->attribute(j).cardinality();
    for (int32_t v = 0; v < card; ++v) {
      literals.push_back(Literal{j, LiteralOp::kEq, v});
    }
  }
  return literals;
}

int64_t Lattice::NumPossibleLevel1() const {
  return static_cast<int64_t>(MakeLiterals().size());
}

std::vector<LatticeNode> Lattice::MakeLevel1() const {
  std::vector<LatticeNode> nodes;
  for (const Literal& lit : MakeLiterals()) {
    LatticeNode node;
    node.predicate = Predicate::Of(lit);
    node.rows = index_.LiteralBitmap(lit);
    node.support_count = node.rows.Count();
    node.support = num_rows_ == 0
                       ? 0.0
                       : static_cast<double>(node.support_count) /
                             static_cast<double>(num_rows_);
    node.level = 1;
    nodes.push_back(std::move(node));
  }
  return nodes;
}

std::vector<LatticeNode> Lattice::MergeLevel(std::vector<LatticeNode> parents,
                                             int64_t* pairs_considered) const {
  LatticeMergeStats stats;
  std::vector<LatticeNode> out = MergeLevel(std::move(parents), stats);
  if (pairs_considered != nullptr) *pairs_considered = stats.pairs_considered;
  return out;
}

std::vector<LatticeNode> Lattice::MergeLevel(std::vector<LatticeNode> parents,
                                             LatticeMergeStats& stats) const {
  static obs::Counter* pairs_counter =
      obs::GetCounter("lattice.merge.pairs_considered");
  static obs::Counter* rule1_counter =
      obs::GetCounter("fume.prune.rule1_contradiction");
  static obs::Counter* degenerate_counter =
      obs::GetCounter("lattice.merge.degenerate");
  static obs::Counter* derived_counter =
      obs::GetCounter("lattice.rowset.derived");
  obs::TraceSpan span("lattice.merge",
                      {{"parents", static_cast<int64_t>(parents.size())}});
  LatticeMergeStats local;
  std::sort(parents.begin(), parents.end(),
            [](const LatticeNode& a, const LatticeNode& b) {
              return a.predicate < b.predicate;
            });
  std::vector<LatticeNode> out;
  // Classic apriori join: predicates sharing their first l-2 literals form a
  // contiguous run in canonical order; join every pair within a run.
  const size_t n = parents.size();
  for (size_t i = 0; i < n; ++i) {
    const auto& li = parents[i].predicate.literals();
    for (size_t j = i + 1; j < n; ++j) {
      const auto& lj = parents[j].predicate.literals();
      // Same prefix of length l-2?
      bool same_prefix = li.size() == lj.size();
      if (same_prefix) {
        for (size_t t = 0; t + 1 < li.size(); ++t) {
          if (!(li[t] == lj[t])) {
            same_prefix = false;
            break;
          }
        }
      }
      if (!same_prefix) break;  // runs are contiguous; advance i
      ++local.pairs_considered;
      // Rule 1: drop contradictions (for equality literals this skips any
      // pair constraining the same attribute twice).
      Predicate merged = parents[i].predicate.With(lj.back());
      if (merged.num_literals() !=
          static_cast<int>(li.size()) + 1) {
        ++local.degenerate_merges;
        continue;  // duplicate literal; degenerate merge
      }
      if (!merged.IsSatisfiable(*schema_)) {
        ++local.rule1_contradictions;
        continue;
      }

      LatticeNode node;
      node.predicate = std::move(merged);
      // Child = parent ∩ parent, never a fresh posting-index scan; the AND
      // pass also yields the support count, so no separate Count() walk.
      derived_counter->Inc();
      node.support_count =
          node.rows.AssignIntersect(parents[i].rows, parents[j].rows);
      node.support = num_rows_ == 0
                         ? 0.0
                         : static_cast<double>(node.support_count) /
                               static_cast<double>(num_rows_);
      node.level = static_cast<int>(li.size()) + 1;
      // Rule 4 bookkeeping: remember the strongest known parent attribution.
      double pa = std::numeric_limits<double>::quiet_NaN();
      for (const LatticeNode* parent : {&parents[i], &parents[j]}) {
        if (parent->attribution_known()) {
          pa = std::isnan(pa) ? parent->attribution
                              : std::max(pa, parent->attribution);
        }
      }
      node.parent_attribution = pa;
      out.push_back(std::move(node));
    }
  }
  pairs_counter->Inc(local.pairs_considered);
  rule1_counter->Inc(local.rule1_contradictions);
  degenerate_counter->Inc(local.degenerate_merges);
  span.AddArg("children", static_cast<int64_t>(out.size()));
  stats = local;
  return out;
}

}  // namespace fume
