// Tests for the apriori lattice: level-1 generation, the prefix join,
// Rule 1 contradiction filtering, support anti-monotonicity and Rule 4
// parent bookkeeping.

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "subset/lattice.h"
#include "util/rng.h"

namespace fume {
namespace {

Dataset LatticeData(int64_t n = 200) {
  Schema schema;
  EXPECT_TRUE(schema.AddCategorical("a", {"a0", "a1", "a2"}).ok());
  EXPECT_TRUE(schema.AddCategorical("b", {"b0", "b1"}).ok());
  EXPECT_TRUE(schema.AddCategorical("c", {"c0", "c1", "c2", "c3"}).ok());
  Dataset data(schema);
  Rng rng(3);
  for (int64_t i = 0; i < n; ++i) {
    EXPECT_TRUE(data.AppendRow({rng.NextInt(0, 2), rng.NextInt(0, 1),
                                rng.NextInt(0, 3)},
                               rng.NextInt(0, 1))
                    .ok());
  }
  return data;
}

TEST(LatticeTest, Level1HasOneNodePerLiteral) {
  Dataset data = LatticeData();
  Lattice lattice(data, LatticeOptions{});
  auto level1 = lattice.MakeLevel1();
  EXPECT_EQ(level1.size(), 3u + 2u + 4u);
  EXPECT_EQ(lattice.NumPossibleLevel1(), 9);
  for (const auto& node : level1) {
    EXPECT_EQ(node.level, 1);
    EXPECT_EQ(node.predicate.num_literals(), 1);
    EXPECT_DOUBLE_EQ(node.support, node.predicate.Support(data));
    EXPECT_FALSE(node.attribution_known());
  }
}

TEST(LatticeTest, ExcludedAttrsAreSkipped) {
  Dataset data = LatticeData();
  LatticeOptions opts;
  opts.excluded_attrs = {1};
  Lattice lattice(data, opts);
  for (const auto& node : lattice.MakeLevel1()) {
    EXPECT_NE(node.predicate.literals()[0].attr, 1);
  }
  EXPECT_EQ(lattice.MakeLevel1().size(), 7u);
}

TEST(LatticeTest, Level2JoinNeverRepeatsAttributes) {
  Dataset data = LatticeData();
  Lattice lattice(data, LatticeOptions{});
  int64_t pairs = 0;
  auto level2 = lattice.MergeLevel(lattice.MakeLevel1(), &pairs);
  EXPECT_EQ(pairs, 9 * 8 / 2);  // all pairs considered
  // With equality-only literals, same-attribute merges are contradictions:
  // 3*2 + 3*4 + 2*4 = 26 valid cross-attribute pairs.
  EXPECT_EQ(level2.size(), 26u);
  for (const auto& node : level2) {
    EXPECT_EQ(node.level, 2);
    ASSERT_EQ(node.predicate.num_literals(), 2);
    EXPECT_NE(node.predicate.literals()[0].attr,
              node.predicate.literals()[1].attr);
    EXPECT_TRUE(node.predicate.IsSatisfiable(data.schema()));
  }
}

TEST(LatticeTest, JoinProducesUniquePredicates) {
  Dataset data = LatticeData();
  Lattice lattice(data, LatticeOptions{});
  auto level2 = lattice.MergeLevel(lattice.MakeLevel1(), nullptr);
  std::set<std::string> seen;
  for (const auto& node : level2) {
    EXPECT_TRUE(seen.insert(node.predicate.ToString(data.schema())).second);
  }
}

TEST(LatticeTest, ChildRowsAreParentIntersection) {
  Dataset data = LatticeData();
  Lattice lattice(data, LatticeOptions{});
  auto level2 = lattice.MergeLevel(lattice.MakeLevel1(), nullptr);
  for (const auto& node : level2) {
    EXPECT_EQ(node.rows.ToRows(), node.predicate.MatchingRows(data));
  }
}

TEST(LatticeTest, SupportCountMatchesRowsAtEveryLevel) {
  // The fused parent∩literal derivation caches |rows| in support_count so
  // downstream consumers never re-popcount; it must agree with the bitmap
  // and the fraction-of-|D| support at every level.
  Dataset data = LatticeData();
  Lattice lattice(data, LatticeOptions{});
  auto level = lattice.MakeLevel1();
  for (int depth = 1; depth <= 3 && !level.empty(); ++depth) {
    for (const auto& node : level) {
      EXPECT_EQ(node.support_count, node.rows.Count());
      EXPECT_DOUBLE_EQ(node.support,
                       static_cast<double>(node.support_count) /
                           static_cast<double>(data.num_rows()));
    }
    level = lattice.MergeLevel(level, nullptr);
  }
}

TEST(LatticeTest, SupportIsAntiMonotone) {
  Dataset data = LatticeData();
  Lattice lattice(data, LatticeOptions{});
  auto level1 = lattice.MakeLevel1();
  auto level2 = lattice.MergeLevel(level1, nullptr);
  for (const auto& child : level2) {
    for (const auto& parent : level1) {
      if (parent.predicate.IsSubsetOf(child.predicate)) {
        EXPECT_LE(child.support, parent.support + 1e-12);
      }
    }
  }
}

TEST(LatticeTest, Level3FromLevel2) {
  Dataset data = LatticeData();
  Lattice lattice(data, LatticeOptions{});
  auto level2 = lattice.MergeLevel(lattice.MakeLevel1(), nullptr);
  auto level3 = lattice.MergeLevel(level2, nullptr);
  // 3 attributes -> level-3 nodes constrain all three: 3*2*4 = 24.
  EXPECT_EQ(level3.size(), 24u);
  for (const auto& node : level3) {
    EXPECT_EQ(node.predicate.num_literals(), 3);
    EXPECT_EQ(node.rows.ToRows(), node.predicate.MatchingRows(data));
  }
  // Level 4 is impossible with 3 attributes.
  EXPECT_TRUE(lattice.MergeLevel(level3, nullptr).empty());
}

TEST(LatticeTest, ParentAttributionPropagatesMax) {
  Dataset data = LatticeData();
  Lattice lattice(data, LatticeOptions{});
  auto level1 = lattice.MakeLevel1();
  // Pretend FUME estimated some attributions.
  for (size_t i = 0; i < level1.size(); ++i) {
    level1[i].attribution = 0.1 * static_cast<double>(i);
  }
  auto level2 = lattice.MergeLevel(level1, nullptr);
  for (const auto& child : level2) {
    double max_parent = -1.0;
    for (const auto& parent : level1) {
      if (parent.predicate.IsSubsetOf(child.predicate)) {
        max_parent = std::max(max_parent, parent.attribution);
      }
    }
    ASSERT_FALSE(std::isnan(child.parent_attribution));
    EXPECT_DOUBLE_EQ(child.parent_attribution, max_parent);
  }
}

TEST(LatticeTest, UnknownParentAttributionStaysNaN) {
  Dataset data = LatticeData();
  Lattice lattice(data, LatticeOptions{});
  auto level1 = lattice.MakeLevel1();  // no attributions estimated
  auto level2 = lattice.MergeLevel(level1, nullptr);
  for (const auto& child : level2) {
    EXPECT_TRUE(std::isnan(child.parent_attribution));
  }
}

}  // namespace
}  // namespace fume
