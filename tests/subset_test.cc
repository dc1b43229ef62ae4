// Tests for src/subset: bitmaps, literals, predicates and the posting index.

#include <gtest/gtest.h>

#include "subset/bitmap.h"
#include "subset/literal.h"
#include "subset/posting_index.h"
#include "subset/predicate.h"

namespace fume {
namespace {

Schema TestSchema() {
  Schema schema;
  EXPECT_TRUE(schema.AddCategorical("age", {"young", "mid", "old"}).ok());
  EXPECT_TRUE(schema.AddCategorical("sex", {"F", "M"}).ok());
  EXPECT_TRUE(
      schema.AddCategorical("job", {"none", "low", "high", "exec"}).ok());
  return schema;
}

Dataset TestData() {
  Dataset data(TestSchema());
  EXPECT_TRUE(data.AppendRow({0, 0, 1}, 1).ok());
  EXPECT_TRUE(data.AppendRow({1, 1, 2}, 0).ok());
  EXPECT_TRUE(data.AppendRow({2, 0, 3}, 1).ok());
  EXPECT_TRUE(data.AppendRow({0, 1, 0}, 0).ok());
  EXPECT_TRUE(data.AppendRow({1, 0, 1}, 1).ok());
  EXPECT_TRUE(data.AppendRow({2, 1, 2}, 0).ok());
  return data;
}

// --------------------------------------------------------------- Bitmap

TEST(BitmapTest, SetGetCount) {
  Bitmap b(130);
  b.Set(0);
  b.Set(64);
  b.Set(129);
  EXPECT_TRUE(b.Get(64));
  EXPECT_FALSE(b.Get(63));
  EXPECT_EQ(b.Count(), 3);
  EXPECT_EQ(b.ToRows(), (std::vector<int32_t>{0, 64, 129}));
}

TEST(BitmapTest, IntersectAndUnion) {
  Bitmap a(100), b(100);
  a.Set(1);
  a.Set(50);
  a.Set(99);
  b.Set(50);
  b.Set(99);
  b.Set(3);
  Bitmap inter = Bitmap::Intersect(a, b);
  EXPECT_EQ(inter.ToRows(), (std::vector<int32_t>{50, 99}));
  a.UnionWith(b);
  EXPECT_EQ(a.Count(), 4);
}

TEST(BitmapTest, CountingOpsMatchMaterializedEquivalents) {
  Bitmap a(200), b(200);
  for (int i = 0; i < 200; i += 3) a.Set(i);
  for (int i = 0; i < 200; i += 5) b.Set(i);
  EXPECT_EQ(Bitmap::IntersectCount(a, b), Bitmap::Intersect(a, b).Count());
  EXPECT_EQ(Bitmap::AndNotCount(a, b),
            a.Count() - Bitmap::Intersect(a, b).Count());
  Bitmap fused;
  const int64_t c = fused.AssignIntersect(a, b);
  EXPECT_EQ(c, fused.Count());
  EXPECT_EQ(fused.ToRows(), Bitmap::Intersect(a, b).ToRows());
  // AssignIntersect must fully overwrite previous contents.
  Bitmap reused(200);
  reused.Set(1);
  EXPECT_EQ(reused.AssignIntersect(a, b), c);
  EXPECT_EQ(reused.ToRows(), fused.ToRows());
}

TEST(BitmapTest, EmptyBitmap) {
  Bitmap b(0);
  EXPECT_EQ(b.Count(), 0);
  EXPECT_TRUE(b.ToRows().empty());
}

// --------------------------------------------------------------- Literal

TEST(LiteralTest, AllOperatorsMatch) {
  EXPECT_TRUE((Literal{0, LiteralOp::kEq, 2}).Matches(2));
  EXPECT_FALSE((Literal{0, LiteralOp::kEq, 2}).Matches(1));
  EXPECT_TRUE((Literal{0, LiteralOp::kNe, 2}).Matches(1));
  EXPECT_TRUE((Literal{0, LiteralOp::kLt, 2}).Matches(1));
  EXPECT_FALSE((Literal{0, LiteralOp::kLt, 2}).Matches(2));
  EXPECT_TRUE((Literal{0, LiteralOp::kLe, 2}).Matches(2));
  EXPECT_TRUE((Literal{0, LiteralOp::kGe, 2}).Matches(2));
  EXPECT_FALSE((Literal{0, LiteralOp::kGt, 2}).Matches(2));
}

TEST(LiteralTest, AllowedMask) {
  EXPECT_EQ((Literal{0, LiteralOp::kEq, 1}).AllowedMask(3), 0b010u);
  EXPECT_EQ((Literal{0, LiteralOp::kNe, 1}).AllowedMask(3), 0b101u);
  EXPECT_EQ((Literal{0, LiteralOp::kLe, 1}).AllowedMask(4), 0b0011u);
  EXPECT_EQ((Literal{0, LiteralOp::kGt, 1}).AllowedMask(4), 0b1100u);
}

TEST(LiteralTest, ToStringUsesNames) {
  Schema schema = TestSchema();
  EXPECT_EQ((Literal{1, LiteralOp::kEq, 0}).ToString(schema), "sex = F");
  EXPECT_EQ((Literal{0, LiteralOp::kGe, 1}).ToString(schema), "age >= mid");
}

TEST(LiteralTest, CanonicalOrder) {
  Literal a{0, LiteralOp::kEq, 1};
  Literal b{0, LiteralOp::kEq, 2};
  Literal c{1, LiteralOp::kEq, 0};
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_TRUE(a == a);
}

// --------------------------------------------------------------- Predicate

TEST(PredicateTest, SortsAndDeduplicates) {
  Literal l1{1, LiteralOp::kEq, 0};
  Literal l2{0, LiteralOp::kEq, 2};
  Predicate p({l1, l2, l1});
  EXPECT_EQ(p.num_literals(), 2);
  EXPECT_EQ(p.literals()[0].attr, 0);
}

TEST(PredicateTest, MatchAndSupport) {
  Dataset data = TestData();
  Predicate p = Predicate::Of(Literal{1, LiteralOp::kEq, 0});  // sex = F
  EXPECT_EQ(p.MatchingRows(data), (std::vector<int32_t>{0, 2, 4}));
  EXPECT_DOUBLE_EQ(p.Support(data), 0.5);

  Predicate both = p.With(Literal{0, LiteralOp::kEq, 2});  // AND age = old
  EXPECT_EQ(both.MatchingRows(data), (std::vector<int32_t>{2}));
  Bitmap m = both.Match(data);
  EXPECT_EQ(m.Count(), 1);
  EXPECT_TRUE(m.Get(2));
}

TEST(PredicateTest, EmptyPredicateMatchesAll) {
  Dataset data = TestData();
  Predicate p;
  EXPECT_DOUBLE_EQ(p.Support(data), 1.0);
  EXPECT_EQ(p.ToString(data.schema()), "(true)");
}

TEST(PredicateTest, SatisfiabilityRule1) {
  Schema schema = TestSchema();
  // age = young AND age = old: contradiction.
  Predicate contra({Literal{0, LiteralOp::kEq, 0}, Literal{0, LiteralOp::kEq, 2}});
  EXPECT_FALSE(contra.IsSatisfiable(schema));
  // age >= mid AND age <= mid: satisfiable (exactly mid).
  Predicate tight({Literal{0, LiteralOp::kGe, 1}, Literal{0, LiteralOp::kLe, 1}});
  EXPECT_TRUE(tight.IsSatisfiable(schema));
  // job > high AND job < low: empty range.
  Predicate empty({Literal{2, LiteralOp::kGt, 2}, Literal{2, LiteralOp::kLt, 1}});
  EXPECT_FALSE(empty.IsSatisfiable(schema));
  // Literals on different attributes never contradict.
  Predicate mixed({Literal{0, LiteralOp::kEq, 0}, Literal{1, LiteralOp::kEq, 1}});
  EXPECT_TRUE(mixed.IsSatisfiable(schema));
}

TEST(PredicateTest, SubsetRelation) {
  Literal a{0, LiteralOp::kEq, 0};
  Literal b{1, LiteralOp::kEq, 1};
  Predicate small({a});
  Predicate big({a, b});
  EXPECT_TRUE(small.IsSubsetOf(big));
  EXPECT_FALSE(big.IsSubsetOf(small));
  EXPECT_TRUE(small.IsSubsetOf(small));
}

TEST(PredicateTest, ToStringFormat) {
  Schema schema = TestSchema();
  Predicate p({Literal{1, LiteralOp::kEq, 1}, Literal{0, LiteralOp::kEq, 0}});
  EXPECT_EQ(p.ToString(schema), "(age = young) AND (sex = M)");
}

// --------------------------------------------------------------- PostingIndex

TEST(PostingIndexTest, EqualityBitmapsMatchScan) {
  Dataset data = TestData();
  PostingIndex index = PostingIndex::Build(data);
  for (int attr = 0; attr < data.num_attributes(); ++attr) {
    const int32_t card = data.schema().attribute(attr).cardinality();
    for (int32_t v = 0; v < card; ++v) {
      Predicate p = Predicate::Of(Literal{attr, LiteralOp::kEq, v});
      EXPECT_EQ(index.EqualityBitmap(attr, v).ToRows(), p.MatchingRows(data));
    }
  }
}

TEST(PostingIndexTest, ArbitraryLiteralsAndPredicates) {
  Dataset data = TestData();
  PostingIndex index = PostingIndex::Build(data);
  const Literal mid_age{0, LiteralOp::kEq, 1};
  EXPECT_EQ(index.Match(Predicate::Of(mid_age)).ToRows(),
            Predicate::Of(mid_age).MatchingRows(data));
  Predicate conj({mid_age, Literal{1, LiteralOp::kEq, 1}});
  EXPECT_EQ(index.Match(conj).ToRows(), conj.MatchingRows(data));
}

// The lattice emits only equality literals; a range literal reaching the
// index is a caller bug. Predicate::Match still evaluates ranges by scan.
TEST(PostingIndexTest, RangeLiteralsAreRejected) {
  Dataset data = TestData();
  PostingIndex index = PostingIndex::Build(data);
  const Predicate at_least_mid = Predicate::Of(Literal{0, LiteralOp::kGe, 1});
  EXPECT_EQ(at_least_mid.Match(data).ToRows(),
            (std::vector<int32_t>{1, 2, 4, 5}));
  EXPECT_DEATH(index.Match(at_least_mid), "FUME_CHECK failed");
}

TEST(PostingIndexTest, EmptyPredicateMatchesEverything) {
  Dataset data = TestData();
  PostingIndex index = PostingIndex::Build(data);
  EXPECT_EQ(index.Match(Predicate()).Count(), data.num_rows());
}

}  // namespace
}  // namespace fume
