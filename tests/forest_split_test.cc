// Tests for src/forest/split_stats: Gini scoring, keyed candidate choices,
// histogram maintenance and the split-decision function.

#include <gtest/gtest.h>

#include <set>

#include "forest/split_stats.h"
#include "forest/training_store.h"

namespace fume {
namespace {

Dataset TinyDataset() {
  Schema schema;
  EXPECT_TRUE(schema.AddCategorical("x", {"0", "1", "2", "3"}).ok());
  EXPECT_TRUE(schema.AddCategorical("y", {"a", "b"}).ok());
  Dataset data(schema);
  // x <= 1 -> label 1, x >= 2 -> label 0; y is noise.
  EXPECT_TRUE(data.AppendRow({0, 0}, 1).ok());
  EXPECT_TRUE(data.AppendRow({1, 1}, 1).ok());
  EXPECT_TRUE(data.AppendRow({0, 1}, 1).ok());
  EXPECT_TRUE(data.AppendRow({2, 0}, 0).ok());
  EXPECT_TRUE(data.AppendRow({3, 1}, 0).ok());
  EXPECT_TRUE(data.AppendRow({2, 1}, 0).ok());
  return data;
}

TEST(GiniTest, PureSplitsScoreZero) {
  EXPECT_DOUBLE_EQ(WeightedGini(3, 3, 3, 0), 0.0);
  EXPECT_DOUBLE_EQ(WeightedGini(5, 0, 5, 5), 0.0);
}

TEST(GiniTest, WorstCaseIsHalf) {
  EXPECT_DOUBLE_EQ(WeightedGini(4, 2, 4, 2), 0.5);
}

TEST(GiniTest, EmptySidesAreHandled) {
  EXPECT_DOUBLE_EQ(WeightedGini(0, 0, 4, 2), 0.5);
  EXPECT_DOUBLE_EQ(WeightedGini(0, 0, 0, 0), 0.0);
}

TEST(GiniTest, BetterSplitScoresLower) {
  // (3,3 | 3,0) is pure; (3,2 | 3,1) is not.
  EXPECT_LT(WeightedGini(3, 3, 3, 0), WeightedGini(3, 2, 3, 1));
}

TEST(CandidateAttrsTest, DeterministicAndDistinct) {
  ForestConfig config;
  config.num_candidate_attrs = 3;
  config.random_depth = 0;
  auto a = ChooseCandidateAttrs(12345, 10, 2, config);
  auto b = ChooseCandidateAttrs(12345, 10, 2, config);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 3u);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  std::set<int> unique(a.begin(), a.end());
  EXPECT_EQ(unique.size(), a.size());
}

TEST(CandidateAttrsTest, DifferentKeysDiffer) {
  ForestConfig config;
  config.num_candidate_attrs = 3;
  bool any_different = false;
  auto base = ChooseCandidateAttrs(1, 20, 5, config);
  for (uint64_t key = 2; key < 12; ++key) {
    if (ChooseCandidateAttrs(key, 20, 5, config) != base) {
      any_different = true;
      break;
    }
  }
  EXPECT_TRUE(any_different);
}

TEST(CandidateAttrsTest, RandomDepthIncludesRandomAttr) {
  ForestConfig config;
  config.num_candidate_attrs = 2;
  config.random_depth = 3;
  // At depth < random_depth, the hash-chosen random attribute must be
  // tracked. Size is 2 or 3 depending on overlap; never less than 2.
  auto attrs = ChooseCandidateAttrs(777, 15, 1, config);
  EXPECT_GE(attrs.size(), 2u);
  EXPECT_LE(attrs.size(), 3u);
}

TEST(CandidateAttrsTest, DefaultIsSqrtP) {
  ForestConfig config;
  config.num_candidate_attrs = 0;
  config.random_depth = 0;
  EXPECT_EQ(ChooseCandidateAttrs(9, 16, 3, config).size(), 4u);
  EXPECT_EQ(ChooseCandidateAttrs(9, 10, 3, config).size(), 4u);  // ceil
}

TEST(CandidateThresholdsTest, ExactModeEnumeratesAll) {
  ForestConfig config;
  config.threshold_mode = ThresholdMode::kExact;
  auto t = CandidateThresholds(5, 0, 6, config);
  EXPECT_EQ(t, (std::vector<int32_t>{0, 1, 2, 3, 4}));
  EXPECT_TRUE(CandidateThresholds(5, 0, 1, config).empty());
}

TEST(CandidateThresholdsTest, SampledModeIsKeyedSubset) {
  ForestConfig config;
  config.threshold_mode = ThresholdMode::kSampled;
  config.num_sampled_thresholds = 3;
  auto a = CandidateThresholds(42, 1, 20, config);
  auto b = CandidateThresholds(42, 1, 20, config);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 3u);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  for (int32_t t : a) EXPECT_LT(t, 19);
  // Falls back to exhaustive when k' >= cardinality-1.
  auto all = CandidateThresholds(42, 1, 3, config);
  EXPECT_EQ(all.size(), 2u);
}

TEST(NodeStatsTest, ComputeAndRemoveAgree) {
  Dataset data = TinyDataset();
  auto store = TrainingStore::Make(data);
  std::vector<RowId> all = {0, 1, 2, 3, 4, 5};
  NodeStats full;
  full.ComputeFromRows(*store, all, {0, 1});
  EXPECT_EQ(full.count, 6);
  EXPECT_EQ(full.pos, 3);
  EXPECT_EQ(full.HistCount(0, 0), 2);  // x == 0 twice
  EXPECT_EQ(full.HistPos(0, 0), 2);

  // The kernel's step removes rows 5, 0, 3, 2 and partitions them on
  // x <= 1: the statistics must equal a recompute on the survivors {1, 4},
  // and each side keeps the batch order.
  NodeStats removed = full;
  std::vector<RowId> doomed = {5, 0, 3, 2};
  std::vector<RowId> spill;
  RowId* mid = removed.RemoveRowsAndPartition(
      *store, doomed.data(), doomed.data() + doomed.size(), /*attr=*/0,
      /*threshold=*/1, &spill);
  EXPECT_EQ(mid, doomed.data() + 2);
  EXPECT_EQ(doomed, (std::vector<RowId>{0, 2, 5, 3}));
  NodeStats expect;
  expect.ComputeFromRows(*store, {1, 4}, {0, 1});
  EXPECT_TRUE(removed.Equals(expect));
}

TEST(NodeStatsTest, CandIndex) {
  NodeStats stats;
  stats.cand_attrs = {1, 4, 9};
  EXPECT_EQ(stats.CandIndex(4), 1);
  EXPECT_EQ(stats.CandIndex(2), -1);
  EXPECT_EQ(stats.CandIndex(9), 2);
}

TEST(DecideSplitTest, FindsThePerfectSplit) {
  Dataset data = TinyDataset();
  auto store = TrainingStore::Make(data);
  ForestConfig config;
  config.random_depth = 0;  // greedy everywhere
  config.num_candidate_attrs = 2;  // both attrs
  NodeStats stats;
  stats.ComputeFromRows(*store, {0, 1, 2, 3, 4, 5},
                        ChooseCandidateAttrs(100, 2, 1, config));
  SplitDecision d = DecideSplit(stats, *store, 1, 100, config);
  ASSERT_FALSE(d.is_leaf);
  EXPECT_EQ(d.attr, 0);
  EXPECT_EQ(d.threshold, 1);  // x <= 1 separates perfectly
  EXPECT_FALSE(d.is_random);
}

TEST(DecideSplitTest, LeafConditions) {
  Dataset data = TinyDataset();
  auto store = TrainingStore::Make(data);
  ForestConfig config;
  config.random_depth = 0;
  config.num_candidate_attrs = 2;
  NodeStats stats;
  stats.ComputeFromRows(*store, {0, 1, 2}, {0, 1});  // pure positive
  EXPECT_TRUE(DecideSplit(stats, *store, 1, 100, config).is_leaf);

  NodeStats all;
  all.ComputeFromRows(*store, {0, 1, 2, 3, 4, 5}, {0, 1});
  // Depth at max -> leaf.
  EXPECT_TRUE(DecideSplit(all, *store, config.max_depth, 100, config).is_leaf);
  // min_samples_split.
  ForestConfig strict = config;
  strict.min_samples_split = 10;
  EXPECT_TRUE(DecideSplit(all, *store, 1, 100, strict).is_leaf);
}

TEST(DecideSplitTest, RandomNodeIsKeyedAndMarked) {
  Dataset data = TinyDataset();
  auto store = TrainingStore::Make(data);
  ForestConfig config;
  config.random_depth = 2;
  config.num_candidate_attrs = 2;
  NodeStats stats;
  stats.ComputeFromRows(*store, {0, 1, 2, 3, 4, 5},
                        ChooseCandidateAttrs(55, 2, 0, config));
  SplitDecision a = DecideSplit(stats, *store, 0, 55, config);
  SplitDecision b = DecideSplit(stats, *store, 0, 55, config);
  EXPECT_TRUE(a.SameSplit(b));
  if (!a.is_leaf && a.is_random) {
    EXPECT_GE(a.attr, 0);
    EXPECT_LT(a.attr, 2);
  }
}

TEST(DecideSplitTest, NoValidCandidateBecomesLeaf) {
  // Constant attributes -> no split can separate anything.
  Schema schema;
  ASSERT_TRUE(schema.AddCategorical("k", {"only"}).ok());
  Dataset data(schema);
  ASSERT_TRUE(data.AppendRow({0}, 0).ok());
  ASSERT_TRUE(data.AppendRow({0}, 1).ok());
  ASSERT_TRUE(data.AppendRow({0}, 1).ok());
  auto store = TrainingStore::Make(data);
  ForestConfig config;
  config.random_depth = 0;
  config.num_candidate_attrs = 1;
  NodeStats stats;
  stats.ComputeFromRows(*store, {0, 1, 2}, {0});
  EXPECT_TRUE(DecideSplit(stats, *store, 1, 3, config).is_leaf);
}

TEST(PathKeyTest, ChildrenAndRootsDiffer) {
  const uint64_t root = RootPathKey(1, 0);
  EXPECT_NE(root, RootPathKey(1, 1));
  EXPECT_NE(root, RootPathKey(2, 0));
  EXPECT_NE(ChildPathKey(root, 0), ChildPathKey(root, 1));
  EXPECT_NE(ChildPathKey(root, 0), root);
}

}  // namespace
}  // namespace fume
