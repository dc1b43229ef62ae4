// Tests for DareTree / DareForest construction, prediction, cloning and
// cached-statistic consistency.

#include <gtest/gtest.h>

#include "data/split.h"
#include "forest/forest.h"
#include "synth/datasets.h"
#include "util/rng.h"

namespace fume {
namespace {

Dataset MakeLearnable(int64_t n, uint64_t seed) {
  // Label = (x0 <= 1) XOR-ish with noise; x1..x3 weakly informative.
  Schema schema;
  EXPECT_TRUE(schema.AddCategorical("x0", {"a", "b", "c", "d"}).ok());
  EXPECT_TRUE(schema.AddCategorical("x1", {"p", "q", "r"}).ok());
  EXPECT_TRUE(schema.AddCategorical("x2", {"u", "v"}).ok());
  EXPECT_TRUE(schema.AddCategorical("x3", {"m", "n", "o"}).ok());
  Dataset data(schema);
  Rng rng(seed);
  for (int64_t i = 0; i < n; ++i) {
    std::vector<int32_t> row = {
        rng.NextInt(0, 3), rng.NextInt(0, 2), rng.NextInt(0, 1),
        rng.NextInt(0, 2)};
    double p = row[0] <= 1 ? 0.85 : 0.2;
    if (row[2] == 1) p += 0.05;
    int label = rng.NextBernoulli(p) ? 1 : 0;
    EXPECT_TRUE(data.AppendRow(row, label).ok());
  }
  return data;
}

ForestConfig SmallConfig() {
  ForestConfig config;
  config.num_trees = 5;
  config.max_depth = 6;
  config.random_depth = 1;
  config.num_candidate_attrs = 2;
  config.seed = 11;
  return config;
}

TEST(DareForestTest, TrainRejectsBadInput) {
  Dataset data = MakeLearnable(50, 1);
  ForestConfig config = SmallConfig();
  config.num_trees = 0;
  EXPECT_FALSE(DareForest::Train(data, config).ok());
  config = SmallConfig();
  config.random_depth = 99;
  EXPECT_FALSE(DareForest::Train(data, config).ok());
  Schema with_numeric;
  ASSERT_TRUE(with_numeric.AddNumeric("n").ok());
  Dataset numeric(with_numeric);
  ASSERT_TRUE(numeric.AppendRowMixed({0}, {1.0}, 0).ok());
  EXPECT_FALSE(DareForest::Train(numeric, SmallConfig()).ok());
}

// Regression: every split draw is a keyed hash modulo the attribute count,
// so a dataset without attributes used to die with SIGFPE in the
// candidate-attribute draw instead of failing cleanly.
TEST(DareForestTest, TrainRejectsDatasetWithNoAttributes) {
  Dataset empty_schema{Schema()};
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(empty_schema.AppendRow({}, i % 2).ok());
  }
  ASSERT_EQ(empty_schema.num_rows(), 10);
  const Result<DareForest> forest =
      DareForest::Train(empty_schema, SmallConfig());
  EXPECT_TRUE(forest.status().IsInvalid()) << forest.status().ToString();
}

TEST(DareForestTest, TrainingIsDeterministic) {
  Dataset data = MakeLearnable(300, 2);
  auto a = DareForest::Train(data, SmallConfig());
  auto b = DareForest::Train(data, SmallConfig());
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_TRUE(a->StructurallyEquals(*b));
}

TEST(DareForestTest, DifferentSeedsDifferentForests) {
  Dataset data = MakeLearnable(300, 2);
  ForestConfig other = SmallConfig();
  other.seed = 999;
  auto a = DareForest::Train(data, SmallConfig());
  auto b = DareForest::Train(data, other);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_FALSE(a->StructurallyEquals(*b));
}

TEST(DareForestTest, LearnsTheSignal) {
  Dataset train = MakeLearnable(800, 3);
  Dataset test = MakeLearnable(300, 4);
  auto forest = DareForest::Train(train, SmallConfig());
  ASSERT_TRUE(forest.ok());
  EXPECT_GT(forest->Accuracy(test), 0.75);
}

TEST(DareForestTest, CachedStatsValidate) {
  Dataset data = MakeLearnable(400, 5);
  auto forest = DareForest::Train(data, SmallConfig());
  ASSERT_TRUE(forest.ok());
  EXPECT_TRUE(forest->ValidateStats());
}

TEST(DareForestTest, LeafListsPartitionTrainingSet) {
  Dataset data = MakeLearnable(200, 6);
  auto forest = DareForest::Train(data, SmallConfig());
  ASSERT_TRUE(forest.ok());
  EXPECT_EQ(forest->num_training_rows(), 200);
  for (int t = 0; t < forest->num_trees(); ++t) {
    EXPECT_EQ(forest->tree(t).num_training_rows(), 200);
  }
}

TEST(DareForestTest, PredictProbInUnitInterval) {
  Dataset train = MakeLearnable(300, 7);
  auto forest = DareForest::Train(train, SmallConfig());
  ASSERT_TRUE(forest.ok());
  auto probs = forest->PredictProbAll(train);
  for (double p : probs) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

TEST(DareForestTest, CloneIsStructurallyIdenticalButIndependent) {
  Dataset train = MakeLearnable(300, 8);
  auto forest = DareForest::Train(train, SmallConfig());
  ASSERT_TRUE(forest.ok());
  DareForest clone = forest->Clone();
  EXPECT_TRUE(clone.StructurallyEquals(*forest));
  ASSERT_TRUE(clone.DeleteRows({0, 1, 2, 3, 4}).ok());
  EXPECT_FALSE(clone.StructurallyEquals(*forest));
  EXPECT_EQ(forest->num_training_rows(), 300);
  EXPECT_EQ(clone.num_training_rows(), 295);
}

TEST(DareForestTest, DeleteRejectsBadIds) {
  Dataset train = MakeLearnable(100, 9);
  auto forest = DareForest::Train(train, SmallConfig());
  ASSERT_TRUE(forest.ok());
  EXPECT_TRUE(forest->DeleteRows({5, 5}).IsInvalid());
  EXPECT_TRUE(forest->DeleteRows({1000}).IsIndexError());
  EXPECT_TRUE(forest->DeleteRows({-1}).IsIndexError());
  EXPECT_TRUE(forest->DeleteRows({}).ok());
}

TEST(DareForestTest, MaxDepthIsRespected) {
  Dataset train = MakeLearnable(500, 10);
  ForestConfig config = SmallConfig();
  config.max_depth = 3;
  auto forest = DareForest::Train(train, config);
  ASSERT_TRUE(forest.ok());
  for (int t = 0; t < forest->num_trees(); ++t) {
    EXPECT_LE(forest->tree(t).depth(), 3);
  }
}

TEST(DareForestTest, SingleRowTrainsToALeaf) {
  Dataset data = MakeLearnable(1, 11);
  auto forest = DareForest::Train(data, SmallConfig());
  ASSERT_TRUE(forest.ok());
  EXPECT_EQ(forest->num_nodes(), forest->num_trees());
  const double p = forest->PredictProb(data, 0);
  EXPECT_EQ(p, data.Label(0) == 1 ? 1.0 : 0.0);
}

TEST(DareForestTest, DeleteAllRowsYieldsEmptyModel) {
  Dataset data = MakeLearnable(40, 12);
  auto forest = DareForest::Train(data, SmallConfig());
  ASSERT_TRUE(forest.ok());
  std::vector<RowId> all(40);
  for (int i = 0; i < 40; ++i) all[static_cast<size_t>(i)] = i;
  ASSERT_TRUE(forest->DeleteRows(all).ok());
  EXPECT_EQ(forest->num_training_rows(), 0);
  EXPECT_DOUBLE_EQ(forest->PredictProb(data, 0), 0.5);
  EXPECT_TRUE(forest->ValidateStats());
}

TEST(DareForestTest, DeletionStatsAreAccumulated) {
  Dataset data = MakeLearnable(300, 13);
  auto forest = DareForest::Train(data, SmallConfig());
  ASSERT_TRUE(forest.ok());
  EXPECT_EQ(forest->deletion_stats().nodes_visited, 0);
  ASSERT_TRUE(forest->DeleteRows({1, 2, 3}).ok());
  EXPECT_GT(forest->deletion_stats().nodes_visited, 0);
  EXPECT_GT(forest->deletion_stats().leaves_updated +
                forest->deletion_stats().subtrees_retrained,
            0);
}

TEST(DareForestTest, SampledThresholdModeWorks) {
  Dataset train = MakeLearnable(500, 14);
  Dataset test = MakeLearnable(200, 15);
  ForestConfig config = SmallConfig();
  config.threshold_mode = ThresholdMode::kSampled;
  config.num_sampled_thresholds = 2;
  auto forest = DareForest::Train(train, config);
  ASSERT_TRUE(forest.ok());
  EXPECT_GT(forest->Accuracy(test), 0.7);
  EXPECT_TRUE(forest->ValidateStats());
}

}  // namespace
}  // namespace fume
