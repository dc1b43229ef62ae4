// Tests for the HedgeCut-style ERT forest: exact unlearning (prediction
// equality AND active-structure equality against scratch builds), variant
// swap behaviour, and FUME integration.

#include <gtest/gtest.h>

#include <numeric>

#include "core/fume.h"
#include "hedgecut/hedgecut.h"
#include "synth/datasets.h"
#include "util/rng.h"

namespace fume {
namespace {

Dataset RandomDataset(int64_t n, int p, int card, uint64_t seed) {
  Schema schema;
  for (int j = 0; j < p; ++j) {
    std::vector<std::string> cats;
    for (int v = 0; v < card; ++v) {
      cats.push_back(std::string("v").append(std::to_string(v)));
    }
    EXPECT_TRUE(
        schema.AddCategorical(std::string("x").append(std::to_string(j)), cats)
            .ok());
  }
  Dataset data(schema);
  Rng rng(seed);
  for (int64_t i = 0; i < n; ++i) {
    std::vector<int32_t> row(static_cast<size_t>(p));
    for (int j = 0; j < p; ++j) {
      row[static_cast<size_t>(j)] = rng.NextInt(0, card - 1);
    }
    const double base = row[0] < card / 2 ? 0.7 : 0.3;
    EXPECT_TRUE(data.AppendRow(row, rng.NextBernoulli(base) ? 1 : 0).ok());
  }
  return data;
}

HedgecutConfig TestConfig(uint64_t seed = 11) {
  HedgecutConfig config;
  config.num_trees = 3;
  config.max_depth = 7;
  config.num_candidates = 6;
  config.robustness_margin = 0.01;
  config.seed = seed;
  return config;
}

TEST(HedgecutTest, TrainValidatesInput) {
  Dataset data = RandomDataset(50, 3, 3, 1);
  HedgecutConfig config = TestConfig();
  config.num_trees = 0;
  EXPECT_FALSE(HedgecutForest::Train(data, config).ok());
  config = TestConfig();
  config.robustness_margin = -1.0;
  EXPECT_FALSE(HedgecutForest::Train(data, config).ok());
}

TEST(HedgecutTest, TrainingIsDeterministicAndLearns) {
  Dataset train = RandomDataset(600, 5, 4, 2);
  Dataset test = RandomDataset(300, 5, 4, 3);
  auto a = HedgecutForest::Train(train, TestConfig());
  auto b = HedgecutForest::Train(train, TestConfig());
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_TRUE(a->ActiveStructureEquals(*b));
  EXPECT_GT(a->Accuracy(test), 0.6);
}

TEST(HedgecutTest, VariantsExistForNonRobustSplits) {
  Dataset train = RandomDataset(600, 5, 4, 4);
  HedgecutConfig loose = TestConfig();
  loose.robustness_margin = 0.5;  // almost everything non-robust
  HedgecutConfig tight = TestConfig();
  tight.robustness_margin = 0.0;  // nothing non-robust
  auto with_variants = HedgecutForest::Train(train, loose);
  auto without = HedgecutForest::Train(train, tight);
  ASSERT_TRUE(with_variants.ok() && without.ok());
  EXPECT_GT(with_variants->num_variant_nodes(), 0);
  EXPECT_EQ(without->num_variant_nodes(), 0);
  // The served model is the same either way: variants are a cache.
  Dataset probe = RandomDataset(100, 5, 4, 5);
  for (int64_t r = 0; r < probe.num_rows(); ++r) {
    EXPECT_DOUBLE_EQ(with_variants->PredictProb(probe, r),
                     without->PredictProb(probe, r));
  }
}

// The exactness property, with structural comparison made possible by
// building the scratch tree on the SAME store with the reduced row list.
class HedgecutExactnessSweep : public testing::TestWithParam<int> {};

TEST_P(HedgecutExactnessSweep, DeleteEqualsScratchBuild) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  Dataset train = RandomDataset(250, 5, 4, seed);
  HedgecutConfig config = TestConfig(seed * 13 + 5);
  // Mix robust and non-robust regimes across the sweep.
  config.robustness_margin = (seed % 3) * 0.05;

  auto store = TrainingStore::Make(train);
  std::vector<RowId> all(static_cast<size_t>(train.num_rows()));
  std::iota(all.begin(), all.end(), 0);

  Rng rng(seed + 99);
  std::vector<RowId> shuffled = all;
  rng.Shuffle(&shuffled);
  std::vector<RowId> doomed(shuffled.begin(),
                            shuffled.begin() + 30 + static_cast<int>(seed % 50));
  std::vector<RowId> remaining;
  {
    std::vector<uint8_t> dead(static_cast<size_t>(train.num_rows()), 0);
    for (RowId r : doomed) dead[static_cast<size_t>(r)] = 1;
    for (RowId r : all) {
      if (!dead[static_cast<size_t>(r)]) remaining.push_back(r);
    }
  }

  for (int tree_id = 0; tree_id < 2; ++tree_id) {
    HedgecutTree unlearned = HedgecutTree::Build(store, all, tree_id, config);
    HedgecutDeletionStats stats;
    unlearned.DeleteRows(doomed, &stats);
    HedgecutTree scratch =
        HedgecutTree::Build(store, remaining, tree_id, config);
    EXPECT_TRUE(unlearned.ActiveStructureEquals(scratch))
        << "tree " << tree_id << " seed " << seed;
    for (int64_t r = 0; r < train.num_rows(); ++r) {
      ASSERT_DOUBLE_EQ(unlearned.PredictProb(train, r),
                       scratch.PredictProb(train, r));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HedgecutExactnessSweep, testing::Range(0, 10));

TEST(HedgecutTest, VariantSwapsActuallyHappen) {
  // With a generous margin most nodes carry variants; enough random
  // deletions flip some winners, which must be served by swaps.
  Dataset train = RandomDataset(800, 4, 3, 77);
  HedgecutConfig config = TestConfig(3);
  config.num_trees = 5;
  config.robustness_margin = 0.05;
  auto forest = HedgecutForest::Train(train, config);
  ASSERT_TRUE(forest.ok());
  int64_t swaps = 0;
  Rng rng(4);
  std::vector<RowId> order(800);
  std::iota(order.begin(), order.end(), 0);
  rng.Shuffle(&order);
  for (int batch = 0; batch < 12; ++batch) {
    std::vector<RowId> rows(order.begin() + batch * 50,
                            order.begin() + (batch + 1) * 50);
    ASSERT_TRUE(forest->DeleteRows(rows).ok());
  }
  swaps = forest->deletion_stats().variant_swaps;
  EXPECT_GT(swaps, 0) << "no winner flip was served by a variant";
}

TEST(HedgecutTest, DeleteValidation) {
  Dataset train = RandomDataset(100, 3, 3, 8);
  auto forest = HedgecutForest::Train(train, TestConfig());
  ASSERT_TRUE(forest.ok());
  EXPECT_TRUE(forest->DeleteRows({5, 5}).IsInvalid());
  EXPECT_TRUE(forest->DeleteRows({1000}).IsIndexError());
  EXPECT_TRUE(forest->DeleteRows({}).ok());
}

TEST(HedgecutTest, CloneIsIndependent) {
  Dataset train = RandomDataset(300, 4, 4, 9);
  auto forest = HedgecutForest::Train(train, TestConfig());
  ASSERT_TRUE(forest.ok());
  HedgecutForest clone = forest->Clone();
  ASSERT_TRUE(clone.DeleteRows({0, 1, 2}).ok());
  EXPECT_FALSE(clone.ActiveStructureEquals(*forest));
  EXPECT_TRUE(forest->ActiveStructureEquals(*forest));
}

TEST(HedgecutTest, FumeExplainsAHedgecutViolation) {
  synth::PlantedOptions opts;
  opts.num_rows = 1500;
  opts.seed = 1;
  auto bundle = synth::MakePlantedBias(opts);
  ASSERT_TRUE(bundle.ok());
  std::vector<int64_t> train_rows, test_rows;
  for (int64_t r = 0; r < bundle->data.num_rows(); ++r) {
    (r % 10 < 7 ? train_rows : test_rows).push_back(r);
  }
  const Dataset train = bundle->data.Select(train_rows);
  const Dataset test = bundle->data.Select(test_rows);

  HedgecutConfig model_config = TestConfig(21);
  model_config.num_trees = 20;
  auto model = HedgecutForest::Train(train, model_config);
  ASSERT_TRUE(model.ok());

  FumeConfig config;
  config.top_k = 5;
  config.support_min = 0.02;
  config.support_max = 0.25;
  config.group = bundle->group;
  config.lattice.excluded_attrs = {bundle->group.sensitive_attr};
  const ModelEval original =
      EvaluateHedgecut(*model, test, config.group, config.metric);
  if (std::abs(original.fairness) < 0.01) {
    GTEST_SKIP() << "model happens to be fair on this draw";
  }
  HedgecutUnlearnRemovalMethod removal(&*model, &test, config.group,
                                       config.metric);
  auto result = ExplainWithRemoval(original, train, config, &removal);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  for (const auto& s : result->top_k) EXPECT_GT(s.attribution, 0.0);
}

}  // namespace
}  // namespace fume
