// The central property of the unlearning substrate (DESIGN.md §2/§6.1):
//
//   DeleteRows(Train(D), T)  ==  Train(D \ T)     (same config & seed)
//
// node-for-node, including every cached statistic. Swept over dataset
// shapes, deletion patterns, threshold modes and seeds with TEST_P.

#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <sstream>
#include <string>

#include "forest/forest.h"
#include "forest/serialize.h"
#include "util/rng.h"

namespace fume {
namespace {

Dataset RandomDataset(int64_t n, int p, int card, uint64_t seed,
                      double signal = 0.6) {
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
    for (int j = 0; j < p; ++j) row[static_cast<size_t>(j)] = rng.NextInt(0, card - 1);
    const double base = row[0] < card / 2 ? signal : 1.0 - signal;
    EXPECT_TRUE(data.AppendRow(row, rng.NextBernoulli(base) ? 1 : 0).ok());
  }
  return data;
}

std::string Serialize(const DareForest& forest) {
  std::ostringstream out;
  EXPECT_TRUE(SaveForest(forest, out).ok());
  return out.str();
}

// Exactness check: unlearned forest == scratch-retrained forest, byte for
// byte on the same store, and in predictions against a retrain on the
// reduced dataset.
void ExpectExactUnlearning(const Dataset& train,
                           const std::vector<RowId>& doomed,
                           const ForestConfig& config) {
  auto trained = DareForest::Train(train, config);
  ASSERT_TRUE(trained.ok()) << trained.status().ToString();
  DareForest unlearned = trained->Clone();
  ASSERT_TRUE(unlearned.DeleteRows(doomed).ok());
  ASSERT_TRUE(unlearned.ValidateStats());

  // Same-store retrain: every tree built on the surviving rows of a store
  // holding all of `train`, so leaf row ids keep their original values and
  // the serialized bytes — splits, cached statistics, leaf membership —
  // must match node for node. Clone() zeroes the unlearned side's
  // DeletionStats, which a fresh build does not have.
  std::vector<uint8_t> gone(static_cast<size_t>(train.num_rows()), 0);
  for (RowId r : doomed) gone[static_cast<size_t>(r)] = 1;
  std::vector<RowId> survivors;
  for (int64_t r = 0; r < train.num_rows(); ++r) {
    if (!gone[static_cast<size_t>(r)]) {
      survivors.push_back(static_cast<RowId>(r));
    }
  }
  std::shared_ptr<TrainingStore> store = TrainingStore::Make(train);
  std::vector<DareTree> trees;
  for (int t = 0; t < config.num_trees; ++t) {
    trees.push_back(DareTree::Build(store, survivors, t, config));
  }
  const DareForest same_store =
      DareForest::FromParts(std::move(store), config, std::move(trees));
  EXPECT_EQ(Serialize(unlearned.Clone()), Serialize(same_store));

  std::vector<int64_t> doomed64(doomed.begin(), doomed.end());
  const Dataset reduced = train.DropRows(doomed64);
  // Train on the reduced dataset renumbers row ids, so against it compare
  // predictions over the full original data and node counts.
  if (reduced.num_rows() > 0) {
    auto retrained = DareForest::Train(reduced, config);
    ASSERT_TRUE(retrained.ok());
    for (int64_t r = 0; r < train.num_rows(); ++r) {
      ASSERT_DOUBLE_EQ(unlearned.PredictProb(train, r),
                       retrained->PredictProb(train, r))
          << "prediction diverged at row " << r;
    }
    EXPECT_EQ(unlearned.num_nodes(), retrained->num_nodes());
    EXPECT_EQ(unlearned.num_training_rows(), retrained->num_training_rows());
  }
}

struct SweepCase {
  int64_t n;
  int p;
  int card;
  int num_delete;
  ThresholdMode mode;
  uint64_t seed;
};

std::string CaseName(const testing::TestParamInfo<SweepCase>& info) {
  const SweepCase& c = info.param;
  return std::string("n")
      .append(std::to_string(c.n))
      .append("_p")
      .append(std::to_string(c.p))
      .append("_d")
      .append(std::to_string(c.card))
      .append("_del")
      .append(std::to_string(c.num_delete))
      .append(c.mode == ThresholdMode::kExact ? "_exact" : "_sampled")
      .append("_s")
      .append(std::to_string(c.seed));
}

class UnlearnExactnessSweep : public testing::TestWithParam<SweepCase> {};

TEST_P(UnlearnExactnessSweep, DeleteEqualsRetrain) {
  const SweepCase& c = GetParam();
  Dataset train = RandomDataset(c.n, c.p, c.card, c.seed);
  ForestConfig config;
  config.num_trees = 3;
  config.max_depth = 8;
  config.random_depth = 2;
  config.num_candidate_attrs = std::max(2, c.p / 2);
  config.threshold_mode = c.mode;
  config.num_sampled_thresholds = 3;
  config.seed = c.seed * 31 + 7;

  Rng rng(c.seed + 1000);
  std::vector<RowId> all(static_cast<size_t>(c.n));
  std::iota(all.begin(), all.end(), 0);
  rng.Shuffle(&all);
  std::vector<RowId> doomed(all.begin(), all.begin() + c.num_delete);
  ExpectExactUnlearning(train, doomed, config);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, UnlearnExactnessSweep,
    testing::Values(
        SweepCase{60, 3, 3, 5, ThresholdMode::kExact, 1},
        SweepCase{60, 3, 3, 30, ThresholdMode::kExact, 2},
        SweepCase{200, 5, 4, 20, ThresholdMode::kExact, 3},
        SweepCase{200, 5, 4, 100, ThresholdMode::kExact, 4},
        SweepCase{200, 8, 2, 50, ThresholdMode::kExact, 5},
        SweepCase{400, 4, 6, 40, ThresholdMode::kExact, 6},
        SweepCase{400, 4, 6, 350, ThresholdMode::kExact, 7},
        SweepCase{120, 6, 5, 12, ThresholdMode::kSampled, 8},
        SweepCase{300, 7, 8, 60, ThresholdMode::kSampled, 9},
        SweepCase{500, 3, 10, 100, ThresholdMode::kSampled, 10}),
    CaseName);

class UnlearnSeedSweep : public testing::TestWithParam<int> {};

TEST_P(UnlearnSeedSweep, ManySeedsStayExact) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  Dataset train = RandomDataset(150, 5, 4, seed);
  ForestConfig config;
  config.num_trees = 2;
  config.max_depth = 10;
  config.random_depth = 3;
  config.seed = seed;
  Rng rng(seed + 5);
  std::vector<RowId> all(150);
  std::iota(all.begin(), all.end(), 0);
  rng.Shuffle(&all);
  std::vector<RowId> doomed(all.begin(), all.begin() + 25);
  ExpectExactUnlearning(train, doomed, config);
}

INSTANTIATE_TEST_SUITE_P(Seeds, UnlearnSeedSweep, testing::Range(0, 12));

TEST(UnlearnSequenceTest, SequentialDeletionsStayExact) {
  // Delete in several batches; after each batch the forest must equal the
  // scratch model on the surviving rows.
  Dataset train = RandomDataset(240, 5, 4, 99);
  ForestConfig config;
  config.num_trees = 3;
  config.max_depth = 7;
  config.random_depth = 2;
  config.seed = 17;
  auto forest = DareForest::Train(train, config);
  ASSERT_TRUE(forest.ok());

  std::vector<RowId> order(240);
  std::iota(order.begin(), order.end(), 0);
  Rng rng(1234);
  rng.Shuffle(&order);

  std::vector<int64_t> deleted_so_far;
  size_t cursor = 0;
  for (int batch_size : {1, 5, 20, 60}) {
    std::vector<RowId> batch(order.begin() + cursor,
                             order.begin() + cursor + batch_size);
    cursor += static_cast<size_t>(batch_size);
    ASSERT_TRUE(forest->DeleteRows(batch).ok());
    ASSERT_TRUE(forest->ValidateStats());
    deleted_so_far.insert(deleted_so_far.end(), batch.begin(), batch.end());

    auto retrained =
        DareForest::Train(train.DropRows(deleted_so_far), config);
    ASSERT_TRUE(retrained.ok());
    for (int64_t r = 0; r < train.num_rows(); ++r) {
      ASSERT_DOUBLE_EQ(forest->PredictProb(train, r),
                       retrained->PredictProb(train, r));
    }
  }
}

TEST(UnlearnOrderTest, DeletionOrderDoesNotMatter) {
  Dataset train = RandomDataset(150, 4, 4, 55);
  ForestConfig config;
  config.num_trees = 2;
  config.max_depth = 6;
  config.random_depth = 1;
  config.seed = 5;
  auto base = DareForest::Train(train, config);
  ASSERT_TRUE(base.ok());

  std::vector<RowId> doomed = {3, 17, 42, 99, 120, 7, 66};
  DareForest one_shot = base->Clone();
  ASSERT_TRUE(one_shot.DeleteRows(doomed).ok());

  DareForest one_by_one = base->Clone();
  for (RowId r : doomed) {
    ASSERT_TRUE(one_by_one.DeleteRows({r}).ok());
  }
  EXPECT_TRUE(one_shot.StructurallyEquals(one_by_one));

  DareForest reversed = base->Clone();
  for (auto it = doomed.rbegin(); it != doomed.rend(); ++it) {
    ASSERT_TRUE(reversed.DeleteRows({*it}).ok());
  }
  EXPECT_TRUE(one_shot.StructurallyEquals(reversed));
}

// ---------------------------------------------------------------- Addition

// Exact addition: Train(D) + AddData(E) == Train(D ++ E).
void ExpectExactAddition(const Dataset& base, const Dataset& extra,
                         const ForestConfig& config) {
  auto incremental = DareForest::Train(base, config);
  ASSERT_TRUE(incremental.ok());
  auto added = incremental->AddData(extra);
  ASSERT_TRUE(added.ok()) << added.status().ToString();
  ASSERT_EQ(added->size(), static_cast<size_t>(extra.num_rows()));
  ASSERT_TRUE(incremental->ValidateStats());

  // Build the concatenated dataset (base rows first, extra rows after — the
  // same ids AddData assigns).
  Dataset all(base.schema());
  std::vector<int32_t> codes(static_cast<size_t>(base.num_attributes()));
  for (const Dataset* part : {&base, &extra}) {
    for (int64_t r = 0; r < part->num_rows(); ++r) {
      for (int j = 0; j < part->num_attributes(); ++j) {
        codes[static_cast<size_t>(j)] = part->Code(r, j);
      }
      ASSERT_TRUE(all.AppendRow(codes, part->Label(r)).ok());
    }
  }
  auto scratch = DareForest::Train(all, config);
  ASSERT_TRUE(scratch.ok());
  EXPECT_TRUE(incremental->StructurallyEquals(*scratch));
}

class AdditionExactnessSweep : public testing::TestWithParam<int> {};

TEST_P(AdditionExactnessSweep, AddEqualsRetrain) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  Dataset base = RandomDataset(120, 5, 4, seed);
  Dataset extra = RandomDataset(1 + static_cast<int>(seed % 40), 5, 4,
                                seed + 100);
  ForestConfig config;
  config.num_trees = 3;
  config.max_depth = 7;
  config.random_depth = 2;
  config.seed = seed + 3;
  ExpectExactAddition(base, extra, config);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AdditionExactnessSweep, testing::Range(0, 8));

TEST(AdditionTest, AddThenDeleteRoundTrips) {
  Dataset base = RandomDataset(150, 4, 4, 21);
  Dataset extra = RandomDataset(30, 4, 4, 22);
  ForestConfig config;
  config.num_trees = 3;
  config.max_depth = 7;
  config.random_depth = 1;
  config.seed = 5;
  auto original = DareForest::Train(base, config);
  ASSERT_TRUE(original.ok());
  DareForest updated = original->Clone();
  auto new_ids = updated.AddData(extra);
  ASSERT_TRUE(new_ids.ok());
  ASSERT_TRUE(updated.DeleteRows(*new_ids).ok());
  // Back to the original model, exactly.
  EXPECT_TRUE(updated.StructurallyEquals(*original));
}

TEST(AdditionTest, LeafCanBecomeASplit) {
  // A pure-leaf forest must grow real structure once conflicting labels
  // arrive.
  Schema schema;
  ASSERT_TRUE(schema.AddCategorical("x", {"a", "b"}).ok());
  Dataset base(schema);
  ASSERT_TRUE(base.AppendRow({0}, 1).ok());
  ASSERT_TRUE(base.AppendRow({1}, 1).ok());
  ForestConfig config;
  config.num_trees = 1;
  config.max_depth = 3;
  config.random_depth = 0;
  config.num_candidate_attrs = 1;
  auto forest = DareForest::Train(base, config);
  ASSERT_TRUE(forest.ok());
  ASSERT_EQ(forest->num_nodes(), 1);  // pure -> single leaf

  Dataset extra(schema);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(extra.AppendRow({1}, 0).ok());
  ASSERT_TRUE(forest->AddData(extra).ok());
  EXPECT_GT(forest->num_nodes(), 1);  // x splits the labels now
  EXPECT_TRUE(forest->ValidateStats());
  EXPECT_EQ(forest->PredictProb(base, 0), 1.0);
}

TEST(AdditionTest, RejectsIncompatibleRows) {
  Dataset base = RandomDataset(50, 3, 3, 31);
  auto forest = DareForest::Train(base, ForestConfig{});
  ASSERT_TRUE(forest.ok());
  Dataset wrong_width = RandomDataset(5, 4, 3, 32);
  EXPECT_FALSE(forest->AddData(wrong_width).ok());
  Dataset wider_card = RandomDataset(5, 3, 6, 33);
  EXPECT_FALSE(forest->AddData(wider_card).ok());
}

TEST(AdditionTest, InterleavedAddDeleteStaysExact) {
  Dataset base = RandomDataset(100, 4, 3, 41);
  Dataset extra1 = RandomDataset(25, 4, 3, 42);
  Dataset extra2 = RandomDataset(15, 4, 3, 43);
  ForestConfig config;
  config.num_trees = 2;
  config.max_depth = 6;
  config.random_depth = 1;
  config.seed = 9;
  auto forest = DareForest::Train(base, config);
  ASSERT_TRUE(forest.ok());
  auto ids1 = forest->AddData(extra1);
  ASSERT_TRUE(ids1.ok());
  ASSERT_TRUE(forest->DeleteRows({0, 5, 10, (*ids1)[0], (*ids1)[10]}).ok());
  auto ids2 = forest->AddData(extra2);
  ASSERT_TRUE(ids2.ok());
  ASSERT_TRUE(forest->ValidateStats());
  EXPECT_EQ(forest->num_training_rows(), 100 + 25 + 15 - 5);
}

TEST(UnlearnEffortTest, RandomTopLevelsRarelyRetrain) {
  // The point of DaRE's random upper levels: deleting a small batch should
  // retrain far fewer rows than a scratch rebuild would touch.
  Dataset train = RandomDataset(2000, 6, 4, 77);
  ForestConfig config;
  config.num_trees = 5;
  config.max_depth = 8;
  config.random_depth = 3;
  config.seed = 3;
  auto forest = DareForest::Train(train, config);
  ASSERT_TRUE(forest.ok());
  ASSERT_TRUE(forest->DeleteRows({10, 500, 999, 1500}).ok());
  const DeletionStats& stats = forest->deletion_stats();
  // Scratch retraining would process ~2000 rows x 5 trees.
  EXPECT_LT(stats.rows_retrained, 2000 * 5 / 4);
}

}  // namespace
}  // namespace fume
