// Exactness of the unlearning kernel against the two oracles that remain
// now that it is the only tree implementation:
//  * Retraining. DaRE unlearning is exact, so after every batch the forest
//    must serialize byte-for-byte like DareTree::Build on the same store's
//    surviving rows (DESIGN.md §6 invariant 1), work counters aside.
//  * Pinned bytes. FNV-1a-64 digests of SaveForest output, cumulative
//    DeletionStats block included, recorded from the per-row deletion
//    recursion the kernel replaced. They keep that implementation's model
//    bytes and work counters as a fixed reference, and pin Train too.

#include <gtest/gtest.h>

#include <iterator>
#include <memory>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "forest/deletion_scratch.h"
#include "forest/forest.h"
#include "forest/serialize.h"
#include "synth/datasets.h"
#include "util/rng.h"

namespace fume {
namespace {

ForestConfig KernelForestConfig(uint64_t seed) {
  ForestConfig config;
  config.num_trees = 6;
  config.max_depth = 7;
  config.random_depth = 2;
  config.seed = seed;
  return config;
}

std::string Serialize(const DareForest& forest) {
  std::ostringstream out;
  EXPECT_TRUE(SaveForest(forest, out).ok());
  return out.str();
}

uint64_t Fnv1a64(const std::string& bytes) {
  uint64_t h = 14695981039346656037ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

// Model bytes without the work counters: a Clone() starts its
// DeletionStats at zero, like a freshly built forest.
std::string ModelBytes(const DareForest& forest) {
  return Serialize(forest.Clone());
}

// The forest Train would build on the rows `live` of `train`, over a store
// holding every row of `train` — the same store an unlearned forest keeps,
// so leaf row ids line up and the bytes are directly comparable.
DareForest RetrainOnSurvivors(const Dataset& train,
                              const std::vector<RowId>& live,
                              const ForestConfig& config) {
  std::shared_ptr<TrainingStore> store = TrainingStore::Make(train);
  std::vector<DareTree> trees;
  for (int t = 0; t < config.num_trees; ++t) {
    trees.push_back(DareTree::Build(store, live, t, config));
  }
  return DareForest::FromParts(std::move(store), config, std::move(trees));
}

std::vector<RowId> Survivors(const std::vector<uint8_t>& deleted) {
  std::vector<RowId> live;
  for (size_t r = 0; r < deleted.size(); ++r) {
    if (!deleted[r]) live.push_back(static_cast<RowId>(r));
  }
  return live;
}

// Draws `k` distinct row ids from [0, n) (partial Fisher-Yates).
std::vector<RowId> DrawRows(Rng* rng, int64_t n, int64_t k) {
  std::vector<RowId> ids(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) ids[static_cast<size_t>(i)] =
      static_cast<RowId>(i);
  for (int64_t i = 0; i < k; ++i) {
    const int64_t j = rng->NextInt(static_cast<int32_t>(i),
                                   static_cast<int32_t>(n - 1));
    std::swap(ids[static_cast<size_t>(i)], ids[static_cast<size_t>(j)]);
  }
  ids.resize(static_cast<size_t>(k));
  return ids;
}

constexpr int64_t kBatchSizes[] = {1, 7, 40, 150};

struct KernelIdentityCase {
  const char* dataset;  // "german" or "planted"
  uint64_t seed;
  // Digests after Train, then after each batch of kBatchSizes.
  uint64_t pins[5];
};

void PrintTo(const KernelIdentityCase& c, std::ostream* os) {
  *os << c.dataset << " seed " << c.seed;
}

std::string CaseName(const testing::TestParamInfo<KernelIdentityCase>& info) {
  return std::string(info.param.dataset) + "_s" +
         std::to_string(info.param.seed);
}

class KernelIdentityTest : public testing::TestWithParam<KernelIdentityCase> {
};

Dataset MakeData(const KernelIdentityCase& c) {
  if (std::string(c.dataset) == "german") {
    synth::SynthOptions opts;
    opts.num_rows = 600;
    opts.seed = c.seed;
    auto bundle = synth::MakeGermanCredit(opts);
    EXPECT_TRUE(bundle.ok());
    return bundle->data;
  }
  synth::PlantedOptions opts;
  opts.num_rows = 1200;
  opts.seed = c.seed;
  auto bundle = synth::MakePlantedBias(opts);
  EXPECT_TRUE(bundle.ok());
  return bundle->data;
}

// Random deletion batches through one warm caller-owned scratch (the
// steady-state allocation-free path). After Train and after every batch the
// forest must hit its pin and equal a retrain on the surviving rows.
TEST_P(KernelIdentityTest, BatchedKernelMatchesPerRowBaselineByteForByte) {
  const KernelIdentityCase c = GetParam();
  const Dataset data = MakeData(c);
  const ForestConfig config = KernelForestConfig(c.seed + 11);

  auto forest = DareForest::Train(data, config);
  ASSERT_TRUE(forest.ok());
  EXPECT_EQ(Fnv1a64(Serialize(*forest)), c.pins[0]) << "after Train";

  Rng rng(c.seed * 97 + 3);
  DeletionScratch scratch;
  int64_t live = data.num_rows();
  std::vector<uint8_t> deleted(static_cast<size_t>(data.num_rows()), 0);
  for (size_t step = 0; step < std::size(kBatchSizes); ++step) {
    const int64_t want = kBatchSizes[step];
    // Draw `want` rows not yet deleted.
    std::vector<RowId> batch;
    while (static_cast<int64_t>(batch.size()) < want && live > 0) {
      const RowId r = static_cast<RowId>(
          rng.NextInt(0, static_cast<int32_t>(data.num_rows() - 1)));
      if (deleted[static_cast<size_t>(r)]) continue;
      deleted[static_cast<size_t>(r)] = 1;
      batch.push_back(r);
      --live;
    }
    ASSERT_FALSE(batch.empty());

    ASSERT_TRUE(forest->DeleteRows(batch, nullptr, &scratch).ok());
    EXPECT_EQ(Fnv1a64(Serialize(*forest)), c.pins[step + 1])
        << "after a batch of " << batch.size();
    const DareForest retrained =
        RetrainOnSurvivors(data, Survivors(deleted), config);
    ASSERT_EQ(ModelBytes(*forest), Serialize(retrained))
        << "unlearned forest diverged from the retrain after a batch of "
        << batch.size();
  }
  EXPECT_TRUE(forest->ValidateStats());
}

INSTANTIATE_TEST_SUITE_P(
    DatasetsAndSeeds, KernelIdentityTest,
    testing::Values(
        KernelIdentityCase{"german",
                           5,
                           {0xe0fd01e09181e8e3ull, 0x748a744ed52403c7ull,
                            0x8f002e9228df6030ull, 0x6ee72628a042e7f9ull,
                            0x17f56112849e439aull}},
        KernelIdentityCase{"german",
                           91,
                           {0x294a590d5aa120ddull, 0x1695fda3cb7876eeull,
                            0x84d9cd46560d66d6ull, 0xe6661233b4fa9ef6ull,
                            0x248b5272dc034238ull}},
        KernelIdentityCase{"planted",
                           5,
                           {0x5d89978a8741248full, 0xcee648715146983eull,
                            0xa5d998cf5ebba5a6ull, 0x1820cbfcc3787baaull,
                            0xf73102e81761fa15ull}},
        KernelIdentityCase{"planted",
                           91,
                           {0x801078a12adaa39eull, 0x0dfc67a30a2b259eull,
                            0x790459ba442e0e7cull, 0x77cb9e2435da0d58ull,
                            0x510a6fd7a4fe3c5full}}),
    CaseName);

// AddData (batched NodeStats::AddRows + stable span partitioning) and a
// delete-back of added rows: pinned bytes and retrain identity at each step.
TEST(UnlearnKernelTest, AddDataMatchesBaselineByteForByte) {
  synth::PlantedOptions opts;
  opts.num_rows = 1400;
  opts.seed = 13;
  auto bundle = synth::MakePlantedBias(opts);
  ASSERT_TRUE(bundle.ok());
  std::vector<int64_t> base_rows, extra_rows;
  for (int64_t r = 0; r < bundle->data.num_rows(); ++r) {
    (r < 1000 ? base_rows : extra_rows).push_back(r);
  }
  const Dataset base = bundle->data.Select(base_rows);
  const Dataset extra = bundle->data.Select(extra_rows);
  const ForestConfig config = KernelForestConfig(31);

  auto forest = DareForest::Train(base, config);
  ASSERT_TRUE(forest.ok());
  EXPECT_EQ(Fnv1a64(Serialize(*forest)), 0xdd85e12e85c68cc2ull)
      << "after Train";

  DeletionScratch scratch;
  auto ids = forest->AddData(extra, nullptr, &scratch);
  ASSERT_TRUE(ids.ok());
  // New rows take the next store ids, so the store now holds the whole
  // bundle in order.
  ASSERT_EQ(ids->size(), extra_rows.size());
  for (size_t i = 0; i < ids->size(); ++i) {
    ASSERT_EQ((*ids)[i], static_cast<RowId>(1000 + i));
  }
  EXPECT_EQ(Fnv1a64(Serialize(*forest)), 0xf1d929274d8ae310ull)
      << "after AddData";
  std::vector<uint8_t> deleted(static_cast<size_t>(bundle->data.num_rows()),
                               0);
  EXPECT_EQ(ModelBytes(*forest),
            Serialize(RetrainOnSurvivors(bundle->data, Survivors(deleted),
                                         config)));
  EXPECT_TRUE(forest->ValidateStats());

  // Delete some of the added rows again, with the same scratch.
  std::vector<RowId> doomed(ids->begin(), ids->begin() + 120);
  ASSERT_TRUE(forest->DeleteRows(doomed, nullptr, &scratch).ok());
  EXPECT_EQ(Fnv1a64(Serialize(*forest)), 0xe0c482260c42324eull)
      << "after the delete-back";
  for (RowId r : doomed) deleted[static_cast<size_t>(r)] = 1;
  EXPECT_EQ(ModelBytes(*forest),
            Serialize(RetrainOnSurvivors(bundle->data, Survivors(deleted),
                                         config)));
}

// DeletionScratch unit behaviour: duplicate detection, epoch invalidation,
// warm-vs-cold BeginBatch, and out-of-range queries.
TEST(DeletionScratchTest, EpochSemantics) {
  DeletionScratch scratch;
  EXPECT_FALSE(scratch.BeginBatch(100));  // cold: array had to grow
  EXPECT_TRUE(scratch.MarkDoomed(7));
  EXPECT_FALSE(scratch.MarkDoomed(7));  // duplicate within the batch
  EXPECT_TRUE(scratch.IsDoomed(7));
  EXPECT_FALSE(scratch.IsDoomed(8));
  EXPECT_FALSE(scratch.IsDoomed(5000));  // out of range, not doomed

  EXPECT_TRUE(scratch.BeginBatch(100));  // warm: same store size
  EXPECT_FALSE(scratch.IsDoomed(7));     // previous batch invalidated in O(1)
  EXPECT_TRUE(scratch.MarkDoomed(7));    // markable again

  EXPECT_FALSE(scratch.BeginBatch(200));  // store grew: cold again
  EXPECT_TRUE(scratch.BeginBatch(150));   // smaller batch on big array: warm

  // The one-byte epoch wraps every 255 batches and the wrap clears every
  // stamp, so no mark ever reads as doomed in a later batch.
  EXPECT_TRUE(scratch.MarkDoomed(9));
  int cold = 0;
  for (int batch = 0; batch < 600; ++batch) {
    cold += scratch.BeginBatch(150) ? 0 : 1;
    ASSERT_FALSE(scratch.IsDoomed(9)) << "batch " << batch;
  }
  EXPECT_EQ(cold, 2);  // the two wraps
}

// Deleting the same batch through a tree-level call with a caller scratch
// must equal the forest-level path (covers the DareTree overloads the
// forest threads the scratch through).
TEST(UnlearnKernelTest, TreeLevelScratchOverloadMatchesConvenienceOverload) {
  synth::SynthOptions opts;
  opts.num_rows = 400;
  opts.seed = 3;
  auto bundle = synth::MakeGermanCredit(opts);
  ASSERT_TRUE(bundle.ok());
  auto a = DareForest::Train(bundle->data, KernelForestConfig(7));
  auto b = DareForest::Train(bundle->data, KernelForestConfig(7));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());

  Rng rng(99);
  const std::vector<RowId> batch = DrawRows(&rng, bundle->data.num_rows(), 37);
  ASSERT_TRUE(a->DeleteRows(batch).ok());  // forest-level, call-local scratch
  DeletionScratch scratch;
  ASSERT_TRUE(b->DeleteRows(batch, nullptr, &scratch).ok());
  EXPECT_EQ(Serialize(*a), Serialize(*b));
}

}  // namespace
}  // namespace fume
