// Flat-arena traversal exactness and invalidation (src/forest/arena.h).
//
// The arena is a pure execution substrate: every test here asserts
// byte-identity against the single-row pointer descent (a DareForest::
// PredictProb / Predict loop), not approximate agreement — double ==
// double, no tolerance. The invalidation tests pin the generation-stamp
// contract of DESIGN.md §7: a mutation bumps the owning tree's stamp and
// evicts only that tree's cached arena; CoW clones have private cache
// cells, so neither side of a clone can thrash the other.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "data/split.h"
#include "forest/arena.h"
#include "forest/forest.h"
#include "forest/prediction_cache.h"
#include "synth/datasets.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace fume {
namespace {

struct ArenaCase {
  Dataset train;
  Dataset test;
  DareForest forest;
};

ArenaCase MakeCase(const Dataset& data, uint64_t forest_seed) {
  SplitOptions split_opts;
  split_opts.test_fraction = 0.3;
  split_opts.seed = 5;
  auto split = SplitTrainTest(data, split_opts);
  EXPECT_TRUE(split.ok());
  ForestConfig config;
  config.num_trees = 5;
  config.max_depth = 6;
  config.random_depth = 2;
  config.seed = forest_seed;
  auto forest = DareForest::Train(split->train, config);
  EXPECT_TRUE(forest.ok());
  return ArenaCase{std::move(split->train), std::move(split->test),
                   std::move(*forest)};
}

// The arena's reference: the public pointer descent, one row at a time.
std::vector<double> PointerProbs(const DareForest& forest,
                                 const Dataset& test) {
  std::vector<double> out(static_cast<size_t>(test.num_rows()));
  for (int64_t r = 0; r < test.num_rows(); ++r) {
    out[static_cast<size_t>(r)] = forest.PredictProb(test, r);
  }
  return out;
}

std::vector<int> PointerPreds(const DareForest& forest, const Dataset& test) {
  std::vector<int> out(static_cast<size_t>(test.num_rows()));
  for (int64_t r = 0; r < test.num_rows(); ++r) {
    out[static_cast<size_t>(r)] = forest.Predict(test, r);
  }
  return out;
}

void ExpectArenaMatchesPointer(const DareForest& forest, const Dataset& test) {
  EXPECT_EQ(forest.PredictProbAll(test), PointerProbs(forest, test));
  EXPECT_EQ(forest.PredictAll(test), PointerPreds(forest, test));
}

/// A small insert batch: `count` rows copied out of `source` at random.
Dataset SampleBatch(const Dataset& source, int count, Rng* rng) {
  Dataset batch(source.schema());
  std::vector<int32_t> codes(static_cast<size_t>(source.num_attributes()));
  for (int i = 0; i < count; ++i) {
    const int64_t r = static_cast<int64_t>(
        rng->NextBounded(static_cast<uint64_t>(source.num_rows())));
    for (int j = 0; j < source.num_attributes(); ++j) {
      codes[static_cast<size_t>(j)] = source.Code(r, j);
    }
    EXPECT_TRUE(batch.AppendRow(codes, source.Label(r)).ok());
  }
  return batch;
}

// Random interleaved deletions and insertions; after every mutation the
// arena path must reproduce the pointer walk byte for byte. `live` tracks
// the still-learned row ids (DeleteRows rejects dead or duplicate ids).
void RunMutationSequence(ArenaCase* c, uint64_t seed) {
  Rng rng(seed);
  std::vector<RowId> live(static_cast<size_t>(c->train.num_rows()));
  for (size_t i = 0; i < live.size(); ++i) live[i] = static_cast<RowId>(i);

  ExpectArenaMatchesPointer(c->forest, c->test);
  for (int step = 0; step < 6; ++step) {
    if (step % 3 == 2) {
      Dataset batch = SampleBatch(c->test, /*count=*/3, &rng);
      auto added = c->forest.AddData(batch);
      ASSERT_TRUE(added.ok()) << added.status().ToString();
      live.insert(live.end(), added->begin(), added->end());
    } else {
      ASSERT_GT(live.size(), 64u);
      std::vector<RowId> doomed;
      for (int i = 0; i < 8; ++i) {
        const size_t pick = static_cast<size_t>(rng.NextBounded(live.size()));
        doomed.push_back(live[pick]);
        live[pick] = live.back();
        live.pop_back();
      }
      std::sort(doomed.begin(), doomed.end());
      ASSERT_TRUE(c->forest.DeleteRows(doomed).ok());
    }
    ExpectArenaMatchesPointer(c->forest, c->test);
  }
}

TEST(ForestArenaTest, ByteIdenticalOverMutationsOnGerman) {
  for (uint64_t seed : {11, 12}) {
    synth::SynthOptions opts;
    opts.num_rows = 600;
    opts.seed = seed;
    auto bundle = synth::MakeGermanCredit(opts);
    ASSERT_TRUE(bundle.ok());
    ArenaCase c = MakeCase(bundle->data, /*forest_seed=*/seed * 7);
    RunMutationSequence(&c, /*seed=*/seed * 131);
  }
}

TEST(ForestArenaTest, ByteIdenticalOverMutationsOnPlantedBias) {
  for (uint64_t seed : {3, 4}) {
    synth::PlantedOptions opts;
    opts.num_rows = 800;
    opts.seed = seed;
    auto bundle = synth::MakePlantedBias(opts);
    ASSERT_TRUE(bundle.ok());
    ArenaCase c = MakeCase(bundle->data, /*forest_seed=*/seed + 40);
    RunMutationSequence(&c, /*seed=*/seed * 977);
  }
}

TEST(ForestArenaTest, ArenaIsCachedUntilMutation) {
  synth::PlantedOptions opts;
  opts.num_rows = 400;
  auto bundle = synth::MakePlantedBias(opts);
  ASSERT_TRUE(bundle.ok());
  ArenaCase c = MakeCase(bundle->data, 9);
  const DareTree& tree = c.forest.tree(0);
  auto a1 = tree.arena();
  ASSERT_NE(a1, nullptr);
  auto a2 = tree.arena();
  EXPECT_EQ(a1.get(), a2.get());  // cached, not recompiled
  EXPECT_EQ(a1->generation(), tree.generation());
  EXPECT_GT(a1->num_nodes(), 1);
  EXPECT_GT(a1->bytes(), 0);

  const uint64_t gen_before = tree.generation();
  ASSERT_TRUE(c.forest.DeleteRows({0, 1, 2, 3}).ok());
  EXPECT_NE(tree.generation(), gen_before);
  auto a3 = tree.arena();
  ASSERT_NE(a3, nullptr);
  EXPECT_NE(a3.get(), a1.get());
  EXPECT_EQ(a3->generation(), tree.generation());
  // The old snapshot still answers for the graph it was compiled from.
  EXPECT_EQ(a1->generation(), gen_before);
}

TEST(ForestArenaTest, CloneInvalidationIsolatesParentAndChild) {
  synth::PlantedOptions opts;
  opts.num_rows = 400;
  auto bundle = synth::MakePlantedBias(opts);
  ASSERT_TRUE(bundle.ok());
  ArenaCase c = MakeCase(bundle->data, 21);

  auto base_arena = c.forest.tree(0).arena();
  ASSERT_NE(base_arena, nullptr);

  // A CoW clone shares node graphs and generation, so the seeded snapshot
  // serves both sides until one mutates.
  DareForest clone = c.forest.Clone();
  EXPECT_EQ(clone.tree(0).generation(), c.forest.tree(0).generation());
  EXPECT_EQ(clone.tree(0).arena().get(), base_arena.get());

  // Mutating the clone unshares: the clone recompiles, the parent's cached
  // arena must survive untouched (private cache cells).
  ASSERT_TRUE(clone.DeleteRows({0, 1, 2, 3, 4, 5, 6, 7}).ok());
  EXPECT_NE(clone.tree(0).generation(), c.forest.tree(0).generation());
  auto clone_arena = clone.tree(0).arena();
  ASSERT_NE(clone_arena, nullptr);
  EXPECT_NE(clone_arena.get(), base_arena.get());
  EXPECT_EQ(c.forest.tree(0).arena().get(), base_arena.get());

  // And the other direction: mutating the parent leaves the clone alone.
  ASSERT_TRUE(c.forest.DeleteRows({8, 9, 10}).ok());
  EXPECT_NE(c.forest.tree(0).arena().get(), base_arena.get());
  EXPECT_EQ(clone.tree(0).arena().get(), clone_arena.get());

  // Both sides still byte-identical to their own pointer walks.
  ExpectArenaMatchesPointer(c.forest, c.test);
  ExpectArenaMatchesPointer(clone, c.test);
}

// TSan target: many threads hitting compile-on-first-use on the same trees
// must agree on one arena per tree (ArenaSlot's mutex).
TEST(ForestArenaTest, ConcurrentCompileOnFirstUseYieldsOneArena) {
  synth::PlantedOptions opts;
  opts.num_rows = 600;
  auto bundle = synth::MakePlantedBias(opts);
  ASSERT_TRUE(bundle.ok());
  ArenaCase c = MakeCase(bundle->data, 55);
  // Invalidate whatever training/prediction already compiled.
  ASSERT_TRUE(c.forest.DeleteRows({0}).ok());

  constexpr size_t kThreads = 8;
  const size_t trees = static_cast<size_t>(c.forest.num_trees());
  std::vector<std::shared_ptr<const TreeArena>> seen(kThreads * trees);
  util::ThreadPool pool(static_cast<int>(kThreads));
  pool.ParallelFor(kThreads, [&](int /*worker*/, size_t i) {
    for (size_t t = 0; t < trees; ++t) {
      seen[i * trees + t] = c.forest.tree(static_cast<int>(t)).arena();
    }
  });
  for (size_t t = 0; t < trees; ++t) {
    ASSERT_NE(seen[t], nullptr);
    for (size_t i = 1; i < kThreads; ++i) {
      EXPECT_EQ(seen[i * trees + t].get(), seen[t].get());
    }
  }
  ExpectArenaMatchesPointer(c.forest, c.test);
}

TEST(ForestArenaTest, WhatIfArenaRescoreMatchesPointerPredictions) {
  synth::PlantedOptions opts;
  opts.num_rows = 700;
  auto bundle = synth::MakePlantedBias(opts);
  ASSERT_TRUE(bundle.ok());
  ArenaCase c = MakeCase(bundle->data, 77);

  TestPredictionCache cache;
  cache.Rebuild(c.forest, c.test);
  TestPredictionCache::WhatIfScratch scratch;
  Rng rng(19);
  // The base forest is never mutated, so every id in [0, num_training_rows)
  // stays valid for each round's fresh clone.
  const uint64_t live = static_cast<uint64_t>(c.forest.num_training_rows());
  for (int round = 0; round < 4; ++round) {
    DareForest what_if = c.forest.Clone();
    std::vector<RowId> doomed;
    for (int i = 0; i < 32; ++i) {
      doomed.push_back(static_cast<RowId>(rng.NextBounded(live)));
    }
    std::sort(doomed.begin(), doomed.end());
    doomed.erase(std::unique(doomed.begin(), doomed.end()), doomed.end());
    ASSERT_TRUE(what_if.DeleteRows(doomed).ok());
    cache.ScoreWhatIf(c.forest, what_if, c.test, &scratch,
                      /*arena_full_rescore=*/true);
    EXPECT_EQ(scratch.preds, PointerPreds(what_if, c.test));
    // Same rows through the diff-walk leg: identical bytes again.
    cache.ScoreWhatIf(c.forest, what_if, c.test, &scratch,
                      /*arena_full_rescore=*/false);
    EXPECT_EQ(scratch.preds, PointerPreds(what_if, c.test));
  }
}

TEST(ForestArenaTest, NullRootCompilesToTheSentinel) {
  // A null node graph compiles to the one-slot sentinel: every row parks in
  // slot 0 and reads the 0.5 prior — the same answer the pointer walk gives
  // for a rootless tree.
  auto arena = TreeArena::Compile(nullptr, /*generation=*/1);
  ASSERT_NE(arena, nullptr);
  EXPECT_EQ(arena->num_nodes(), 1);
  EXPECT_EQ(arena->source_root(), nullptr);

  const int32_t codes[] = {0, 3, 1, 2};  // 2 rows x 2 attrs
  double probs[2] = {-1.0, -1.0};
  arena->PredictProbs(codes, /*num_attrs=*/2, /*n_rows=*/2, probs);
  EXPECT_EQ(probs[0], 0.5);
  EXPECT_EQ(probs[1], 0.5);
}

TEST(DatasetPackedCodesTest, MatchesCodesAndInvalidatesOnAppend) {
  synth::PlantedOptions opts;
  opts.num_rows = 120;
  auto bundle = synth::MakePlantedBias(opts);
  ASSERT_TRUE(bundle.ok());
  Dataset data = bundle->data;

  auto packed = data.packed_codes();
  ASSERT_NE(packed, nullptr);
  EXPECT_EQ(packed->num_attrs, data.num_attributes());
  for (int64_t r = 0; r < data.num_rows(); ++r) {
    for (int j = 0; j < packed->num_attrs; ++j) {
      EXPECT_EQ(packed->row(r)[j], data.Code(r, j));
    }
  }
  EXPECT_EQ(data.packed_codes().get(), packed.get());  // cached

  // Appending a row drops the snapshot; the next call repacks with it.
  std::vector<int32_t> codes(static_cast<size_t>(packed->num_attrs), 0);
  ASSERT_TRUE(data.AppendRow(codes, 1).ok());
  auto repacked = data.packed_codes();
  ASSERT_NE(repacked, nullptr);
  EXPECT_NE(repacked.get(), packed.get());
  EXPECT_EQ(repacked->codes.size(),
            static_cast<size_t>(data.num_rows() * packed->num_attrs));
  EXPECT_EQ(repacked->row(data.num_rows() - 1)[0], 0);

  // Copies never share the cached view (post-copy column patching à la
  // WithPermutedColumn must not see a stale snapshot).
  Dataset copy = data;
  auto copy_packed = copy.packed_codes();
  EXPECT_NE(copy_packed.get(), repacked.get());
  for (int j = 0; j < copy_packed->num_attrs; ++j) {
    EXPECT_EQ(copy_packed->row(0)[j], data.Code(0, j));
  }
}

}  // namespace
}  // namespace fume
