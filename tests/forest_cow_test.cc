// Copy-on-write forest semantics: clones share nodes until mutated, a
// mutated clone never perturbs the forest it came from (or sibling
// clones), delta-aware what-if rescoring is byte-identical to full
// prediction, and the what-if evaluation pipeline reproduces retraining
// from scratch without the rows exactly — serially and across thread
// counts.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/fume.h"
#include "core/removal_method.h"
#include "forest/forest.h"
#include "forest/prediction_cache.h"
#include "synth/datasets.h"

namespace fume {
namespace {

struct Fixture {
  Dataset train;
  Dataset test;
  GroupSpec group;
  DareForest model;
};

ForestConfig CowForestConfig() {
  ForestConfig config;
  config.num_trees = 5;
  config.max_depth = 6;
  config.random_depth = 2;
  config.seed = 23;
  return config;
}

Fixture MakeFixture(uint64_t seed = 1, int64_t rows = 1200) {
  synth::PlantedOptions opts;
  opts.num_rows = rows;
  opts.seed = seed;
  auto bundle = synth::MakePlantedBias(opts);
  EXPECT_TRUE(bundle.ok());
  std::vector<int64_t> train_rows, test_rows;
  for (int64_t r = 0; r < bundle->data.num_rows(); ++r) {
    (r % 10 < 7 ? train_rows : test_rows).push_back(r);
  }
  Fixture f{bundle->data.Select(train_rows), bundle->data.Select(test_rows),
            bundle->group, DareForest()};
  auto model = DareForest::Train(f.train, CowForestConfig());
  EXPECT_TRUE(model.ok());
  f.model = std::move(*model);
  return f;
}

Fixture MakeGermanFixture() {
  synth::SynthOptions opts;
  opts.seed = 5;
  auto bundle = synth::MakeGermanCredit(opts);
  EXPECT_TRUE(bundle.ok());
  std::vector<int64_t> train_rows, test_rows;
  for (int64_t r = 0; r < bundle->data.num_rows(); ++r) {
    (r % 10 < 7 ? train_rows : test_rows).push_back(r);
  }
  Fixture f{bundle->data.Select(train_rows), bundle->data.Select(test_rows),
            bundle->group, DareForest()};
  auto model = DareForest::Train(f.train, CowForestConfig());
  EXPECT_TRUE(model.ok());
  f.model = std::move(*model);
  return f;
}

// An unshared reference: a same-seed retrain on the fixture's rows (the
// DESIGN.md §6 oracle), which shares no node with f.model.
DareForest Retrain(const Fixture& f) {
  auto model = DareForest::Train(f.train, f.model.config());
  EXPECT_TRUE(model.ok());
  return std::move(*model);
}

// A spread-out batch of live row ids, keyed so different callers get
// different batches.
std::vector<RowId> PickRows(const DareForest& forest, uint64_t key,
                            int count) {
  const int64_t n = forest.num_training_rows();
  std::vector<RowId> rows;
  rows.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    const int64_t r =
        static_cast<int64_t>((key * 131 + static_cast<uint64_t>(i) * 977) %
                             static_cast<uint64_t>(n));
    rows.push_back(static_cast<RowId>(r));
  }
  std::sort(rows.begin(), rows.end());
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  return rows;
}

TEST(CowCloneTest, CloneSharesNodesRetrainDoesNot) {
  Fixture f = MakeFixture();
  const DareForest cow = f.model.Clone();
  const DareForest retrained = Retrain(f);
  for (int t = 0; t < f.model.num_trees(); ++t) {
    EXPECT_EQ(f.model.tree(t).root(), cow.tree(t).root());
    EXPECT_NE(f.model.tree(t).root(), retrained.tree(t).root());
  }
  EXPECT_TRUE(f.model.StructurallyEquals(cow));
  EXPECT_TRUE(f.model.StructurallyEquals(retrained));
}

TEST(CowCloneTest, MutatingCloneNeverPerturbsBase) {
  Fixture f = MakeFixture();
  const DareForest snapshot = Retrain(f);
  const std::vector<double> base_probs = f.model.PredictProbAll(f.test);

  DareForest clone = f.model.Clone();
  ASSERT_TRUE(clone.DeleteRows(PickRows(f.model, 3, 40)).ok());

  // The base forest is untouched: same structure, same statistics, same
  // predictions, and its node objects validate.
  EXPECT_TRUE(f.model.StructurallyEquals(snapshot));
  EXPECT_TRUE(f.model.ValidateStats());
  EXPECT_EQ(f.model.PredictProbAll(f.test), base_probs);

  // The clone matches the retrained reference exactly.
  DareForest reference = Retrain(f);
  ASSERT_TRUE(reference.DeleteRows(PickRows(f.model, 3, 40)).ok());
  EXPECT_TRUE(clone.StructurallyEquals(reference));
  EXPECT_TRUE(clone.ValidateStats());
  EXPECT_EQ(clone.PredictProbAll(f.test), reference.PredictProbAll(f.test));
}

TEST(CowCloneTest, SiblingClonesAreIsolated) {
  Fixture f = MakeFixture(2);
  const DareForest snapshot = Retrain(f);
  DareForest a = f.model.Clone();
  DareForest b = f.model.Clone();
  ASSERT_TRUE(a.DeleteRows(PickRows(f.model, 11, 30)).ok());
  ASSERT_TRUE(b.DeleteRows(PickRows(f.model, 47, 55)).ok());

  DareForest ref_a = Retrain(f);
  DareForest ref_b = Retrain(f);
  ASSERT_TRUE(ref_a.DeleteRows(PickRows(f.model, 11, 30)).ok());
  ASSERT_TRUE(ref_b.DeleteRows(PickRows(f.model, 47, 55)).ok());

  EXPECT_TRUE(a.StructurallyEquals(ref_a));
  EXPECT_TRUE(b.StructurallyEquals(ref_b));
  EXPECT_TRUE(f.model.StructurallyEquals(snapshot));
}

TEST(CowCloneTest, CloneOfMutatedCloneKeepsUnlearningExact) {
  Fixture f = MakeFixture(3);
  DareForest first = f.model.Clone();
  ASSERT_TRUE(first.DeleteRows(PickRows(f.model, 5, 25)).ok());
  DareForest second = first.Clone();
  ASSERT_TRUE(second.DeleteRows(PickRows(f.model, 63, 25)).ok());

  DareForest reference = Retrain(f);
  ASSERT_TRUE(reference.DeleteRows(PickRows(f.model, 5, 25)).ok());
  DareForest ref_second = Retrain(f);
  ASSERT_TRUE(ref_second.DeleteRows(PickRows(f.model, 5, 25)).ok());
  ASSERT_TRUE(ref_second.DeleteRows(PickRows(f.model, 63, 25)).ok());

  EXPECT_TRUE(first.StructurallyEquals(reference));
  EXPECT_TRUE(second.StructurallyEquals(ref_second));
  EXPECT_TRUE(second.ValidateStats());
}

// The TSan anchor: clones created and mutated on many threads while the
// base forest serves predictions. Row batches overlap across threads, so
// distinct clones unshare the same base nodes concurrently.
TEST(CowAliasingTest, InterleavedCloneDeletePredictAcrossThreads) {
  Fixture f = MakeFixture(4, 800);
  constexpr int kThreads = 8;
  constexpr int kIters = 4;

  // Reference evaluations computed serially on same-seed retrains.
  std::vector<std::vector<double>> want(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    DareForest reference = Retrain(f);
    ASSERT_TRUE(
        reference.DeleteRows(PickRows(f.model, static_cast<uint64_t>(t), 20))
            .ok());
    want[static_cast<size_t>(t)] = reference.PredictProbAll(f.test);
  }
  const std::vector<double> base_want = f.model.PredictProbAll(f.test);

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int it = 0; it < kIters; ++it) {
        DareForest clone = f.model.Clone();
        if (!clone
                 .DeleteRows(PickRows(f.model, static_cast<uint64_t>(t), 20))
                 .ok() ||
            clone.PredictProbAll(f.test) != want[static_cast<size_t>(t)] ||
            f.model.PredictProbAll(f.test) != base_want) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_TRUE(f.model.ValidateStats());
}

#ifndef NDEBUG
TEST(CowDebugTest, LiveNodeTallyReturnsToBaseline) {
  const int64_t baseline = cow_debug::LiveTreeNodes();
  {
    Fixture f = MakeFixture(6, 600);
    EXPECT_GT(cow_debug::LiveTreeNodes(), baseline);
    DareForest a = f.model.Clone();
    DareForest b = f.model.Clone();
    ASSERT_TRUE(a.DeleteRows(PickRows(f.model, 9, 30)).ok());
    ASSERT_TRUE(b.DeleteRows(PickRows(f.model, 21, 30)).ok());
    // ~DareForest additionally runs DebugCheckCowConsistency here.
  }
  EXPECT_EQ(cow_debug::LiveTreeNodes(), baseline);
}
#endif

TEST(WhatIfRescoreTest, ScoreWhatIfMatchesFullPredictAll) {
  Fixture f = MakeFixture(7);
  TestPredictionCache cache;
  cache.Rebuild(f.model, f.test);
  EXPECT_EQ(cache.predictions(), f.model.PredictAll(f.test));

  TestPredictionCache::WhatIfScratch scratch;  // reused across evaluations
  for (uint64_t key = 0; key < 12; ++key) {
    DareForest what_if = f.model.Clone();
    ASSERT_TRUE(
        what_if.DeleteRows(PickRows(f.model, key, 10 + 7 * (key % 4))).ok());
    cache.ScoreWhatIf(f.model, what_if, f.test, &scratch);
    EXPECT_EQ(scratch.preds, what_if.PredictAll(f.test)) << "key " << key;
    EXPECT_GE(scratch.trees_changed, 0);
    EXPECT_LE(scratch.rows_rescored, f.test.num_rows());
  }

  // An unmutated clone shares everything: nothing rescored, base preds.
  DareForest untouched = f.model.Clone();
  cache.ScoreWhatIf(f.model, untouched, f.test, &scratch);
  EXPECT_EQ(scratch.trees_changed, 0);
  EXPECT_EQ(scratch.rows_rescored, 0);
  EXPECT_EQ(scratch.preds, cache.predictions());
}

// Exactness anchor: the what-if evaluation pipeline reproduces the DESIGN.md
// §6 oracle — a forest retrained from scratch without the rows, with the
// model's own config and seed — bit for bit, per evaluation.
TEST(WhatIfRescoreTest, CowEvaluationsMatchDeepCopyReference) {
  for (const bool german : {false, true}) {
    Fixture f = german ? MakeGermanFixture() : MakeFixture(8);
    UnlearnRemovalMethod unlearn(&f.model, &f.test, f.group,
                                 FairnessMetric::kStatisticalParity);
    RetrainRemovalMethod retrain(&f.train, &f.test, f.model.config(),
                                 f.group, FairnessMetric::kStatisticalParity);
    for (uint64_t key = 0; key < 10; ++key) {
      const std::vector<RowId> rows = PickRows(f.model, key, 12 + 9 * (key % 3));
      auto a = unlearn.EvaluateWithout(rows);
      auto b = retrain.EvaluateWithout(rows);
      ASSERT_TRUE(a.ok() && b.ok());
      EXPECT_EQ(a->fairness, b->fairness) << "german=" << german;
      EXPECT_EQ(a->accuracy, b->accuracy) << "german=" << german;
    }
  }
}

// End-to-end: the full top-k search is byte-identical between the
// unlearning pipeline (at 1, 4 and 8 threads) and searching with the
// retrain-from-scratch oracle, on two datasets.
TEST(CowSearchExactnessTest, TopKByteIdenticalToSeedPathAcrossThreadCounts) {
  for (const bool german : {false, true}) {
    Fixture f = german ? MakeGermanFixture() : MakeFixture(9);
    FumeConfig config;
    config.top_k = 5;
    config.support_min = 0.02;
    config.support_max = 0.25;
    config.max_literals = 2;
    config.group = f.group;
    config.lattice.excluded_attrs = {f.group.sensitive_attr};

    ModelEval original;
    original.fairness =
        ComputeFairness(f.model, f.test, config.group, config.metric);
    original.accuracy = f.model.Accuracy(f.test);

    RetrainRemovalMethod reference(&f.train, &f.test, f.model.config(),
                                   f.group, config.metric);
    auto want = ExplainWithRemoval(original, f.train, config, &reference);
    ASSERT_TRUE(want.ok()) << want.status().ToString();

    for (const int threads : {1, 4, 8}) {
      config.num_threads = threads;
      auto got = ExplainFairnessViolation(f.model, f.train, f.test, config);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ASSERT_EQ(got->top_k.size(), want->top_k.size())
          << "german=" << german << " threads=" << threads;
      for (size_t i = 0; i < want->top_k.size(); ++i) {
        EXPECT_EQ(got->top_k[i].predicate.ToString(f.train.schema()),
                  want->top_k[i].predicate.ToString(f.train.schema()));
        EXPECT_EQ(got->top_k[i].attribution, want->top_k[i].attribution);
        EXPECT_EQ(got->top_k[i].new_fairness, want->top_k[i].new_fairness);
        EXPECT_EQ(got->top_k[i].new_accuracy, want->top_k[i].new_accuracy);
      }
      EXPECT_EQ(got->stats.attribution_evaluations,
                want->stats.attribution_evaluations);
      EXPECT_EQ(got->all_candidates.size(), want->all_candidates.size());
    }
  }
}

}  // namespace
}  // namespace fume
