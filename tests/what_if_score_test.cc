// Fused what-if scoring (TestPredictionCache::ScoreWithout and its sharded
// counterpart): unlearning played against the base forest without writing
// to it must score exactly like the materialized path it replaces — Clone,
// DeleteRows, then ScoreWhatIf or PredictAll — and like the DESIGN.md §6
// oracle, a forest retrained from scratch without the rows.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <thread>
#include <vector>

#include "core/removal_method.h"
#include "fairness/metrics.h"
#include "forest/forest.h"
#include "forest/prediction_cache.h"
#include "forest/sharded_forest.h"
#include "obs/metrics.h"
#include "synth/datasets.h"
#include "util/rng.h"
#include "util/thread_pool.h"

// Counts this thread's heap allocations while `counting` is set, so a
// test can assert that a warm what-if allocates nothing.
namespace alloc_count {
thread_local bool counting = false;
thread_local int64_t allocations = 0;
}  // namespace alloc_count

// Out of line, so the compiler never pairs an inlined malloc with a
// `delete` expression and misreports a mismatched deallocation.
[[gnu::noinline]] void* operator new(std::size_t size) {
  if (alloc_count::counting) ++alloc_count::allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace fume {
namespace {

struct Fixture {
  Dataset train;
  Dataset test;
  GroupSpec group;
  DareForest model;
};

ForestConfig BaseConfig(uint64_t seed) {
  ForestConfig config;
  config.num_trees = 6;
  config.max_depth = 8;
  config.random_depth = 2;
  config.seed = seed;
  return config;
}

Fixture Split(const synth::DatasetBundle& bundle, const ForestConfig& config) {
  std::vector<int64_t> train_rows, test_rows;
  for (int64_t r = 0; r < bundle.data.num_rows(); ++r) {
    (r % 10 < 7 ? train_rows : test_rows).push_back(r);
  }
  Fixture f{bundle.data.Select(train_rows), bundle.data.Select(test_rows),
            bundle.group, DareForest()};
  auto model = DareForest::Train(f.train, config);
  EXPECT_TRUE(model.ok()) << model.status().ToString();
  f.model = std::move(*model);
  return f;
}

Fixture MakeFixture(bool german, uint64_t seed,
                    const ForestConfig& config) {
  if (german) {
    synth::SynthOptions opts;
    opts.seed = seed;
    auto bundle = synth::MakeGermanCredit(opts);
    EXPECT_TRUE(bundle.ok());
    return Split(*bundle, config);
  }
  synth::PlantedOptions opts;
  opts.num_rows = 1200;
  opts.seed = seed;
  auto bundle = synth::MakePlantedBias(opts);
  EXPECT_TRUE(bundle.ok());
  return Split(*bundle, config);
}

// A random batch of distinct training rows, in random order.
std::vector<RowId> RandomBatch(Rng* rng, int64_t num_rows, int max_size) {
  const int size = rng->NextInt(1, max_size);
  std::vector<int> picked =
      rng->SampleWithoutReplacement(static_cast<int>(num_rows), size);
  std::vector<RowId> rows(picked.begin(), picked.end());
  rng->Shuffle(&rows);
  return rows;
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// The materialized what-if the fused walk stands in for.
struct Materialized {
  std::vector<int> preds;
  std::vector<double> probs;
  DeletionStats stats;
};

Materialized CloneDeleteRescore(const TestPredictionCache& cache,
                                const DareForest& base,
                                const std::vector<RowId>& rows,
                                const Dataset& test) {
  DareForest what_if = base.Clone();
  EXPECT_TRUE(what_if.DeleteRows(rows).ok());
  TestPredictionCache::WhatIfScratch scratch;
  scratch.want_probs = true;
  cache.ScoreWhatIf(base, what_if, test, &scratch);
  return {scratch.preds, scratch.probs, what_if.deletion_stats()};
}

// Checks one fused evaluation against the materialized path: predictions,
// probability bits and deletion work except nodes_copied.
void ExpectMatchesClone(const TestPredictionCache& cache,
                        const DareForest& base,
                        const std::vector<RowId>& rows, const Dataset& test,
                        TestPredictionCache::WhatIfScratch* scratch,
                        DeletionScratch* deletion) {
  scratch->want_probs = true;
  ASSERT_TRUE(cache.ScoreWithout(base, rows, test, scratch, deletion).ok());
  const Materialized want = CloneDeleteRescore(cache, base, rows, test);
  EXPECT_EQ(scratch->preds, want.preds) << rows.size() << " rows";
  EXPECT_TRUE(SameBits(scratch->probs, want.probs)) << rows.size() << " rows";
  EXPECT_EQ(scratch->deletion_stats.nodes_copied, 0);
  DeletionStats want_stats = want.stats;
  want_stats.nodes_copied = 0;
  EXPECT_EQ(scratch->deletion_stats, want_stats) << rows.size() << " rows";
  EXPECT_LE(scratch->rows_rescored, test.num_rows());
}

TEST(FusedUnlearnScoreTest, MatchesCloneDeleteRescoreOnRandomBatches) {
  for (const bool german : {false, true}) {
    for (const uint64_t seed : {1, 2, 3}) {
      Fixture f = MakeFixture(german, seed, BaseConfig(10 + seed));
      TestPredictionCache cache;
      cache.Rebuild(f.model, f.test);
      TestPredictionCache::WhatIfScratch scratch;  // reused: warm path
      DeletionScratch deletion;
      Rng rng(seed * 977 + (german ? 1 : 0));
      for (int i = 0; i < 12; ++i) {
        SCOPED_TRACE(testing::Message() << "german=" << german
                                        << " seed=" << seed << " i=" << i);
        ExpectMatchesClone(cache, f.model,
                           RandomBatch(&rng, f.model.num_training_rows(), 90),
                           f.test, &scratch, &deletion);
      }
    }
  }
}

TEST(FusedUnlearnScoreTest, FairnessMatchesRetrainOracle) {
  for (const bool german : {false, true}) {
    Fixture f = MakeFixture(german, 4, BaseConfig(29));
    TestPredictionCache cache;
    cache.Rebuild(f.model, f.test);
    TestPredictionCache::WhatIfScratch scratch;
    DeletionScratch deletion;
    Rng rng(german ? 61 : 62);
    for (int i = 0; i < 4; ++i) {
      const std::vector<RowId> rows =
          RandomBatch(&rng, f.model.num_training_rows(), 120);
      ASSERT_TRUE(
          cache.ScoreWithout(f.model, rows, f.test, &scratch, &deletion).ok());
      const std::vector<int64_t> drop(rows.begin(), rows.end());
      auto retrained = DareForest::Train(f.train.DropRows(drop),
                                         f.model.config());
      ASSERT_TRUE(retrained.ok());
      EXPECT_EQ(ComputeFairness(f.test, scratch.preds, f.group,
                                FairnessMetric::kStatisticalParity),
                ComputeFairness(*retrained, f.test, f.group,
                                FairnessMetric::kStatisticalParity))
          << "german=" << german << " i=" << i;
      EXPECT_EQ(scratch.preds, retrained->PredictAll(f.test));
    }
  }
}

TEST(FusedUnlearnScoreTest, RecordsTheCountersADeleteWould) {
  Fixture f = MakeFixture(true, 6, BaseConfig(7));
  TestPredictionCache cache;
  cache.Rebuild(f.model, f.test);
  const std::vector<std::string> names = {
      "forest.unlearn.subtrees_retrained", "forest.unlearn.rows_retrained",
      "forest.unlearn.nodes_visited",      "forest.unlearn.leaves_updated",
      "forest.unlearn.batches",            "forest.unlearn.rows_deleted",
      "forest.unlearn.cow_nodes_copied"};
  auto read = [&] {
    std::vector<int64_t> v;
    for (const auto& n : names) v.push_back(obs::GetCounter(n)->Value());
    return v;
  };
  Rng rng(5);
  const std::vector<RowId> rows =
      RandomBatch(&rng, f.model.num_training_rows(), 80);

  const std::vector<int64_t> before_fused = read();
  TestPredictionCache::WhatIfScratch scratch;
  DeletionScratch deletion;
  ASSERT_TRUE(
      cache.ScoreWithout(f.model, rows, f.test, &scratch, &deletion).ok());
  const std::vector<int64_t> after_fused = read();

  DareForest what_if = f.model.Clone();
  ASSERT_TRUE(what_if.DeleteRows(rows).ok());
  const std::vector<int64_t> after_delete = read();

  for (size_t i = 0; i + 1 < names.size(); ++i) {
    EXPECT_EQ(after_fused[i] - before_fused[i],
              after_delete[i] - after_fused[i])
        << names[i];
  }
  EXPECT_EQ(after_fused.back(), before_fused.back())
      << "the fused walk must copy no node";
  EXPECT_GT(after_delete.back(), after_fused.back());
}

TEST(FusedUnlearnScoreTest, EmptyBatchReturnsBasePredictions) {
  Fixture f = MakeFixture(false, 7, BaseConfig(3));
  TestPredictionCache cache;
  cache.Rebuild(f.model, f.test);
  TestPredictionCache::WhatIfScratch scratch;
  scratch.want_probs = true;
  DeletionScratch deletion;
  ASSERT_TRUE(cache.ScoreWithout(f.model, {}, f.test, &scratch, &deletion).ok());
  EXPECT_EQ(scratch.preds, cache.predictions());
  EXPECT_TRUE(SameBits(scratch.probs, cache.probs()));
  EXPECT_EQ(scratch.rows_rescored, 0);
  EXPECT_EQ(scratch.trees_changed, 0);
  EXPECT_EQ(scratch.deletion_stats, DeletionStats{});
}

TEST(FusedUnlearnScoreTest, DeletingEveryRowPredictsOneHalf) {
  Fixture f = MakeFixture(false, 8, BaseConfig(5));
  TestPredictionCache cache;
  cache.Rebuild(f.model, f.test);
  std::vector<RowId> all(static_cast<size_t>(f.model.num_training_rows()));
  for (size_t i = 0; i < all.size(); ++i) all[i] = static_cast<RowId>(i);
  TestPredictionCache::WhatIfScratch scratch;
  DeletionScratch deletion;
  ExpectMatchesClone(cache, f.model, all, f.test, &scratch, &deletion);
  // Every root count is 0, so every tree predicts 0.5.
  for (double p : scratch.probs) EXPECT_EQ(p, 0.5);
  EXPECT_EQ(scratch.rows_rescored, f.test.num_rows());
}

TEST(FusedUnlearnScoreTest, BadIdsReturnStatusAndLeaveTheBaseUsable) {
  Fixture f = MakeFixture(true, 9, BaseConfig(9));
  TestPredictionCache cache;
  cache.Rebuild(f.model, f.test);
  TestPredictionCache::WhatIfScratch scratch;
  DeletionScratch deletion;
  const auto n = static_cast<RowId>(f.model.num_training_rows());
  Status st = cache.ScoreWithout(f.model, {3, n}, f.test, &scratch, &deletion);
  EXPECT_TRUE(st.IsIndexError()) << st.ToString();
  st = cache.ScoreWithout(f.model, {-1}, f.test, &scratch, &deletion);
  EXPECT_TRUE(st.IsIndexError()) << st.ToString();
  st = cache.ScoreWithout(f.model, {4, 9, 4}, f.test, &scratch, &deletion);
  EXPECT_FALSE(st.ok());
  EXPECT_FALSE(st.IsIndexError()) << st.ToString();
  // DeleteRows rejects the same batches.
  DareForest clone = f.model.Clone();
  EXPECT_FALSE(clone.DeleteRows({3, n}).ok());
  EXPECT_FALSE(clone.DeleteRows({4, 9, 4}).ok());
  // The failed calls wrote nothing to the base: the next what-if is exact.
  ExpectMatchesClone(cache, f.model, {4, 9, 200}, f.test, &scratch, &deletion);
}

TEST(FusedUnlearnScoreTest, ConfigVariantsMatchClonePath) {
  std::vector<ForestConfig> configs;
  {
    ForestConfig c = BaseConfig(41);
    c.threshold_mode = ThresholdMode::kSampled;
    c.num_sampled_thresholds = 2;
    configs.push_back(c);
  }
  {
    ForestConfig c = BaseConfig(42);
    c.min_samples_leaf = 4;
    c.min_samples_split = 9;
    configs.push_back(c);
  }
  {
    ForestConfig c = BaseConfig(43);
    c.random_depth = 0;
    c.max_depth = 11;
    configs.push_back(c);
  }
  for (size_t ci = 0; ci < configs.size(); ++ci) {
    for (const bool german : {false, true}) {
      Fixture f = MakeFixture(german, 11, configs[ci]);
      TestPredictionCache cache;
      cache.Rebuild(f.model, f.test);
      TestPredictionCache::WhatIfScratch scratch;
      DeletionScratch deletion;
      Rng rng(ci * 31 + (german ? 7 : 3));
      for (int i = 0; i < 6; ++i) {
        SCOPED_TRACE(testing::Message()
                     << "config=" << ci << " german=" << german << " i=" << i);
        ExpectMatchesClone(cache, f.model,
                           RandomBatch(&rng, f.model.num_training_rows(), 150),
                           f.test, &scratch, &deletion);
      }
    }
  }
}

TEST(FusedUnlearnScoreTest, ShardedCacheMatchesShardedClonePath) {
  auto bundle = synth::MakeParametric(900, 8, 4, 21);
  ASSERT_TRUE(bundle.ok());
  std::vector<int64_t> head, tail;
  for (int64_t r = 0; r < 900; ++r) (r < 630 ? head : tail).push_back(r);
  const Dataset train = bundle->data.Select(head);
  const Dataset test = bundle->data.Select(tail);
  const ShardConfig shards = ShardConfigFromFlags(
      4, bundle->group.sensitive_attr, bundle->group.privileged_code);
  auto forest = ShardedForest::Train(train, BaseConfig(22), shards);
  ASSERT_TRUE(forest.ok());
  ShardedPredictionCache cache;
  cache.Rebuild(*forest, test);
  ShardedPredictionCache::WhatIfScratch scratch;
  std::vector<DeletionScratch> deletion;
  Rng rng(23);
  for (int i = 0; i < 8; ++i) {
    const std::vector<RowId> rows =
        RandomBatch(&rng, forest->num_global_ids(), i < 4 ? 8 : 120);
    ASSERT_TRUE(
        cache.ScoreWithout(*forest, rows, test, &scratch, &deletion).ok());
    ShardedForest what_if = forest->Clone();
    ASSERT_TRUE(what_if.DeleteRows(rows).ok());
    EXPECT_EQ(scratch.preds, what_if.PredictAll(test)) << "i=" << i;
    EXPECT_TRUE(SameBits(scratch.probs, what_if.PredictProbAll(test)))
        << "i=" << i;
    std::vector<bool> owns(4, false);
    for (const RowId g : rows) {
      owns[static_cast<size_t>(forest->shard_of(g))] = true;
    }
    EXPECT_EQ(scratch.shards_changed,
              std::count(owns.begin(), owns.end(), true))
        << "i=" << i;
    DeletionStats want = what_if.deletion_stats();
    want.nodes_copied = 0;
    EXPECT_EQ(scratch.deletion_stats, want) << "i=" << i;
  }
  const auto n = static_cast<RowId>(forest->num_global_ids());
  EXPECT_TRUE(cache.ScoreWithout(*forest, {0, n}, test, &scratch, &deletion)
                  .IsIndexError());
  EXPECT_FALSE(
      cache.ScoreWithout(*forest, {5, 5}, test, &scratch, &deletion).ok());
}

// A served whatif fans its (shard, tree) walks out on the tenant's pool;
// a search scores serially. Both must give the same answer bit for bit:
// predictions, voted probabilities, rescored rows and the deletion's work,
// at one shard and at four, on german and planted data.
TEST(FusedUnlearnScoreTest, ShardedScoreIsIdenticalAcrossThreadCounts) {
  util::ThreadPool two(2);
  util::ThreadPool four(4);
  for (const bool german : {false, true}) {
    for (const int num_shards : {1, 4}) {
      Fixture f = MakeFixture(german, 17, BaseConfig(17));
      const ShardConfig shards = ShardConfigFromFlags(
          num_shards, f.group.sensitive_attr, f.group.privileged_code);
      auto forest = ShardedForest::Train(f.train, BaseConfig(17), shards);
      ASSERT_TRUE(forest.ok());
      ShardedPredictionCache cache;
      cache.Rebuild(*forest, f.test);
      ShardedPredictionCache::WhatIfScratch serial, pooled;
      std::vector<DeletionScratch> serial_deletion, pooled_deletion;
      Rng rng(num_shards * 101 + (german ? 1 : 0));
      for (int i = 0; i < 10; ++i) {
        SCOPED_TRACE(testing::Message() << "german=" << german << " shards="
                                        << num_shards << " i=" << i);
        const std::vector<RowId> rows =
            RandomBatch(&rng, forest->num_global_ids(), i < 5 ? 8 : 120);
        ASSERT_TRUE(cache
                        .ScoreWithout(*forest, rows, f.test, &serial,
                                      &serial_deletion)
                        .ok());
        for (util::ThreadPool* pool : {&two, &four}) {
          ASSERT_TRUE(cache
                          .ScoreWithout(*forest, rows, f.test, &pooled,
                                        &pooled_deletion, pool)
                          .ok());
          EXPECT_EQ(pooled.preds, serial.preds) << pool->num_threads();
          EXPECT_TRUE(SameBits(pooled.probs, serial.probs))
              << pool->num_threads();
          EXPECT_EQ(pooled.rows_rescored, serial.rows_rescored);
          EXPECT_EQ(pooled.shards_changed, serial.shards_changed);
          EXPECT_EQ(pooled.deletion_stats, serial.deletion_stats);
        }
      }
      // A bad batch fails the same way on a pool, and leaves the
      // scratches usable.
      const auto n = static_cast<RowId>(forest->num_global_ids());
      EXPECT_TRUE(cache
                      .ScoreWithout(*forest, {0, n}, f.test, &pooled,
                                    &pooled_deletion, &four)
                      .IsIndexError());
      EXPECT_FALSE(cache
                       .ScoreWithout(*forest, {5, 9, 5}, f.test, &pooled,
                                     &pooled_deletion, &four)
                       .ok());
      ASSERT_TRUE(cache
                      .ScoreWithout(*forest, {5, 9}, f.test, &pooled,
                                    &pooled_deletion, &four)
                      .ok());
      ASSERT_TRUE(cache
                      .ScoreWithout(*forest, {5, 9}, f.test, &serial,
                                    &serial_deletion)
                      .ok());
      EXPECT_TRUE(SameBits(pooled.probs, serial.probs));
    }
  }
}

// The TSan anchor: four workers score different what-ifs against one shared
// base forest and cache at once, each with its own scratch.
TEST(FusedUnlearnScoreTest, FourWorkersScoreOneBaseConcurrently) {
  Fixture f = MakeFixture(true, 13, BaseConfig(13));
  TestPredictionCache cache;
  cache.Rebuild(f.model, f.test);
  constexpr int kWorkers = 4;
  constexpr int kBatches = 6;
  Rng rng(13);
  std::vector<std::vector<RowId>> batches;
  std::vector<Materialized> want;
  for (int i = 0; i < kWorkers * kBatches; ++i) {
    batches.push_back(RandomBatch(&rng, f.model.num_training_rows(), 80));
    want.push_back(CloneDeleteRescore(cache, f.model, batches.back(), f.test));
  }
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWorkers; ++w) {
    threads.emplace_back([&, w] {
      TestPredictionCache::WhatIfScratch scratch;
      scratch.want_probs = true;
      DeletionScratch deletion;
      for (int round = 0; round < 2; ++round) {
        for (int b = 0; b < kBatches; ++b) {
          const size_t i = static_cast<size_t>(w * kBatches + b);
          if (!cache.ScoreWithout(f.model, batches[i], f.test, &scratch,
                                  &deletion)
                   .ok() ||
              scratch.preds != want[i].preds ||
              !SameBits(scratch.probs, want[i].probs)) {
            failures.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_TRUE(f.model.ValidateStats());
}

// Steady state: once the scratches have seen a set of what-ifs, scoring
// them again allocates nothing, monolithic or sharded.
TEST(FusedUnlearnScoreTest, WarmScratchScoresWithoutAllocating) {
  Fixture f = MakeFixture(true, 15, BaseConfig(15));
  TestPredictionCache cache;
  cache.Rebuild(f.model, f.test);
  Rng rng(15);
  std::vector<std::vector<RowId>> batches;
  for (int i = 0; i < 8; ++i) {
    batches.push_back(RandomBatch(&rng, f.model.num_training_rows(), 120));
  }
  TestPredictionCache::WhatIfScratch scratch;
  scratch.want_probs = true;
  DeletionScratch deletion;
  for (const auto& rows : batches) {  // warm-up
    ASSERT_TRUE(
        cache.ScoreWithout(f.model, rows, f.test, &scratch, &deletion).ok());
  }
  alloc_count::allocations = 0;
  alloc_count::counting = true;
  for (const auto& rows : batches) {
    if (!cache.ScoreWithout(f.model, rows, f.test, &scratch, &deletion).ok()) {
      break;
    }
  }
  alloc_count::counting = false;
  EXPECT_EQ(alloc_count::allocations, 0);

  auto bundle = synth::MakeParametric(600, 8, 4, 16);
  ASSERT_TRUE(bundle.ok());
  const ShardConfig shards = ShardConfigFromFlags(
      3, bundle->group.sensitive_attr, bundle->group.privileged_code);
  auto forest = ShardedForest::Train(bundle->data, BaseConfig(16), shards);
  ASSERT_TRUE(forest.ok());
  ShardedPredictionCache ensemble_cache;
  ensemble_cache.Rebuild(*forest, bundle->data);
  ShardedPredictionCache::WhatIfScratch shard_scratch;
  std::vector<DeletionScratch> shard_deletion;
  batches.clear();
  for (int i = 0; i < 6; ++i) {
    batches.push_back(RandomBatch(&rng, forest->num_global_ids(), 90));
  }
  for (const auto& rows : batches) {
    ASSERT_TRUE(ensemble_cache
                    .ScoreWithout(*forest, rows, bundle->data, &shard_scratch,
                                  &shard_deletion)
                    .ok());
  }
  alloc_count::allocations = 0;
  alloc_count::counting = true;
  for (const auto& rows : batches) {
    if (!ensemble_cache
             .ScoreWithout(*forest, rows, bundle->data, &shard_scratch,
                           &shard_deletion)
             .ok()) {
      break;
    }
  }
  alloc_count::counting = false;
  EXPECT_EQ(alloc_count::allocations, 0);
}

// The removal method end to end: per-evaluation fairness and accumulated
// deletion work match the materialized path.
TEST(FusedUnlearnScoreTest, RemovalMethodMatchesMaterializedEvaluations) {
  Fixture f = MakeFixture(false, 14, BaseConfig(14));
  UnlearnRemovalMethod removal(&f.model, &f.test, f.group,
                               FairnessMetric::kStatisticalParity);
  TestPredictionCache cache;
  cache.Rebuild(f.model, f.test);
  DeletionStats want_stats;
  Rng rng(14);
  for (int i = 0; i < 8; ++i) {
    const std::vector<RowId> rows =
        RandomBatch(&rng, f.model.num_training_rows(), 60);
    auto eval = removal.EvaluateWithout(rows);
    ASSERT_TRUE(eval.ok());
    const Materialized want = CloneDeleteRescore(cache, f.model, rows, f.test);
    const ModelEval want_eval =
        EvaluatePredictions(f.test, want.preds, f.group,
                            FairnessMetric::kStatisticalParity);
    EXPECT_EQ(eval->fairness, want_eval.fairness);
    EXPECT_EQ(eval->accuracy, want_eval.accuracy);
    want_stats.Add(want.stats);
  }
  want_stats.nodes_copied = 0;
  EXPECT_EQ(removal.deletion_stats(), want_stats);
  EXPECT_FALSE(removal.EvaluateWithout({1, 1}).ok());
}

}  // namespace
}  // namespace fume
