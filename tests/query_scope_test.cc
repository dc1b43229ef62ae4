// Tests for query-scoped cost attribution (obs/query_scope.h): delta
// isolation between scopes, nesting containment, attribution of work done
// by ThreadPool workers back to the enqueuing scope (exercised at several
// pool widths — the TSan sweep runs this file), reconciliation of a FUME
// search's scope report against the global registry (over a bare forest
// and over a 2-shard ensemble), and the contract that scoping never
// changes search results.

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "core/fume.h"
#include "forest/sharded_forest.h"
#include "obs/metrics.h"
#include "obs/query_scope.h"
#include "synth/datasets.h"
#include "util/thread_pool.h"

namespace fume {
namespace {

// --------------------------------------------------- basic delta capture

TEST(QueryScopeTest, SequentialScopesIsolateDeltas) {
  obs::Counter* a = obs::GetCounter("test.qscope.a");
  obs::Counter* b = obs::GetCounter("test.qscope.b");
  const int64_t a_before = a->Value();
  const int64_t b_before = b->Value();

  obs::QueryScope first("first", {"test.qscope.a", "test.qscope.b"});
  a->Inc(5);
  b->Inc(2);
  const obs::QueryCost first_cost = first.Finish();
  EXPECT_EQ(first_cost.CounterDelta("test.qscope.a"), 5);
  EXPECT_EQ(first_cost.CounterDelta("test.qscope.b"), 2);

  // A later scope starts from zero — it does not inherit earlier deltas.
  obs::QueryScope second("second", {"test.qscope.a", "test.qscope.b"});
  a->Inc(7);
  const obs::QueryCost second_cost = second.Finish();
  EXPECT_EQ(second_cost.CounterDelta("test.qscope.a"), 7);
  EXPECT_EQ(second_cost.CounterDelta("test.qscope.b"), 0);

  // The cumulative registry kept counting through both scopes.
  EXPECT_EQ(a->Value() - a_before, 12);
  EXPECT_EQ(b->Value() - b_before, 2);
}

TEST(QueryScopeTest, UntrackedCounterFallsThroughToRegistryOnly) {
  obs::Counter* tracked = obs::GetCounter("test.qscope.tracked");
  obs::Counter* untracked = obs::GetCounter("test.qscope.untracked");
  const int64_t untracked_before = untracked->Value();

  obs::QueryScope scope("scope", {"test.qscope.tracked"});
  tracked->Inc();
  untracked->Inc(3);
  const obs::QueryCost cost = scope.Finish();
  EXPECT_EQ(cost.CounterDelta("test.qscope.tracked"), 1);
  EXPECT_EQ(cost.CounterDelta("test.qscope.untracked"), 0);
  EXPECT_EQ(untracked->Value() - untracked_before, 3);
}

TEST(QueryScopeTest, NestedScopeDeltasFlowIntoOuterScope) {
  obs::Counter* c = obs::GetCounter("test.qscope.nested");
  obs::QueryScope outer("outer", {"test.qscope.nested"});
  c->Inc(1);
  {
    obs::QueryScope inner("inner", {"test.qscope.nested"});
    c->Inc(10);
    const obs::QueryCost inner_cost = inner.Finish();
    EXPECT_EQ(inner_cost.CounterDelta("test.qscope.nested"), 10);
  }
  c->Inc(100);
  const obs::QueryCost outer_cost = outer.Finish();
  // Outer includes its own increments and everything the inner scope saw.
  EXPECT_EQ(outer_cost.CounterDelta("test.qscope.nested"), 111);
}

TEST(QueryScopeTest, HistogramDeltasCaptureCountAndSum) {
  obs::Histogram* h = obs::GetHistogram("test.qscope.hist");
  obs::QueryScope scope("scope", {}, {"test.qscope.hist"});
  h->Record(4);
  h->Record(6);
  const obs::QueryCost cost = scope.Finish();
  ASSERT_EQ(cost.histograms.size(), 1u);
  EXPECT_EQ(cost.histograms[0].name, "test.qscope.hist");
  EXPECT_EQ(cost.histograms[0].count, 2);
  EXPECT_EQ(cost.histograms[0].sum, 10);
}

TEST(QueryScopeTest, WallAndCpuTimesAreSane) {
  obs::QueryScope scope("timing", {});
  // Burn a little CPU so thread-CPU time is measurably nonzero.
  volatile int64_t sink = 0;
  for (int i = 0; i < 2000000; ++i) sink = sink + i;
  const obs::QueryCost cost = scope.Finish();
  EXPECT_GT(cost.wall_seconds, 0.0);
  EXPECT_GE(cost.cpu_seconds, 0.0);
  // Repeated Finish returns the same (memoized) report.
  const obs::QueryCost again = scope.Finish();
  EXPECT_EQ(again.wall_seconds, cost.wall_seconds);
  EXPECT_EQ(again.cpu_seconds, cost.cpu_seconds);
}

TEST(QueryScopeTest, ReportFormatsElideZeroDeltas) {
  obs::Counter* hot = obs::GetCounter("test.qscope.fmt_hot");
  obs::QueryScope scope("fmt", {"test.qscope.fmt_hot", "test.qscope.fmt_cold"});
  hot->Inc(9);
  const obs::QueryCost cost = scope.Finish();

  const std::string json = cost.ToJson();
  EXPECT_NE(json.find("\"label\":\"fmt\""), std::string::npos);
  EXPECT_NE(json.find("\"test.qscope.fmt_hot\":9"), std::string::npos);
  EXPECT_EQ(json.find("fmt_cold"), std::string::npos);

  const std::string compact = cost.CompactString();
  EXPECT_NE(compact.find("wall "), std::string::npos);
  EXPECT_NE(compact.find("test.qscope.fmt_hot=9"), std::string::npos);
  EXPECT_EQ(compact.find("fmt_cold"), std::string::npos);
}

// ------------------------------------------- cross-thread attribution

TEST(QueryScopeTest, PoolWorkersAttributeToEnqueuingScope) {
  obs::Counter* c = obs::GetCounter("test.qscope.pool");
  for (int num_threads : {1, 4, 8}) {
    util::ThreadPool pool(num_threads);
    const int64_t before = c->Value();
    constexpr size_t kJobs = 5000;

    obs::QueryScope scope("pool", {"test.qscope.pool"});
    pool.ParallelFor(kJobs, [&](int /*worker*/, size_t /*index*/) {
      c->Inc();
    });
    const obs::QueryCost cost = scope.Finish();

    // Every increment lands on the enqueuing scope, no matter which worker
    // thread ran it — and exactly once.
    EXPECT_EQ(cost.CounterDelta("test.qscope.pool"),
              static_cast<int64_t>(kJobs))
        << "num_threads=" << num_threads;
    EXPECT_EQ(c->Value() - before, static_cast<int64_t>(kJobs));
  }
}

TEST(QueryScopeTest, PoolAttributionReachesOuterScopeToo) {
  obs::Counter* c = obs::GetCounter("test.qscope.pool_nested");
  util::ThreadPool pool(4);
  obs::QueryScope outer("outer", {"test.qscope.pool_nested"});
  {
    obs::QueryScope inner("inner", {"test.qscope.pool_nested"});
    pool.ParallelFor(1000, [&](int, size_t) { c->Inc(); });
    EXPECT_EQ(inner.Finish().CounterDelta("test.qscope.pool_nested"), 1000);
  }
  EXPECT_EQ(outer.Finish().CounterDelta("test.qscope.pool_nested"), 1000);
}

TEST(QueryScopeTest, ConsecutiveBatchesOnOnePoolStayScoped) {
  // Reusing one pool across scopes must not leak a stale scope pointer into
  // a later batch.
  obs::Counter* c = obs::GetCounter("test.qscope.pool_reuse");
  util::ThreadPool pool(4);
  {
    obs::QueryScope scope("first", {"test.qscope.pool_reuse"});
    pool.ParallelFor(300, [&](int, size_t) { c->Inc(); });
    EXPECT_EQ(scope.Finish().CounterDelta("test.qscope.pool_reuse"), 300);
  }
  {
    obs::QueryScope scope("second", {"test.qscope.pool_reuse"});
    pool.ParallelFor(200, [&](int, size_t) { c->Inc(); });
    EXPECT_EQ(scope.Finish().CounterDelta("test.qscope.pool_reuse"), 200);
  }
  // And a batch with no active scope attributes to nobody (must not crash
  // or revive the finished scopes).
  pool.ParallelFor(100, [&](int, size_t) { c->Inc(); });
}

TEST(QueryScopeTest, UnrelatedThreadDoesNotAttributeToScope) {
  obs::Counter* c = obs::GetCounter("test.qscope.foreign");
  const int64_t before = c->Value();
  obs::QueryScope scope("scope", {"test.qscope.foreign"});
  // A plain std::thread (not a pool worker carrying this scope) increments
  // the counter: the registry sees it, the scope does not.
  std::thread t([&]() {
    for (int i = 0; i < 100; ++i) c->Inc();
  });
  t.join();
  const obs::QueryCost cost = scope.Finish();
  EXPECT_EQ(cost.CounterDelta("test.qscope.foreign"), 0);
  EXPECT_EQ(c->Value() - before, 100);
}

// ------------------------------------------------- end-to-end with FUME

struct Fixture {
  Dataset train;
  Dataset test;
  GroupSpec group;
  DareForest model;
};

ForestConfig FixtureForestConfig() {
  ForestConfig forest_config;
  forest_config.num_trees = 5;
  forest_config.max_depth = 6;
  forest_config.random_depth = 2;
  forest_config.seed = 23;
  return forest_config;
}

Fixture MakeFixture(uint64_t seed = 1, int64_t rows = 1500) {
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
  auto model = DareForest::Train(f.train, FixtureForestConfig());
  EXPECT_TRUE(model.ok());
  f.model = std::move(*model);
  return f;
}

FumeConfig TestFumeConfig(const Fixture& f) {
  FumeConfig config;
  config.top_k = 5;
  config.support_min = 0.02;
  config.support_max = 0.25;
  config.max_literals = 2;
  config.metric = FairnessMetric::kStatisticalParity;
  config.group = f.group;
  config.lattice.excluded_attrs = {f.group.sensitive_attr};
  return config;
}

TEST(QueryScopeFumeTest, SearchCostReconcilesWithGlobalRegistry) {
  Fixture f = MakeFixture(2);
  FumeConfig config = TestFumeConfig(f);
  config.num_threads = 4;
  ShardConfig two_shards;
  two_shards.num_shards = 2;
  auto sharded = ShardedForest::Train(f.train, FixtureForestConfig(),
                                      two_shards);
  ASSERT_TRUE(sharded.ok());
  ModelEval sharded_original;
  sharded_original.fairness =
      ComputeFairness(f.test, sharded->PredictAll(f.test), f.group,
                      config.metric);
  sharded_original.accuracy = sharded->Accuracy(f.test);

  // Two inputs: the paper's entry point over a bare forest, and a 2-shard
  // ensemble searched through the same removal method.
  for (const int shards : {1, 2}) {
    SCOPED_TRACE(std::to_string(shards) + " shard(s)");
    // With a freshly zeroed registry and exactly one scoped query, every
    // tracked delta must equal the registry's cumulative value — including
    // work done on pool worker threads.
    obs::MetricsRegistry::Global().Reset();
    obs::QueryScope scope("search");
    Result<FumeResult> result = [&]() -> Result<FumeResult> {
      if (shards == 1) {
        return ExplainFairnessViolation(f.model, f.train, f.test, config);
      }
      UnlearnRemovalMethod removal(&*sharded, &f.test, f.group,
                                   config.metric);
      return ExplainWithRemoval(sharded_original, f.train, config, &removal);
    }();
    const obs::QueryCost cost = scope.Finish();
    ASSERT_TRUE(result.ok());

    const obs::MetricsSnapshot m = obs::MetricsRegistry::Global().Snapshot();
    for (const obs::QueryCounterDelta& c : cost.counters) {
      EXPECT_EQ(c.delta, m.CounterValue(c.name)) << c.name;
    }
    int64_t rows_per_evaluation_count = -1;
    for (const obs::QueryHistogramDelta& h : cost.histograms) {
      int64_t global_count = 0, global_sum = 0;
      for (const auto& entry : m.histograms) {
        if (entry.first == h.name) {
          global_count = entry.second.count;
          global_sum = entry.second.sum;
        }
      }
      EXPECT_EQ(h.count, global_count) << h.name;
      EXPECT_EQ(h.sum, global_sum) << h.name;
      if (h.name == "removal.unlearn.rows_per_evaluation") {
        rows_per_evaluation_count = h.count;
      }
    }

    // The default tracked set actually observed the search, its removal
    // work included, whatever the shard count.
    EXPECT_GT(cost.CounterDelta("fume.search.evaluations"), 0);
    EXPECT_GT(cost.CounterDelta("fume.search.explored_subsets"), 0);
    EXPECT_GT(cost.CounterDelta("removal.unlearn.cow_rows_rescored"), 0);
    EXPECT_EQ(rows_per_evaluation_count,
              cost.CounterDelta("fume.search.evaluations"));
    EXPECT_GT(cost.wall_seconds, 0.0);
  }
}

TEST(QueryScopeFumeTest, ScopingDoesNotChangeResults) {
  Fixture f = MakeFixture();
  FumeConfig config = TestFumeConfig(f);
  config.num_threads = 4;

  auto plain = ExplainFairnessViolation(f.model, f.train, f.test, config);
  ASSERT_TRUE(plain.ok());

  obs::QueryScope scope("search");
  auto scoped = ExplainFairnessViolation(f.model, f.train, f.test, config);
  scope.Finish();
  ASSERT_TRUE(scoped.ok());

  // Byte-identical search output: same subsets, same doubles, bit for bit.
  ASSERT_EQ(plain->top_k.size(), scoped->top_k.size());
  for (size_t i = 0; i < plain->top_k.size(); ++i) {
    EXPECT_EQ(plain->top_k[i].predicate.ToString(f.train.schema()),
              scoped->top_k[i].predicate.ToString(f.train.schema()));
    EXPECT_EQ(plain->top_k[i].attribution, scoped->top_k[i].attribution);
    EXPECT_EQ(plain->top_k[i].support, scoped->top_k[i].support);
    EXPECT_EQ(plain->top_k[i].new_fairness, scoped->top_k[i].new_fairness);
    EXPECT_EQ(plain->top_k[i].new_accuracy, scoped->top_k[i].new_accuracy);
  }
  EXPECT_EQ(plain->original_fairness, scoped->original_fairness);
  ASSERT_EQ(plain->all_candidates.size(), scoped->all_candidates.size());
}

}  // namespace
}  // namespace fume
