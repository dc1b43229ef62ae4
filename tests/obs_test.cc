// Tests for the observability subsystem: lock-free metrics (exact
// concurrent sums, histogram quantile bounds, serialization), trace spans
// (valid Chrome trace-event JSON, nesting, per-thread attribution), and
// the contract that enabling observability never changes FUME's results.

#include <gtest/gtest.h>

#include <cmath>
#include <regex>
#include <sstream>
#include <thread>
#include <vector>

#include "core/fume.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "synth/datasets.h"

namespace fume {
namespace {

// ---------------------------------------------------------------- metrics

TEST(ObsMetricsTest, ConcurrentCounterIncrementsSumExactly) {
  obs::MetricsRegistry registry;
  obs::Counter* counter = registry.GetCounter("test.concurrent");
  constexpr int kThreads = 8;
  constexpr int kIncrements = 20000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&]() {
      for (int i = 0; i < kIncrements; ++i) counter->Inc();
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(counter->Value(), int64_t{kThreads} * kIncrements);
  EXPECT_EQ(registry.Snapshot().CounterValue("test.concurrent"),
            int64_t{kThreads} * kIncrements);
}

TEST(ObsMetricsTest, ConcurrentRegistrationYieldsOneCounter) {
  obs::MetricsRegistry registry;
  constexpr int kThreads = 8;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back(
        [&]() { registry.GetCounter("test.same_name")->Inc(); });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(registry.Snapshot().CounterValue("test.same_name"), kThreads);
}

TEST(ObsMetricsTest, HistogramBucketsAreLogScale) {
  EXPECT_EQ(obs::Histogram::BucketIndex(0), 0);
  EXPECT_EQ(obs::Histogram::BucketIndex(-5), 0);
  EXPECT_EQ(obs::Histogram::BucketIndex(1), 1);
  EXPECT_EQ(obs::Histogram::BucketIndex(2), 2);
  EXPECT_EQ(obs::Histogram::BucketIndex(3), 2);
  EXPECT_EQ(obs::Histogram::BucketIndex(4), 3);
  EXPECT_EQ(obs::Histogram::BucketIndex(1023), 10);
  EXPECT_EQ(obs::Histogram::BucketIndex(1024), 11);
  for (int b = 1; b < obs::Histogram::kNumBuckets - 1; ++b) {
    // Bucket bounds tile the positive axis with no gaps or overlaps.
    EXPECT_EQ(obs::Histogram::BucketLowerBound(b + 1),
              obs::Histogram::BucketUpperBound(b) + 1);
    EXPECT_EQ(obs::Histogram::BucketIndex(obs::Histogram::BucketLowerBound(b)),
              b);
  }
}

TEST(ObsMetricsTest, HistogramQuantileBounds) {
  obs::MetricsRegistry registry;
  obs::Histogram* hist = registry.GetHistogram("test.latency");
  for (int64_t v = 1; v <= 1000; ++v) hist->Record(v);
  EXPECT_EQ(hist->Count(), 1000);
  EXPECT_EQ(hist->Sum(), 1000 * 1001 / 2);

  const obs::MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.histograms.size(), 1u);
  const obs::HistogramSnapshot& h = snapshot.histograms[0].second;
  EXPECT_EQ(h.count, 1000);
  EXPECT_DOUBLE_EQ(h.Mean(), 500.5);

  // A log2 bucket's upper bound is at most 2x the true quantile, and never
  // below it: the q-quantile sample lives in [upper/2, upper].
  for (double q : {0.1, 0.5, 0.9, 0.99, 1.0}) {
    const int64_t true_quantile =
        std::max<int64_t>(1, static_cast<int64_t>(q * 1000 + 0.5));
    const int64_t upper = h.QuantileUpperBound(q);
    EXPECT_GE(upper, true_quantile) << "q=" << q;
    EXPECT_LE(upper / 2, true_quantile) << "q=" << q;
  }
  // All mass in one bucket: the bound is exact for that bucket.
  obs::Histogram* point = registry.GetHistogram("test.point");
  for (int i = 0; i < 10; ++i) point->Record(7);
  const auto snap2 = registry.Snapshot();
  EXPECT_EQ(snap2.histograms[1].second.QuantileUpperBound(0.5), 7);
}

TEST(ObsMetricsTest, KindMismatchReturnsNull) {
  obs::MetricsRegistry registry;
  ASSERT_NE(registry.GetCounter("test.metric"), nullptr);
  EXPECT_EQ(registry.GetHistogram("test.metric"), nullptr);
  EXPECT_EQ(registry.GetGauge("test.metric"), nullptr);
  // Same name + same kind returns the same object.
  EXPECT_EQ(registry.GetCounter("test.metric"),
            registry.GetCounter("test.metric"));
}

TEST(ObsMetricsTest, ResetZeroesButKeepsPointersValid) {
  obs::MetricsRegistry registry;
  obs::Counter* counter = registry.GetCounter("test.reset");
  obs::Histogram* hist = registry.GetHistogram("test.reset_hist");
  counter->Inc(42);
  hist->Record(9);
  registry.Reset();
  EXPECT_EQ(counter->Value(), 0);
  EXPECT_EQ(hist->Count(), 0);
  counter->Inc();  // pointer still usable after Reset
  EXPECT_EQ(registry.Snapshot().CounterValue("test.reset"), 1);
}

TEST(ObsMetricsTest, SerializationFormats) {
  obs::MetricsRegistry registry;
  registry.GetCounter("b.counter")->Inc(3);
  registry.GetCounter("a.counter")->Inc(1);
  registry.GetGauge("c.gauge")->Set(-7);
  registry.GetHistogram("d.hist")->Record(5);
  const obs::MetricsSnapshot snapshot = registry.Snapshot();

  // Sorted by name.
  ASSERT_EQ(snapshot.counters.size(), 2u);
  EXPECT_EQ(snapshot.counters[0].first, "a.counter");
  EXPECT_EQ(snapshot.counters[1].first, "b.counter");

  std::ostringstream text;
  snapshot.PrintText(text);
  EXPECT_NE(text.str().find("counter a.counter 1"), std::string::npos);
  EXPECT_NE(text.str().find("gauge c.gauge -7"), std::string::npos);
  EXPECT_NE(text.str().find("histogram d.hist count=1 sum=5 p50<=7 p90<=7"),
            std::string::npos);

  const std::string json = snapshot.ToJson();
  EXPECT_NE(json.find("\"a.counter\":1"), std::string::npos);
  EXPECT_NE(json.find("\"b.counter\":3"), std::string::npos);
  EXPECT_NE(json.find("\"c.gauge\":-7"), std::string::npos);
  EXPECT_NE(json.find("\"d.hist\":{\"count\":1,\"sum\":5,"
                      "\"p50\":7,\"p90\":7,\"p99\":7,\"buckets\":"
                      "[{\"le\":7,\"count\":1}]}"),
            std::string::npos);
  // Balanced braces/brackets (cheap well-formedness check; full structure
  // is pinned by the exact substring above).
  int depth = 0;
  for (char c : json) {
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

// ------------------------------------------------------------------ trace

struct ParsedEvent {
  std::string name;
  int tid = 0;
  double ts = 0.0;
  double dur = 0.0;
};

// Pulls every complete event out of the trace JSON (the writer emits a
// fixed field order, pinned here on purpose — it is the exported format).
std::vector<ParsedEvent> ParseEvents(const std::string& json) {
  std::vector<ParsedEvent> events;
  const std::regex event_re(
      "\\{\"ph\":\"X\",\"name\":\"([^\"]+)\",\"pid\":1,\"tid\":([0-9]+),"
      "\"ts\":([0-9.]+),\"dur\":([0-9.]+)");
  for (auto it = std::sregex_iterator(json.begin(), json.end(), event_re);
       it != std::sregex_iterator(); ++it) {
    ParsedEvent e;
    e.name = (*it)[1];
    e.tid = std::stoi((*it)[2]);
    e.ts = std::stod((*it)[3]);
    e.dur = std::stod((*it)[4]);
    events.push_back(e);
  }
  return events;
}

const ParsedEvent* FindEvent(const std::vector<ParsedEvent>& events,
                             const std::string& name) {
  for (const auto& e : events) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

TEST(ObsTraceTest, DisabledSpansRecordNothing) {
  obs::StopTracing();
  obs::ClearTrace();
  {
    obs::TraceSpan span("should.not.appear", {{"x", 1}});
  }
  EXPECT_EQ(obs::TraceEventCount(), 0);
  EXPECT_NE(obs::TraceToJson().find("\"traceEvents\":[]"), std::string::npos);
}

TEST(ObsTraceTest, JsonOutputParsesAndNestsSpans) {
  obs::StartTracing();
  {
    obs::TraceSpan outer("outer", {{"level", 1}});
    {
      obs::TraceSpan inner("inner");
    }
  }
  std::thread worker([]() { obs::TraceSpan span("worker.span"); });
  worker.join();
  obs::StopTracing();

  const std::string json = obs::TraceToJson();
  // Envelope shape.
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"level\":1}"), std::string::npos);

  const std::vector<ParsedEvent> events = ParseEvents(json);
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(obs::TraceEventCount(), 3);

  const ParsedEvent* outer = FindEvent(events, "outer");
  const ParsedEvent* inner = FindEvent(events, "inner");
  const ParsedEvent* worker_span = FindEvent(events, "worker.span");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  ASSERT_NE(worker_span, nullptr);

  // Nesting: inner lies strictly within [outer.ts, outer.ts + outer.dur],
  // on the same thread — exactly how chrome://tracing reconstructs the
  // span tree. The worker span belongs to a different tid.
  EXPECT_EQ(inner->tid, outer->tid);
  EXPECT_GE(inner->ts, outer->ts);
  EXPECT_LE(inner->ts + inner->dur, outer->ts + outer->dur);
  EXPECT_NE(worker_span->tid, outer->tid);

  obs::ClearTrace();
}

TEST(ObsTraceTest, AddArgAndArgOverflow) {
  // Arg keys are matched by pointer (the doc requires literals that outlive
  // the session), so reuse the same pointer for the overwrite.
  const char* const kKeyB = "b";
  obs::StartTracing();
  {
    obs::TraceSpan span("many.args",
                        {{"a", 1}, {kKeyB, 2}, {"c", 3}, {"d", 4}, {"e", 5}});
    span.AddArg(kKeyB, 20);  // overwrite
    span.AddArg("f", 6);     // dropped: already at kMaxArgs
  }
  obs::StopTracing();
  const std::string json = obs::TraceToJson();
  EXPECT_NE(json.find("\"args\":{\"a\":1,\"b\":20,\"c\":3,\"d\":4}"),
            std::string::npos);
  EXPECT_EQ(json.find("\"e\":"), std::string::npos);
  obs::ClearTrace();
}

// ------------------------------------------------- end-to-end with FUME

struct Fixture {
  Dataset train;
  Dataset test;
  GroupSpec group;
  DareForest model;
};

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
  ForestConfig forest_config;
  forest_config.num_trees = 5;
  forest_config.max_depth = 6;
  forest_config.random_depth = 2;
  forest_config.seed = 23;
  auto model = DareForest::Train(f.train, forest_config);
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

TEST(ObsFumeTest, TracingDoesNotChangeResults) {
  Fixture f = MakeFixture();
  const FumeConfig config = TestFumeConfig(f);

  obs::StopTracing();
  auto plain = ExplainFairnessViolation(f.model, f.train, f.test, config);
  ASSERT_TRUE(plain.ok());

  obs::StartTracing();
  auto traced = ExplainFairnessViolation(f.model, f.train, f.test, config);
  obs::StopTracing();
  ASSERT_TRUE(traced.ok());
  EXPECT_GT(obs::TraceEventCount(), 0);

  // Byte-identical search output: same subsets, same doubles, bit for bit.
  ASSERT_EQ(plain->top_k.size(), traced->top_k.size());
  for (size_t i = 0; i < plain->top_k.size(); ++i) {
    EXPECT_EQ(plain->top_k[i].predicate.ToString(f.train.schema()),
              traced->top_k[i].predicate.ToString(f.train.schema()));
    EXPECT_EQ(plain->top_k[i].attribution, traced->top_k[i].attribution);
    EXPECT_EQ(plain->top_k[i].support, traced->top_k[i].support);
    EXPECT_EQ(plain->top_k[i].new_fairness, traced->top_k[i].new_fairness);
    EXPECT_EQ(plain->top_k[i].new_accuracy, traced->top_k[i].new_accuracy);
  }
  EXPECT_EQ(plain->original_fairness, traced->original_fairness);
  ASSERT_EQ(plain->all_candidates.size(), traced->all_candidates.size());
  obs::ClearTrace();
}

TEST(ObsFumeTest, SearchPopulatesPruningCountersAndSpans) {
  obs::MetricsRegistry::Global().Reset();
  Fixture f = MakeFixture(2);
  FumeConfig config = TestFumeConfig(f);
  config.num_threads = 4;

  obs::StartTracing();
  auto result = ExplainFairnessViolation(f.model, f.train, f.test, config);
  obs::StopTracing();
  ASSERT_TRUE(result.ok());

  const obs::MetricsSnapshot m = obs::MetricsRegistry::Global().Snapshot();
  // The per-rule registry counters mirror the per-run FumeStats.
  int64_t stats_explored = 0, rule2_low = 0, rule2_high = 0, rule4 = 0,
          rule5 = 0, rule1 = 0;
  for (const LevelStats& level : result->stats.levels) {
    stats_explored += level.explored;
    rule1 += level.rule1_pruned;
    rule2_low += level.rule2_pruned_low;
    rule2_high += level.rule2_expand_only;
    rule4 += level.rule4_pruned;
    rule5 += level.rule5_pruned;
  }
  EXPECT_EQ(m.CounterValue("fume.search.explored_subsets"), stats_explored);
  EXPECT_EQ(m.CounterValue("fume.prune.rule2_support_low"), rule2_low);
  EXPECT_EQ(m.CounterValue("fume.prune.rule2_support_high"), rule2_high);
  EXPECT_EQ(m.CounterValue("fume.prune.rule4_parent"), rule4);
  EXPECT_EQ(m.CounterValue("fume.prune.rule5_nonpositive"), rule5);
  EXPECT_GE(m.CounterValue("fume.prune.rule1_contradiction") +
                m.CounterValue("lattice.merge.degenerate"),
            rule1);
  EXPECT_GT(rule2_low + rule2_high + rule4 + rule5, 0);

  // Unlearning and cache counters flowed through the whole stack.
  EXPECT_EQ(m.CounterValue("removal.unlearn.evaluations"),
            result->stats.attribution_evaluations);
  EXPECT_EQ(m.CounterValue("fume.rowset_cache.hit"), result->stats.cache_hits);
  EXPECT_EQ(m.CounterValue("fume.rowset_cache.insert"),
            result->stats.cache_inserts);
  EXPECT_GT(m.CounterValue("forest.unlearn.nodes_visited"), 0);
  EXPECT_GT(m.CounterValue("posting.match.literal"), 0);

  // Spans from every layer (search levels, evaluation, the forest's fused
  // what-if walks) made it into one trace, across worker threads.
  const std::string json = obs::TraceToJson();
  EXPECT_NE(json.find("\"name\":\"fume.level\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"fume.evaluate\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"removal.unlearn.evaluate\""),
            std::string::npos);
  EXPECT_NE(json.find("\"name\":\"forest.score_without\""),
            std::string::npos);
  obs::ClearTrace();
}

TEST(ObsFumeTest, LevelStatsRuleBreakdownIsConsistent) {
  Fixture f = MakeFixture(3);
  auto result =
      ExplainFairnessViolation(f.model, f.train, f.test, TestFumeConfig(f));
  ASSERT_TRUE(result.ok());
  for (const LevelStats& level : result->stats.levels) {
    // Everything classified at this level is either estimated or pruned by
    // rule 2; rules 4/5 only discard already-estimated nodes.
    EXPECT_LE(level.rule4_pruned + level.rule5_pruned, level.explored);
    if (level.level == 1) {
      EXPECT_EQ(level.rule1_pruned, 0);
    }
    EXPECT_GE(level.rule2_pruned_low, 0);
    EXPECT_GE(level.rule2_expand_only, 0);
  }
}

}  // namespace
}  // namespace fume
