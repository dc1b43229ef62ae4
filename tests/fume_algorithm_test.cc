// Tests for the FUME search itself (Algorithm 1): the top-k contract, the
// pruning rules, exploration statistics, and that the planted cohort is
// recovered as the #1 explanation.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "core/fume.h"
#include "core/report.h"
#include "synth/datasets.h"

namespace fume {
namespace {

struct Fixture {
  Dataset train;
  Dataset test;
  GroupSpec group;
  DareForest model;
};

ForestConfig TestForestConfig() {
  ForestConfig config;
  config.num_trees = 5;
  config.max_depth = 6;
  config.random_depth = 2;
  config.seed = 23;
  return config;
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
  auto model = DareForest::Train(f.train, TestForestConfig());
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
  // Explanations phrased in terms of the sensitive attribute itself
  // ("Group = Protected AND ...") are trivially true and uninformative, so
  // the planted-cohort tests search over the non-sensitive attributes.
  config.lattice.excluded_attrs = {f.group.sensitive_attr};
  return config;
}

TEST(FumeTest, FindsThePlantedCohortFirst) {
  Fixture f = MakeFixture();
  auto result =
      ExplainFairnessViolation(f.model, f.train, f.test, TestFumeConfig(f));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_FALSE(result->top_k.empty());

  // The planted cohort (A = a1 AND B = b2) must be the top subset.
  Predicate planted;
  for (const auto& [attr, code] : synth::PlantedCohortConditions()) {
    planted = planted.With(Literal{attr, LiteralOp::kEq, code});
  }
  EXPECT_EQ(result->top_k[0].predicate.ToString(f.train.schema()),
            planted.ToString(f.train.schema()));
  EXPECT_GT(result->top_k[0].attribution, 0.3);
}

TEST(FumeTest, TopKContract) {
  Fixture f = MakeFixture(2);
  FumeConfig config = TestFumeConfig(f);
  auto result = ExplainFairnessViolation(f.model, f.train, f.test, config);
  ASSERT_TRUE(result.ok());
  ASSERT_LE(result->top_k.size(), static_cast<size_t>(config.top_k));
  for (size_t i = 0; i < result->top_k.size(); ++i) {
    const AttributableSubset& s = result->top_k[i];
    EXPECT_GT(s.attribution, 0.0);                       // phi < 0
    EXPECT_GE(s.support, config.support_min);            // Rule 2
    EXPECT_LE(s.support, config.support_max);
    EXPECT_LE(s.predicate.num_literals(), config.max_literals);  // Rule 3
    if (i > 0) {
      EXPECT_GE(result->top_k[i - 1].attribution, s.attribution);  // sorted
    }
    EXPECT_DOUBLE_EQ(s.phi, -s.attribution);
  }
  // top_k is a prefix of all_candidates.
  ASSERT_GE(result->all_candidates.size(), result->top_k.size());
  for (size_t i = 0; i < result->top_k.size(); ++i) {
    EXPECT_EQ(result->top_k[i].predicate.ToString(f.train.schema()),
              result->all_candidates[i].predicate.ToString(f.train.schema()));
  }
}

TEST(FumeTest, RefusesWhenThereIsNoViolation) {
  Fixture f = MakeFixture(3);
  FumeConfig config = TestFumeConfig(f);
  config.min_original_bias = 10.0;  // impossible bar => treated as fair
  auto result = ExplainFairnessViolation(f.model, f.train, f.test, config);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalid());
}

TEST(FumeTest, ValidatesConfig) {
  Fixture f = MakeFixture(4);
  FumeConfig config = TestFumeConfig(f);
  config.top_k = 0;
  EXPECT_FALSE(ExplainFairnessViolation(f.model, f.train, f.test, config).ok());
  config = TestFumeConfig(f);
  config.support_min = 0.5;
  config.support_max = 0.1;
  EXPECT_FALSE(ExplainFairnessViolation(f.model, f.train, f.test, config).ok());
  config = TestFumeConfig(f);
  config.max_literals = 0;
  EXPECT_FALSE(ExplainFairnessViolation(f.model, f.train, f.test, config).ok());
}

TEST(FumeTest, LevelStatsAreConsistent) {
  Fixture f = MakeFixture(5);
  FumeConfig config = TestFumeConfig(f);
  auto result = ExplainFairnessViolation(f.model, f.train, f.test, config);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->stats.levels.size(), 2u);  // max_literals = 2
  int64_t explored_total = 0;
  for (const LevelStats& level : result->stats.levels) {
    EXPECT_GE(level.possible, level.explored);
    EXPECT_GE(level.pruned_percent(), 0.0);
    EXPECT_LE(level.pruned_percent(), 100.0);
    explored_total += level.explored;
  }
  EXPECT_EQ(explored_total, result->stats.attribution_evaluations +
                                result->stats.cache_hits);
}

TEST(FumeTest, Rule3LimitsLiterals) {
  Fixture f = MakeFixture(6);
  FumeConfig config = TestFumeConfig(f);
  config.max_literals = 1;
  auto result = ExplainFairnessViolation(f.model, f.train, f.test, config);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.levels.size(), 1u);
  for (const auto& s : result->all_candidates) {
    EXPECT_EQ(s.predicate.num_literals(), 1);
  }
}

TEST(FumeTest, Rule2PruningNeverEvaluatesOutOfRangeLevel1Subsets) {
  Fixture f = MakeFixture(7);
  FumeConfig config = TestFumeConfig(f);
  config.max_literals = 1;
  auto result = ExplainFairnessViolation(f.model, f.train, f.test, config);
  ASSERT_TRUE(result.ok());
  // Count level-1 subsets inside the support range by hand.
  Lattice lattice(f.train, config.lattice);
  int64_t in_range = 0;
  for (const auto& node : lattice.MakeLevel1()) {
    if (node.support >= config.support_min &&
        node.support <= config.support_max && node.rows.Count() > 0) {
      ++in_range;
    }
  }
  EXPECT_EQ(result->stats.levels[0].explored, in_range);
}

TEST(FumeTest, DisablingRule2EvaluatesMore) {
  Fixture f = MakeFixture(8, 800);
  FumeConfig strict = TestFumeConfig(f);
  strict.max_literals = 1;
  FumeConfig loose = strict;
  loose.rule2_support = false;
  auto a = ExplainFairnessViolation(f.model, f.train, f.test, strict);
  auto b = ExplainFairnessViolation(f.model, f.train, f.test, loose);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_GT(b->stats.levels[0].explored, a->stats.levels[0].explored);
  // Output contract still honors the support range.
  for (const auto& s : b->all_candidates) {
    EXPECT_GE(s.support, loose.support_min);
    EXPECT_LE(s.support, loose.support_max);
  }
}

TEST(FumeTest, DisablingRules4And5ExploresMoreAtLevel2) {
  Fixture f = MakeFixture(9, 800);
  FumeConfig strict = TestFumeConfig(f);
  FumeConfig loose = strict;
  loose.rule4_parent = false;
  loose.rule5_positive = false;
  auto a = ExplainFairnessViolation(f.model, f.train, f.test, strict);
  auto b = ExplainFairnessViolation(f.model, f.train, f.test, loose);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(b->stats.levels.size(), 2u);
  EXPECT_GE(b->stats.levels[1].possible, a->stats.levels[1].possible);
  // Anything the pruned search reports must also surface (at least as good)
  // in the unpruned search's candidate pool.
  EXPECT_GE(b->all_candidates.size(), a->top_k.size());
}

TEST(FumeTest, CacheDeduplicatesIdenticalRowSets) {
  Fixture f = MakeFixture(10, 600);
  FumeConfig config = TestFumeConfig(f);
  auto result = ExplainFairnessViolation(f.model, f.train, f.test, config);
  ASSERT_TRUE(result.ok());
  // Every explored node is either an evaluation or a memo hit, and every
  // evaluation enters the memo exactly once.
  const auto explored = [](const FumeResult& r) {
    int64_t total = 0;
    for (const LevelStats& level : r.stats.levels) total += level.explored;
    return total;
  };
  EXPECT_EQ(result->stats.attribution_evaluations + result->stats.cache_hits,
            explored(*result));
  EXPECT_EQ(result->stats.cache_inserts, result->stats.attribution_evaluations);
}

// Regression: predicates over distinct attributes can still select the very
// same training rows. Such duplicates within one level must share a single
// evaluation, and every duplicate must report identical results. A
// one-level search never reads a prior level's memo entry, so the sharing
// seen here is the within-level deduplication. A dataset with a copied
// column guarantees the collision; a counting removal observes the
// evaluations.
TEST(FumeTest, DuplicateRowSetsEvaluatedOnceWithoutRowsetCache) {
  class CountingRemoval : public RemovalMethod {
   public:
    Result<ModelEval> EvaluateWithout(
        const std::vector<RowId>& rows) override {
      ++counts_[rows];
      ModelEval eval;
      // Distinct per row set so duplicate predicates provably shared an
      // evaluation (attribution 0.5 - fairness > 0 keeps Rule 5 happy).
      eval.fairness = 0.1 + 1e-4 * static_cast<double>(rows.front());
      eval.accuracy = 0.9;
      return eval;
    }
    const char* name() const override { return "counting-mock"; }
    std::map<std::vector<RowId>, int> counts_;
  };

  Schema schema;
  ASSERT_TRUE(schema.AddCategorical("X", {"x0", "x1", "x2"}).ok());
  ASSERT_TRUE(schema.AddCategorical("XCopy", {"x0", "x1", "x2"}).ok());
  schema.set_label_name("Y");
  Dataset data(schema);
  for (int r = 0; r < 300; ++r) {
    ASSERT_TRUE(data.AppendRow({r % 3, r % 3}, r % 2).ok());
  }

  FumeConfig config;
  config.top_k = 6;
  config.support_min = 0.2;
  config.support_max = 0.5;
  config.max_literals = 1;
  ModelEval original;
  original.fairness = 0.5;
  original.accuracy = 0.9;

  CountingRemoval removal;
  auto result = ExplainWithRemoval(original, data, config, &removal);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // 6 literals (X/XCopy x 3 values) collapse onto 3 distinct row sets, each
  // evaluated exactly once.
  ASSERT_EQ(removal.counts_.size(), 3u);
  for (const auto& [rows, count] : removal.counts_) {
    EXPECT_EQ(count, 1) << "row set evaluated " << count << " times";
  }
  EXPECT_EQ(result->stats.attribution_evaluations, 3);
  EXPECT_EQ(result->stats.cache_hits, 3);
  EXPECT_EQ(result->stats.levels[0].explored, 6);

  // Every X=v / XCopy=v pair reports identical numbers.
  ASSERT_EQ(result->all_candidates.size(), 6u);
  std::map<std::string, std::vector<double>> by_value;
  for (const auto& s : result->all_candidates) {
    const std::string name = s.predicate.ToString(data.schema());
    by_value[name.substr(name.size() - 2)].push_back(s.new_fairness);
  }
  ASSERT_EQ(by_value.size(), 3u);
  for (const auto& [value, fairness] : by_value) {
    ASSERT_EQ(fairness.size(), 2u) << value;
    EXPECT_EQ(fairness[0], fairness[1]) << value;
  }
}

TEST(FumeTest, DeterministicAcrossRuns) {
  Fixture f = MakeFixture(11);
  FumeConfig config = TestFumeConfig(f);
  auto a = ExplainFairnessViolation(f.model, f.train, f.test, config);
  auto b = ExplainFairnessViolation(f.model, f.train, f.test, config);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->top_k.size(), b->top_k.size());
  for (size_t i = 0; i < a->top_k.size(); ++i) {
    EXPECT_EQ(a->top_k[i].predicate.ToString(f.train.schema()),
              b->top_k[i].predicate.ToString(f.train.schema()));
    EXPECT_DOUBLE_EQ(a->top_k[i].attribution, b->top_k[i].attribution);
  }
}

TEST(FumeTest, ParallelEvaluationMatchesSerial) {
  Fixture f = MakeFixture(16, 1000);
  FumeConfig serial_config = TestFumeConfig(f);
  serial_config.num_threads = 1;
  FumeConfig parallel_config = TestFumeConfig(f);
  parallel_config.num_threads = 4;
  auto serial =
      ExplainFairnessViolation(f.model, f.train, f.test, serial_config);
  auto parallel =
      ExplainFairnessViolation(f.model, f.train, f.test, parallel_config);
  ASSERT_TRUE(serial.ok() && parallel.ok());
  ASSERT_EQ(serial->top_k.size(), parallel->top_k.size());
  for (size_t i = 0; i < serial->top_k.size(); ++i) {
    EXPECT_EQ(serial->top_k[i].predicate.ToString(f.train.schema()),
              parallel->top_k[i].predicate.ToString(f.train.schema()));
    EXPECT_DOUBLE_EQ(serial->top_k[i].attribution,
                     parallel->top_k[i].attribution);
  }
  EXPECT_EQ(serial->stats.attribution_evaluations,
            parallel->stats.attribution_evaluations);
  EXPECT_EQ(serial->stats.cache_hits, parallel->stats.cache_hits);
  EXPECT_EQ(serial->all_candidates.size(), parallel->all_candidates.size());
}

TEST(FumeTest, OverlapFilterYieldsDisjointishTopK) {
  Fixture f = MakeFixture(15);
  FumeConfig config = TestFumeConfig(f);
  config.max_row_overlap = 0.3;
  auto result = ExplainFairnessViolation(f.model, f.train, f.test, config);
  ASSERT_TRUE(result.ok());
  ASSERT_GE(result->top_k.size(), 2u);
  // Verify the pairwise Jaccard bound directly against the training data.
  std::vector<std::vector<int32_t>> rowsets;
  for (const auto& s : result->top_k) {
    rowsets.push_back(s.predicate.MatchingRows(f.train));
  }
  for (size_t i = 0; i < rowsets.size(); ++i) {
    for (size_t j = i + 1; j < rowsets.size(); ++j) {
      std::vector<int32_t> inter;
      std::set_intersection(rowsets[i].begin(), rowsets[i].end(),
                            rowsets[j].begin(), rowsets[j].end(),
                            std::back_inserter(inter));
      const double uni = static_cast<double>(rowsets[i].size()) +
                         static_cast<double>(rowsets[j].size()) -
                         static_cast<double>(inter.size());
      ASSERT_GT(uni, 0.0);
      EXPECT_LE(static_cast<double>(inter.size()) / uni, 0.3 + 1e-12);
    }
  }
  // The filtered list is a subsequence of the unfiltered ranking, with the
  // same #1.
  FumeConfig plain = TestFumeConfig(f);
  auto unfiltered = ExplainFairnessViolation(f.model, f.train, f.test, plain);
  ASSERT_TRUE(unfiltered.ok());
  ASSERT_FALSE(unfiltered->top_k.empty());
  EXPECT_EQ(result->top_k[0].predicate.ToString(f.train.schema()),
            unfiltered->top_k[0].predicate.ToString(f.train.schema()));
}

TEST(FumeTest, WorksForAllThreeMetrics) {
  Fixture f = MakeFixture(12);
  for (FairnessMetric metric :
       {FairnessMetric::kStatisticalParity, FairnessMetric::kEqualizedOdds,
        FairnessMetric::kPredictiveParity}) {
    FumeConfig config = TestFumeConfig(f);
    config.metric = metric;
    auto result = ExplainFairnessViolation(f.model, f.train, f.test, config);
    if (result.ok()) {
      for (const auto& s : result->top_k) EXPECT_GT(s.attribution, 0.0);
    } else {
      // A metric can legitimately be (near) zero on this data; the only
      // acceptable failure is "no violation".
      EXPECT_TRUE(result.status().IsInvalid());
    }
  }
}

TEST(FumeTest, ReportRendersAllSections) {
  Fixture f = MakeFixture(13);
  auto result =
      ExplainFairnessViolation(f.model, f.train, f.test, TestFumeConfig(f));
  ASSERT_TRUE(result.ok());
  const std::string report =
      FormatReport(*result, f.train.schema(),
                   FairnessMetric::kStatisticalParity, "PS");
  EXPECT_NE(report.find("Violation: statistical parity"), std::string::npos);
  EXPECT_NE(report.find("PS1"), std::string::npos);
  EXPECT_NE(report.find("Parity Reduction"), std::string::npos);
  EXPECT_NE(report.find("Possible subsets"), std::string::npos);
}

TEST(FumeTest, UnlearnAndRetrainRemovalAgreeOnTopK) {
  // With the same seed, the retrain removal is the exact ground truth; FUME
  // must produce identical rankings with either estimator.
  Fixture f = MakeFixture(14, 900);
  FumeConfig config = TestFumeConfig(f);
  auto unlearned =
      ExplainFairnessViolation(f.model, f.train, f.test, config);
  RetrainRemovalMethod retrain(&f.train, &f.test, TestForestConfig(), f.group,
                               config.metric);
  auto retrained =
      ExplainWithRemoval(f.model, f.train, f.test, config, &retrain);
  ASSERT_TRUE(unlearned.ok() && retrained.ok());
  ASSERT_EQ(unlearned->top_k.size(), retrained->top_k.size());
  for (size_t i = 0; i < unlearned->top_k.size(); ++i) {
    EXPECT_EQ(
        unlearned->top_k[i].predicate.ToString(f.train.schema()),
        retrained->top_k[i].predicate.ToString(f.train.schema()));
    EXPECT_DOUBLE_EQ(unlearned->top_k[i].attribution,
                     retrained->top_k[i].attribution);
  }
}

}  // namespace
}  // namespace fume
