// Paper pin: the German Credit audit that `fume_cli --dataset german-credit`
// runs with its defaults, pinned exactly. The audit is deterministic
// (DESIGN.md §6 invariant 8), so its top-5 subsets (paper Tables 3-7), its
// per-level exploration counts (Table 9), its exact work counters and the
// same-seed retrain control (Figure 3) are compared as one `%.17g` text
// against a record captured from a known-good build. A change that moves
// this text changes the search's results or its work; say why in
// CHANGES.md when re-pinning.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <string>
#include <vector>

#include "core/fume.h"
#include "core/removal_method.h"
#include "data/split.h"
#include "fairness/metrics.h"
#include "forest/sharded_forest.h"
#include "obs/metrics.h"
#include "synth/datasets.h"

namespace fume {
namespace {

// fume_cli's German defaults: data seed 4, split seed 2, test fraction 0.3;
// 10 trees, depth 8, random depth 2, model seed 31; k 5, support 5-15%,
// two literals, statistical parity.
struct GermanAudit {
  Dataset train;
  Dataset test;
  GroupSpec group;
  ForestConfig forest;
};

GermanAudit MakeGermanAudit() {
  synth::SynthOptions opts;
  opts.num_rows = 1000;
  opts.seed = 4;
  auto bundle = synth::MakeGermanCredit(opts);
  EXPECT_TRUE(bundle.ok());
  SplitOptions split_opts;
  split_opts.test_fraction = 0.3;
  split_opts.seed = 2;
  auto split = SplitTrainTest(bundle->data, split_opts);
  EXPECT_TRUE(split.ok());
  GermanAudit audit{std::move(split->train), std::move(split->test),
                    bundle->group, ForestConfig{}};
  audit.forest.num_trees = 10;
  audit.forest.max_depth = 8;
  audit.forest.random_depth = 2;
  audit.forest.seed = 31;
  return audit;
}

// The exact work counters an audit moves, as deltas over the search.
const char* const kWorkCounters[] = {
    "fume.search.evaluations",
    "fume.rowset_cache.hit",
    "forest.unlearn.rows_deleted",
    "forest.unlearn.subtrees_retrained",
    "forest.unlearn.rows_retrained",
    "removal.unlearn.cow_rows_rescored",
};

void AppendLine(std::string* text, const char* format, ...)
    __attribute__((format(printf, 2, 3)));

void AppendLine(std::string* text, const char* format, ...) {
  char line[512];
  va_list args;
  va_start(args, format);
  std::vsnprintf(line, sizeof(line), format, args);
  va_end(args);
  text->append(line).append("\n");
}

// Runs the audit at `num_threads` and renders its pinned record.
std::string AuditRecord(int num_threads) {
  const GermanAudit audit = MakeGermanAudit();
  auto model = ShardedForest::Train(audit.train, audit.forest, ShardConfig{});
  EXPECT_TRUE(model.ok());
  FumeConfig config;
  config.group = audit.group;
  config.num_threads = num_threads;
  ModelEval original;
  original.fairness = ComputeFairness(audit.test, model->PredictAll(audit.test),
                                      config.group, config.metric);
  original.accuracy = model->Accuracy(audit.test);
  UnlearnRemovalMethod removal(&*model, &audit.test, config.group,
                               config.metric);

  const obs::MetricsSnapshot before = obs::MetricsRegistry::Global().Snapshot();
  auto result = ExplainWithRemoval(original, audit.train, config, &removal);
  const obs::MetricsSnapshot after = obs::MetricsRegistry::Global().Snapshot();
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (!result.ok()) return "";

  std::string text;
  AppendLine(&text, "original fairness=%.17g accuracy=%.17g",
             result->original_fairness, result->original_accuracy);
  // Figure 3's same-seed control: a cold retrain without each subset, with
  // the model's own config, reproduces its counterfactual fairness bit for
  // bit.
  RetrainRemovalMethod retrain(&audit.train, &audit.test, audit.forest,
                               config.group, config.metric);
  for (const AttributableSubset& s : result->top_k) {
    AppendLine(&text,
               "subset %s support=%.17g rows=%" PRId64
               " attribution=%.17g new_fairness=%.17g new_accuracy=%.17g",
               s.predicate.ToString(audit.train.schema()).c_str(), s.support,
               s.num_rows, s.attribution, s.new_fairness, s.new_accuracy);
    const std::vector<int32_t> matched = s.predicate.MatchingRows(audit.train);
    auto cold = retrain.EvaluateWithout(
        std::vector<RowId>(matched.begin(), matched.end()));
    EXPECT_TRUE(cold.ok());
    if (cold.ok()) {
      AppendLine(&text, "  same-seed retrain %s",
                 cold->fairness == s.new_fairness ? "bit-equal" : "DIFFERS");
    }
  }
  for (const LevelStats& level : result->stats.levels) {
    AppendLine(&text,
               "level %d possible=%" PRId64 " explored=%" PRId64
               " r1=%" PRId64 " r2_low=%" PRId64 " r2_high=%" PRId64
               " r4=%" PRId64 " r5=%" PRId64,
               level.level, level.possible, level.explored,
               level.rule1_pruned, level.rule2_pruned_low,
               level.rule2_expand_only, level.rule4_pruned,
               level.rule5_pruned);
  }
  AppendLine(&text, "r3=%" PRId64 " evaluations=%" PRId64 " memo_hits=%" PRId64,
             result->stats.rule3_unexpanded,
             result->stats.attribution_evaluations, result->stats.cache_hits);
  for (const char* name : kWorkCounters) {
    AppendLine(&text, "%s=%" PRId64, name,
               after.CounterValue(name) - before.CounterValue(name));
  }
  return text;
}

// Captured from fume_cli's German defaults; identical at every thread count.
constexpr const char* kGermanRecord =
    "original fairness=-0.05633802816901412 accuracy=0.72909698996655514\n"
    "subset (Age = Senior) AND (NumPeopleLiable = High)"
    " support=0.11840228245363767 rows=83 attribution=0.99442675159235738"
    " new_fairness=0.00031398582578268108 new_accuracy=0.7123745819397993\n"
    "  same-seed retrain bit-equal\n"
    "subset (Housing = Own) AND (Job = Unskilled resident)"
    " support=0.12696148359486448 rows=89 attribution=0.99442675159235738"
    " new_fairness=0.00031398582578268108 new_accuracy=0.69899665551839463\n"
    "  same-seed retrain bit-equal\n"
    "subset (InstallmentRate = 2) AND (StatusSex = Female"
    " divorced/separated/married) support=0.062767475035663337 rows=44"
    " attribution=0.97054140127388633 new_fairness=0.0016596393648514729"
    " new_accuracy=0.71906354515050164\n"
    "  same-seed retrain bit-equal\n"
    "subset (InstallmentRate = 2) AND (Gender = Female)"
    " support=0.062767475035663337 rows=44 attribution=0.97054140127388633"
    " new_fairness=0.0016596393648514729 new_accuracy=0.69899665551839463\n"
    "  same-seed retrain bit-equal\n"
    "subset (EmploymentSince = 4-7 years) AND (NumPeopleLiable = Low)"
    " support=0.12838801711840228 rows=90 attribution=0.9585987261146508"
    " new_fairness=0.0023324661343858688 new_accuracy=0.7123745819397993\n"
    "  same-seed retrain bit-equal\n"
    "level 1 possible=75 explored=17 r1=0 r2_low=9 r2_high=49 r4=0 r5=6\n"
    "level 2 possible=1770 explored=751 r1=68 r2_low=549 r2_high=402 r4=59"
    " r5=313\n"
    "r3=781 evaluations=767 memo_hits=1\n"
    "fume.search.evaluations=767\n"
    "fume.rowset_cache.hit=1\n"
    "forest.unlearn.rows_deleted=48278\n"
    "forest.unlearn.subtrees_retrained=47668\n"
    "forest.unlearn.rows_retrained=3421801\n"
    "removal.unlearn.cow_rows_rescored=229329\n";

TEST(PaperPinTest, GermanAuditAtOneThread) {
  EXPECT_EQ(AuditRecord(1), kGermanRecord);
}

TEST(PaperPinTest, GermanAuditAtFourThreads) {
  EXPECT_EQ(AuditRecord(4), kGermanRecord);
}

}  // namespace
}  // namespace fume
