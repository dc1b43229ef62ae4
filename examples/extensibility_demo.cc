// Extensibility demo (paper §5): FUME is model-agnostic — swapping the
// removal method is all it takes to debug a different model family. Here
// the same planted-bias dataset is audited three times: with a DaRE random
// forest (unlearning via cached-statistics deletion), with its ERT-style
// all-random-levels variant, and with a HedgeCut forest (unlearning by
// swapping in maintained split variants) — the two unlearnable forests the
// paper's §5.1 names.

#include <iostream>

#include "core/fume.h"
#include "core/report.h"
#include "data/split.h"
#include "hedgecut/hedgecut.h"
#include "synth/datasets.h"
#include "util/string_util.h"

namespace {

void PrintResult(const char* title, const fume::Result<fume::FumeResult>& r,
                 const fume::Schema& schema) {
  std::cout << "--- " << title << " ---\n";
  if (!r.ok()) {
    std::cout << r.status().ToString() << "\n\n";
    return;
  }
  fume::PrintViolationSummary(*r, fume::FairnessMetric::kStatisticalParity,
                              std::cout);
  fume::PrintTopK(*r, schema, "X", std::cout);
  std::cout << "\n";
}

}  // namespace

int main() {
  using namespace fume;

  synth::PlantedOptions data_opts;
  data_opts.num_rows = 2000;
  auto bundle = synth::MakePlantedBias(data_opts);
  FUME_ABORT_NOT_OK(bundle.status());
  SplitOptions split_opts;
  split_opts.test_fraction = 0.3;
  split_opts.seed = 2;
  auto split = SplitTrainTest(bundle->data, split_opts);
  FUME_ABORT_NOT_OK(split.status());
  const Dataset& train = split->train;
  const Dataset& test = split->test;

  FumeConfig config;
  config.top_k = 3;
  config.support_min = 0.02;
  config.support_max = 0.25;
  config.max_literals = 2;
  config.group = bundle->group;
  config.lattice.excluded_attrs = {bundle->group.sensitive_attr};

  // 1. DaRE random forest (the paper's model).
  {
    ForestConfig forest_config;
    forest_config.num_trees = 20;
    forest_config.max_depth = 7;
    forest_config.random_depth = 2;
    forest_config.seed = 31;
    auto model = DareForest::Train(train, forest_config);
    FUME_ABORT_NOT_OK(model.status());
    PrintResult("DaRE random forest",
                ExplainFairnessViolation(*model, train, test, config),
                train.schema());
  }

  // 2. ERT-style variant: every level random (HedgeCut-flavoured
  //    extremely randomized trees) — still exactly unlearnable, because the
  //    random choices are data-independent.
  {
    ForestConfig ert_config;
    ert_config.num_trees = 30;
    ert_config.max_depth = 7;
    ert_config.random_depth = 7;  // all levels random
    ert_config.seed = 31;
    auto model = DareForest::Train(train, ert_config);
    FUME_ABORT_NOT_OK(model.status());
    PrintResult("Extremely randomized trees (random_depth = max_depth)",
                ExplainFairnessViolation(*model, train, test, config),
                train.schema());
  }

  // 3. HedgeCut: a different unlearnable forest. The generic
  //    ExplainWithRemoval overload takes any RemovalMethod.
  {
    HedgecutConfig hedgecut_config;
    hedgecut_config.num_trees = 10;
    hedgecut_config.max_depth = 7;
    hedgecut_config.seed = 31;
    auto model = HedgecutForest::Train(train, hedgecut_config);
    FUME_ABORT_NOT_OK(model.status());
    const ModelEval original =
        EvaluateHedgecut(*model, test, config.group, config.metric);
    HedgecutUnlearnRemovalMethod removal(&*model, &test, config.group,
                                         config.metric);
    PrintResult("HedgeCut forest (maintained split variants)",
                ExplainWithRemoval(original, train, config, &removal),
                train.schema());
  }

  std::cout << "All three audits search the same lattice; only the removal "
               "method changed (paper §5).\n";
  return 0;
}
