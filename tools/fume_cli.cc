// fume_cli: command-line fairness audit tool.
//
//   # audit a built-in synthetic dataset
//   fume_cli --dataset german-credit --metric statistical-parity
//
//   # audit your own CSV (numeric columns are quantile-binned)
//   fume_cli --csv data.csv --label outcome --sensitive gender
//            --privileged male --support-min 0.05 --support-max 0.15
//
// Run with --help for the full flag list.

#include <fstream>
#include <iostream>
#include <string>

#include "cli_common.h"
#include "core/baseline.h"
#include "core/fume.h"
#include "core/report.h"
#include "core/slice_finder.h"
#include "data/csv.h"
#include "data/discretizer.h"
#include "data/split.h"
#include "forest/sharded_forest.h"
#include "obs/event_log.h"
#include "obs/query_scope.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace {

using namespace fume;

struct CliOptions {
  // Data source (exactly one of dataset / csv).
  std::string dataset;
  std::string csv;
  std::string label = "label";
  std::string sensitive;
  std::string privileged;
  int bins = 4;
  cli::DataFlags data;
  cli::ModelFlags model;
  std::string save_model;
  cli::SearchFlags search;
  double overlap = 1.0;
  bool exclude_sensitive = false;
  bool run_baseline = false;
  bool run_slicefinder = false;
  cli::ObsFlags obs;
};

void PrintUsage() {
  std::cout << R"(fume_cli — explain a group-fairness violation of a random forest

Data source (pick one):
  --dataset NAME        built-in synthetic dataset: german-credit,
                        adult-income, sqf, acs-income, meps
  --csv FILE            load a CSV (numeric columns quantile-binned)
      --label COL       binary label column (default: label)
      --sensitive COL   sensitive attribute column (required with --csv)
      --privileged VAL  category treated as the privileged group (required)
      --bins N          bins per numeric column (default 4)
  --rows N              override dataset size (synthetic only)
  --seed N              data seed (default 4)

Model:
  --trees N             forest size (default 10)
  --depth N             max tree depth (default 8)
  --random-depth N      DaRE random upper levels (default 2)
  --model-seed N        forest seed (default 31)
  --save-model FILE     save the trained model as a FUMESHRD sharded
                        container at every shard count (one shard wraps
                        the FUMEDARE forest blob); reload it with
                        ShardedForest::Load
  --shards N            audit a SISA sharded ensemble (default 1, the
                        monolithic forest): rows partition across N
                        sub-forests and every what-if unlearns only the
                        shards it touches
  --placement P         hash | slice (default hash; ignored at one shard);
                        slice concentrates the sensitive privileged
                        cohort into the last shard so bias-targeted
                        deletions stay shard-local

Search:
  --metric M            statistical-parity | equalized-odds |
                        predictive-parity | equal-opportunity |
                        disparate-impact (default statistical-parity)
  --k N                 top-k subsets (default 5)
  --support-min F       Rule 2 lower bound (default 0.05)
  --support-max F       Rule 2 upper bound (default 0.15)
  --literals N          Rule 3 max literals (default 2)
  --threads N           parallel attribution workers (default 1)
  --overlap F           max Jaccard overlap between reported subsets
                        (default 1.0 = no filter)
  --exclude-sensitive   do not phrase subsets in terms of the sensitive attr
  --baseline            also run the DropUnprivUnfavor baseline
  --slicefinder         also run the SliceFinder-style comparator
  --test-fraction F     test split fraction (default 0.3)

Observability (docs/observability.md; --flag=value also accepted):
  --metrics             print a metrics summary after the run
  --metrics-out FILE    write all counters/histograms as JSON
  --trace-out FILE      record trace spans and write Chrome trace-event
                        JSON (open in chrome://tracing or Perfetto)
  --query-cost          print the search's per-query cost report (metric
                        deltas + wall/CPU time attributed by QueryScope)
  --event-log FILE      append one structured JSONL line per operation
                        (train, search) with its cost summary
  --help, -h            this text
)";
}

Result<synth::DatasetBundle> LoadData(const CliOptions& opts) {
  if (!opts.dataset.empty()) return opts.data.Make(opts.dataset);
  if (opts.csv.empty()) {
    return Status::Invalid("pass --dataset NAME or --csv FILE (see --help)");
  }
  if (opts.sensitive.empty() || opts.privileged.empty()) {
    return Status::Invalid("--csv requires --sensitive and --privileged");
  }
  CsvReadOptions read_opts;
  read_opts.label_column = opts.label;
  FUME_ASSIGN_OR_RETURN(Dataset raw, ReadCsvFile(opts.csv, read_opts));
  DiscretizerOptions disc_opts;
  disc_opts.num_bins = opts.bins;
  FUME_ASSIGN_OR_RETURN(Discretizer disc, Discretizer::Fit(raw, disc_opts));
  FUME_ASSIGN_OR_RETURN(Dataset data, disc.Transform(raw));
  synth::DatasetBundle bundle;
  bundle.name = opts.csv;
  FUME_ASSIGN_OR_RETURN(int sensitive_attr,
                        data.schema().FindAttribute(opts.sensitive));
  const int priv_code =
      data.schema().attribute(sensitive_attr).FindCategory(opts.privileged);
  if (priv_code < 0) {
    return Status::Invalid("privileged value '" + opts.privileged +
                           "' not found in column '" + opts.sensitive + "'");
  }
  bundle.group = GroupSpec{sensitive_attr, priv_code};
  bundle.data = std::move(data);
  return bundle;
}

int Run(const CliOptions& opts) {
  cli::ObsExport obs_export(opts.obs);
  if (!obs_export.ok()) return 1;
  obs::EventLog& event_log = obs_export.event_log();
  auto bundle = LoadData(opts);
  if (!bundle.ok()) return cli::Fail(bundle.status());

  SplitOptions split_opts;
  split_opts.test_fraction = opts.data.test_fraction;
  split_opts.seed = 2;
  auto split = SplitTrainTest(bundle->data, split_opts);
  if (!split.ok()) return cli::Fail(split.status());

  const ForestConfig forest_config = opts.model.Forest();
  auto shard_config = opts.model.Shard(bundle->group);
  if (!shard_config.ok()) return cli::Fail(shard_config.status());
  obs::QueryScope train_scope("train");
  auto model = ShardedForest::Train(split->train, forest_config, *shard_config);
  const obs::QueryCost train_cost = train_scope.Finish();
  if (!model.ok()) return cli::Fail(model.status());
  event_log.Event("train")
      .Field("dataset", bundle->name)
      .Field("train_rows", split->train.num_rows())
      .Field("trees", opts.model.trees)
      .Field("shards", static_cast<int64_t>(opts.model.shards))
      .Field("cost", train_cost)
      .Write();
  std::cout << "dataset: " << bundle->name << " (" << bundle->data.num_rows()
            << " rows, " << bundle->data.num_attributes()
            << " attributes), sensitive attribute: "
            << bundle->data.schema().attribute(bundle->group.sensitive_attr).name
            << "\nmodel: ";
  if (opts.model.shards > 1) {
    std::cout << opts.model.shards << " shards ("
              << PlacementName(shard_config->placement) << " placement) x ";
  }
  std::cout << opts.model.trees << " trees, depth " << opts.model.depth
            << ", accuracy "
            << FormatPercent(model->Accuracy(split->test)) << " on "
            << split->test.num_rows() << " test rows\n\n";

  if (!opts.save_model.empty()) {
    std::ofstream out(opts.save_model, std::ios::binary);
    Status st = out ? model->Save(out)
                    : Status::IOError("cannot open " + opts.save_model);
    if (!st.ok()) return cli::Fail(st);
    std::cout << "model saved to " << opts.save_model << "\n\n";
  }

  FumeConfig config = opts.search.Fume(bundle->group);
  config.max_row_overlap = opts.overlap;
  if (opts.exclude_sensitive) {
    config.lattice.excluded_attrs = {bundle->group.sensitive_attr};
  }
  ModelEval original;
  original.fairness = ComputeFairness(
      split->test, model->PredictAll(split->test), config.group, config.metric);
  original.accuracy = model->Accuracy(split->test);
  UnlearnRemovalMethod removal(&*model, &split->test, config.group,
                               config.metric);
  obs::QueryScope search_scope("search");
  auto result = ExplainWithRemoval(original, split->train, config, &removal);
  const obs::QueryCost search_cost = search_scope.Finish();
  event_log.Event("search")
      .Field("dataset", bundle->name)
      .Field("top_k", opts.search.top_k)
      .Field("threads", opts.search.threads)
      .Field("shards", static_cast<int64_t>(opts.model.shards))
      .Field("ok", result.ok())
      .Field("cost", search_cost)
      .Write();
  if (!result.ok()) {
    std::cout << result.status().ToString() << "\n";
    return result.status().IsInvalid() ? 0 : 1;  // "no violation" is fine
  }
  if (opts.obs.query_cost) {
    std::cout << "\n--- query cost (QueryScope) ---\n";
    search_cost.PrintText(std::cout);
    std::cout << "\n";
  }
  PrintViolationSummary(*result, config.metric, std::cout);
  PrintTopK(*result, split->train.schema(), "S", std::cout);
  std::cout << "\n";
  PrintExplorationStats(result->stats, std::cout);

  if ((opts.run_baseline || opts.run_slicefinder) && opts.model.shards > 1) {
    std::cout << "\n(--baseline / --slicefinder are monolithic comparators; "
                 "rerun without --shards to include them)\n";
    return 0;
  }
  if (opts.run_baseline) {
    std::cout << "\n";
    auto baseline = RunDropUnprivUnfavor(split->train, split->test,
                                         forest_config, bundle->group,
                                         config.metric);
    if (baseline.ok()) {
      PrintBaseline(*baseline, std::cout);
    } else {
      std::cout << baseline.status().ToString() << "\n";
    }
  }
  if (opts.run_slicefinder) {
    SliceFinderConfig slice_config;
    slice_config.top_k = config.top_k;
    slice_config.support_min = config.support_min;
    slice_config.support_max = config.support_max;
    slice_config.max_literals = config.max_literals;
    auto slices =
        FindProblematicSlices(model->shard(0), split->train, slice_config);
    if (slices.ok()) {
      std::cout << "\nSliceFinder-style worst-accuracy slices (for "
                   "contrast):\n";
      TablePrinter table({"#", "Slice", "Support", "Error-rate gap"});
      int index = 1;
      for (const Slice& slice : *slices) {
        table.AddRow({std::to_string(index++),
                      slice.predicate.ToString(split->train.schema()),
                      FormatPercent(slice.support),
                      FormatPercent(slice.effect_size)});
      }
      table.Print(std::cout);
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions opts;
  cli::FlagSet flags;
  flags.String("--dataset", &opts.dataset);
  flags.String("--csv", &opts.csv);
  flags.String("--label", &opts.label);
  flags.String("--sensitive", &opts.sensitive);
  flags.String("--privileged", &opts.privileged);
  flags.Int("--bins", &opts.bins);
  opts.data.Register(&flags);
  opts.model.Register(&flags);
  flags.String("--save-model", &opts.save_model);
  opts.search.Register(&flags, /*with_metric=*/true);
  flags.Double("--overlap", &opts.overlap);
  flags.Bool("--exclude-sensitive", &opts.exclude_sensitive);
  flags.Bool("--baseline", &opts.run_baseline);
  flags.Bool("--slicefinder", &opts.run_slicefinder);
  opts.obs.Register(&flags, /*with_query_cost=*/true);
  if (argc == 1) {
    PrintUsage();
    return 0;
  }
  if (auto exit_code = flags.Parse(argc, argv, PrintUsage)) return *exit_code;
  return Run(opts);
}
