// fume_cli: command-line fairness audit tool.
//
//   # audit a built-in synthetic dataset
//   fume_cli --dataset german-credit --metric statistical-parity
//
//   # audit your own CSV (numeric columns are quantile-binned)
//   fume_cli --csv data.csv --label outcome --sensitive gender \
//            --privileged male --support-min 0.05 --support-max 0.15
//
// Run with --help for the full flag list.

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <set>
#include <string>

#include "core/baseline.h"
#include "core/fume.h"
#include "core/report.h"
#include "core/slice_finder.h"
#include "data/csv.h"
#include "data/discretizer.h"
#include "data/split.h"
#include "forest/sharded_forest.h"
#include "forest/tree.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/process.h"
#include "obs/query_scope.h"
#include "obs/trace.h"
#include "synth/registry.h"
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
  int64_t rows = 0;
  uint64_t seed = 4;
  int bins = 4;
  // Model.
  int trees = 10;
  int depth = 8;
  int random_depth = 2;
  uint64_t model_seed = 31;
  std::string save_model;
  int shards = 1;
  std::string placement = "hash";
  // Search.
  FairnessMetric metric = FairnessMetric::kStatisticalParity;
  int top_k = 5;
  double support_min = 0.05;
  double support_max = 0.15;
  int literals = 2;
  int threads = 1;
  double overlap = 1.0;
  bool exclude_sensitive = false;
  bool run_baseline = false;
  bool run_slicefinder = false;
  double test_fraction = 0.3;
  // Observability.
  bool print_metrics = false;
  bool query_cost = false;
  std::string metrics_out;
  std::string trace_out;
  std::string event_log;
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

std::optional<FairnessMetric> ParseMetric(const std::string& name) {
  if (name == "statistical-parity") return FairnessMetric::kStatisticalParity;
  if (name == "equalized-odds") return FairnessMetric::kEqualizedOdds;
  if (name == "predictive-parity") return FairnessMetric::kPredictiveParity;
  if (name == "equal-opportunity") return FairnessMetric::kEqualOpportunity;
  if (name == "disparate-impact") return FairnessMetric::kDisparateImpact;
  return std::nullopt;
}

// Returns false (after printing an error) on malformed flags. Value flags
// accept both `--flag value` and `--flag=value`.
bool ParseArgs(int argc, char** argv, CliOptions* opts, bool* want_help) {
  std::string inline_value;
  bool has_inline = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    has_inline = false;
    if (flag.rfind("--", 0) == 0) {
      const size_t eq = flag.find('=');
      if (eq != std::string::npos) {
        inline_value = flag.substr(eq + 1);
        flag.resize(eq);
        has_inline = true;
      }
    }
    auto need_value = [&]() -> const char* {
      if (has_inline) return inline_value.c_str();
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << flag << "\n";
        return nullptr;
      }
      return argv[++i];
    };
    const char* v = nullptr;
    if (flag == "--help" || flag == "-h") {
      *want_help = true;
      return true;
    } else if (flag == "--exclude-sensitive") {
      opts->exclude_sensitive = true;
    } else if (flag == "--baseline") {
      opts->run_baseline = true;
    } else if (flag == "--slicefinder") {
      opts->run_slicefinder = true;
    } else if (flag == "--metrics") {
      opts->print_metrics = true;
    } else if (flag == "--query-cost") {
      opts->query_cost = true;
    } else if (flag == "--metrics-out") {
      if ((v = need_value()) == nullptr) return false;
      opts->metrics_out = v;
    } else if (flag == "--trace-out") {
      if ((v = need_value()) == nullptr) return false;
      opts->trace_out = v;
    } else if (flag == "--event-log") {
      if ((v = need_value()) == nullptr) return false;
      opts->event_log = v;
    } else if (flag == "--dataset") {
      if ((v = need_value()) == nullptr) return false;
      opts->dataset = v;
    } else if (flag == "--csv") {
      if ((v = need_value()) == nullptr) return false;
      opts->csv = v;
    } else if (flag == "--label") {
      if ((v = need_value()) == nullptr) return false;
      opts->label = v;
    } else if (flag == "--sensitive") {
      if ((v = need_value()) == nullptr) return false;
      opts->sensitive = v;
    } else if (flag == "--privileged") {
      if ((v = need_value()) == nullptr) return false;
      opts->privileged = v;
    } else if (flag == "--save-model") {
      if ((v = need_value()) == nullptr) return false;
      opts->save_model = v;
    } else if (flag == "--placement") {
      if ((v = need_value()) == nullptr) return false;
      opts->placement = v;
    } else if (flag == "--metric") {
      if ((v = need_value()) == nullptr) return false;
      auto metric = ParseMetric(v);
      if (!metric) {
        std::cerr << "unknown metric '" << v << "'\n";
        return false;
      }
      opts->metric = *metric;
    } else {
      static const std::set<std::string> kNumericFlags = {
          "--rows",        "--seed",        "--bins",
          "--trees",       "--depth",       "--random-depth",
          "--model-seed",  "--k",           "--literals",
          "--threads",     "--support-min", "--support-max",
          "--overlap",     "--test-fraction", "--shards"};
      if (kNumericFlags.count(flag) == 0) {
        std::cerr << "unknown flag: " << flag << " (see --help)\n";
        return false;
      }
      if ((v = need_value()) == nullptr) return false;
      int iv = 0;
      double dv = 0.0;
      const bool is_int = ParseInt(v, &iv);
      const bool is_double = ParseDouble(v, &dv);
      if (flag == "--rows" && is_int) opts->rows = iv;
      else if (flag == "--seed" && is_int) opts->seed = static_cast<uint64_t>(iv);
      else if (flag == "--bins" && is_int) opts->bins = iv;
      else if (flag == "--trees" && is_int) opts->trees = iv;
      else if (flag == "--depth" && is_int) opts->depth = iv;
      else if (flag == "--random-depth" && is_int) opts->random_depth = iv;
      else if (flag == "--model-seed" && is_int) opts->model_seed = static_cast<uint64_t>(iv);
      else if (flag == "--k" && is_int) opts->top_k = iv;
      else if (flag == "--literals" && is_int) opts->literals = iv;
      else if (flag == "--threads" && is_int) opts->threads = iv;
      else if (flag == "--support-min" && is_double) opts->support_min = dv;
      else if (flag == "--support-max" && is_double) opts->support_max = dv;
      else if (flag == "--overlap" && is_double) opts->overlap = dv;
      else if (flag == "--test-fraction" && is_double) opts->test_fraction = dv;
      else if (flag == "--shards" && is_int) opts->shards = iv;
      else {
        std::cerr << "unknown or malformed flag: " << flag << " " << v << "\n";
        return false;
      }
    }
  }
  return true;
}

Result<synth::DatasetBundle> LoadData(const CliOptions& opts) {
  if (!opts.dataset.empty()) {
    FUME_ASSIGN_OR_RETURN(synth::RegisteredDataset registered,
                          synth::FindDataset(opts.dataset));
    synth::SynthOptions synth_opts;
    synth_opts.num_rows = opts.rows;
    synth_opts.seed = opts.seed;
    return registered.make(synth_opts);
  }
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

// Writes the requested metrics/trace outputs when Run() exits, whichever
// path it takes (including the "no violation" early return).
struct ObsOutputs {
  const CliOptions& opts;

  explicit ObsOutputs(const CliOptions& options) : opts(options) {
    if (!opts.trace_out.empty()) obs::StartTracing();
  }

  ~ObsOutputs() {
    if (!opts.trace_out.empty()) {
      obs::StopTracing();
      if (obs::WriteTraceJsonFile(opts.trace_out)) {
        std::cout << "trace written to " << opts.trace_out << " ("
                  << obs::TraceEventCount()
                  << " events; open in chrome://tracing or "
                     "https://ui.perfetto.dev)\n";
      } else {
        std::cerr << "could not write trace to " << opts.trace_out << "\n";
      }
    }
    if (opts.print_metrics || !opts.metrics_out.empty()) {
      obs::SetProcessGauges();
      cow_debug::RefreshLiveNodesGauge();
      const obs::MetricsSnapshot snapshot =
          obs::MetricsRegistry::Global().Snapshot();
      if (opts.print_metrics) {
        std::cout << "\n--- metrics ---\n";
        snapshot.PrintText(std::cout);
      }
      if (!opts.metrics_out.empty()) {
        std::ofstream out(opts.metrics_out);
        if (out << snapshot.ToJson() << "\n") {
          std::cout << "metrics written to " << opts.metrics_out << "\n";
        } else {
          std::cerr << "could not write metrics to " << opts.metrics_out
                    << "\n";
        }
      }
    }
  }
};

int Run(const CliOptions& opts) {
  ObsOutputs obs_outputs(opts);
  obs::EventLog event_log(opts.event_log);  // empty path = disabled sink
  if (!opts.event_log.empty() && !event_log.ok()) {
    std::cerr << "could not open event log " << opts.event_log << "\n";
    return 1;
  }
  auto bundle = LoadData(opts);
  if (!bundle.ok()) {
    std::cerr << bundle.status().ToString() << "\n";
    return 1;
  }

  SplitOptions split_opts;
  split_opts.test_fraction = opts.test_fraction;
  split_opts.seed = 2;
  auto split = SplitTrainTest(bundle->data, split_opts);
  if (!split.ok()) {
    std::cerr << split.status().ToString() << "\n";
    return 1;
  }

  ForestConfig forest_config;
  forest_config.num_trees = opts.trees;
  forest_config.max_depth = opts.depth;
  forest_config.random_depth = opts.random_depth;
  forest_config.seed = opts.model_seed;
  auto shard_config =
      ShardConfigFromFlags(opts.shards, opts.placement,
                           bundle->group.sensitive_attr,
                           bundle->group.privileged_code);
  if (!shard_config.ok()) {
    std::cerr << shard_config.status().ToString() << "\n";
    return 1;
  }
  obs::QueryScope train_scope("train");
  auto model = ShardedForest::Train(split->train, forest_config, *shard_config);
  const obs::QueryCost train_cost = train_scope.Finish();
  if (!model.ok()) {
    std::cerr << model.status().ToString() << "\n";
    return 1;
  }
  event_log.Event("train")
      .Field("dataset", bundle->name)
      .Field("train_rows", split->train.num_rows())
      .Field("trees", opts.trees)
      .Field("shards", static_cast<int64_t>(opts.shards))
      .Field("cost", train_cost)
      .Write();
  std::cout << "dataset: " << bundle->name << " (" << bundle->data.num_rows()
            << " rows, " << bundle->data.num_attributes()
            << " attributes), sensitive attribute: "
            << bundle->data.schema().attribute(bundle->group.sensitive_attr).name
            << "\nmodel: ";
  if (opts.shards > 1) {
    std::cout << opts.shards << " shards ("
              << PlacementName(shard_config->placement) << " placement) x ";
  }
  std::cout << opts.trees << " trees, depth " << opts.depth << ", accuracy "
            << FormatPercent(model->Accuracy(split->test)) << " on "
            << split->test.num_rows() << " test rows\n\n";

  if (!opts.save_model.empty()) {
    std::ofstream out(opts.save_model, std::ios::binary);
    Status st = out ? model->Save(out)
                    : Status::IOError("cannot open " + opts.save_model);
    if (!st.ok()) {
      std::cerr << st.ToString() << "\n";
      return 1;
    }
    std::cout << "model saved to " << opts.save_model << "\n\n";
  }

  FumeConfig config;
  config.top_k = opts.top_k;
  config.support_min = opts.support_min;
  config.support_max = opts.support_max;
  config.max_literals = opts.literals;
  config.metric = opts.metric;
  config.group = bundle->group;
  config.num_threads = opts.threads;
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
      .Field("top_k", opts.top_k)
      .Field("threads", opts.threads)
      .Field("shards", static_cast<int64_t>(opts.shards))
      .Field("ok", result.ok())
      .Field("cost", search_cost)
      .Write();
  if (!result.ok()) {
    std::cout << result.status().ToString() << "\n";
    return result.status().IsInvalid() ? 0 : 1;  // "no violation" is fine
  }
  if (opts.query_cost) {
    std::cout << "\n--- query cost (QueryScope) ---\n";
    search_cost.PrintText(std::cout);
    std::cout << "\n";
  }
  PrintViolationSummary(*result, config.metric, std::cout);
  PrintTopK(*result, split->train.schema(), "S", std::cout);
  std::cout << "\n";
  PrintExplorationStats(result->stats, std::cout);

  if ((opts.run_baseline || opts.run_slicefinder) && opts.shards > 1) {
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
    slice_config.top_k = opts.top_k;
    slice_config.support_min = opts.support_min;
    slice_config.support_max = opts.support_max;
    slice_config.max_literals = opts.literals;
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
  bool want_help = false;
  if (!ParseArgs(argc, argv, &opts, &want_help)) return 2;
  if (want_help || argc == 1) {
    PrintUsage();
    return 0;
  }
  return Run(opts);
}
