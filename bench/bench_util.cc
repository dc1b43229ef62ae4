#include "bench_util.h"

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "forest/serialize.h"
#include "obs/metrics.h"
#include "obs/process.h"
#include "obs/query_scope.h"

namespace fume {
namespace bench {

bool FullMode(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--full") == 0) return true;
  }
  const char* env = std::getenv("FUME_BENCH_FULL");
  return env != nullptr && std::strcmp(env, "1") == 0;
}

bool SmokeMode(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) return true;
  }
  const char* env = std::getenv("FUME_BENCH_SMOKE");
  return env != nullptr && std::strcmp(env, "1") == 0;
}

int64_t BenchRows(const synth::RegisteredDataset& dataset, bool full) {
  if (full) return dataset.paper_rows;
  // German is already small; scale the rest to container-friendly sizes.
  if (dataset.name == "german-credit") return dataset.paper_rows;
  // MEPS has 42 attributes -> by far the largest level-2 lattice; keep the
  // scaled run affordable.
  if (dataset.name == "meps") return 6000;
  return 8000;
}

ForestConfig BenchForestConfig(const std::string& dataset_name) {
  ForestConfig config;
  config.num_trees = 10;
  config.random_depth = 2;
  config.seed = 31;
  // Depth tuned per dataset so the trained model exhibits a clear group
  // disparity (the paper starts from a biased classifier).
  if (dataset_name == "adult-income") {
    config.max_depth = 10;
  } else if (dataset_name == "meps") {
    // MEPS: deeper and wider — 42 mostly-binary attributes need depth for a
    // clear violation, and more trees damp the prediction variance that
    // otherwise lets noise subsets score spuriously high reductions.
    config.max_depth = 12;
    config.num_trees = 20;
  } else {
    config.max_depth = 8;
  }
  return config;
}

FumeConfig BenchFumeConfig(const GroupSpec& group, FairnessMetric metric) {
  FumeConfig config;
  config.top_k = 5;
  config.support_min = 0.05;
  config.support_max = 0.15;
  config.max_literals = 2;
  config.metric = metric;
  config.group = group;
  return config;
}

Result<Pipeline> SetupPipeline(const synth::RegisteredDataset& dataset,
                               bool full, uint64_t seed) {
  synth::SynthOptions opts;
  opts.num_rows = BenchRows(dataset, full);
  opts.seed = seed;
  FUME_ASSIGN_OR_RETURN(synth::DatasetBundle bundle, dataset.make(opts));

  SplitOptions split_opts;
  split_opts.test_fraction = 0.3;
  split_opts.seed = 2;
  FUME_ASSIGN_OR_RETURN(TrainTestSplit split,
                        SplitTrainTest(bundle.data, split_opts));

  Pipeline p;
  p.name = dataset.name;
  p.index_prefix = dataset.index_prefix;
  p.rows_used = opts.num_rows;
  p.paper_rows = dataset.paper_rows;
  p.train = std::move(split.train);
  p.test = std::move(split.test);
  p.group = bundle.group;
  p.forest_config = BenchForestConfig(dataset.name);
  Stopwatch watch;
  FUME_ASSIGN_OR_RETURN(p.model, DareForest::Train(p.train, p.forest_config));
  p.train_seconds = watch.ElapsedSeconds();
  return p;
}

void PrintBanner(const std::string& title, const std::string& paper_ref) {
  std::cout << "\n================================================================\n"
            << title << "\n(reproduces " << paper_ref << ")\n"
            << "================================================================\n";
}

int RunTopKBench(const std::string& dataset_name, int argc, char** argv) {
  const bool full = FullMode(argc, argv);
  auto dataset = synth::FindDataset(dataset_name);
  FUME_ABORT_NOT_OK(dataset.status());
  auto pipeline = SetupPipeline(*dataset, full);
  FUME_ABORT_NOT_OK(pipeline.status());
  Pipeline& p = *pipeline;

  std::cout << "dataset: " << p.name << " (" << p.rows_used << " rows"
            << (p.rows_used == p.paper_rows
                    ? ", paper-sized"
                    : ", scaled from " + std::to_string(p.paper_rows))
            << "), train " << p.train.num_rows() << " / test "
            << p.test.num_rows() << ", forest " << p.forest_config.num_trees
            << " trees depth " << p.forest_config.max_depth << "\n\n";

  FumeConfig config = BenchFumeConfig(p.group);
  Stopwatch watch;
  obs::QueryScope scope("search");
  auto result = ExplainFairnessViolation(p.model, p.train, p.test, config);
  const obs::QueryCost cost = scope.Finish();
  if (!result.ok()) {
    std::cout << "FUME: " << result.status().ToString() << "\n";
    return 0;
  }
  const double fume_seconds = watch.ElapsedSeconds();

  PrintViolationSummary(*result, config.metric, std::cout);
  PrintTopK(*result, p.train.schema(), p.index_prefix, std::cout);
  std::cout << "\n";
  PrintExplorationStats(result->stats, std::cout);
  std::cout << "FUME wall time: " << FormatDouble(fume_seconds, 2) << " s\n"
            << "query cost: " << cost.CompactString() << "\n\n";

  auto baseline = RunDropUnprivUnfavor(p.train, p.test, p.forest_config,
                                       p.group, config.metric);
  if (baseline.ok()) {
    PrintBaseline(*baseline, std::cout);
  } else {
    std::cout << "baseline: " << baseline.status().ToString() << "\n";
  }
  WriteMetricsSnapshot("topk_" + dataset_name);
  return 0;
}

void WriteArtifact(const std::string& name,
                   const std::vector<std::string>& header,
                   const std::vector<std::vector<std::string>>& rows) {
  std::error_code ec;
  std::filesystem::create_directories("bench_artifacts", ec);
  const std::string path = "bench_artifacts/" + name + ".csv";
  std::ofstream out(path);
  if (!out) {
    std::cerr << "(could not write artifact " << path << ")\n";
    return;
  }
  out << Join(header, ",") << "\n";
  for (const auto& row : rows) out << Join(row, ",") << "\n";
  std::cout << "artifact written: " << path << " (" << rows.size()
            << " rows)\n";
  WriteMetricsSnapshot(name);
}

std::string MachineDescription() {
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        cpu = line.substr(colon + 2);
      }
      break;
    }
  }
  std::string out = "nproc=" +
                    std::to_string(std::thread::hardware_concurrency()) +
                    "; cpu=" + cpu + "; compiler=" + __VERSION__;
#ifdef NDEBUG
  out += "; NDEBUG";
#endif
  std::erase_if(out, [](char c) { return c == '"' || c == '\\'; });
  return out;
}

DareForest PrivateCopy(const DareForest& model) {
  std::stringstream bytes(std::ios::in | std::ios::out | std::ios::binary);
  FUME_ABORT_NOT_OK(SaveForest(model, bytes));
  auto loaded = LoadForest(bytes);
  FUME_ABORT_NOT_OK(loaded.status());
  return std::move(*loaded);
}

void WriteMetricsSnapshot(const std::string& name) {
  // Sample the process-level gauges first so every snapshot carries the
  // run's peak RSS.
  obs::SetProcessGauges();
  std::error_code ec;
  std::filesystem::create_directories("bench_artifacts", ec);
  const std::string path = "bench_artifacts/" + name + ".metrics.json";
  std::ofstream out(path);
  if (!(out << obs::MetricsRegistry::Global().Snapshot().ToJson() << "\n")) {
    std::cerr << "(could not write metrics snapshot " << path << ")\n";
    return;
  }
  std::cout << "metrics snapshot written: " << path << "\n";
}

}  // namespace bench
}  // namespace fume
