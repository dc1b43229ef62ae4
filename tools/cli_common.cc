#include "cli_common.h"

#include <algorithm>
#include <fstream>
#include <iostream>

#include "obs/metrics.h"
#include "obs/process.h"
#include "obs/trace.h"
#include "synth/registry.h"
#include "util/string_util.h"

namespace fume {
namespace cli {

template <typename T>
void FlagSet::Number(std::string name, T* out,
                     bool (*parse)(std::string_view, T*)) {
  Handler set = [name, out, parse](const std::string& value) {
    if (parse(value, out)) return Status::OK();
    return Status::Invalid("malformed or out-of-range value for " + name +
                           ": " + value);
  };
  flags_.push_back({std::move(name), true, std::move(set)});
}

void FlagSet::Bool(std::string name, bool* out) {
  Handler set = [name, out](const std::string& value) {
    if (value == "1" || value == "true") {
      *out = true;
    } else if (value == "0" || value == "false") {
      *out = false;
    } else {
      return Status::Invalid("malformed value for " + name + ": " + value +
                             " (a switch takes 0, 1, false or true)");
    }
    return Status::OK();
  };
  flags_.push_back({std::move(name), false, std::move(set)});
}

void FlagSet::Int(std::string name, int* out) {
  Number(std::move(name), out, ParseInt);
}

void FlagSet::Int64(std::string name, int64_t* out) {
  Number(std::move(name), out, ParseInt64);
}

void FlagSet::Uint64(std::string name, uint64_t* out) {
  Number(std::move(name), out, ParseUint64);
}

void FlagSet::Double(std::string name, double* out) {
  Number(std::move(name), out, ParseDouble);
}

void FlagSet::String(std::string name, std::string* out) {
  Custom(std::move(name), [out](const std::string& value) {
    *out = value;
    return Status::OK();
  });
}

void FlagSet::Custom(std::string name, Handler handler) {
  flags_.push_back({std::move(name), true, std::move(handler)});
}

void FlagSet::Positional(std::vector<std::string>* out) { positional_ = out; }

std::optional<int> FlagSet::Parse(int argc, const char* const* argv,
                                  void (*usage)()) const {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::optional<std::string> inline_value;
    const bool dashed = arg.rfind("--", 0) == 0;
    const size_t eq = dashed ? arg.find('=') : std::string::npos;
    if (eq != std::string::npos) {
      inline_value = arg.substr(eq + 1);
      arg.resize(eq);
    }
    if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    }
    const auto flag = std::find_if(flags_.begin(), flags_.end(),
                                   [&](const Flag& f) { return f.name == arg; });
    if (flag == flags_.end()) {
      if (positional_ != nullptr && !dashed) {
        positional_->push_back(arg);
        continue;
      }
      std::cerr << "unknown flag: " << arg << " (see --help)\n";
      return 2;
    }
    // A bare switch turns on; a value flag without `=value` takes the next
    // argument.
    std::string value = inline_value.value_or("true");
    if (flag->takes_value && !inline_value.has_value()) {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << arg << "\n";
        return 2;
      }
      value = argv[++i];
    }
    const Status st = flag->set(value);
    if (!st.ok()) {
      std::cerr << st.message() << "\n";
      return 2;
    }
  }
  return std::nullopt;
}

int Fail(const Status& status) {
  std::cerr << status.ToString() << "\n";
  return 1;
}

void DataFlags::Register(FlagSet* flags) {
  flags->Int64("--rows", &rows);
  flags->Uint64("--seed", &seed);
  flags->Double("--test-fraction", &test_fraction);
}

Result<synth::DatasetBundle> DataFlags::Make(const std::string& name) const {
  FUME_ASSIGN_OR_RETURN(synth::RegisteredDataset registered,
                        synth::FindDataset(name));
  synth::SynthOptions options;
  options.num_rows = rows;
  options.seed = seed;
  return registered.make(options);
}

void ModelFlags::Register(FlagSet* flags) {
  flags->Int("--trees", &trees);
  flags->Int("--depth", &depth);
  flags->Int("--random-depth", &random_depth);
  flags->Uint64("--model-seed", &model_seed);
  flags->Int("--shards", &shards);
}

ForestConfig ModelFlags::Forest() const {
  ForestConfig config;
  config.num_trees = trees;
  config.max_depth = depth;
  config.random_depth = random_depth;
  config.seed = model_seed;
  return config;
}

ShardConfig ModelFlags::Shard(const GroupSpec& group) const {
  return ShardConfigFromFlags(shards, group.sensitive_attr,
                              group.privileged_code);
}

void SearchFlags::Register(FlagSet* flags, bool with_metric) {
  flags->Int("--k", &top_k);
  flags->Double("--support-min", &support_min);
  flags->Double("--support-max", &support_max);
  flags->Int("--literals", &literals);
  flags->Int("--threads", &threads);
  if (!with_metric) return;
  flags->Custom("--metric", [this](const std::string& value) {
    const std::optional<FairnessMetric> parsed = ParseFairnessMetric(value);
    if (!parsed) return Status::Invalid("unknown metric '" + value + "'");
    metric = *parsed;
    return Status::OK();
  });
}

FumeConfig SearchFlags::Fume(const GroupSpec& group) const {
  FumeConfig config;
  config.top_k = top_k;
  config.support_min = support_min;
  config.support_max = support_max;
  config.max_literals = literals;
  config.metric = metric;
  config.group = group;
  config.num_threads = threads;
  return config;
}

void ObsFlags::Register(FlagSet* flags, bool with_query_cost) {
  flags->Bool("--metrics", &print_metrics);
  flags->String("--metrics-out", &metrics_out);
  flags->String("--trace-out", &trace_out);
  flags->String("--event-log", &event_log);
  if (with_query_cost) flags->Bool("--query-cost", &query_cost);
}

ObsExport::ObsExport(const ObsFlags& flags)
    : flags_(flags), event_log_(flags.event_log) {
  if (!flags_.trace_out.empty()) obs::StartTracing();
}

bool ObsExport::ok() const {
  if (flags_.event_log.empty() || event_log_.ok()) return true;
  std::cerr << "could not open event log " << flags_.event_log << "\n";
  return false;
}

ObsExport::~ObsExport() {
  if (!flags_.trace_out.empty()) {
    obs::StopTracing();
    if (obs::WriteTraceJsonFile(flags_.trace_out)) {
      std::cout << "trace written to " << flags_.trace_out << " ("
                << obs::TraceEventCount()
                << " events; open in chrome://tracing or "
                   "https://ui.perfetto.dev)\n";
    } else {
      std::cerr << "could not write trace to " << flags_.trace_out << "\n";
    }
  }
  if (!flags_.print_metrics && flags_.metrics_out.empty()) return;
  obs::SetProcessGauges();
  const obs::MetricsSnapshot snapshot =
      obs::MetricsRegistry::Global().Snapshot();
  if (flags_.print_metrics) {
    std::cout << "\n--- metrics ---\n";
    snapshot.PrintText(std::cout);
  }
  if (!flags_.metrics_out.empty()) {
    std::ofstream out(flags_.metrics_out);
    if (out << snapshot.ToJson() << "\n") {
      std::cout << "metrics written to " << flags_.metrics_out << "\n";
    } else {
      std::cerr << "could not write metrics to " << flags_.metrics_out
                << "\n";
    }
  }
}

}  // namespace cli
}  // namespace fume
