// Shared command-line front end of the FUME tools (fume_cli, fume_stream,
// fume_serve, fume_client, bench_check): one table-driven flag parser, the
// flag groups the three audit tools repeat (each with the config it
// builds), and the exit-time metrics/trace exporter. A tool registers its
// flags into a FlagSet, then calls
//
//   if (auto exit_code = flags.Parse(argc, argv, PrintUsage)) return *exit_code;

#ifndef FUME_TOOLS_CLI_COMMON_H_
#define FUME_TOOLS_CLI_COMMON_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/fume.h"
#include "forest/sharded_forest.h"
#include "obs/event_log.h"
#include "synth/common.h"
#include "util/result.h"

namespace fume {
namespace cli {

/// \brief The flags one tool accepts.
///
/// Value flags take `--flag value` or `--flag=value`; a Bool flag is a
/// switch, on when bare and set by `=1`/`=true` or `=0`/`=false` (any other
/// `=value` is an error). Each typed flag parses at its field's
/// type and rejects what would not fit it (ParseInt, ParseInt64,
/// ParseUint64, ParseDouble). A later occurrence overrides an earlier one;
/// a Custom flag sees every occurrence.
class FlagSet {
 public:
  /// Applies one occurrence's value; a non-OK Status's message is the error
  /// line Parse prints.
  using Handler = std::function<Status(const std::string& value)>;

  void Bool(std::string name, bool* out);
  void Int(std::string name, int* out);
  void Int64(std::string name, int64_t* out);
  void Uint64(std::string name, uint64_t* out);
  void Double(std::string name, double* out);
  void String(std::string name, std::string* out);
  void Custom(std::string name, Handler handler);
  /// Collects the arguments that do not start with "--" (without this,
  /// they are unknown flags).
  void Positional(std::vector<std::string>* out);

  /// Parses argv[1..argc) and stops at `--help`/`-h`. Returns nullopt when
  /// the tool should run; otherwise its exit code: 0 after calling `usage`
  /// for --help, 2 after printing one error line naming the flag.
  std::optional<int> Parse(int argc, const char* const* argv,
                           void (*usage)()) const;

 private:
  struct Flag {
    std::string name;
    bool takes_value;
    Handler set;
  };
  template <typename T>
  void Number(std::string name, T* out, bool (*parse)(std::string_view, T*));

  std::vector<Flag> flags_;
  std::vector<std::string>* positional_ = nullptr;
};

/// Prints `status` on stderr and returns 1, the exit code of a failed run.
int Fail(const Status& status);

/// --rows, --seed, --test-fraction: the synthetic data and its split.
struct DataFlags {
  int64_t rows = 0;  // 0 = the generator's default size
  uint64_t seed = 4;
  double test_fraction = 0.3;

  void Register(FlagSet* flags);
  /// Generates the built-in dataset `name` at these rows and seed.
  Result<synth::DatasetBundle> Make(const std::string& name) const;
};

/// --trees, --depth, --random-depth, --model-seed, --shards.
struct ModelFlags {
  int trees = 10;
  int depth = 8;
  int random_depth = 2;
  uint64_t model_seed = 31;
  int shards = 1;

  void Register(FlagSet* flags);
  ForestConfig Forest() const;
  /// ShardConfigFromFlags, slicing on `group`'s privileged cohort.
  ShardConfig Shard(const GroupSpec& group) const;
};

/// --k, --support-min, --support-max, --literals, --threads, and --metric
/// in the tools that take it.
struct SearchFlags {
  FairnessMetric metric = FairnessMetric::kStatisticalParity;
  int top_k = 5;
  double support_min = 0.05;
  double support_max = 0.15;
  int literals = 2;
  int threads = 1;

  void Register(FlagSet* flags, bool with_metric);
  FumeConfig Fume(const GroupSpec& group) const;
};

/// --metrics, --metrics-out, --trace-out, --event-log, and --query-cost in
/// the tools that take it.
struct ObsFlags {
  bool print_metrics = false;
  bool query_cost = false;
  std::string metrics_out;
  std::string trace_out;
  std::string event_log;

  void Register(FlagSet* flags, bool with_query_cost);
};

/// \brief One run's observability outputs.
///
/// Starts tracing under --trace-out and opens --event-log; on destruction
/// writes the trace and the metrics (--metrics, --metrics-out), whichever
/// path the run returns by.
class ObsExport {
 public:
  explicit ObsExport(const ObsFlags& flags);
  ~ObsExport();

  /// False, after printing why, when --event-log cannot be opened.
  bool ok() const;
  /// The --event-log sink (a disabled one when the flag is unset).
  obs::EventLog& event_log() { return event_log_; }

 private:
  const ObsFlags& flags_;
  obs::EventLog event_log_;
};

}  // namespace cli
}  // namespace fume

#endif  // FUME_TOOLS_CLI_COMMON_H_
