// fume_serve: long-lived multi-tenant audit server over the newline-
// delimited JSON protocol (docs/serving.md).
//
//   # serve german-credit on an ephemeral port, announce it in a file
//   fume_serve --tenant credit=german-credit --port 0 --port-file /tmp/port
//
//   # two tenants, checkpoints + op-logs under /tmp/serve
//   fume_serve --tenant credit=german-credit --tenant adult=adult-income
//              --checkpoint-dir /tmp/serve --oplog-dir /tmp/serve
//
// SIGINT/SIGTERM drain in-flight requests, write a final checkpoint per
// tenant (when a checkpoint dir is configured), and flush metrics/event
// logs before exit. Run with --help for the full flag list.

#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "data/split.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/process.h"
#include "obs/trace.h"
#include "serve/server.h"
#include "synth/registry.h"
#include "util/string_util.h"

namespace {

using namespace fume;

volatile std::sig_atomic_t g_stop = 0;

void HandleSignal(int) { g_stop = 1; }

struct CliOptions {
  // Tenants: NAME=DATASET pairs.
  std::vector<std::pair<std::string, std::string>> tenants;
  int64_t rows = 0;
  uint64_t seed = 4;
  double test_fraction = 0.3;
  // Model (shared by all tenants).
  int trees = 10;
  int depth = 8;
  int random_depth = 2;
  uint64_t model_seed = 31;
  // Search.
  int top_k = 5;
  double support_min = 0.05;
  double support_max = 0.15;
  int literals = 2;
  int threads = 1;
  double drift_abs = 0.01;
  double drift_rel = 0.10;
  bool lazy = false;
  int64_t lazy_budget = 0;  // 0 = ForestConfig default
  int shards = 1;
  std::string placement = "hash";
  // Serving.
  int port = 7733;
  std::string port_file;
  int max_connections = 64;
  int64_t batch_window_us = 200;
  int max_batch = 16;
  int queue_cap = 64;
  int whatif_threads = 2;
  int64_t deadline_ms = 0;
  std::string checkpoint_dir;
  std::string oplog_dir;
  // Observability.
  bool print_metrics = false;
  std::string metrics_out;
  std::string trace_out;
  std::string event_log;
};

void PrintUsage() {
  std::cout << R"(fume_serve — concurrent multi-tenant FUME audit server

Tenants (repeatable; default is one tenant "default=german-credit"):
  --tenant NAME=DATASET register a tenant over a built-in synthetic dataset
  --rows N              override dataset size
  --seed N              data seed (default 4)
  --test-fraction F     test split fraction (default 0.3)

Model / search (applied to every tenant; same defaults as fume_stream):
  --trees N --depth N --random-depth N --model-seed N
  --k N --support-min F --support-max F --literals N --threads N
  --drift-abs F --drift-rel F
  --lazy                defer subtree retrains across delete bursts; readers
                        keep serving the last published (fully flushed)
                        snapshot until the burst flushes — a published
                        snapshot never contains pending work
  --lazy-budget N       auto-flush once N doomed rows are pending per tenant
                        (default 4096)
  --shards N            SISA shards per tenant (default 1 = monolithic):
                        each tenant serves a hash-partitioned ensemble,
                        stream deletes unlearn shard-locally and whatifs
                        rescore only the shards they touch
  --placement P         hash | slice (default hash); slice concentrates
                        each tenant's sensitive privileged cohort into the
                        last shard

Serving:
  --port N              TCP port on 127.0.0.1 (default 7733; 0 = ephemeral)
  --port-file FILE      write the bound port to FILE (for scripts)
  --max-connections N   connection admission limit (default 64)
  --batch-window-us N   whatif grouping window (default 200; 0 = batch-1)
  --max-batch N         max whatifs grouped per batch (default 16)
  --queue-cap N         per-tenant whatif queue bound (default 64)
  --whatif-threads N    per-tenant batch scoring threads (default 2)
  --deadline-ms N       default per-request deadline (default 0 = none)
  --checkpoint-dir DIR  per-tenant checkpoints DIR/NAME.ckpt (enables the
                        checkpoint endpoint and the final shutdown write)
  --oplog-dir DIR       append served stream ops to DIR/NAME.ops

Observability (docs/observability.md):
  --metrics             print a metrics summary on exit
  --metrics-out FILE    write all counters/histograms as JSON on exit
  --trace-out FILE      write Chrome trace-event JSON on exit
  --event-log FILE      append one structured JSONL line per request
  --help, -h            this text
)";
}

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
    } else if (flag == "--lazy") {
      opts->lazy = true;
    } else if (flag == "--metrics") {
      opts->print_metrics = true;
    } else if (flag == "--tenant") {
      if ((v = need_value()) == nullptr) return false;
      const std::string spec = v;
      const size_t eq = spec.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 >= spec.size()) {
        std::cerr << "--tenant needs NAME=DATASET, got '" << spec << "'\n";
        return false;
      }
      opts->tenants.emplace_back(spec.substr(0, eq), spec.substr(eq + 1));
    } else if (flag == "--placement") {
      if ((v = need_value()) == nullptr) return false;
      opts->placement = v;
    } else if (flag == "--port-file") {
      if ((v = need_value()) == nullptr) return false;
      opts->port_file = v;
    } else if (flag == "--checkpoint-dir") {
      if ((v = need_value()) == nullptr) return false;
      opts->checkpoint_dir = v;
    } else if (flag == "--oplog-dir") {
      if ((v = need_value()) == nullptr) return false;
      opts->oplog_dir = v;
    } else if (flag == "--metrics-out") {
      if ((v = need_value()) == nullptr) return false;
      opts->metrics_out = v;
    } else if (flag == "--trace-out") {
      if ((v = need_value()) == nullptr) return false;
      opts->trace_out = v;
    } else if (flag == "--event-log") {
      if ((v = need_value()) == nullptr) return false;
      opts->event_log = v;
    } else {
      static const std::set<std::string> kNumericFlags = {
          "--rows",         "--seed",         "--test-fraction",
          "--trees",        "--depth",        "--random-depth",
          "--model-seed",   "--k",            "--support-min",
          "--support-max",  "--literals",     "--threads",
          "--drift-abs",    "--drift-rel",    "--port",
          "--max-connections", "--batch-window-us", "--max-batch",
          "--queue-cap",    "--whatif-threads", "--deadline-ms",
          "--lazy-budget",  "--shards"};
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
      else if (flag == "--test-fraction" && is_double) opts->test_fraction = dv;
      else if (flag == "--trees" && is_int) opts->trees = iv;
      else if (flag == "--depth" && is_int) opts->depth = iv;
      else if (flag == "--random-depth" && is_int) opts->random_depth = iv;
      else if (flag == "--model-seed" && is_int) opts->model_seed = static_cast<uint64_t>(iv);
      else if (flag == "--k" && is_int) opts->top_k = iv;
      else if (flag == "--support-min" && is_double) opts->support_min = dv;
      else if (flag == "--support-max" && is_double) opts->support_max = dv;
      else if (flag == "--literals" && is_int) opts->literals = iv;
      else if (flag == "--threads" && is_int) opts->threads = iv;
      else if (flag == "--drift-abs" && is_double) opts->drift_abs = dv;
      else if (flag == "--drift-rel" && is_double) opts->drift_rel = dv;
      else if (flag == "--port" && is_int) opts->port = iv;
      else if (flag == "--max-connections" && is_int) opts->max_connections = iv;
      else if (flag == "--batch-window-us" && is_int) opts->batch_window_us = iv;
      else if (flag == "--max-batch" && is_int) opts->max_batch = iv;
      else if (flag == "--queue-cap" && is_int) opts->queue_cap = iv;
      else if (flag == "--whatif-threads" && is_int) opts->whatif_threads = iv;
      else if (flag == "--deadline-ms" && is_int) opts->deadline_ms = iv;
      else if (flag == "--lazy-budget" && is_int) opts->lazy_budget = iv;
      else if (flag == "--shards" && is_int) opts->shards = iv;
      else {
        std::cerr << "unknown or malformed flag: " << flag << " " << v << "\n";
        return false;
      }
    }
  }
  return true;
}

struct ObsOutputs {
  const CliOptions& opts;

  explicit ObsOutputs(const CliOptions& options) : opts(options) {
    if (!opts.trace_out.empty()) obs::StartTracing();
  }

  ~ObsOutputs() {
    if (!opts.trace_out.empty()) {
      obs::StopTracing();
      if (obs::WriteTraceJsonFile(opts.trace_out)) {
        std::cout << "trace written to " << opts.trace_out << "\n";
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
  obs::EventLog event_log(opts.event_log);
  if (!opts.event_log.empty() && !event_log.ok()) {
    std::cerr << "could not open event log " << opts.event_log << "\n";
    return 1;
  }

  serve::ServerConfig server_config;
  server_config.port = opts.port;
  server_config.max_connections = opts.max_connections;
  server_config.default_deadline_ms = opts.deadline_ms;
  server_config.event_log = event_log.ok() ? &event_log : nullptr;
  serve::Server server(server_config);

  // State directories are created up front so a first boot on a fresh host
  // does not fail (or worse, limp along stateless) for want of a mkdir.
  for (const std::string& dir : {opts.checkpoint_dir, opts.oplog_dir}) {
    if (dir.empty()) continue;
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
      std::cerr << "cannot create state directory " << dir << ": "
                << ec.message() << "\n";
      return 1;
    }
  }

  std::vector<std::pair<std::string, std::string>> tenants = opts.tenants;
  if (tenants.empty()) tenants.emplace_back("default", "german-credit");

  for (const auto& [name, dataset] : tenants) {
    auto registered = synth::FindDataset(dataset);
    if (!registered.ok()) {
      std::cerr << registered.status().ToString() << "\n";
      return 1;
    }
    synth::SynthOptions synth_opts;
    synth_opts.num_rows = opts.rows;
    synth_opts.seed = opts.seed;
    auto bundle = registered->make(synth_opts);
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
    // Same head/tail carve-out as fume_stream, so a server fed the op-log
    // that fume_stream synthesized starts from the identical model — the
    // exactness anchor between served and offline answers.
    const int64_t pool_rows = split->train.num_rows() / 3;
    std::vector<int64_t> tail;
    for (int64_t r = split->train.num_rows() - pool_rows;
         r < split->train.num_rows(); ++r) {
      tail.push_back(r);
    }
    const Dataset initial_train = split->train.DropRows(tail);

    serve::TenantConfig config;
    config.engine.forest.num_trees = opts.trees;
    config.engine.forest.max_depth = opts.depth;
    config.engine.forest.random_depth = opts.random_depth;
    config.engine.forest.seed = opts.model_seed;
    config.engine.fume.top_k = opts.top_k;
    config.engine.fume.support_min = opts.support_min;
    config.engine.fume.support_max = opts.support_max;
    config.engine.fume.max_literals = opts.literals;
    config.engine.fume.num_threads = opts.threads;
    config.engine.fume.group = bundle->group;
    config.engine.drift.abs_threshold = opts.drift_abs;
    config.engine.drift.rel_threshold = opts.drift_rel;
    config.engine.forest.lazy_unlearn = opts.lazy;
    if (opts.lazy_budget > 0) {
      config.engine.forest.max_lazy_rows = opts.lazy_budget;
    }
    auto shard_config =
        ShardConfigFromFlags(opts.shards, opts.placement,
                             bundle->group.sensitive_attr,
                             bundle->group.privileged_code);
    if (!shard_config.ok()) {
      std::cerr << shard_config.status().ToString() << "\n";
      return 1;
    }
    config.engine.shard = *shard_config;
    if (!opts.checkpoint_dir.empty()) {
      config.engine.checkpoint_path =
          opts.checkpoint_dir + "/" + name + ".ckpt";
    }
    if (!opts.oplog_dir.empty()) {
      config.oplog_path = opts.oplog_dir + "/" + name + ".ops";
    }
    config.whatif_threads = opts.whatif_threads;
    config.batch.window_us = opts.batch_window_us;
    config.batch.max_batch = opts.max_batch;
    config.batch.queue_cap = opts.queue_cap;

    Status st = server.RegisterTenant(name, initial_train,
                                      std::move(split->test), config);
    if (!st.ok()) {
      std::cerr << "tenant " << name << ": " << st.ToString() << "\n";
      return 1;
    }
    std::cout << "tenant " << name << ": " << dataset << ", "
              << initial_train.num_rows() << " live rows\n";
  }

  Status st = server.Start();
  if (!st.ok()) {
    std::cerr << st.ToString() << "\n";
    return 1;
  }
  if (!opts.port_file.empty()) {
    std::ofstream pf(opts.port_file);
    if (!(pf << server.port() << "\n")) {
      std::cerr << "could not write port file " << opts.port_file << "\n";
      return 1;
    }
  }
  std::cout << "listening on 127.0.0.1:" << server.port() << std::endl;

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  std::signal(SIGPIPE, SIG_IGN);
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  std::cout << "draining and shutting down...\n";
  server.Shutdown();
  std::cout << "shutdown complete\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions opts;
  bool want_help = false;
  if (!ParseArgs(argc, argv, &opts, &want_help)) return 2;
  if (want_help) {
    PrintUsage();
    return 0;
  }
  return Run(opts);
}
