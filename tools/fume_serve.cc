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
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "cli_common.h"
#include "obs/event_log.h"
#include "serve/server.h"
#include "stream/workload.h"

namespace {

using namespace fume;

volatile std::sig_atomic_t g_stop = 0;

void HandleSignal(int) { g_stop = 1; }

struct CliOptions {
  // Tenants: NAME=DATASET pairs.
  std::vector<std::pair<std::string, std::string>> tenants;
  cli::DataFlags data;
  // Model and search, shared by all tenants.
  cli::ModelFlags model;
  cli::SearchFlags search;
  double drift_abs = 0.01;
  double drift_rel = 0.10;
  bool lazy = false;
  int64_t lazy_budget = 0;  // 0 = ForestConfig default
  // Serving.
  int port = 7733;
  std::string port_file;
  int max_connections = 64;
  int64_t batch_window_us = 0;
  int max_batch = 16;
  int queue_cap = 64;
  int whatif_threads = 2;
  int64_t deadline_ms = 0;
  std::string checkpoint_dir;
  std::string oplog_dir;
  cli::ObsFlags obs;
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
  --k N --support-min F --support-max F --literals N
  --drift-abs F --drift-rel F
  --threads N           engine threads per tenant (default 1): searches
                        score candidates in parallel, and training,
                        stream ops and the prediction-cache refresh run
                        tree by tree
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
  --batch-window-us N   microseconds a whatif batch waits to fill (default
                        0: a batch is what queued during the last one)
  --max-batch N         max whatifs grouped per batch (default 16)
  --queue-cap N         per-tenant whatif queue bound (default 64)
  --whatif-threads N    per-tenant threads scoring each whatif tree by
                        tree; a batch's whatifs run one after another
                        (default 2)
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

int Run(const CliOptions& opts) {
  cli::ObsExport obs_export(opts.obs);
  if (!obs_export.ok()) return 1;
  obs::EventLog& event_log = obs_export.event_log();

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
    auto bundle = opts.data.Make(dataset);
    if (!bundle.ok()) return cli::Fail(bundle.status());
    auto fixture = stream::MakeStreamFixture(*bundle, opts.data.test_fraction);
    if (!fixture.ok()) return cli::Fail(fixture.status());

    serve::TenantConfig config;
    config.engine.forest = opts.model.Forest();
    config.engine.forest.lazy_unlearn = opts.lazy;
    if (opts.lazy_budget > 0) {
      config.engine.forest.max_lazy_rows = opts.lazy_budget;
    }
    config.engine.fume = opts.search.Fume(fixture->group);
    config.engine.drift.abs_threshold = opts.drift_abs;
    config.engine.drift.rel_threshold = opts.drift_rel;
    auto shard_config = opts.model.Shard(fixture->group);
    if (!shard_config.ok()) return cli::Fail(shard_config.status());
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

    Status st = server.RegisterTenant(name, fixture->initial_train,
                                      std::move(fixture->test), config);
    if (!st.ok()) {
      std::cerr << "tenant " << name << ": " << st.ToString() << "\n";
      return 1;
    }
    std::cout << "tenant " << name << ": " << dataset << ", "
              << fixture->initial_train.num_rows() << " live rows\n";
  }

  Status st = server.Start();
  if (!st.ok()) return cli::Fail(st);
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
  cli::FlagSet flags;
  flags.Custom("--tenant", [&opts](const std::string& spec) {
    const size_t eq = spec.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= spec.size()) {
      return Status::Invalid("--tenant needs NAME=DATASET, got '" + spec +
                             "'");
    }
    opts.tenants.emplace_back(spec.substr(0, eq), spec.substr(eq + 1));
    return Status::OK();
  });
  opts.data.Register(&flags);
  opts.model.Register(&flags);
  opts.search.Register(&flags, /*with_metric=*/false);
  flags.Double("--drift-abs", &opts.drift_abs);
  flags.Double("--drift-rel", &opts.drift_rel);
  flags.Bool("--lazy", &opts.lazy);
  flags.Int64("--lazy-budget", &opts.lazy_budget);
  flags.Int("--port", &opts.port);
  flags.String("--port-file", &opts.port_file);
  flags.Int("--max-connections", &opts.max_connections);
  flags.Int64("--batch-window-us", &opts.batch_window_us);
  flags.Int("--max-batch", &opts.max_batch);
  flags.Int("--queue-cap", &opts.queue_cap);
  flags.Int("--whatif-threads", &opts.whatif_threads);
  flags.Int64("--deadline-ms", &opts.deadline_ms);
  flags.String("--checkpoint-dir", &opts.checkpoint_dir);
  flags.String("--oplog-dir", &opts.oplog_dir);
  opts.obs.Register(&flags, /*with_query_cost=*/false);
  if (auto exit_code = flags.Parse(argc, argv, PrintUsage)) return *exit_code;
  return Run(opts);
}
