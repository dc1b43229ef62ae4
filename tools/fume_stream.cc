// fume_stream: drive a streaming FUME engine over an insert/delete op-log.
//
//   # synthesize a workload over the german-credit stream and watch the
//   # fairness metric + explanation evolve
//   fume_stream --dataset german-credit --ops 100 --checkpoint-every 25
//
//   # persist the op-log and engine checkpoints, then resume mid-log
//   fume_stream --dataset german-credit --oplog-out=/tmp/log.ops
//               --checkpoint=/tmp/engine.ckpt
//   fume_stream --dataset german-credit --oplog=/tmp/log.ops
//               --resume=/tmp/engine.ckpt
//
// Run with --help for the full flag list.

#include <csignal>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>

#include "cli_common.h"
#include "core/report.h"
#include "fairness/metrics.h"
#include "obs/event_log.h"
#include "obs/query_scope.h"
#include "stream/engine.h"
#include "stream/workload.h"
#include "util/string_util.h"

namespace {

using namespace fume;

// SIGINT/SIGTERM request a graceful stop: finish the op in flight, write a
// final checkpoint, and let the normal exit path flush metrics/event logs.
volatile std::sig_atomic_t g_stop = 0;

void HandleSignal(int) { g_stop = 1; }

struct CliOptions {
  std::string dataset = "german-credit";
  cli::DataFlags data;
  cli::ModelFlags model;
  cli::SearchFlags search;
  // Stream.
  std::string oplog;
  std::string oplog_out;
  int ops = 100;
  int insert_batch = 5;
  int delete_batch = 3;
  int checkpoint_every = 25;
  uint64_t workload_seed = 17;
  std::string checkpoint;
  std::string resume;
  double drift_abs = 0.01;
  double drift_rel = 0.10;
  bool no_search_on_checkpoint = false;
  cli::ObsFlags obs;
};

void PrintUsage() {
  std::cout << R"(fume_stream — incremental FUME over an insert/delete op-log

Data (initial training set + insert pool come from one synthetic dataset):
  --dataset NAME        built-in synthetic dataset (default german-credit)
  --rows N              override dataset size
  --seed N              data seed (default 4)
  --test-fraction F     test split fraction (default 0.3)

Model:
  --trees N             forest size (default 10)
  --depth N             max tree depth (default 8)
  --random-depth N      DaRE random upper levels (default 2)
  --model-seed N        forest seed (default 31)
  --shards N            SISA shards (default 1 = monolithic): the
                        dataset's sensitive privileged cohort — the rows
                        FUME's deletions target — goes to the last shard
                        and the other rows hash across the rest; deletes
                        run shard-locally and searches unlearn per shard

Search:
  --metric M            statistical-parity | equalized-odds |
                        predictive-parity | equal-opportunity |
                        disparate-impact (default statistical-parity)
  --k N                 top-k subsets (default 5)
  --support-min F       Rule 2 lower bound (default 0.05)
  --support-max F       Rule 2 upper bound (default 0.15)
  --literals N          Rule 3 max literals (default 2)
  --threads N           engine threads (default 1): searches score
                        candidates in parallel, and training, inserts,
                        deletes and the prediction-cache refresh run
                        tree by tree

Stream:
  --oplog FILE          replay ops from FILE instead of synthesizing
  --oplog-out FILE      write the synthesized op-log to FILE
  --ops N               synthesized op count (default 100)
  --insert-batch N      rows per synthesized insert (default 5)
  --delete-batch N      ids per synthesized delete (default 3)
  --checkpoint-every N  synthesized checkpoint cadence (default 25)
  --workload-seed N     synthesized workload seed (default 17)
  --checkpoint FILE     (re)write an engine checkpoint at every C op
  --resume FILE         restore the engine from FILE and replay only ops
                        with seq past the checkpoint
  --drift-abs F         re-search when |dF| >= F (default 0.01)
  --drift-rel F         ... or >= F * |F_last| (default 0.10)
  --no-search-on-checkpoint
                        serve possibly-stale top-k at checkpoints too

Observability (docs/observability.md):
  --metrics             print a metrics summary after the run
  --metrics-out FILE    write all counters/histograms as JSON
  --trace-out FILE      write Chrome trace-event JSON
  --query-cost          print a per-op cost column (QueryScope deltas)
  --event-log FILE      append one structured JSONL line per stream op
                        with its cost summary
  --help, -h            this text
)";
}

void PrintTimelineRow(const stream::OpOutcome& outcome) {
  std::printf("%6lld  %-10s %7lld  %+8.4f  %6.1f ms %s",
              static_cast<long long>(outcome.seq),
              stream::OpKindName(outcome.kind),
              static_cast<long long>(outcome.rows_live), outcome.metric,
              outcome.apply_seconds * 1e3,
              outcome.searched
                  ? ("searched (" +
                     std::to_string(
                         static_cast<int>(outcome.search_seconds * 1e3)) +
                     " ms)")
                        .c_str()
                  : "");
  if (!outcome.searched && outcome.staleness_ops > 0) {
    std::printf(" stale x%lld", static_cast<long long>(outcome.staleness_ops));
  }
  std::printf("\n");
}

int Run(const CliOptions& opts) {
  cli::ObsExport obs_export(opts.obs);
  if (!obs_export.ok()) return 1;
  obs::EventLog& event_log = obs_export.event_log();

  auto bundle = opts.data.Make(opts.dataset);
  if (!bundle.ok()) return cli::Fail(bundle.status());
  auto fixture = stream::MakeStreamFixture(*bundle, opts.data.test_fraction);
  if (!fixture.ok()) return cli::Fail(fixture.status());
  const Dataset& initial_train = fixture->initial_train;
  const Dataset& test = fixture->test;

  stream::StreamEngineConfig config;
  config.forest = opts.model.Forest();
  config.fume = opts.search.Fume(fixture->group);
  config.shard = opts.model.Shard(fixture->group);
  config.drift.abs_threshold = opts.drift_abs;
  config.drift.rel_threshold = opts.drift_rel;
  config.search_on_checkpoint = !opts.no_search_on_checkpoint;
  config.checkpoint_path = opts.checkpoint;

  // The op-log: read from file, or synthesize (and maybe persist).
  std::vector<stream::StreamOp> ops;
  if (!opts.oplog.empty()) {
    auto read = stream::ReadOpLogFile(opts.oplog);
    if (!read.ok()) return cli::Fail(read.status());
    ops = std::move(*read);
  } else {
    stream::WorkloadOptions w;
    w.num_ops = opts.ops;
    w.insert_batch = opts.insert_batch;
    w.delete_batch = opts.delete_batch;
    w.checkpoint_every = opts.checkpoint_every;
    w.seed = opts.workload_seed;
    auto synthesized =
        stream::SynthesizeOpLog(fixture->pool, initial_train.num_rows(), w);
    if (!synthesized.ok()) return cli::Fail(synthesized.status());
    ops = std::move(*synthesized);
    if (!opts.oplog_out.empty()) {
      Status st = stream::WriteOpLogFile(ops, opts.oplog_out);
      if (!st.ok()) return cli::Fail(st);
      std::cout << "op-log written to " << opts.oplog_out << "\n";
    }
  }

  // The engine: cold-start, or restore from a checkpoint and fast-forward.
  std::optional<stream::StreamEngine> engine;
  if (!opts.resume.empty()) {
    auto restored = stream::StreamEngine::RestoreFromFile(
        opts.resume, initial_train.schema(), test, config);
    if (!restored.ok()) return cli::Fail(restored.status());
    engine.emplace(std::move(*restored));
    const size_t before = ops.size();
    std::erase_if(ops, [&](const stream::StreamOp& op) {
      return op.seq <= engine->last_seq();
    });
    std::cout << "restored from " << opts.resume << " at seq "
              << engine->last_seq() << "; skipping " << before - ops.size()
              << " already-applied ops\n";
  } else {
    auto created =
        stream::StreamEngine::Create(initial_train, test, config);
    if (!created.ok()) return cli::Fail(created.status());
    engine.emplace(std::move(*created));
  }

  std::cout << "dataset: " << bundle->name << ", " << engine->rows_live()
            << " live training rows, " << test.num_rows()
            << " test rows\ninitial " << FairnessMetricName(opts.search.metric)
            << ": " << FormatDouble(engine->current_metric(), 4)
            << ", accuracy " << FormatPercent(engine->current_accuracy())
            << "\n\n   seq  kind          live    metric      apply\n";

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);

  bool interrupted = false;
  for (const stream::StreamOp& op : ops) {
    if (g_stop != 0) {
      interrupted = true;
      break;
    }
    obs::QueryScope scope("op");
    auto outcome = engine->Apply(op);
    const obs::QueryCost cost = scope.Finish();
    if (!outcome.ok()) {
      std::cerr << "op seq " << op.seq << ": " << outcome.status().ToString()
                << "\n";
      return 1;
    }
    PrintTimelineRow(*outcome);
    if (opts.obs.query_cost) std::cout << "        " << cost.CompactString() << "\n";
    event_log.Event("stream_op")
        .Field("op_seq", outcome->seq)
        .Field("kind", stream::OpKindName(outcome->kind))
        .Field("rows_live", outcome->rows_live)
        .Field("metric", outcome->metric)
        .Field("searched", outcome->searched)
        .Field("cost", cost)
        .Write();
    if (outcome->kind == stream::OpKind::kCheckpoint &&
        !opts.checkpoint.empty()) {
      event_log.Event("checkpoint")
          .Field("op_seq", outcome->seq)
          .Field("path", opts.checkpoint)
          .Write();
    }
  }

  if (interrupted) {
    std::cout << "\ninterrupted at seq " << engine->last_seq()
              << "; draining\n";
    if (!opts.checkpoint.empty()) {
      Status st = engine->SaveCheckpointToFile(opts.checkpoint);
      if (st.ok()) {
        std::cout << "final checkpoint written to " << opts.checkpoint
                  << "\n";
        event_log.Event("checkpoint")
            .Field("op_seq", engine->last_seq())
            .Field("path", opts.checkpoint)
            .Field("on_signal", true)
            .Write();
      } else {
        std::cerr << st.ToString() << "\n";
      }
    }
  }

  std::cout << "\nfinal " << FairnessMetricName(opts.search.metric) << ": "
            << FormatDouble(engine->current_metric(), 4) << ", accuracy "
            << FormatPercent(engine->current_accuracy()) << ", staleness "
            << engine->staleness() << " ops\n";
  if (engine->explanation() != nullptr) {
    std::cout << "\n";
    PrintTopK(*engine->explanation(), initial_train.schema(), "S", std::cout);
  } else {
    std::cout << "no fairness violation at the last search — nothing to "
                 "explain\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions opts;
  cli::FlagSet flags;
  flags.String("--dataset", &opts.dataset);
  opts.data.Register(&flags);
  opts.model.Register(&flags);
  opts.search.Register(&flags, /*with_metric=*/true);
  flags.String("--oplog", &opts.oplog);
  flags.String("--oplog-out", &opts.oplog_out);
  flags.Int("--ops", &opts.ops);
  flags.Int("--insert-batch", &opts.insert_batch);
  flags.Int("--delete-batch", &opts.delete_batch);
  flags.Int("--checkpoint-every", &opts.checkpoint_every);
  flags.Uint64("--workload-seed", &opts.workload_seed);
  flags.String("--checkpoint", &opts.checkpoint);
  flags.String("--resume", &opts.resume);
  flags.Double("--drift-abs", &opts.drift_abs);
  flags.Double("--drift-rel", &opts.drift_rel);
  flags.Bool("--no-search-on-checkpoint", &opts.no_search_on_checkpoint);
  opts.obs.Register(&flags, /*with_query_cost=*/true);
  if (auto exit_code = flags.Parse(argc, argv, PrintUsage)) return *exit_code;
  return Run(opts);
}
