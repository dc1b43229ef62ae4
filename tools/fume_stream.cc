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
#include <set>
#include <string>

#include "core/report.h"
#include "data/split.h"
#include "fairness/metrics.h"
#include "forest/sharded_forest.h"
#include "forest/tree.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/process.h"
#include "obs/query_scope.h"
#include "obs/trace.h"
#include "stream/engine.h"
#include "stream/workload.h"
#include "synth/registry.h"
#include "util/string_util.h"

namespace {

using namespace fume;

// SIGINT/SIGTERM request a graceful stop: finish the op in flight, write a
// final checkpoint, and let the normal exit path flush metrics/event logs.
volatile std::sig_atomic_t g_stop = 0;

void HandleSignal(int) { g_stop = 1; }

struct CliOptions {
  // Data.
  std::string dataset = "german-credit";
  int64_t rows = 0;
  uint64_t seed = 4;
  double test_fraction = 0.3;
  // Model.
  int trees = 10;
  int depth = 8;
  int random_depth = 2;
  uint64_t model_seed = 31;
  bool lazy = false;
  int64_t lazy_budget = 0;  // 0 = ForestConfig default
  int shards = 1;
  std::string placement = "hash";
  // Search.
  FairnessMetric metric = FairnessMetric::kStatisticalParity;
  int top_k = 5;
  double support_min = 0.05;
  double support_max = 0.15;
  int literals = 2;
  int threads = 1;
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
  // Observability.
  bool print_metrics = false;
  bool query_cost = false;
  std::string metrics_out;
  std::string trace_out;
  std::string event_log;
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
  --lazy                defer subtree retrains across delete bursts
                        (DynFrs-style tags); flushed at inserts,
                        checkpoints and queries — end of run attests the
                        final model equals a cold retrain exactly
  --lazy-budget N       auto-flush once N doomed rows are pending
                        (default 4096)
  --shards N            SISA shards (default 1 = monolithic): rows
                        hash-partition across N sub-forests, deletes run
                        shard-locally and searches unlearn per shard
  --placement P         hash | slice (default hash); slice concentrates
                        the dataset's sensitive privileged cohort — the
                        rows FUME's deletions target — into the last shard

Search:
  --metric M            statistical-parity | equalized-odds |
                        predictive-parity | equal-opportunity |
                        disparate-impact (default statistical-parity)
  --k N                 top-k subsets (default 5)
  --support-min F       Rule 2 lower bound (default 0.05)
  --support-max F       Rule 2 upper bound (default 0.15)
  --literals N          Rule 3 max literals (default 2)
  --threads N           parallel attribution workers (default 1)

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

std::optional<FairnessMetric> ParseMetric(const std::string& name) {
  if (name == "statistical-parity") return FairnessMetric::kStatisticalParity;
  if (name == "equalized-odds") return FairnessMetric::kEqualizedOdds;
  if (name == "predictive-parity") return FairnessMetric::kPredictiveParity;
  if (name == "equal-opportunity") return FairnessMetric::kEqualOpportunity;
  if (name == "disparate-impact") return FairnessMetric::kDisparateImpact;
  return std::nullopt;
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
    } else if (flag == "--no-search-on-checkpoint") {
      opts->no_search_on_checkpoint = true;
    } else if (flag == "--lazy") {
      opts->lazy = true;
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
    } else if (flag == "--oplog") {
      if ((v = need_value()) == nullptr) return false;
      opts->oplog = v;
    } else if (flag == "--oplog-out") {
      if ((v = need_value()) == nullptr) return false;
      opts->oplog_out = v;
    } else if (flag == "--checkpoint") {
      if ((v = need_value()) == nullptr) return false;
      opts->checkpoint = v;
    } else if (flag == "--resume") {
      if ((v = need_value()) == nullptr) return false;
      opts->resume = v;
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
          "--rows",          "--seed",          "--test-fraction",
          "--trees",         "--depth",         "--random-depth",
          "--model-seed",    "--k",             "--support-min",
          "--support-max",   "--literals",      "--threads",
          "--ops",           "--insert-batch",  "--delete-batch",
          "--checkpoint-every", "--workload-seed", "--drift-abs",
          "--drift-rel",     "--lazy-budget",   "--shards"};
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
      else if (flag == "--ops" && is_int) opts->ops = iv;
      else if (flag == "--insert-batch" && is_int) opts->insert_batch = iv;
      else if (flag == "--delete-batch" && is_int) opts->delete_batch = iv;
      else if (flag == "--checkpoint-every" && is_int) opts->checkpoint_every = iv;
      else if (flag == "--workload-seed" && is_int) opts->workload_seed = static_cast<uint64_t>(iv);
      else if (flag == "--drift-abs" && is_double) opts->drift_abs = dv;
      else if (flag == "--drift-rel" && is_double) opts->drift_rel = dv;
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

// Mirrors fume_cli's end-of-run metrics/trace dump.
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
  ObsOutputs obs_outputs(opts);
  obs::EventLog event_log(opts.event_log);  // empty path = disabled sink
  if (!opts.event_log.empty() && !event_log.ok()) {
    std::cerr << "could not open event log " << opts.event_log << "\n";
    return 1;
  }

  auto registered = synth::FindDataset(opts.dataset);
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

  // A third of the training half is held back as the insert pool; the
  // engine starts from the rest.
  const int64_t pool_rows = split->train.num_rows() / 3;
  std::vector<int64_t> tail, head;
  for (int64_t r = 0; r < split->train.num_rows(); ++r) {
    (r < split->train.num_rows() - pool_rows ? head : tail).push_back(r);
  }
  const Dataset initial_train = split->train.DropRows(tail);
  const Dataset pool = split->train.DropRows(head);

  stream::StreamEngineConfig config;
  config.forest.num_trees = opts.trees;
  config.forest.max_depth = opts.depth;
  config.forest.random_depth = opts.random_depth;
  config.forest.seed = opts.model_seed;
  config.forest.lazy_unlearn = opts.lazy;
  if (opts.lazy_budget > 0) config.forest.max_lazy_rows = opts.lazy_budget;
  config.fume.top_k = opts.top_k;
  config.fume.support_min = opts.support_min;
  config.fume.support_max = opts.support_max;
  config.fume.max_literals = opts.literals;
  config.fume.num_threads = opts.threads;
  config.fume.metric = opts.metric;
  config.fume.group = bundle->group;
  auto shard_config =
      ShardConfigFromFlags(opts.shards, opts.placement,
                           bundle->group.sensitive_attr,
                           bundle->group.privileged_code);
  if (!shard_config.ok()) {
    std::cerr << shard_config.status().ToString() << "\n";
    return 1;
  }
  config.shard = *shard_config;
  config.drift.abs_threshold = opts.drift_abs;
  config.drift.rel_threshold = opts.drift_rel;
  config.search_on_checkpoint = !opts.no_search_on_checkpoint;
  config.checkpoint_path = opts.checkpoint;

  // The op-log: read from file, or synthesize (and maybe persist).
  std::vector<stream::StreamOp> ops;
  if (!opts.oplog.empty()) {
    auto read = stream::ReadOpLogFile(opts.oplog);
    if (!read.ok()) {
      std::cerr << read.status().ToString() << "\n";
      return 1;
    }
    ops = std::move(*read);
  } else {
    stream::WorkloadOptions w;
    w.num_ops = opts.ops;
    w.insert_batch = opts.insert_batch;
    w.delete_batch = opts.delete_batch;
    w.checkpoint_every = opts.checkpoint_every;
    w.seed = opts.workload_seed;
    auto synthesized =
        stream::SynthesizeOpLog(pool, initial_train.num_rows(), w);
    if (!synthesized.ok()) {
      std::cerr << synthesized.status().ToString() << "\n";
      return 1;
    }
    ops = std::move(*synthesized);
    if (!opts.oplog_out.empty()) {
      Status st = stream::WriteOpLogFile(ops, opts.oplog_out);
      if (!st.ok()) {
        std::cerr << st.ToString() << "\n";
        return 1;
      }
      std::cout << "op-log written to " << opts.oplog_out << "\n";
    }
  }

  // The engine: cold-start, or restore from a checkpoint and fast-forward.
  std::optional<stream::StreamEngine> engine;
  if (!opts.resume.empty()) {
    auto restored = stream::StreamEngine::RestoreFromFile(
        opts.resume, initial_train.schema(), split->test, config);
    if (!restored.ok()) {
      std::cerr << restored.status().ToString() << "\n";
      return 1;
    }
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
        stream::StreamEngine::Create(initial_train, split->test, config);
    if (!created.ok()) {
      std::cerr << created.status().ToString() << "\n";
      return 1;
    }
    engine.emplace(std::move(*created));
  }

  std::cout << "dataset: " << bundle->name << ", " << engine->rows_live()
            << " live training rows, " << split->test.num_rows()
            << " test rows\ninitial " << FairnessMetricName(opts.metric)
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
    if (opts.query_cost) std::cout << "        " << cost.CompactString() << "\n";
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

  if (opts.lazy) {
    // Retire any retrains still deferred from the tail of the stream so the
    // final metric below reflects a fully flushed model.
    engine->FlushLazy();
  }
  if (opts.lazy && !interrupted) {
    // Lazy identity attestation (DESIGN.md §6 invariant 9): after the final
    // flush, each shard must equal a cold retrain of its own surviving rows
    // (arrival order, the shard's derived seed — the model seed itself at
    // one shard), and the served metric and accuracy must be the vote of
    // the flushed model. A whole-ensemble cold ShardedForest::Train would
    // re-place rows under fresh global ids and legitimately differ —
    // exactness is per shard. A mismatch is a correctness bug, not noise.
    const ShardedForest& model = engine->model();
    const Dataset& train = engine->train_data();
    const Dataset& test = engine->test_data();
    const std::vector<RowId>& ids = engine->live_ids();
    bool ok = model.ValidateStats();
    int64_t compared = 0;
    for (int s = 0; ok && s < model.num_shards(); ++s) {
      std::vector<int64_t> members;
      for (size_t r = 0; r < ids.size(); ++r) {
        if (model.shard_of(ids[r]) == s) {
          members.push_back(static_cast<int64_t>(r));
        }
      }
      ForestConfig cfg = config.forest;
      cfg.seed = config.forest.seed +
                 ShardedForest::kShardSeedStride * static_cast<uint64_t>(s);
      auto cold = DareForest::Train(train.Select(members), cfg);
      if (!cold.ok()) {
        std::cerr << cold.status().ToString() << "\n";
        return 1;
      }
      const std::vector<double> live_probs =
          model.shard(s).PredictProbAll(test);
      ok = ok && live_probs == cold->PredictProbAll(test);
      compared += static_cast<int64_t>(live_probs.size());
    }
    const std::vector<int> voted = model.PredictAll(test);
    ok = ok && engine->current_metric() ==
                   ComputeFairness(test, voted, config.fume.group,
                                   opts.metric);
    ok = ok && engine->current_accuracy() == model.Accuracy(test);
    if (!ok) {
      std::cerr << "lazy identity: MISMATCH — the flushed model differs "
                   "from per-shard cold retrains on the surviving rows\n";
      return 1;
    }
    std::cout << "\nlazy identity: ok (" << model.num_shards()
              << " flushed shard(s) == per-shard cold retrains, " << compared
              << " test predictions compared)\n";
  }

  std::cout << "\nfinal " << FairnessMetricName(opts.metric) << ": "
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
  bool want_help = false;
  if (!ParseArgs(argc, argv, &opts, &want_help)) return 2;
  if (want_help) {
    PrintUsage();
    return 0;
  }
  return Run(opts);
}
