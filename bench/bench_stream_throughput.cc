// Streaming engine throughput: incremental StreamEngine ops versus the
// naive alternative of cold-retraining the forest and re-running the FUME
// search after every op-log entry. The acceptance bar for the streaming
// subsystem is a >= 10x total-time speedup on the same op sequence; both
// sides see identical data at every step (the cold side retrains on the
// engine's surviving rows), so the comparison is apples-to-apples and the
// engine's exactness contract makes the outputs interchangeable.
//
// Artifacts: bench_artifacts/stream_throughput.csv (per-op timings),
// bench_artifacts/stream_throughput.metrics.json (counter snapshot, incl.
// stream.predcache.* cache behaviour and stream.search.* drift decisions)
// and bench_artifacts/BENCH_incremental.json (per-mode throughput cells
// consumed by bench_check). --smoke shrinks the substrate to a crash
// tripwire and drops the speedup gate (shared-CI timing is noise).

#include <cmath>
#include <fstream>
#include <iostream>
#include <vector>

#include "bench_util.h"
#include "core/removal_method.h"
#include "stream/engine.h"
#include "stream/workload.h"

int main(int argc, char** argv) {
  using namespace fume;
  using namespace fume::bench;
  const bool smoke = SmokeMode(argc, argv);
  const bool full = !smoke && FullMode(argc, argv);
  PrintBanner("Streaming engine throughput vs cold retrain-and-search",
              "streaming extension; see docs/streaming.md");

  synth::PlantedOptions opts;
  opts.num_rows = smoke ? 4000 : full ? 20000 : 10000;
  opts.seed = 4;
  auto bundle = synth::MakePlantedBias(opts);
  FUME_ABORT_NOT_OK(bundle.status());
  auto fixture = stream::MakeStreamFixture(*bundle, /*test_fraction=*/0.3);
  FUME_ABORT_NOT_OK(fixture.status());
  const Dataset& initial_train = fixture->initial_train;
  const Dataset& pool = fixture->pool;
  const Dataset& test = fixture->test;

  stream::StreamEngineConfig config;
  config.forest = BenchForestConfig(bundle->name);
  config.fume = BenchFumeConfig(bundle->group);
  config.fume.max_literals = 1;  // keep the cold side's searches tractable
  // The drift policy is the amortization lever: small per-op metric noise
  // should NOT trigger a full re-search. These bounds re-search only on a
  // meaningful shift (>= 0.015 absolute or 20% relative), which is what a
  // deployment monitoring a violation would configure.
  config.drift.abs_threshold = 0.015;
  config.drift.rel_threshold = 0.20;

  const int num_ops = smoke ? 8 : full ? 60 : 30;
  stream::WorkloadOptions w;
  w.num_ops = num_ops;
  w.insert_batch = 2;
  w.delete_batch = 2;
  w.checkpoint_every = 0;  // data ops only (plus the mandatory final C)
  w.seed = 11;
  auto ops = stream::SynthesizeOpLog(pool, initial_train.num_rows(), w);
  FUME_ABORT_NOT_OK(ops.status());

  auto engine =
      stream::StreamEngine::Create(initial_train, test, config);
  FUME_ABORT_NOT_OK(engine.status());

  std::vector<std::vector<std::string>> rows;
  double engine_total = 0.0;
  double cold_total = 0.0;
  int searches = 0;
  for (const stream::StreamOp& op : *ops) {
    if (op.kind == stream::OpKind::kCheckpoint) continue;
    Stopwatch engine_watch;
    auto outcome = engine->Apply(op);
    const double engine_seconds = engine_watch.ElapsedSeconds();
    FUME_ABORT_NOT_OK(outcome.status());
    if (outcome->searched) ++searches;

    // Cold baseline on the identical surviving rows: full retrain, full
    // evaluation, full search (skipped, as the engine skips it, when the
    // model is within the fairness floor).
    Stopwatch cold_watch;
    auto cold = DareForest::Train(engine->train_data(), config.forest);
    FUME_ABORT_NOT_OK(cold.status());
    ModelEval original;
    original.fairness = ComputeFairness(*cold, test,
                                        config.fume.group, config.fume.metric);
    original.accuracy = cold->Accuracy(test);
    if (std::abs(original.fairness) >= config.fume.min_original_bias) {
      UnlearnRemovalMethod removal(&*cold, &test, config.fume.group,
                                   config.fume.metric);
      auto fresh = ExplainWithRemoval(original, engine->train_data(),
                                      config.fume, &removal);
      FUME_ABORT_NOT_OK(fresh.status());
    }
    const double cold_seconds = cold_watch.ElapsedSeconds();

    engine_total += engine_seconds;
    cold_total += cold_seconds;
    rows.push_back({std::to_string(op.seq), stream::OpKindName(op.kind),
                    FormatDouble(engine_seconds * 1e3, 3),
                    FormatDouble(cold_seconds * 1e3, 3),
                    FormatDouble(cold_seconds / engine_seconds, 1)});
  }

  const double speedup = cold_total / engine_total;
  const int data_ops = static_cast<int>(rows.size());
  TablePrinter table({"Mode", "Total (s)", "Mean/op (ms)", "Searches"});
  table.AddRow({"incremental engine", FormatDouble(engine_total, 2),
                FormatDouble(engine_total / data_ops * 1e3, 2),
                std::to_string(searches)});
  table.AddRow({"cold retrain+search", FormatDouble(cold_total, 2),
                FormatDouble(cold_total / data_ops * 1e3, 2),
                std::to_string(data_ops)});
  table.Print(std::cout);
  std::cout << "\n" << data_ops << " data ops, "
            << initial_train.num_rows() << " initial rows -> "
            << engine->rows_live() << " live; speedup "
            << FormatDouble(speedup, 1) << "x (target >= 10x)\n";

  WriteArtifact("stream_throughput",
                {"seq", "kind", "engine_ms", "cold_ms", "speedup"}, rows);

  const bool finite = std::isfinite(speedup) && engine_total > 0.0 &&
                      cold_total > 0.0;
  std::ofstream json("bench_artifacts/BENCH_incremental.json");
  if (json) {
    json.precision(6);
    json << "{\n  \"bench\": \"stream_throughput\",\n"
         << "  \"machine\": \"" << MachineDescription() << "\",\n"
         << "  \"substrate\": \"planted-bias (" << opts.num_rows
         << " rows)\",\n"
         << "  \"data_ops\": " << data_ops << ",\n"
         << "  \"timings_finite\": " << (finite ? "true" : "false") << ",\n"
         << "  \"speedup_vs_cold\": " << speedup << ",\n"
         << "  \"cells\": [\n"
         << "    {\"mode\": \"incremental\", \"ops\": " << data_ops
         << ", \"seconds\": " << engine_total << ", \"ops_per_sec\": "
         << (engine_total > 0.0 ? data_ops / engine_total : 0.0) << "},\n"
         << "    {\"mode\": \"cold-retrain\", \"ops\": " << data_ops
         << ", \"seconds\": " << cold_total << ", \"ops_per_sec\": "
         << (cold_total > 0.0 ? data_ops / cold_total : 0.0) << "}\n"
         << "  ]\n}\n";
    std::cout << "wrote bench_artifacts/BENCH_incremental.json\n";
  } else {
    std::cout << "could not write bench_artifacts/BENCH_incremental.json\n";
  }

  // Smoke asserts survival and finiteness only; the 10x bar is a perf
  // measurement that needs the real substrate.
  if (smoke) return finite ? 0 : 1;
  return speedup >= 10.0 ? 0 : 1;
}
