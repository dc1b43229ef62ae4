// Deletion throughput on the parametric Figure-5 substrates: the batched
// unlearning kernel (DeletionScratch + the fused NodeStats::
// RemoveRowsAndPartition + in-place route partitioning) against retraining
// from scratch on the surviving rows after every batch — the cost exact
// unlearning is weighed against in paper Table 8.
//
// The kernel measurements delete compounding batches from a PrivateCopy of
// the model, reusing one DeletionScratch across all of them
// (the steady-state allocation-free path). Exactness is re-checked
// in-bench: a compounding deletion run must leave the forest serialized
// byte-identical to a same-store retrain on the surviving rows.
// Artifacts: unlearn_kernel.csv (+ metrics snapshot) and BENCH_unlearn.json
// in bench_artifacts/.

#include <algorithm>
#include <fstream>
#include <iostream>
#include <sstream>
#include <vector>

#include "bench_util.h"
#include "forest/deletion_scratch.h"
#include "forest/serialize.h"
#include "synth/datasets.h"
#include "util/rng.h"

namespace {

using namespace fume;
using namespace fume::bench;

struct Setup {
  int64_t rows = 0;
  Dataset train;
  Dataset test;
  GroupSpec group;
  DareForest model;
};

Setup MakeSetup(int64_t rows) {
  auto bundle = synth::MakeParametric(rows, 10, 2, 7);
  FUME_ABORT_NOT_OK(bundle.status());
  SplitOptions split_opts;
  split_opts.test_fraction = 0.3;
  split_opts.seed = 2;
  auto split = SplitTrainTest(bundle->data, split_opts);
  FUME_ABORT_NOT_OK(split.status());
  ForestConfig forest_config;  // the Figure 5 forest
  forest_config.num_trees = 10;
  forest_config.max_depth = 8;
  forest_config.random_depth = 2;
  forest_config.seed = 31;
  auto model = DareForest::Train(split->train, forest_config);
  FUME_ABORT_NOT_OK(model.status());
  return Setup{rows, std::move(split->train), std::move(split->test),
               bundle->group, std::move(*model)};
}

// Disjoint deterministic batches (slices of a keyed shuffle of the live
// rows), so the same sequence can be applied compounding — every row is
// deleted at most once across a measurement.
std::vector<std::vector<RowId>> MakeBatches(int64_t num_rows, int batch_size,
                                            int num_batches) {
  std::vector<RowId> perm(static_cast<size_t>(num_rows));
  for (int64_t i = 0; i < num_rows; ++i) {
    perm[static_cast<size_t>(i)] = static_cast<RowId>(i);
  }
  Rng rng(177);
  for (int64_t i = num_rows - 1; i > 0; --i) {
    const int64_t j = rng.NextInt(0, static_cast<int>(i));
    std::swap(perm[static_cast<size_t>(i)], perm[static_cast<size_t>(j)]);
  }
  // Never delete more than half the training data: the tail of such a run
  // measures degenerate stumps, not unlearning.
  const int64_t max_batches = num_rows / 2 / batch_size;
  const int64_t take = std::min<int64_t>(num_batches, std::max<int64_t>(
                                                          1, max_batches));
  std::vector<std::vector<RowId>> batches;
  batches.reserve(static_cast<size_t>(take));
  for (int64_t b = 0; b < take; ++b) {
    const auto begin = perm.begin() + b * batch_size;
    std::vector<RowId> rows(begin, begin + batch_size);
    std::sort(rows.begin(), rows.end());
    batches.push_back(std::move(rows));
  }
  return batches;
}

struct Throughput {
  int64_t rows_unlearned = 0;
  double seconds = 0.0;
  double rows_per_sec = 0.0;
};

Throughput Finish(Throughput t) {
  t.rows_per_sec = t.seconds > 0.0
                       ? static_cast<double>(t.rows_unlearned) / t.seconds
                       : 0.0;
  return t;
}

// The retrain baseline: after each batch, DareForest::Train on the rows
// still alive, with the model's config. Only Train is timed (thread CPU),
// not assembling the surviving-row dataset.
Throughput MeasureRetrain(const Setup& s,
                          const std::vector<std::vector<RowId>>& batches) {
  std::vector<uint8_t> gone(static_cast<size_t>(s.train.num_rows()), 0);
  Throughput t;
  for (const auto& rows : batches) {
    for (RowId r : rows) gone[static_cast<size_t>(r)] = 1;
    std::vector<int64_t> live;
    for (int64_t r = 0; r < s.train.num_rows(); ++r) {
      if (!gone[static_cast<size_t>(r)]) live.push_back(r);
    }
    const Dataset survivors = s.train.Select(live);
    ThreadCpuStopwatch watch;
    auto retrained = DareForest::Train(survivors, s.model.config());
    t.seconds += watch.ElapsedSeconds();
    FUME_ABORT_NOT_OK(retrained.status());
    t.rows_unlearned += static_cast<int64_t>(rows.size());
  }
  return Finish(t);
}

// Compounding deletions on a privately-owned copy of the model: after the
// (untimed) PrivateCopy every node has refcount 1, so the timed loop contains
// pure deletion work — no CoW unshares. This is also the stream engine's
// workload shape (ops mutate one long-lived forest).
Throughput MeasureDelete(const DareForest& model,
                         const std::vector<std::vector<RowId>>& batches) {
  DeletionScratch scratch;
  {
    // Warm-up: faults in the store, sizes the scratch, seeds allocators.
    DareForest warm = PrivateCopy(model);
    FUME_ABORT_NOT_OK(warm.DeleteRows(batches.front(), nullptr, &scratch));
  }
  DareForest victim = PrivateCopy(model);
  Throughput t;
  // Thread CPU time: the loop is single-threaded, and CPU time is immune
  // to scheduler preemption on a loaded machine (wall time is not).
  ThreadCpuStopwatch watch;
  for (const auto& rows : batches) {
    FUME_ABORT_NOT_OK(victim.DeleteRows(rows, nullptr, &scratch));
    t.rows_unlearned += static_cast<int64_t>(rows.size());
  }
  t.seconds = watch.ElapsedSeconds();
  return Finish(t);
}

std::string SerializeForest(const DareForest& forest) {
  std::ostringstream out;
  FUME_ABORT_NOT_OK(SaveForest(forest, out));
  return out.str();
}

// Compounding deletions (no re-clone between batches) must leave the forest
// serialized byte-identical to a retrain on the surviving rows over the same
// store (DESIGN.md §6 invariant 1): every tree rebuilt by DareTree::Build,
// work counters zeroed on the unlearned side.
bool CompoundingRunsByteIdentical(const Setup& s,
                                  const std::vector<std::vector<RowId>>& all) {
  DareForest kernel = s.model.Clone();
  DeletionScratch scratch;
  std::vector<uint8_t> gone(static_cast<size_t>(s.train.num_rows()), 0);
  for (size_t b = 0; b < all.size() && b < 8; ++b) {
    FUME_ABORT_NOT_OK(kernel.DeleteRows(all[b], nullptr, &scratch));
    for (RowId r : all[b]) gone[static_cast<size_t>(r)] = 1;
  }
  std::vector<RowId> live;
  for (size_t r = 0; r < gone.size(); ++r) {
    if (!gone[r]) live.push_back(static_cast<RowId>(r));
  }
  std::shared_ptr<TrainingStore> store = TrainingStore::Make(s.train);
  std::vector<DareTree> trees;
  for (int t = 0; t < s.model.num_trees(); ++t) {
    trees.push_back(DareTree::Build(store, live, t, s.model.config()));
  }
  const DareForest retrained = DareForest::FromParts(
      std::move(store), s.model.config(), std::move(trees));
  kernel.ResetDeletionStats();
  return SerializeForest(kernel) == SerializeForest(retrained);
}

bool IsFiniteRow(const Throughput& t) {
  return t.seconds == t.seconds && t.rows_per_sec == t.rows_per_sec;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = SmokeMode(argc, argv);
  const bool full = !smoke && FullMode(argc, argv);
  PrintBanner("Unlearning kernel: batched scratch kernel vs retraining",
              "docs/performance.md / Figure 5 forests");

  const std::vector<int64_t> sizes =
      smoke ? std::vector<int64_t>{2000}
            : (full ? std::vector<int64_t>{10000, 20000, 50000}
                    : std::vector<int64_t>{5000, 10000, 20000});
  const int64_t mid_size = sizes[sizes.size() / 2];
  // 1: streaming-style single-row ops; 128: the search's what-if batches
  // at typical support; 1024: Figure-5-scale support-range row sets.
  const std::vector<int> batch_sizes =
      smoke ? std::vector<int>{1, 16} : std::vector<int>{1, 16, 128, 1024};
  const int kHeadlineBatch = smoke ? 16 : 128;
  const int num_batches = smoke ? 8 : (full ? 128 : 64);
  // Each cell is measured several times with the strategies interleaved and
  // reported as the fastest repetition — the work is deterministic (same
  // batches on a fresh PrivateCopy, or the same retrains, each repetition),
  // so the minimum time is the least-noise estimate.
  const int kReps = smoke ? 1 : 7;

  TablePrinter table({"rows", "batch", "strategy", "rows unlearned",
                      "rows/sec", "speedup"});
  std::vector<std::vector<std::string>> artifact;
  double headline_speedup = 0.0;
  bool bytes_identical = true;
  bool all_finite = true;

  for (int64_t rows : sizes) {
    Setup s = MakeSetup(rows);
    const int64_t train_rows = s.model.num_training_rows();
    for (int batch : batch_sizes) {
      const auto batches = MakeBatches(train_rows, batch, num_batches);
      Throughput retrain, kern;
      for (int rep = 0; rep < kReps; ++rep) {
        const Throughput r = MeasureRetrain(s, batches);
        const Throughput k = MeasureDelete(s.model, batches);
        if (rep == 0 || r.rows_per_sec > retrain.rows_per_sec) retrain = r;
        if (rep == 0 || k.rows_per_sec > kern.rows_per_sec) kern = k;
      }
      all_finite = all_finite && IsFiniteRow(retrain) && IsFiniteRow(kern);
      const double speedup = retrain.rows_per_sec > 0.0
                                 ? kern.rows_per_sec / retrain.rows_per_sec
                                 : 0.0;
      if (rows == mid_size && batch == kHeadlineBatch) {
        headline_speedup = speedup;
      }
      const Throughput* cells[] = {&retrain, &kern};
      const char* const strategies[] = {"retrain", "batched-kernel"};
      const double speedups[] = {1.0, speedup};
      for (int c = 0; c < 2; ++c) {
        const Throughput* t = cells[c];
        table.AddRow({std::to_string(rows), std::to_string(batch),
                      strategies[c],
                      std::to_string(t->rows_unlearned),
                      FormatDouble(t->rows_per_sec, 0),
                      FormatDouble(speedups[c], 2) + "x"});
        artifact.push_back({std::to_string(rows), std::to_string(batch),
                            strategies[c],
                            std::to_string(t->rows_unlearned),
                            FormatDouble(t->seconds, 4),
                            FormatDouble(t->rows_per_sec, 2),
                            FormatDouble(speedups[c], 3)});
      }
    }
    bytes_identical =
        bytes_identical &&
        CompoundingRunsByteIdentical(
            s, MakeBatches(train_rows, kHeadlineBatch, 8));
  }
  table.Print(std::cout);
  WriteArtifact("unlearn_kernel",
                {"rows", "batch_rows", "strategy", "rows_unlearned",
                 "seconds", "rows_per_sec", "speedup_vs_retrain"},
                artifact);

  std::cout << "\ncompounded forests byte-identical to same-store retrain: "
            << (bytes_identical ? "yes" : "NO") << '\n'
            << "kernel speedup vs retrain at " << mid_size << " rows, batch "
            << kHeadlineBatch << ": " << FormatDouble(headline_speedup, 2)
            << "x\n";

  std::ofstream json("bench_artifacts/BENCH_unlearn.json");
  if (json) {
    json.precision(6);
    json << "{\n  \"bench\": \"unlearn_kernel\",\n"
         << "  \"forest\": \"figure5-parametric (10 trees, depth 8)\",\n"
         << "  \"machine\": \"" << MachineDescription() << "\",\n"
         << "  \"mid_size_rows\": " << mid_size << ",\n"
         << "  \"headline_batch_rows\": " << kHeadlineBatch << ",\n"
         << "  \"kernel_speedup_vs_retrain_mid\": " << headline_speedup
         << ",\n"
         << "  \"compounded_bytes_identical\": "
         << (bytes_identical ? "true" : "false") << ",\n"
         << "  \"cells\": [\n";
    for (size_t i = 0; i < artifact.size(); ++i) {
      const auto& row = artifact[i];
      json << "    {\"rows\": " << row[0] << ", \"batch_rows\": " << row[1]
           << ", \"strategy\": \"" << row[2]
           << "\", \"rows_unlearned\": " << row[3]
           << ", \"seconds\": " << row[4] << ", \"rows_per_sec\": " << row[5]
           << ", \"speedup_vs_retrain\": " << row[6] << '}'
           << (i + 1 < artifact.size() ? "," : "") << '\n';
    }
    json << "  ]\n}\n";
    std::cout << "wrote bench_artifacts/BENCH_unlearn.json\n";
  } else {
    std::cout << "could not write bench_artifacts/BENCH_unlearn.json\n";
  }

  if (!all_finite) std::cout << "NaN detected in measurements\n";
  return bytes_identical && all_finite ? 0 : 1;
}
