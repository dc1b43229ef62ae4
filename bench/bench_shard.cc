// Sharded vs monolithic unlearning: SISA ShardedForest ensembles at shard
// counts {2, 4, 8} (slice-N: the planted-bias cohort in the last shard, the
// other rows hashed across the rest) against the one-shard ensemble
// (one-shard), on a parametric Figure-5 substrate (10 attributes, 8 values
// per attribute — the d=8 cell of the Figure-5 (b) sweep — across
// Figure-5 (a) instance counts). one-shard is the monolithic forest in its
// container, as the tools deploy it at --shards 1, and every ensemble fans
// its (shard, tree) jobs out on the same pool, so each cell's speedup
// compares shard counts, not thread use.
//
// Two deletion workloads are measured, because sharding's cost model is
// workload-shaped:
//
//  * delete-uniform — a burst of uniformly drawn rows. Every batch touches
//    every shard, so each shard pays the batched kernel's per-call node
//    scan on a depth-saturated forest nearly as large as the monolithic
//    one.
//  * delete-cohort — a burst aimed at the planted-bias cohort (the rows
//    FUME's search identifies for removal). The burst touches only the hot
//    shard, whose forest and subtree retrains are a fraction of the
//    monolithic ones.
//
// What-if evaluation throughput (the FUME search's inner loop) is
// measured the same two ways through UnlearnRemovalMethod. Fidelity is
// end-to-end: a full FUME search per shard count at mid-size, reporting
// top-k Jaccard overlap with the monolithic search (the SISA vote
// trade-off).
//
// Exactness is attested in-bench and by exit code: a 1-shard ensemble
// must serialize byte-identical to the monolithic forest (and stay
// identical through a compounding delete run, with an identical top-k), a
// sharded delete must equal per-shard standalone monolithic deletes, and
// sharded results must be byte-identical across thread counts {1, 4, 8}.
// Artifacts: shard.csv (+ metrics snapshot) and BENCH_shard.json.

#include <algorithm>
#include <fstream>
#include <iostream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "core/removal_method.h"
#include "forest/deletion_scratch.h"
#include "forest/serialize.h"
#include "forest/sharded_forest.h"
#include "synth/datasets.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

using namespace fume;
using namespace fume::bench;

// The attribute/code whose rows carry the planted bias cohort targeted by
// the delete-cohort workload and sliced into the last shard.
constexpr int kSliceAttr = 1;
constexpr int32_t kSliceValue = 0;

struct Setup {
  int64_t rows = 0;
  Dataset train;
  Dataset test;
  GroupSpec group;
  ForestConfig config;
  DareForest mono;
  /// Train-row ids of the hot cohort (Code(r, kSliceAttr) == kSliceValue),
  /// ascending.
  std::vector<RowId> cohort;
};

Setup MakeSetup(int64_t rows) {
  auto bundle = synth::MakeParametric(rows, 10, 8, 7);
  FUME_ABORT_NOT_OK(bundle.status());
  SplitOptions split_opts;
  split_opts.test_fraction = 0.3;
  split_opts.seed = 2;
  auto split = SplitTrainTest(bundle->data, split_opts);
  FUME_ABORT_NOT_OK(split.status());
  ForestConfig config;  // the Figure 5 forest
  config.num_trees = 10;
  config.max_depth = 8;
  config.random_depth = 2;
  config.seed = 31;
  auto mono = DareForest::Train(split->train, config);
  FUME_ABORT_NOT_OK(mono.status());
  Setup s{rows,
          std::move(split->train),
          std::move(split->test),
          bundle->group,
          config,
          std::move(*mono),
          {}};
  for (int64_t r = 0; r < s.train.num_rows(); ++r) {
    if (s.train.Code(r, kSliceAttr) == kSliceValue) {
      s.cohort.push_back(static_cast<RowId>(r));
    }
  }
  return s;
}

// Disjoint deterministic uniform batches, as in bench_unlearn_kernel:
// slices of a keyed shuffle capped at half the training data.
std::vector<std::vector<RowId>> UniformBatches(int64_t num_rows,
                                               int batch_size,
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
  const int64_t max_batches = num_rows / 2 / batch_size;
  const int64_t take =
      std::min<int64_t>(num_batches, std::max<int64_t>(1, max_batches));
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

// Batches drawn from the hot cohort (ascending ids), capped at half the
// cohort so the hot shard never empties.
std::vector<std::vector<RowId>> CohortBatches(const std::vector<RowId>& cohort,
                                              int batch_size) {
  std::vector<std::vector<RowId>> batches;
  const size_t limit = cohort.size() / 2;
  const size_t step = static_cast<size_t>(batch_size);
  for (size_t i = 0; i + step <= limit; i += step) {
    batches.emplace_back(cohort.begin() + static_cast<int64_t>(i),
                         cohort.begin() + static_cast<int64_t>(i + step));
  }
  if (batches.empty() && limit > 0) {
    batches.emplace_back(cohort.begin(),
                         cohort.begin() + static_cast<int64_t>(limit));
  }
  return batches;
}

std::string MonoBytes(const DareForest& forest) {
  std::ostringstream out(std::ios::binary);
  FUME_ABORT_NOT_OK(SaveForest(forest, out));
  return out.str();
}

std::string ShardBytes(const ShardedForest& forest) {
  std::ostringstream out(std::ios::binary);
  FUME_ABORT_NOT_OK(forest.Save(out));
  return out.str();
}

// A privately-owned copy of the pristine ensemble (every node refcount 1),
// so the timed loop below contains pure deletion work — the sharded
// counterpart of bench::PrivateCopy.
ShardedForest PrivateCopy(const std::string& pristine_bytes) {
  std::istringstream in(pristine_bytes, std::ios::binary);
  auto loaded = ShardedForest::Load(in);
  FUME_ABORT_NOT_OK(loaded.status());
  return std::move(*loaded);
}

struct Throughput {
  int64_t rows_processed = 0;
  double seconds = 0.0;
  double per_sec = 0.0;

  void Finish() {
    per_sec =
        seconds > 0.0 ? static_cast<double>(rows_processed) / seconds : 0.0;
  }
  bool finite() const { return seconds == seconds && per_sec == per_sec; }
};

// Compounding deletion burst through the sharded ensemble: rows route to
// owning shards and unlearn shard-locally, fanned out on `pool` when
// non-null. Wall time, not thread CPU time, because of that fan-out
// (best-of-reps absorbs scheduler noise).
Throughput MeasureDeleteSharded(const std::string& pristine_bytes,
                                const std::vector<std::vector<RowId>>& batches,
                                util::ThreadPool* pool) {
  std::vector<DeletionScratch> scratch;
  {
    ShardedForest warm = PrivateCopy(pristine_bytes);
    FUME_ABORT_NOT_OK(warm.DeleteRows(batches.front(), pool, &scratch));
  }
  ShardedForest victim = PrivateCopy(pristine_bytes);
  Throughput t;
  Stopwatch watch;
  for (const auto& rows : batches) {
    FUME_ABORT_NOT_OK(victim.DeleteRows(rows, pool, &scratch));
    t.rows_processed += static_cast<int64_t>(rows.size());
  }
  t.seconds = watch.ElapsedSeconds();
  t.Finish();
  return t;
}

// What-if evaluation throughput: leave-out evaluations through the removal
// method, the FUME search's inner loop. Single-threaded for every
// ensemble (search parallelism is across evaluations), so thread CPU time
// is the low-noise clock.
Throughput MeasureWhatIf(RemovalMethod* removal,
                         const std::vector<std::vector<RowId>>& batches,
                         int evals) {
  FUME_ABORT_NOT_OK(removal->EvaluateWithout(batches.front()).status());
  Throughput t;
  ThreadCpuStopwatch watch;
  for (int e = 0; e < evals; ++e) {
    const auto& rows = batches[static_cast<size_t>(e) % batches.size()];
    FUME_ABORT_NOT_OK(removal->EvaluateWithout(rows).status());
    t.rows_processed += static_cast<int64_t>(rows.size());
  }
  t.seconds = watch.ElapsedSeconds();
  t.Finish();
  return t;
}

std::string TopKSignature(const FumeResult& result, const Schema& schema) {
  std::ostringstream os;
  os.precision(17);
  for (const auto& s : result.top_k) {
    os << s.predicate.ToString(schema) << '|' << s.attribution << '|'
       << s.new_fairness << '|' << s.new_accuracy << '\n';
  }
  return os.str();
}

std::set<std::string> TopKPredicates(const FumeResult& result,
                                     const Schema& schema) {
  std::set<std::string> preds;
  for (const auto& s : result.top_k) preds.insert(s.predicate.ToString(schema));
  return preds;
}

double Jaccard(const std::set<std::string>& a, const std::set<std::string>& b) {
  if (a.empty() && b.empty()) return 1.0;
  int64_t inter = 0;
  for (const auto& x : a) inter += b.count(x) ? 1 : 0;
  const int64_t uni = static_cast<int64_t>(a.size() + b.size()) - inter;
  return uni == 0 ? 1.0 : static_cast<double>(inter) / static_cast<double>(uni);
}

// Full FUME search over the sharded ensemble (mirrors fume_cli --shards).
Result<FumeResult> ShardedSearch(const ShardedForest& model, const Setup& s,
                                 const FumeConfig& config) {
  ModelEval original;
  original.fairness = ComputeFairness(s.test, model.PredictAll(s.test),
                                      s.group, config.metric);
  original.accuracy = model.Accuracy(s.test);
  UnlearnRemovalMethod removal(&model, &s.test, s.group, config.metric);
  return ExplainWithRemoval(original, s.train, config, &removal);
}

// Attestation 1: a 1-shard ensemble is the monolithic forest — identical
// bytes at rest and in lockstep through a compounding delete run.
bool Shard1ByteIdentical(const Setup& s,
                         const std::vector<std::vector<RowId>>& batches) {
  auto sharded = ShardedForest::Train(s.train, s.config, ShardConfig{});
  FUME_ABORT_NOT_OK(sharded.status());
  if (MonoBytes(sharded->shard(0)) != MonoBytes(s.mono)) return false;
  DareForest mono = s.mono.Clone();
  for (size_t b = 0; b < batches.size() && b < 6; ++b) {
    FUME_ABORT_NOT_OK(sharded->DeleteRows(batches[b]));
    FUME_ABORT_NOT_OK(mono.DeleteRows(batches[b]));
  }
  return MonoBytes(sharded->shard(0)) == MonoBytes(mono);
}

// Attestation 2: an ensemble delete equals running each shard's rows
// through that shard as a standalone monolithic forest.
bool PerShardDeleteIdentical(const Setup& s, const ShardedForest& ensemble,
                             const std::vector<std::vector<RowId>>& batches) {
  const int n = ensemble.num_shards();
  // Standalone per-shard forests over exactly the member rows, with the
  // derived per-shard seeds.
  std::vector<std::vector<int64_t>> members(static_cast<size_t>(n));
  for (RowId g = 0; g < ensemble.num_global_ids(); ++g) {
    members[static_cast<size_t>(ensemble.shard_of(g))].push_back(g);
  }
  std::vector<DareForest> reference;
  for (int sh = 0; sh < n; ++sh) {
    ForestConfig cfg = s.config;
    cfg.seed = s.config.seed +
               ShardedForest::kShardSeedStride * static_cast<uint64_t>(sh);
    auto ref = DareForest::Train(
        s.train.Select(members[static_cast<size_t>(sh)]), cfg);
    FUME_ABORT_NOT_OK(ref.status());
    reference.push_back(std::move(*ref));
  }
  ShardedForest victim = ensemble.Clone();
  for (size_t b = 0; b < batches.size() && b < 6; ++b) {
    FUME_ABORT_NOT_OK(victim.DeleteRows(batches[b]));
    std::vector<std::vector<RowId>> local(static_cast<size_t>(n));
    for (const RowId g : batches[b]) {
      local[static_cast<size_t>(victim.shard_of(g))].push_back(
          victim.local_of(g));
    }
    for (int sh = 0; sh < n; ++sh) {
      FUME_ABORT_NOT_OK(reference[static_cast<size_t>(sh)].DeleteRows(
          local[static_cast<size_t>(sh)]));
    }
  }
  for (int sh = 0; sh < n; ++sh) {
    if (MonoBytes(victim.shard(sh)) !=
        MonoBytes(reference[static_cast<size_t>(sh)])) {
      return false;
    }
  }
  return true;
}

// Attestation 3: the same delete run lands on identical bytes across
// thread counts (serial, 1, 4, 8 pool threads).
bool ThreadCountsByteIdentical(const std::string& pristine_bytes,
                               const std::vector<std::vector<RowId>>& batches) {
  std::string reference;
  for (const int threads : {0, 1, 4, 8}) {
    std::unique_ptr<util::ThreadPool> pool;
    if (threads > 0) pool = std::make_unique<util::ThreadPool>(threads);
    ShardedForest victim = PrivateCopy(pristine_bytes);
    std::vector<DeletionScratch> scratch;
    for (const auto& rows : batches) {
      FUME_ABORT_NOT_OK(victim.DeleteRows(rows, pool.get(), &scratch));
    }
    const std::string bytes = ShardBytes(victim);
    if (reference.empty()) {
      reference = bytes;
    } else if (bytes != reference) {
      return false;
    }
  }
  return true;
}

struct Ensemble {
  std::string label;  // "one-shard" / "slice-2" / ...
  int shards = 0;
  ShardedForest forest;
  std::string pristine;  // serialized bytes for private copies
};

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = SmokeMode(argc, argv);
  const bool full = !smoke && FullMode(argc, argv);
  PrintBanner("SISA sharding: sharded ensemble vs monolithic forest",
              "docs/sharding.md / Figure 5 forests (p=10, d=8)");

  const std::vector<int64_t> sizes =
      smoke ? std::vector<int64_t>{2000}
            : std::vector<int64_t>{10000, 20000, 50000};
  const int64_t mid_size = sizes[sizes.size() / 2];
  const std::vector<int> shard_counts =
      smoke ? std::vector<int>{1, 2, 4} : std::vector<int>{1, 2, 4, 8};
  const int kBatch = smoke ? 64 : 512;  // burst batch scale
  const int num_batches = smoke ? 4 : 12;
  const int whatif_evals = smoke ? 4 : 16;
  const int kReps = smoke ? 1 : (full ? 7 : 5);
  const int kHeadlineShards = 4;
  util::ThreadPool pool(8);

  TablePrinter table(
      {"rows", "kind", "model", "rows/sec", "speedup vs one-shard"});
  std::vector<std::vector<std::string>> artifact;
  double delete_cohort_speedup_mid = 0.0;
  double whatif_cohort_speedup_mid = 0.0;
  bool shard1_identical = true;
  bool per_shard_identical = true;
  bool threads_identical = true;
  bool all_finite = true;
  std::vector<std::pair<std::string, double>> fidelity;  // (model, jaccard)
  bool shard1_topk_identical = true;

  for (int64_t rows : sizes) {
    Setup s = MakeSetup(rows);
    const int64_t train_rows = s.mono.num_training_rows();
    const auto uniform = UniformBatches(train_rows, kBatch, num_batches);
    const auto cohort = CohortBatches(s.cohort, kBatch);

    // The one-shard base, then the slice ensembles.
    std::vector<Ensemble> ensembles;
    for (const int n : shard_counts) {
      auto forest = ShardedForest::Train(
          s.train, s.config, ShardConfigFromFlags(n, kSliceAttr, kSliceValue),
          &pool);
      FUME_ABORT_NOT_OK(forest.status());
      Ensemble e{n == 1 ? std::string("one-shard")
                        : std::string("slice-").append(std::to_string(n)),
                 n, std::move(*forest), {}};
      e.pristine = ShardBytes(e.forest);
      ensembles.push_back(std::move(e));
    }
    const auto find = [&](const std::string& label) -> const Ensemble& {
      for (const auto& e : ensembles) {
        if (e.label == label) return e;
      }
      FUME_ABORT_NOT_OK(Status::Invalid("no ensemble " + label));
      return ensembles.front();
    };

    // Every kind times one-shard first, as its 1.00x base, then every slice
    // ensemble: uniform rows route to every shard, cohort rows land in the
    // hot shard. Each cell is the best of kReps runs after one discarded
    // run, so no cell is timed cold.
    struct WorkloadKind {
      const char* kind;
      const std::vector<std::vector<RowId>>* batches;
    };
    const auto run_kind = [&](const WorkloadKind& k, const auto& measure) {
      double base = 0.0;
      for (const Ensemble& e : ensembles) {
        measure(e);  // discarded warm-up run
        Throughput best;
        for (int rep = 0; rep < kReps; ++rep) {
          const Throughput t = measure(e);
          if (rep == 0 || t.per_sec > best.per_sec) best = t;
        }
        all_finite = all_finite && best.finite();
        if (e.shards == 1) base = best.per_sec;
        const double speedup = base > 0.0 ? best.per_sec / base : 0.0;
        if (rows == mid_size && e.shards == kHeadlineShards) {
          if (std::string(k.kind) == "delete-cohort") {
            delete_cohort_speedup_mid = speedup;
          } else if (std::string(k.kind) == "whatif-cohort") {
            whatif_cohort_speedup_mid = speedup;
          }
        }
        table.AddRow({std::to_string(rows), k.kind, e.label,
                      FormatDouble(best.per_sec, 0),
                      FormatDouble(speedup, 2) + "x"});
        artifact.push_back({std::to_string(rows), std::to_string(kBatch),
                            k.kind, e.label,
                            std::to_string(best.rows_processed),
                            FormatDouble(best.seconds, 4),
                            FormatDouble(best.per_sec, 2),
                            FormatDouble(speedup, 3)});
      }
    };
    for (const WorkloadKind& k : {WorkloadKind{"delete-uniform", &uniform},
                                  WorkloadKind{"delete-cohort", &cohort}}) {
      run_kind(k, [&](const Ensemble& e) {
        return MeasureDeleteSharded(e.pristine, *k.batches, &pool);
      });
    }
    for (const WorkloadKind& k : {WorkloadKind{"whatif-uniform", &uniform},
                                  WorkloadKind{"whatif-cohort", &cohort}}) {
      run_kind(k, [&](const Ensemble& e) {
        UnlearnRemovalMethod removal(&e.forest, &s.test, s.group,
                                     FairnessMetric::kStatisticalParity);
        return MeasureWhatIf(&removal, *k.batches, whatif_evals);
      });
    }

    // Exactness attestations per size (cheap relative to the sweeps). The
    // per-shard and thread-count checks run on the slice ensemble — the
    // headline configuration — with the cohort burst.
    shard1_identical = shard1_identical && Shard1ByteIdentical(s, uniform);
    const std::string headline_label =
        "slice-" + std::to_string(kHeadlineShards);
    per_shard_identical =
        per_shard_identical &&
        PerShardDeleteIdentical(s, find(headline_label).forest, cohort);
    threads_identical =
        threads_identical &&
        ThreadCountsByteIdentical(find(headline_label).pristine, cohort);

    // Top-k fidelity at mid-size: full searches, Jaccard vs monolithic.
    if (rows == mid_size) {
      FumeConfig config = BenchFumeConfig(s.group);
      auto mono_result =
          ExplainFairnessViolation(s.mono, s.train, s.test, config);
      FUME_ABORT_NOT_OK(mono_result.status());
      const auto mono_preds = TopKPredicates(*mono_result, s.train.schema());
      const std::string mono_sig =
          TopKSignature(*mono_result, s.train.schema());
      for (const Ensemble& e : ensembles) {
        auto result = ShardedSearch(e.forest, s, config);
        double jaccard = 0.0;
        if (result.ok()) {
          jaccard =
              Jaccard(mono_preds, TopKPredicates(*result, s.train.schema()));
          if (e.shards == 1) {
            shard1_topk_identical =
                TopKSignature(*result, s.train.schema()) == mono_sig;
          }
        } else if (e.shards == 1) {
          shard1_topk_identical = false;
        }
        fidelity.emplace_back(e.label, jaccard);
      }
    }
  }
  table.Print(std::cout);
  WriteArtifact("shard",
                {"rows", "batch_rows", "kind", "model", "rows_processed",
                 "seconds", "rows_per_sec", "speedup_vs_one_shard"},
                artifact);

  std::cout << "\ntop-k fidelity vs monolithic (" << mid_size
            << " rows, Jaccard over top-k predicates)\n";
  for (const auto& [label, jaccard] : fidelity) {
    std::cout << "  " << label << ": " << FormatDouble(jaccard, 3) << '\n';
  }
  std::cout << "1-shard ensemble byte-identical to monolithic: "
            << (shard1_identical ? "yes" : "NO — exactness violation") << '\n'
            << "1-shard top-k identical to monolithic: "
            << (shard1_topk_identical ? "yes" : "NO — exactness violation")
            << '\n'
            << "sharded delete == per-shard monolithic deletes: "
            << (per_shard_identical ? "yes" : "NO — exactness violation")
            << '\n'
            << "bytes identical across thread counts {1,4,8}: "
            << (threads_identical ? "yes" : "NO — determinism violation")
            << '\n'
            << "cohort-burst delete speedup at " << mid_size << " rows, "
            << kHeadlineShards << " shards: "
            << FormatDouble(delete_cohort_speedup_mid, 2) << "x\n"
            << "cohort what-if speedup at " << mid_size << " rows, "
            << kHeadlineShards << " shards: "
            << FormatDouble(whatif_cohort_speedup_mid, 2) << "x\n";

  std::ofstream json("bench_artifacts/BENCH_shard.json");
  if (json) {
    json.precision(6);
    json << "{\n  \"bench\": \"shard\",\n"
         << "  \"machine\": \"" << MachineDescription() << "\",\n"
         << "  \"forest\": \"figure5-parametric p=10 d=8 (10 trees, depth "
            "8)\",\n"
         << "  \"mid_size_rows\": " << mid_size << ",\n"
         << "  \"headline_shards\": " << kHeadlineShards << ",\n"
         << "  \"delete_cohort_speedup_mid\": " << delete_cohort_speedup_mid
         << ",\n"
         << "  \"whatif_cohort_speedup_mid\": " << whatif_cohort_speedup_mid
         << ",\n"
         << "  \"topk_fidelity\": [";
    for (size_t i = 0; i < fidelity.size(); ++i) {
      json << (i == 0 ? "" : ", ") << "{\"model\": \"" << fidelity[i].first
           << "\", \"topk_jaccard\": " << fidelity[i].second << '}';
    }
    json << "],\n"
         << "  \"shard1_bytes_identical\": "
         << (shard1_identical ? "true" : "false") << ",\n"
         << "  \"shard1_topk_identical\": "
         << (shard1_topk_identical ? "true" : "false") << ",\n"
         << "  \"per_shard_delete_bytes_identical\": "
         << (per_shard_identical ? "true" : "false") << ",\n"
         << "  \"thread_counts_bytes_identical\": "
         << (threads_identical ? "true" : "false") << ",\n"
         << "  \"cells\": [\n";
    for (size_t i = 0; i < artifact.size(); ++i) {
      const auto& row = artifact[i];
      json << "    {\"rows\": " << row[0] << ", \"batch_rows\": " << row[1]
           << ", \"kind\": \"" << row[2] << "\", \"model\": \"" << row[3]
           << "\", \"rows_processed\": " << row[4]
           << ", \"seconds\": " << row[5] << ", \"rows_per_sec\": " << row[6]
           << ", \"speedup_vs_one_shard\": " << row[7] << '}'
           << (i + 1 < artifact.size() ? "," : "") << '\n';
    }
    json << "  ]\n}\n";
    std::cout << "wrote bench_artifacts/BENCH_shard.json\n";
  } else {
    std::cout << "could not write bench_artifacts/BENCH_shard.json\n";
  }

  const bool exact = shard1_identical && shard1_topk_identical &&
                     per_shard_identical && threads_identical;
  if (!all_finite) std::cout << "NaN detected in measurements\n";
  return exact && all_finite ? 0 : 1;
}
