// SISA-style sharded DaRE ensemble (Bourtoule et al., arXiv 1912.03817).
//
// Training data is partitioned across N independent DaRE sub-forests
// ("shards"); the ensemble prediction is the soft vote over the shard
// outputs: the mean of the shard mean-probabilities, predicting 1 at
// >= 0.5.
// Because a training row lives in exactly one shard, deleting it touches
// only that shard — a deletion burst becomes shard-local unlearning. The
// unit of parallel work is the (shard, tree) pair: DaRE trees train and
// unlearn independently, so every per-tree loop of an op (Train,
// DeleteRows, AddData, FlushAll, and the prediction cache's Rebuild,
// Update and ScoreWithout) runs the trees of every shard it reaches as one
// batch on the util::ThreadPool its caller holds, and one shard uses every
// pool thread too. One shard is the monolithic deployment: the stream
// engine, fume_serve, fume_stream, fume_cli and UnlearnRemovalMethod run
// this type at every shard count (a bare DareForest is searched through
// its FromForest one-shard view).
//
// Determinism contract (docs/sharding.md):
//  * Row placement is a pure function of the global row id (and, in slice
//    mode, the row's slice attribute code) — never of thread schedule.
//  * Shard s trains with seed `config.seed + kShardSeedStride * s`, so
//    shard contents and structure are a pure function of (data, config,
//    shard config). With num_shards == 1 the stride term vanishes and the
//    single shard is byte-identical to the monolithic DareForest.
//  * A fanned-out op keeps one output per (shard, tree) job — built trees,
//    DeletionStats, per-tree probabilities, touched rows — and merges them
//    in ascending (shard, tree) order; kernel scratch is per pool worker
//    and never shared. Serialized bytes, vote outputs and work counters
//    are therefore identical at every thread count {1, 2, 4, 8, ...}
//    (DESIGN.md §6 invariant 8).
//  * Votes accumulate shard mean probabilities in shard order and divide
//    once, mirroring DareForest::PredictProb's sum-then-divide; for one
//    shard the division is by 1.0 and the ensemble probability is
//    bit-identical to the monolithic forest's.

#ifndef FUME_FOREST_SHARDED_FOREST_H_
#define FUME_FOREST_SHARDED_FOREST_H_

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "forest/config.h"
#include "forest/deletion_scratch.h"
#include "forest/forest.h"
#include "forest/prediction_cache.h"
#include "util/result.h"
#include "util/thread_pool.h"

namespace fume {

/// \brief How rows are partitioned across shards. Routing fields are model
/// state: they are serialized with the sharded container (a checkpoint must
/// re-route future ops identically), unlike the runtime execution knobs of
/// ForestConfig.
struct ShardConfig {
  enum class Placement : uint8_t {
    /// splitmix64(global id) % num_shards — uniform, workload-oblivious.
    kHash = 0,
    /// Rows whose `slice_attr` code equals `slice_value` (the planted-bias
    /// cohort — the rows FUME's search is most likely to delete) go to the
    /// LAST shard; the rest hash across the other, cold shards. A deletion
    /// burst aimed at the biased slice then touches only the hot shard.
    kSlice = 1,
  };

  int num_shards = 1;
  Placement placement = Placement::kHash;
  /// kSlice only: the attribute/code defining the hot cohort.
  int slice_attr = -1;
  int32_t slice_value = 0;

  friend bool operator==(const ShardConfig&, const ShardConfig&) = default;
};

/// Parses "hash" / "slice" into a Placement.
Result<ShardConfig::Placement> ParsePlacement(const std::string& name);
const char* PlacementName(ShardConfig::Placement placement);

/// The ShardConfig behind the tools' `--shards N --placement P` flags. One
/// shard ignores `placement`. Slice placement pins the cohort whose
/// `slice_attr` code is `slice_value` (the tools pass the sensitive
/// attribute and its privileged code: the rows a parity-reducing deletion
/// targets) to the last shard.
Result<ShardConfig> ShardConfigFromFlags(int num_shards,
                                         const std::string& placement,
                                         int slice_attr, int32_t slice_value);

/// One unit of a fanned-out ensemble op: tree `tree` of shard `shard`.
struct ShardTreeJob {
  int shard;
  int tree;
};

/// \brief Ensemble of independently trained/unlearned DaRE sub-forests.
///
/// Global row ids are assigned sequentially in arrival order (training rows
/// first, then AddData batches), exactly like TrainingStore ids in the
/// monolithic forest — the same op log drives both. shard_of/local_of map a
/// global id to its owning shard and the row's TrainingStore id inside it;
/// like store ids, global ids are never recycled. A one-shard ensemble
/// stores no maps: every id lives in shard 0 under its own number, which is
/// how the monolithic forest numbers rows.
class ShardedForest {
 public:
  ShardedForest() = default;
  ShardedForest(const ShardedForest&) = delete;
  ShardedForest& operator=(const ShardedForest&) = delete;
  ShardedForest(ShardedForest&&) = default;
  ShardedForest& operator=(ShardedForest&&) = default;

  /// Partitions `train` per `shard.placement` and trains each shard with
  /// its derived seed, building every (shard, tree) on `pool` when given.
  /// Errors if any shard would receive zero rows.
  static Result<ShardedForest> Train(const Dataset& train,
                                     const ForestConfig& config,
                                     const ShardConfig& shard,
                                     util::ThreadPool* pool = nullptr);

  /// One-shard view of a trained forest: identity placement, and a CoW
  /// Clone() of `forest` as shard 0 (O(trees); pending lazy tags are
  /// flushed first, so the clone also inherits any compiled arenas).
  /// Byte-identical to a one-shard Train on the forest's data and config,
  /// and mutating the view never perturbs `forest`.
  static ShardedForest FromForest(const DareForest& forest);

  /// Exactly unlearns the given global row ids: buckets them per owning
  /// shard (preserving batch order within a shard), validates every
  /// shard's slice before any tree changes, then unlearns each owning
  /// shard's trees as DareForest::DeleteRows would, fanned out by (shard,
  /// tree) on `pool` when given. `scratch`, when non-null, is grown to the
  /// pool's worker count and entry w serves pool worker w (entry 0 when
  /// serial), so reuse stays warm across calls.
  Status DeleteRows(const std::vector<RowId>& global_rows,
                    util::ThreadPool* pool = nullptr,
                    std::vector<DeletionScratch>* scratch = nullptr);

  /// Exactly adds new rows, routing each to its placed shard; returns the
  /// assigned global ids in input order. An insert is a flush boundary for
  /// the WHOLE ensemble: shards holding pending lazy tags are flushed even
  /// if they receive no new row, mirroring DareForest::AddData's contract.
  /// Fans out by (shard, tree) like DeleteRows.
  Result<std::vector<RowId>> AddData(
      const Dataset& rows, util::ThreadPool* pool = nullptr,
      std::vector<DeletionScratch>* scratch = nullptr);

  /// Flushes pending lazy-tag subtrees in every shard (see DareForest::
  /// FlushAll), fanned out by (shard, tree) like DeleteRows.
  void FlushAll(util::ThreadPool* pool = nullptr,
                std::vector<DeletionScratch>* scratch = nullptr);
  bool HasLazyTags() const;
  int64_t lazy_rows() const;
  int64_t lazy_nodes() const;
  void EnsureFlushed() const;
  void ResetDeletionStats();

  /// Ensemble probability per row of `data` (mean of shard means).
  std::vector<double> PredictProbAll(const Dataset& data) const;
  /// Hard ensemble predictions: ensemble probability >= 0.5.
  std::vector<int> PredictAll(const Dataset& data) const;
  /// Both of the above in one pass over the shards.
  void Predict(const Dataset& data, std::vector<double>* probs,
               std::vector<int>* preds) const;
  double Accuracy(const Dataset& data) const;

  /// Copy-on-write clone: every shard Clone()s (sharing all nodes);
  /// deletion_stats() of the clone starts at zero. O(num_shards · trees).
  ShardedForest Clone() const;

  bool StructurallyEquals(const ShardedForest& other) const;
  bool ValidateStats() const;

  int num_shards() const { return static_cast<int>(shards_.size()); }
  const DareForest& shard(int s) const { return shards_[s]; }
  const ShardConfig& shard_config() const { return shard_config_; }

  /// Total global ids ever assigned (live + deleted), == the id the next
  /// AddData row would get.
  int64_t num_global_ids() const;
  int shard_of(RowId global) const {
    return shard_of_ == nullptr ? 0 : (*shard_of_)[global];
  }
  RowId local_of(RowId global) const {
    return local_of_ == nullptr ? global : (*local_of_)[global];
  }
  /// Cell accessors by global id (rows stay addressable after deletion,
  /// like TrainingStore).
  int32_t Code(RowId global, int attr) const;
  int Label(RowId global) const;

  /// Live training rows summed across shards.
  int64_t num_training_rows() const;
  int64_t num_nodes() const;
  /// Cumulative unlearning work, summed in shard order.
  DeletionStats deletion_stats() const;

  /// Serializes the sharded container: shard config + placement maps (the
  /// identity maps for one shard) + one length-prefixed SaveForest blob per
  /// shard, written straight into `out` (the length is patched in
  /// afterwards, so `out` must report and seek its position). Lazy tags
  /// are flushed first.
  Status Save(std::ostream& out) const;
  /// Reads a Save container, running LoadForest straight off `in`; a blob
  /// whose length prefix disagrees with the bytes it holds, or one-shard
  /// maps that are not the identity, are IOErrors.
  static Result<ShardedForest> Load(std::istream& in);

  /// IndexError unless every global id was assigned (DeleteRows' check).
  Status ValidateGlobalRows(const std::vector<RowId>& global_rows) const;

  /// Deterministic id hash used by kHash placement (exposed for tests).
  static uint64_t HashGlobalId(RowId global);
  /// The shard a new global row id would be routed to. `slice_code` is the
  /// row's code at shard_config().slice_attr (ignored under kHash).
  int PlaceRow(RowId global, int32_t slice_code) const;

  /// Per-shard derived seed stride (shard s trains with base seed +
  /// stride * s; golden-ratio odd constant so nearby shards decorrelate).
  static constexpr uint64_t kShardSeedStride = 0x9E3779B97F4A7C15ull;

 private:
  /// Flushes the tagged trees of `shards` as one fan-out; `scratch` holds
  /// one entry per pool worker.
  void FlushShards(const std::vector<int>& shards, util::ThreadPool* pool,
                   std::vector<DeletionScratch>* scratch);
  /// Runs step(worker, job, worker's scratch) for every job, fanned out on
  /// `pool`, and adds each job's returned DeletionStats into its shard's
  /// deletion_stats() in job order.
  template <typename Step>
  void RunTreeSteps(const std::vector<ShardTreeJob>& jobs,
                    util::ThreadPool* pool,
                    std::vector<DeletionScratch>* scratch, Step&& step);

  ShardConfig shard_config_;
  std::vector<DareForest> shards_;
  /// Owning shard / local TrainingStore id for every global id ever
  /// assigned; null for one shard (the identity). uint8_t caps num_shards
  /// at 255 (validated ≤ 64). Shared copy-on-write with clones/snapshots: a
  /// what-if Clone() is O(shards · trees), not O(rows); AddData takes a
  /// private copy first when the maps are still shared (single-writer
  /// contract, same as TrainingStore).
  std::shared_ptr<std::vector<uint8_t>> shard_of_;
  std::shared_ptr<std::vector<RowId>> local_of_;
};

/// Combines per-shard mean probabilities (shard order) into the soft
/// vote's ensemble probabilities and hard predictions. `mean` is always
/// filled; `preds` may be null. Shared by ShardedForest::Predict and the
/// sharded prediction cache so every consumer votes identically.
void VoteFromShardProbs(const std::vector<const std::vector<double>*>& shard_probs,
                        std::vector<double>* mean, std::vector<int>* preds);

/// \brief Per-shard TestPredictionCache with a voted ensemble view.
///
/// Mirrors TestPredictionCache's API one level up: Rebuild after training
/// or loading, Update after ops, and ScoreWithout for what-ifs. An op or a
/// what-if typically reaches one or two shards; untouched shards contribute
/// their cached probabilities without any walk or copy. Each call runs the
/// per-tree steps of every shard it reaches as one (shard, tree) fan-out on
/// the pool it is given (serially without one) and merges them in
/// ascending (shard, tree) order, so results are identical at every thread
/// count.
class ShardedPredictionCache {
 public:
  struct WhatIfScratch {
    /// Voted ensemble predictions for the what-if forest, byte-identical
    /// to what_if.PredictAll(test).
    std::vector<int> preds;
    /// Voted ensemble probabilities, byte-identical to
    /// what_if.PredictProbAll(test).
    std::vector<double> probs;
    /// Summed across shards (see TestPredictionCache::WhatIfScratch).
    int64_t rows_rescored = 0;
    /// Shards the what-if changed: the shards owning a deleted row.
    int64_t shards_changed = 0;
    /// The deletion's work summed in shard order, as
    /// ShardedForest::DeleteRows would have counted it (nodes_copied 0).
    DeletionStats deletion_stats;

   private:
    friend class ShardedPredictionCache;
    std::vector<TestPredictionCache::WhatIfScratch> shard_scratch;
    std::vector<std::vector<RowId>> local;  // per-shard local row ids
    std::vector<const std::vector<double>*> votes;
    std::vector<ShardTreeJob> jobs;
    std::vector<std::vector<int64_t>> order;  // per pool worker
    std::vector<int> marked;  // shard whose marks each worker holds
  };

  /// Full pass of every test row through every (shard, tree) arena.
  void Rebuild(const ShardedForest& forest, const Dataset& test,
               util::ThreadPool* pool = nullptr);

  /// Refreshes after any number of ensemble ops since the last Rebuild or
  /// Update, through the nodes they stamped only (TestPredictionCache::
  /// UpdateTree on every tree; a tree no op touched costs one root check).
  /// The forest must be flushed.
  void Update(const ShardedForest& forest, const Dataset& test,
              util::ThreadPool* pool = nullptr);

  /// Scores the seed ensemble as if the global rows `global_rows` had been
  /// deleted, through TestPredictionCache::ScoreWithout's per-tree steps on
  /// the shards owning a deleted row — no clone. Bit-identical to
  /// PredictAll on Clone() + DeleteRows(). Returns DeleteRows' Status for
  /// bad ids. `deletion` is grown to the pool's worker count and entry w
  /// serves pool worker w (entry 0 when serial). Thread-safe for
  /// concurrent calls with distinct scratches and pools.
  Status ScoreWithout(const ShardedForest& base,
                      const std::vector<RowId>& global_rows,
                      const Dataset& test, WhatIfScratch* scratch,
                      std::vector<DeletionScratch>* deletion,
                      util::ThreadPool* pool = nullptr) const;

  /// Voted ensemble probability / predictions per test row;
  /// byte-identical to forest.PredictProbAll / PredictAll.
  const std::vector<double>& probs() const { return mean_prob_; }
  const std::vector<int>& predictions() const { return pred_; }

  int num_shards() const { return static_cast<int>(caches_.size()); }
  const TestPredictionCache& shard(int s) const { return caches_[s]; }

 private:
  void FinalizeVote();

  std::vector<TestPredictionCache> caches_;
  std::vector<double> mean_prob_;
  std::vector<int> pred_;
};

}  // namespace fume

#endif  // FUME_FOREST_SHARDED_FOREST_H_
