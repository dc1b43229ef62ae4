#include "forest/sharded_forest.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <istream>
#include <ostream>
#include <utility>

#include "forest/serialize.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"

namespace fume {
namespace {

constexpr char kShardMagic[8] = {'F', 'U', 'M', 'E', 'S', 'H', 'R', 'D'};
constexpr uint32_t kShardVersion = 1;
constexpr uint64_t kMaxVec = 1ull << 30;
// FUMESHRD v1 header fields with one legal value: the vote byte (0, the
// soft vote) and the hot-shard count of slice placement (1). Every
// container holds these; any other value is rejected as corrupt.
constexpr uint8_t kSoftVoteByte = 0;
constexpr int32_t kHotShardCount = 1;

uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

template <typename T>
void WritePod(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
Status ReadPod(std::istream& in, T* value) {
  in.read(reinterpret_cast<char*>(value), sizeof(T));
  if (!in.good()) return Status::IOError("truncated sharded forest stream");
  return Status::OK();
}

template <typename T>
void WriteVec(std::ostream& out, const std::vector<T>& v) {
  WritePod(out, static_cast<uint64_t>(v.size()));
  if (!v.empty()) {
    out.write(reinterpret_cast<const char*>(v.data()),
              static_cast<std::streamsize>(v.size() * sizeof(T)));
  }
}

template <typename T>
Status ReadVec(std::istream& in, std::vector<T>* v) {
  uint64_t count = 0;
  FUME_RETURN_NOT_OK(ReadPod(in, &count));
  if (count > kMaxVec) return Status::IOError("implausible vector length");
  v->resize(count);
  if (count > 0) {
    in.read(reinterpret_cast<char*>(v->data()),
            static_cast<std::streamsize>(count * sizeof(T)));
    if (!in.good()) return Status::IOError("truncated sharded forest stream");
  }
  return Status::OK();
}

Status ValidateShardConfig(const ShardConfig& sc) {
  if (sc.num_shards < 1 || sc.num_shards > 64) {
    return Status::Invalid("num_shards must be in [1, 64]");
  }
  if (sc.placement == ShardConfig::Placement::kSlice) {
    if (sc.slice_attr < 0) {
      return Status::Invalid("slice placement requires slice_attr >= 0");
    }
    if (sc.num_shards < 2) {
      return Status::Invalid("slice placement requires at least 2 shards");
    }
  }
  return Status::OK();
}

/// Appends shard s's trees to `jobs` as (s, t) jobs in tree order.
void AppendTreeJobs(int shard, int num_trees,
                    std::vector<ShardTreeJob>* jobs) {
  for (int t = 0; t < num_trees; ++t) jobs->push_back({shard, t});
}

/// Worker scratches a fan-out on `pool` uses: one per pool worker.
size_t NumWorkers(const util::ThreadPool* pool) {
  return pool == nullptr ? 1 : static_cast<size_t>(pool->num_threads());
}

/// The kernel scratches of a fan-out on `pool`: the caller's, or `own`
/// when it passed none, grown to one per pool worker.
std::vector<DeletionScratch>* WorkerScratch(
    util::ThreadPool* pool, std::vector<DeletionScratch>* given,
    std::vector<DeletionScratch>* own) {
  std::vector<DeletionScratch>* scratch = given != nullptr ? given : own;
  if (scratch->size() < NumWorkers(pool)) scratch->resize(NumWorkers(pool));
  return scratch;
}

/// Runs fn(worker, i) once per job index i, fanned out on `pool` when it
/// has parked workers and there is more than one job, serially as worker 0
/// otherwise. A worker claims indices in ascending order, so each worker
/// meets a shard's jobs in one run. Callers keep per-job outputs and merge
/// them in ascending (shard, tree) order, so results never depend on the
/// thread count.
template <typename Fn>
void ForTrees(const std::vector<ShardTreeJob>& jobs, util::ThreadPool* pool,
              Fn&& fn) {
  if (pool == nullptr || pool->num_threads() <= 1 || jobs.size() <= 1) {
    for (size_t i = 0; i < jobs.size(); ++i) fn(0, i);
    return;
  }
  pool->ParallelFor(jobs.size(),
                    [&fn](int worker, size_t i) { fn(worker, i); });
}

/// Makes worker `worker`'s scratch hold the doomed marks of `shard`'s
/// slice `rows` of a fanned-out deletion. The caller validates each
/// shard's slice once on worker 0's scratch; a worker stamps a shard's rows
/// into its own scratch the first time it takes one of that shard's trees,
/// so no tree walk writes shared state. (*marked)[w] is the shard whose
/// marks worker w's scratch holds (-1: none).
void EnsureMarked(int worker, int shard, const DareForest& forest,
                  const std::vector<RowId>& rows, std::vector<int>* marked,
                  DeletionScratch* scratch) {
  int& holds = (*marked)[static_cast<size_t>(worker)];
  if (holds == shard) return;
  scratch->MarkBatch(forest.store().num_rows(), rows);
  holds = shard;
}

int PlaceRowImpl(const ShardConfig& sc, RowId global, int32_t slice_code) {
  const uint64_t h = ShardedForest::HashGlobalId(global);
  if (sc.placement == ShardConfig::Placement::kSlice) {
    // The cohort goes to the last shard; the rest hash across the others.
    const int hot = sc.num_shards - 1;
    if (slice_code == sc.slice_value) return hot;
    return static_cast<int>(h % static_cast<uint64_t>(hot));
  }
  return static_cast<int>(h % static_cast<uint64_t>(sc.num_shards));
}

}  // namespace

Result<ShardConfig::Placement> ParsePlacement(const std::string& name) {
  if (name == "hash") return ShardConfig::Placement::kHash;
  if (name == "slice") return ShardConfig::Placement::kSlice;
  return Status::Invalid("unknown placement '" + name +
                         "' (expected hash|slice)");
}

const char* PlacementName(ShardConfig::Placement placement) {
  return placement == ShardConfig::Placement::kSlice ? "slice" : "hash";
}

Result<ShardConfig> ShardConfigFromFlags(int num_shards,
                                         const std::string& placement,
                                         int slice_attr,
                                         int32_t slice_value) {
  ShardConfig config;
  config.num_shards = num_shards;
  if (num_shards <= 1) return config;
  FUME_ASSIGN_OR_RETURN(config.placement, ParsePlacement(placement));
  if (config.placement == ShardConfig::Placement::kSlice) {
    config.slice_attr = slice_attr;
    config.slice_value = slice_value;
  }
  return config;
}

uint64_t ShardedForest::HashGlobalId(RowId global) {
  return SplitMix64(static_cast<uint64_t>(static_cast<uint32_t>(global)));
}

int ShardedForest::PlaceRow(RowId global, int32_t slice_code) const {
  return PlaceRowImpl(shard_config_, global, slice_code);
}

Result<ShardedForest> ShardedForest::Train(const Dataset& train,
                                           const ForestConfig& config,
                                           const ShardConfig& shard,
                                           util::ThreadPool* pool) {
  FUME_RETURN_NOT_OK(ValidateShardConfig(shard));
  if (shard.placement == ShardConfig::Placement::kSlice &&
      shard.slice_attr >= train.num_attributes()) {
    return Status::Invalid("slice_attr out of range");
  }
  obs::TraceSpan span("shard.train", {{"shards", shard.num_shards},
                                      {"rows", train.num_rows()}});
  const int n = shard.num_shards;
  ShardedForest out;
  out.shard_config_ = shard;
  const int64_t rows = train.num_rows();
  auto shard_of = std::make_shared<std::vector<uint8_t>>();
  auto local_of = std::make_shared<std::vector<RowId>>();
  shard_of->resize(static_cast<size_t>(rows));
  local_of->resize(static_cast<size_t>(rows));
  std::vector<std::vector<int64_t>> members(static_cast<size_t>(n));
  for (int64_t r = 0; r < rows; ++r) {
    const int32_t code =
        shard.slice_attr >= 0 ? train.Code(r, shard.slice_attr) : 0;
    const int s = PlaceRowImpl(shard, static_cast<RowId>(r), code);
    auto& m = members[static_cast<size_t>(s)];
    (*shard_of)[static_cast<size_t>(r)] = static_cast<uint8_t>(s);
    (*local_of)[static_cast<size_t>(r)] = static_cast<RowId>(m.size());
    m.push_back(r);
  }
  for (int s = 0; s < n; ++s) {
    if (members[static_cast<size_t>(s)].empty()) {
      return Status::Invalid("shard " + std::to_string(s) +
                             " received no training rows; use fewer shards "
                             "or more data");
    }
  }
  if (n > 1) {  // one shard keeps no maps: they are the identity
    out.shard_of_ = std::move(shard_of);
    out.local_of_ = std::move(local_of);
  }
  out.shards_.reserve(static_cast<size_t>(n));
  std::vector<ShardTreeJob> jobs;
  for (int s = 0; s < n; ++s) {
    ForestConfig cfg = config;
    cfg.seed = config.seed + kShardSeedStride * static_cast<uint64_t>(s);
    FUME_ASSIGN_OR_RETURN(
        DareForest untreed,
        DareForest::TrainUntreed(
            train.Select(members[static_cast<size_t>(s)]), cfg));
    out.shards_.push_back(std::move(untreed));
    AppendTreeJobs(s, cfg.num_trees, &jobs);
  }
  std::vector<DareTree> built(jobs.size());
  ForTrees(jobs, pool, [&](int /*worker*/, size_t i) {
    built[i] = out.shards_[static_cast<size_t>(jobs[i].shard)].BuildTree(
        jobs[i].tree);
  });
  for (size_t i = 0; i < jobs.size(); ++i) {
    out.shards_[static_cast<size_t>(jobs[i].shard)].trees_.push_back(
        std::move(built[i]));
  }
  return out;
}

ShardedForest ShardedForest::FromForest(const DareForest& forest) {
  forest.EnsureFlushed();
  ShardedForest out;  // default ShardConfig: one shard, no maps
  out.shards_.push_back(forest.Clone());
  return out;
}

Status ShardedForest::ValidateGlobalRows(
    const std::vector<RowId>& global_rows) const {
  const int64_t limit = num_global_ids();
  for (RowId g : global_rows) {
    if (g < 0 || static_cast<int64_t>(g) >= limit) {
      return Status::IndexError("global row id " + std::to_string(g) +
                                " out of range");
    }
  }
  return Status::OK();
}

template <typename Step>
void ShardedForest::RunTreeSteps(const std::vector<ShardTreeJob>& jobs,
                                 util::ThreadPool* pool,
                                 std::vector<DeletionScratch>* scratch,
                                 Step&& step) {
  std::vector<DeletionStats> work(jobs.size());
  ForTrees(jobs, pool, [&](int worker, size_t i) {
    work[i] = step(worker, jobs[i], &(*scratch)[static_cast<size_t>(worker)]);
  });
  for (size_t i = 0; i < jobs.size(); ++i) {
    shards_[static_cast<size_t>(jobs[i].shard)].AddTreeWork(jobs[i].tree,
                                                            work[i], nullptr);
  }
}

Status ShardedForest::DeleteRows(const std::vector<RowId>& global_rows,
                                 util::ThreadPool* pool,
                                 std::vector<DeletionScratch>* scratch) {
  FUME_RETURN_NOT_OK(ValidateGlobalRows(global_rows));
  obs::TraceSpan span("shard.delete",
                      {{"rows", static_cast<int64_t>(global_rows.size())}});
  static obs::Counter* batches = obs::GetCounter("shard.delete.batches");
  static obs::Counter* routed = obs::GetCounter("shard.delete.rows_routed");
  static obs::Histogram* touched_hist =
      obs::GetHistogram("shard.delete.shards_touched");
  batches->Inc();
  routed->Inc(static_cast<int64_t>(global_rows.size()));
  const int n = num_shards();
  std::vector<std::vector<RowId>> local(static_cast<size_t>(n));
  for (RowId g : global_rows) {
    local[static_cast<size_t>(shard_of(g))].push_back(local_of(g));
  }
  std::vector<DeletionScratch> own_scratch;
  scratch = WorkerScratch(pool, scratch, &own_scratch);
  // Every shard's slice is validated (ids in range, no duplicates) and
  // counted as one deletion batch of that shard before any tree changes,
  // so a bad batch leaves the ensemble untouched.
  std::vector<int> touched;
  std::vector<ShardTreeJob> jobs;
  for (int s = 0; s < n; ++s) {
    if (local[static_cast<size_t>(s)].empty()) continue;
    FUME_RETURN_NOT_OK(shards_[static_cast<size_t>(s)].BeginDeletionBatch(
        local[static_cast<size_t>(s)], &(*scratch)[0]));
    touched.push_back(s);
    AppendTreeJobs(s, shards_[static_cast<size_t>(s)].num_trees(), &jobs);
  }
  touched_hist->Record(static_cast<double>(touched.size()));
  if (touched.empty()) return Status::OK();
  std::vector<int> marked(scratch->size(), -1);
  marked[0] = touched.back();
  RunTreeSteps(jobs, pool, scratch,
               [&](int worker, const ShardTreeJob& job, DeletionScratch* sc) {
                 DareForest& shard = shards_[static_cast<size_t>(job.shard)];
                 const std::vector<RowId>& rows =
                     local[static_cast<size_t>(job.shard)];
                 EnsureMarked(worker, job.shard, shard, rows, &marked, sc);
                 return shard.DeleteFromTree(job.tree, rows, sc);
               });
  // A lazy shard whose deferred rows now exceed its staleness budget
  // flushes inside the same op, as DareForest::DeleteRows does.
  std::vector<int> over_budget;
  for (const int s : touched) {
    if (shards_[static_cast<size_t>(s)].LazyBudgetExceeded()) {
      over_budget.push_back(s);
    }
  }
  if (!over_budget.empty()) FlushShards(over_budget, pool, scratch);
  return Status::OK();
}

Result<std::vector<RowId>> ShardedForest::AddData(
    const Dataset& rows, util::ThreadPool* pool,
    std::vector<DeletionScratch>* scratch) {
  if (shard_config_.slice_attr >= rows.num_attributes() &&
      shard_config_.placement == ShardConfig::Placement::kSlice) {
    return Status::Invalid("slice_attr out of range for inserted rows");
  }
  obs::TraceSpan span("shard.add", {{"rows", rows.num_rows()}});
  static obs::Counter* batches = obs::GetCounter("shard.add.batches");
  static obs::Counter* routed = obs::GetCounter("shard.add.rows_routed");
  batches->Inc();
  routed->Inc(rows.num_rows());
  const int n = num_shards();
  const int64_t count = rows.num_rows();
  const RowId next = static_cast<RowId>(num_global_ids());
  std::vector<RowId> global_ids(static_cast<size_t>(count));
  std::vector<int> placed(static_cast<size_t>(count));
  std::vector<std::vector<int64_t>> sub(static_cast<size_t>(n));
  for (int64_t i = 0; i < count; ++i) {
    const RowId g = next + static_cast<RowId>(i);
    const int32_t code = shard_config_.slice_attr >= 0
                             ? rows.Code(i, shard_config_.slice_attr)
                             : 0;
    const int s = PlaceRowImpl(shard_config_, g, code);
    global_ids[static_cast<size_t>(i)] = g;
    placed[static_cast<size_t>(i)] = s;
    sub[static_cast<size_t>(s)].push_back(i);
  }
  // Each shard receiving rows appends them to its store; then every tree
  // of those shards, and of shards still holding lazy tags (an insert is
  // an ensemble-wide flush boundary, so no tag survives the op), takes its
  // step as one fan-out.
  std::vector<std::vector<RowId>> new_local(static_cast<size_t>(n));
  std::vector<ShardTreeJob> jobs;
  for (int s = 0; s < n; ++s) {
    DareForest& shard = shards_[static_cast<size_t>(s)];
    if (!sub[static_cast<size_t>(s)].empty()) {
      FUME_ASSIGN_OR_RETURN(
          new_local[static_cast<size_t>(s)],
          shard.AppendRows(rows.Select(sub[static_cast<size_t>(s)])));
    } else if (!shard.HasLazyTags()) {
      continue;
    }
    AppendTreeJobs(s, shard.num_trees(), &jobs);
  }
  std::vector<DeletionScratch> own_scratch;
  RunTreeSteps(jobs, pool, WorkerScratch(pool, scratch, &own_scratch),
               [&](int, const ShardTreeJob& job, DeletionScratch* sc) {
                 return shards_[static_cast<size_t>(job.shard)].AddToTree(
                     job.tree, new_local[static_cast<size_t>(job.shard)], sc);
               });
  // All shards accepted their slice: extend the placement maps (private
  // copies first if a clone/snapshot still shares them). One shard has
  // none: shard 0's store already numbered the rows `next` onwards.
  if (shard_of_ == nullptr) return global_ids;
  if (shard_of_.use_count() > 1) {
    shard_of_ = std::make_shared<std::vector<uint8_t>>(*shard_of_);
  }
  if (local_of_.use_count() > 1) {
    local_of_ = std::make_shared<std::vector<RowId>>(*local_of_);
  }
  std::vector<size_t> consumed(static_cast<size_t>(n), 0);
  for (int64_t i = 0; i < count; ++i) {
    const int s = placed[static_cast<size_t>(i)];
    shard_of_->push_back(static_cast<uint8_t>(s));
    local_of_->push_back(
        new_local[static_cast<size_t>(s)][consumed[static_cast<size_t>(s)]++]);
  }
  return global_ids;
}

void ShardedForest::FlushAll(util::ThreadPool* pool,
                             std::vector<DeletionScratch>* scratch) {
  std::vector<int> tagged;
  for (int s = 0; s < num_shards(); ++s) {
    if (shards_[static_cast<size_t>(s)].HasLazyTags()) tagged.push_back(s);
  }
  if (tagged.empty()) return;
  std::vector<DeletionScratch> own_scratch;
  FlushShards(tagged, pool, WorkerScratch(pool, scratch, &own_scratch));
}

void ShardedForest::FlushShards(const std::vector<int>& shards,
                                util::ThreadPool* pool,
                                std::vector<DeletionScratch>* scratch) {
  static obs::Counter* flushed =
      obs::GetCounter("shard.flush.shards_flushed");
  flushed->Inc(static_cast<int64_t>(shards.size()));
  std::vector<ShardTreeJob> jobs;
  for (const int s : shards) {
    const DareForest& shard = shards_[static_cast<size_t>(s)];
    for (int t = 0; t < shard.num_trees(); ++t) {
      if (shard.tree(t).has_lazy_tags()) jobs.push_back({s, t});
    }
  }
  RunTreeSteps(jobs, pool, scratch,
               [&](int, const ShardTreeJob& job, DeletionScratch* sc) {
                 return shards_[static_cast<size_t>(job.shard)].FlushTree(
                     job.tree, sc);
               });
}

bool ShardedForest::HasLazyTags() const {
  for (const auto& s : shards_) {
    if (s.HasLazyTags()) return true;
  }
  return false;
}

int64_t ShardedForest::lazy_rows() const {
  int64_t total = 0;
  for (const auto& s : shards_) total += s.lazy_rows();
  return total;
}

int64_t ShardedForest::lazy_nodes() const {
  int64_t total = 0;
  for (const auto& s : shards_) total += s.lazy_nodes();
  return total;
}

void ShardedForest::EnsureFlushed() const {
  for (const auto& s : shards_) s.EnsureFlushed();
}

void ShardedForest::ResetDeletionStats() {
  for (auto& s : shards_) s.ResetDeletionStats();
}

void ShardedForest::Predict(const Dataset& data, std::vector<double>* probs,
                            std::vector<int>* preds) const {
  std::vector<std::vector<double>> shard_probs(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    shard_probs[s] = shards_[s].PredictProbAll(data);
  }
  std::vector<const std::vector<double>*> ptrs(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) ptrs[s] = &shard_probs[s];
  VoteFromShardProbs(ptrs, probs, preds);
}

std::vector<double> ShardedForest::PredictProbAll(const Dataset& data) const {
  std::vector<double> probs;
  Predict(data, &probs, nullptr);
  return probs;
}

std::vector<int> ShardedForest::PredictAll(const Dataset& data) const {
  std::vector<double> probs;
  std::vector<int> preds;
  Predict(data, &probs, &preds);
  return preds;
}

double ShardedForest::Accuracy(const Dataset& data) const {
  if (data.num_rows() == 0) return 0.0;
  const std::vector<int> preds = PredictAll(data);
  int64_t correct = 0;
  for (int64_t r = 0; r < data.num_rows(); ++r) {
    if (preds[static_cast<size_t>(r)] == data.Label(r)) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(data.num_rows());
}

ShardedForest ShardedForest::Clone() const {
  ShardedForest out;
  out.shard_config_ = shard_config_;
  out.shards_.reserve(shards_.size());
  for (const auto& s : shards_) out.shards_.push_back(s.Clone());
  out.shard_of_ = shard_of_;  // shared: placement never mutates in a clone
  out.local_of_ = local_of_;
  return out;
}

bool ShardedForest::StructurallyEquals(const ShardedForest& other) const {
  if (num_shards() != other.num_shards() ||
      shard_config_ != other.shard_config_) {
    return false;
  }
  // Equal shard counts: both or neither hold maps (one shard has none).
  if (shard_of_ != nullptr && (*shard_of_ != *other.shard_of_ ||
                               *local_of_ != *other.local_of_)) {
    return false;
  }
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (!shards_[s].StructurallyEquals(other.shards_[s])) return false;
  }
  return true;
}

bool ShardedForest::ValidateStats() const {
  for (const auto& s : shards_) {
    if (!s.ValidateStats()) return false;
  }
  return true;
}

int64_t ShardedForest::num_global_ids() const {
  if (shard_of_ != nullptr) return static_cast<int64_t>(shard_of_->size());
  return shards_.empty() ? 0 : shards_[0].store().num_rows();
}

int32_t ShardedForest::Code(RowId global, int attr) const {
  return shards_[static_cast<size_t>(shard_of(global))].store().code(
      local_of(global), attr);
}

int ShardedForest::Label(RowId global) const {
  return shards_[static_cast<size_t>(shard_of(global))].store().label(
      local_of(global));
}

int64_t ShardedForest::num_training_rows() const {
  int64_t total = 0;
  for (const auto& s : shards_) total += s.num_training_rows();
  return total;
}

int64_t ShardedForest::num_nodes() const {
  int64_t total = 0;
  for (const auto& s : shards_) total += s.num_nodes();
  return total;
}

DeletionStats ShardedForest::deletion_stats() const {
  DeletionStats total;
  for (const auto& s : shards_) total.Add(s.deletion_stats());
  return total;
}

Status ShardedForest::Save(std::ostream& out) const {
  const int n = num_shards();
  out.write(kShardMagic, sizeof(kShardMagic));
  WritePod(out, kShardVersion);
  WritePod(out, static_cast<uint32_t>(n));
  WritePod(out, static_cast<uint8_t>(shard_config_.placement));
  WritePod(out, kSoftVoteByte);
  WritePod(out, static_cast<int32_t>(shard_config_.slice_attr));
  WritePod(out, shard_config_.slice_value);
  WritePod(out, kHotShardCount);
  if (shard_of_ != nullptr) {
    WriteVec(out, *shard_of_);
    WriteVec(out, *local_of_);
  } else {
    // One shard: the identity maps the format carries, written without
    // materializing them.
    const uint64_t ids = static_cast<uint64_t>(num_global_ids());
    WritePod(out, ids);
    for (uint64_t g = 0; g < ids; ++g) WritePod(out, uint8_t{0});
    WritePod(out, ids);
    for (uint64_t g = 0; g < ids; ++g) WritePod(out, static_cast<RowId>(g));
  }
  for (int s = 0; s < n; ++s) {
    // Reserve the length prefix, stream the blob, then patch the prefix.
    const std::streampos prefix = out.tellp();
    if (prefix == std::streampos(-1)) {
      return Status::IOError(
          "sharded forest save needs a stream that reports its position");
    }
    WritePod(out, uint64_t{0});
    FUME_RETURN_NOT_OK(SaveForest(shards_[static_cast<size_t>(s)], out));
    const std::streampos end = out.tellp();
    if (end == std::streampos(-1)) {
      return Status::IOError("sharded forest write failed");
    }
    out.seekp(prefix);
    WritePod(out, static_cast<uint64_t>(end - prefix) - sizeof(uint64_t));
    out.seekp(end);
  }
  if (!out.good()) return Status::IOError("sharded forest write failed");
  return Status::OK();
}

Result<ShardedForest> ShardedForest::Load(std::istream& in) {
  char magic[8];
  in.read(magic, sizeof(magic));
  if (!in.good() || std::memcmp(magic, kShardMagic, sizeof(magic)) != 0) {
    return Status::IOError("not a FUME sharded forest (bad magic)");
  }
  uint32_t version = 0;
  FUME_RETURN_NOT_OK(ReadPod(in, &version));
  if (version != kShardVersion) {
    return Status::IOError("unsupported sharded forest version " +
                           std::to_string(version));
  }
  uint32_t num_shards = 0;
  uint8_t placement = 0;
  uint8_t vote = 0;
  int32_t slice_attr = 0;
  int32_t slice_value = 0;
  int32_t hot_shards = 0;
  FUME_RETURN_NOT_OK(ReadPod(in, &num_shards));
  FUME_RETURN_NOT_OK(ReadPod(in, &placement));
  FUME_RETURN_NOT_OK(ReadPod(in, &vote));
  FUME_RETURN_NOT_OK(ReadPod(in, &slice_attr));
  FUME_RETURN_NOT_OK(ReadPod(in, &slice_value));
  FUME_RETURN_NOT_OK(ReadPod(in, &hot_shards));
  if (placement > 1 || vote != kSoftVoteByte ||
      hot_shards != kHotShardCount) {
    return Status::IOError("corrupt sharded forest header");
  }
  ShardedForest out;
  out.shard_config_.num_shards = static_cast<int>(num_shards);
  out.shard_config_.placement = static_cast<ShardConfig::Placement>(placement);
  out.shard_config_.slice_attr = slice_attr;
  out.shard_config_.slice_value = slice_value;
  FUME_RETURN_NOT_OK(ValidateShardConfig(out.shard_config_));
  auto shard_of = std::make_shared<std::vector<uint8_t>>();
  auto local_of = std::make_shared<std::vector<RowId>>();
  FUME_RETURN_NOT_OK(ReadVec(in, shard_of.get()));
  FUME_RETURN_NOT_OK(ReadVec(in, local_of.get()));
  if (shard_of->size() != local_of->size()) {
    return Status::IOError("sharded forest placement maps disagree");
  }
  if (num_shards == 1) {
    for (size_t g = 0; g < local_of->size(); ++g) {
      if ((*shard_of)[g] != 0 || (*local_of)[g] != static_cast<RowId>(g)) {
        return Status::IOError(
            "one-shard placement maps are not the identity");
      }
    }
  }
  out.shards_.reserve(num_shards);
  for (uint32_t s = 0; s < num_shards; ++s) {
    uint64_t len = 0;
    FUME_RETURN_NOT_OK(ReadPod(in, &len));
    if (len > kMaxVec) return Status::IOError("implausible shard blob size");
    const std::streampos start = in.tellg();
    if (start == std::streampos(-1)) {
      return Status::IOError(
          "sharded forest load needs a stream that reports its position");
    }
    FUME_ASSIGN_OR_RETURN(DareForest shard, LoadForest(in));
    const std::streampos end = in.tellg();
    if (end == std::streampos(-1) ||
        static_cast<uint64_t>(end - start) != len) {
      return Status::IOError("shard " + std::to_string(s) +
                             " blob length disagrees with its prefix");
    }
    out.shards_.push_back(std::move(shard));
  }
  // Cross-validate the maps against the shard stores: every global id must
  // point at an existing store row, and each store must be exactly covered.
  std::vector<int64_t> counted(num_shards, 0);
  for (size_t g = 0; g < shard_of->size(); ++g) {
    const uint8_t s = (*shard_of)[g];
    if (s >= num_shards) {
      return Status::IOError("global id routed to nonexistent shard");
    }
    const RowId local = (*local_of)[g];
    if (local < 0 ||
        local >= out.shards_[s].store().num_rows()) {
      return Status::IOError("local row id out of range for its shard");
    }
    ++counted[s];
  }
  for (uint32_t s = 0; s < num_shards; ++s) {
    if (counted[s] != out.shards_[s].store().num_rows()) {
      return Status::IOError("placement map does not cover shard store");
    }
  }
  if (num_shards > 1) {
    out.shard_of_ = std::move(shard_of);
    out.local_of_ = std::move(local_of);
  }
  return out;
}

void VoteFromShardProbs(
    const std::vector<const std::vector<double>*>& shard_probs,
    std::vector<double>* mean, std::vector<int>* preds) {
  const size_t num_shards = shard_probs.size();
  FUME_CHECK(num_shards > 0);
  const size_t n = shard_probs[0]->size();
  mean->assign(n, 0.0);
  // Shard order, sum-then-divide: the exact arithmetic shape of
  // DareForest::PredictProb over trees, so one shard is bit-identical to
  // the monolithic forest and results never depend on scheduling.
  for (size_t s = 0; s < num_shards; ++s) {
    const std::vector<double>& p = *shard_probs[s];
    for (size_t r = 0; r < n; ++r) (*mean)[r] += p[r];
  }
  const double count = static_cast<double>(num_shards);
  for (size_t r = 0; r < n; ++r) (*mean)[r] /= count;
  if (preds == nullptr) return;
  preds->resize(n);
  for (size_t r = 0; r < n; ++r) (*preds)[r] = (*mean)[r] >= 0.5 ? 1 : 0;
}

void ShardedPredictionCache::Rebuild(const ShardedForest& forest,
                                     const Dataset& test,
                                     util::ThreadPool* pool) {
  obs::TraceSpan span("stream.predcache.rebuild",
                      {{"shards", forest.num_shards()},
                       {"rows", test.num_rows()}});
  forest.EnsureFlushed();
  const std::shared_ptr<const PackedCodes> packed = test.packed_codes();
  caches_.assign(static_cast<size_t>(forest.num_shards()),
                 TestPredictionCache{});
  std::vector<ShardTreeJob> jobs;
  for (int s = 0; s < forest.num_shards(); ++s) {
    caches_[static_cast<size_t>(s)].Reset(forest.shard(s), test.num_rows());
    AppendTreeJobs(s, forest.shard(s).num_trees(), &jobs);
  }
  ForTrees(jobs, pool, [&](int /*worker*/, size_t i) {
    caches_[static_cast<size_t>(jobs[i].shard)].RebuildTree(
        forest.shard(jobs[i].shard), jobs[i].tree, *packed);
  });
  for (int s = 0; s < forest.num_shards(); ++s) {
    caches_[static_cast<size_t>(s)].Finalize(forest.shard(s));
  }
  FinalizeVote();
}

void ShardedPredictionCache::Update(const ShardedForest& forest,
                                    const Dataset& test,
                                    util::ThreadPool* pool) {
  FUME_CHECK_EQ(caches_.size(), static_cast<size_t>(forest.num_shards()));
  // A tag leaves stale decisions below it; callers flush first.
  FUME_CHECK(!forest.HasLazyTags());
  static obs::Counter* trees_rewalked =
      obs::GetCounter("stream.predcache.trees_rewalked");
  static obs::Counter* rows_rewalked =
      obs::GetCounter("stream.predcache.rows_rewalked");
  obs::TraceSpan span("stream.predcache.update");
  const std::shared_ptr<const PackedCodes> packed = test.packed_codes();
  std::vector<ShardTreeJob> jobs;
  for (int s = 0; s < forest.num_shards(); ++s) {
    AppendTreeJobs(s, forest.shard(s).num_trees(), &jobs);
  }
  std::vector<int64_t> rewritten(jobs.size());
  std::vector<std::vector<int64_t>> order(NumWorkers(pool));
  ForTrees(jobs, pool, [&](int worker, size_t i) {
    rewritten[i] = caches_[static_cast<size_t>(jobs[i].shard)].UpdateTree(
        forest.shard(jobs[i].shard), jobs[i].tree, *packed,
        &order[static_cast<size_t>(worker)]);
  });
  // A shard is re-finalized only when an op since the last sync changed
  // one of its trees; untouched shards keep their cached vote inputs.
  std::vector<bool> changed(caches_.size(), false);
  int64_t trees = 0;
  int64_t rows = 0;
  for (size_t i = 0; i < jobs.size(); ++i) {
    if (rewritten[i] < 0) continue;
    changed[static_cast<size_t>(jobs[i].shard)] = true;
    ++trees;
    rows += rewritten[i];
  }
  trees_rewalked->Inc(trees);
  rows_rewalked->Inc(rows);
  span.AddArg("trees", trees);
  span.AddArg("rows", rows);
  for (size_t s = 0; s < caches_.size(); ++s) {
    if (changed[s]) caches_[s].Finalize(forest.shard(static_cast<int>(s)));
  }
  FinalizeVote();
}

void ShardedPredictionCache::FinalizeVote() {
  std::vector<const std::vector<double>*> ptrs(caches_.size());
  for (size_t s = 0; s < caches_.size(); ++s) ptrs[s] = &caches_[s].probs();
  VoteFromShardProbs(ptrs, &mean_prob_, &pred_);
}

Status ShardedPredictionCache::ScoreWithout(
    const ShardedForest& base, const std::vector<RowId>& global_rows,
    const Dataset& test, WhatIfScratch* scratch,
    std::vector<DeletionScratch>* deletion, util::ThreadPool* pool) const {
  const size_t n = caches_.size();
  FUME_CHECK_EQ(n, static_cast<size_t>(base.num_shards()));
  FUME_RETURN_NOT_OK(base.ValidateGlobalRows(global_rows));
  const size_t workers = NumWorkers(pool);
  WorkerScratch(pool, deletion, nullptr);
  scratch->shard_scratch.resize(n);
  scratch->local.resize(n);
  scratch->votes.resize(n);
  for (auto& rows : scratch->local) rows.clear();
  // Bucket per owning shard, batch order kept within a shard — the same
  // routing as ShardedForest::DeleteRows.
  for (const RowId g : global_rows) {
    scratch->local[static_cast<size_t>(base.shard_of(g))].push_back(
        base.local_of(g));
  }
  scratch->rows_rescored = 0;
  scratch->shards_changed = 0;
  scratch->deletion_stats = DeletionStats{};
  // Each owning shard's slice is validated and counted once, on worker 0's
  // scratch, before any tree is walked.
  scratch->jobs.clear();
  int validated = -1;
  for (size_t s = 0; s < n; ++s) {
    if (scratch->local[s].empty()) continue;
    TestPredictionCache::WhatIfScratch& ss = scratch->shard_scratch[s];
    ss.want_probs = true;
    const DareForest& shard = base.shard(static_cast<int>(s));
    FUME_RETURN_NOT_OK(caches_[s].BeginScoreWithout(
        shard, scratch->local[s], test, &ss, &(*deletion)[0]));
    validated = static_cast<int>(s);
    AppendTreeJobs(validated, shard.num_trees(), &scratch->jobs);
  }
  if (!scratch->jobs.empty()) {
    obs::TraceSpan span("forest.score_without",
                        {{"rows", static_cast<int64_t>(global_rows.size())},
                         {"trees",
                          static_cast<int64_t>(scratch->jobs.size())}});
    if (scratch->order.size() < workers) scratch->order.resize(workers);
    scratch->marked.assign(workers, -1);
    scratch->marked[0] = validated;
    const std::vector<ShardTreeJob>& jobs = scratch->jobs;
    ForTrees(jobs, pool, [&](int worker, size_t i) {
      const size_t s = static_cast<size_t>(jobs[i].shard);
      const DareForest& shard = base.shard(jobs[i].shard);
      DeletionScratch* sc = &(*deletion)[static_cast<size_t>(worker)];
      EnsureMarked(worker, jobs[i].shard, shard, scratch->local[s],
                   &scratch->marked, sc);
      caches_[s].ScoreTreeWithout(shard, jobs[i].tree, scratch->local[s], test,
                                  &scratch->shard_scratch[s],
                                  &scratch->order[static_cast<size_t>(worker)],
                                  sc);
    });
  }
  for (size_t s = 0; s < n; ++s) {
    if (scratch->local[s].empty()) {
      // No deleted row lives here: the shard predicts exactly like the
      // base shard, whose probabilities we already hold.
      scratch->votes[s] = &caches_[s].probs();
      continue;
    }
    ++scratch->shards_changed;
    TestPredictionCache::WhatIfScratch& ss = scratch->shard_scratch[s];
    caches_[s].FinishScoreWithout(&ss);
    scratch->rows_rescored += ss.rows_rescored;
    scratch->deletion_stats.Add(ss.deletion_stats);
    scratch->votes[s] = &ss.probs;
  }
  VoteFromShardProbs(scratch->votes, &scratch->probs, &scratch->preds);
  return Status::OK();
}

}  // namespace fume
