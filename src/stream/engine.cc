#include "stream/engine.h"

#include <cmath>
#include <cstring>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>

#include "forest/serialize.h"

#include "core/removal_method.h"
#include "core/sharded_removal.h"
#include "fairness/metrics.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/stopwatch.h"

namespace fume {
namespace stream {

namespace {

// ---- obs shorthands (docs/observability.md naming scheme).
struct StreamMetrics {
  obs::Counter* ops = obs::GetCounter("stream.ops.applied");
  obs::Counter* inserts = obs::GetCounter("stream.ops.inserts");
  obs::Counter* deletes = obs::GetCounter("stream.ops.deletes");
  obs::Counter* checkpoints = obs::GetCounter("stream.ops.checkpoints");
  obs::Counter* rows_added = obs::GetCounter("stream.rows.inserted");
  obs::Counter* rows_deleted = obs::GetCounter("stream.rows.deleted");
  obs::Counter* searches = obs::GetCounter("stream.search.triggered");
  obs::Counter* drift_holds = obs::GetCounter("stream.search.drift_held");
  obs::Counter* saves = obs::GetCounter("stream.checkpoint.saved");
  obs::Counter* restores = obs::GetCounter("stream.checkpoint.restored");
  obs::Gauge* staleness = obs::GetGauge("stream.topk.staleness_ops");
  obs::Gauge* live = obs::GetGauge("stream.rows.live");
  obs::Histogram* apply_us = obs::GetHistogram("stream.op.apply_us");

  static StreamMetrics& Get() {
    static StreamMetrics metrics;
    return metrics;
  }
};

/// The engine's removal method: FUME hands it dense indices into
/// train_data(); it forwards the corresponding engine ids (training-store
/// ids, or global ids on the sharded path) to the wrapped unlearning
/// method over the streaming model. Thread-safe like the inner method
/// (the map is read-only during a search).
class MappedRemoval : public RemovalMethod {
 public:
  MappedRemoval(RemovalMethod* inner, const char* name,
                const std::vector<RowId>* dense_to_id)
      : inner_(inner), name_(name), dense_to_id_(dense_to_id) {}

  Result<ModelEval> EvaluateWithout(const std::vector<RowId>& rows) override {
    return EvaluateWithoutOn(0, rows);
  }
  Result<ModelEval> EvaluateWithoutOn(
      int worker, const std::vector<RowId>& rows) override {
    std::vector<RowId> mapped(rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
      const size_t dense = static_cast<size_t>(rows[i]);
      if (dense >= dense_to_id_->size()) {
        return Status::IndexError("dense row " + std::to_string(rows[i]) +
                                  " out of live range");
      }
      mapped[i] = (*dense_to_id_)[dense];
    }
    return inner_->EvaluateWithoutOn(worker, mapped);
  }
  void BeginParallel(int num_workers) override {
    inner_->BeginParallel(num_workers);
  }
  void EndParallel() override { inner_->EndParallel(); }
  const char* name() const override { return name_; }

 private:
  RemovalMethod* inner_;
  const char* name_;
  const std::vector<RowId>* dense_to_id_;
};

// ---- checkpoint primitives (little-endian native, like forest/serialize).

constexpr char kCkptMagic[8] = {'F', 'U', 'M', 'E', 'S', 'T', 'R', 'M'};
/// v1: engine state + one monolithic SaveForest blob. v2: identical engine
/// state block, then a ShardedForest container (shard config + placement
/// maps + one independent forest blob per shard) instead of the single
/// forest — written incrementally, re-serializing only dirty shards.
constexpr uint32_t kCkptVersion = 1;
constexpr uint32_t kCkptVersionSharded = 2;

template <typename T>
void WritePod(std::ostream& out, T value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
bool ReadPod(std::istream& in, T* value) {
  in.read(reinterpret_cast<char*>(value), sizeof(T));
  return static_cast<bool>(in);
}

void WriteSubset(std::ostream& out, const AttributableSubset& s) {
  WritePod<uint32_t>(out, static_cast<uint32_t>(s.predicate.num_literals()));
  for (const Literal& lit : s.predicate.literals()) {
    WritePod<int32_t>(out, lit.attr);
    WritePod<uint8_t>(out, static_cast<uint8_t>(lit.op));
    WritePod<int32_t>(out, lit.value);
  }
  WritePod<double>(out, s.support);
  WritePod<int64_t>(out, s.num_rows);
  WritePod<double>(out, s.phi);
  WritePod<double>(out, s.attribution);
  WritePod<double>(out, s.new_fairness);
  WritePod<double>(out, s.new_accuracy);
}

Result<AttributableSubset> ReadSubset(std::istream& in) {
  uint32_t num_literals = 0;
  if (!ReadPod(in, &num_literals) || num_literals > 64) {
    return Status::IOError("checkpoint: bad literal count");
  }
  std::vector<Literal> literals;
  literals.reserve(num_literals);
  for (uint32_t i = 0; i < num_literals; ++i) {
    Literal lit;
    uint8_t op = 0;
    if (!ReadPod(in, &lit.attr) || !ReadPod(in, &op) ||
        !ReadPod(in, &lit.value)) {
      return Status::IOError("checkpoint: truncated literal");
    }
    lit.op = static_cast<LiteralOp>(op);
    literals.push_back(lit);
  }
  AttributableSubset s;
  s.predicate = Predicate(std::move(literals));
  if (!ReadPod(in, &s.support) || !ReadPod(in, &s.num_rows) ||
      !ReadPod(in, &s.phi) || !ReadPod(in, &s.attribution) ||
      !ReadPod(in, &s.new_fairness) || !ReadPod(in, &s.new_accuracy)) {
    return Status::IOError("checkpoint: truncated subset record");
  }
  return s;
}

}  // namespace

bool DriftPolicy::ShouldSearch(double last, double now) const {
  const double drift = std::fabs(now - last);
  if (drift >= abs_threshold) return true;
  const double base = std::fabs(last);
  return base > 0.0 && drift >= rel_threshold * base;
}

StreamEngine::StreamEngine(Dataset test, StreamEngineConfig config)
    : test_(std::move(test)), config_(std::move(config)) {}

Result<StreamEngine> StreamEngine::Create(const Dataset& initial_train,
                                          Dataset test,
                                          StreamEngineConfig config) {
  if (initial_train.num_rows() >
      static_cast<int64_t>(std::numeric_limits<RowId>::max())) {
    return Status::Invalid("initial training set too large for RowId");
  }
  obs::TraceSpan span("stream.engine.create",
                      {{"rows", initial_train.num_rows()}});
  StreamEngine engine(std::move(test), std::move(config));
  if (engine.config_.shard.num_shards > 1) {
    FUME_ASSIGN_OR_RETURN(
        ShardedForest sharded,
        ShardedForest::Train(initial_train, engine.config_.forest,
                             engine.config_.shard, engine.MaybePool()));
    engine.sharded_.emplace(std::move(sharded));
    engine.ckpt_dirty_.assign(
        static_cast<size_t>(engine.sharded_->num_shards()), true);
  } else {
    FUME_ASSIGN_OR_RETURN(engine.forest_, DareForest::Train(
                                              initial_train,
                                              engine.config_.forest));
  }
  engine.train_data_ = initial_train;
  engine.store_ids_.resize(static_cast<size_t>(initial_train.num_rows()));
  for (int64_t r = 0; r < initial_train.num_rows(); ++r) {
    engine.store_ids_[static_cast<size_t>(r)] = static_cast<RowId>(r);
  }
  engine.RebuildLiveIndex();
  if (engine.sharded_.has_value()) {
    engine.shard_cache_.Rebuild(*engine.sharded_, engine.test_);
  } else {
    engine.cache_.Rebuild(engine.forest_, engine.test_);
  }
  engine.RefreshMetric();
  FUME_RETURN_NOT_OK(engine.RunSearch());
  return engine;
}

util::ThreadPool* StreamEngine::MaybePool() {
  if (config_.fume.num_threads > 1 && pool_ == nullptr) {
    pool_ = std::make_unique<util::ThreadPool>(config_.fume.num_threads);
  }
  return pool_.get();
}

std::vector<std::vector<bool>> StreamEngine::FoldShardDirty(
    const std::vector<std::vector<DeletionStats>>& per_shard) {
  const size_t n = per_shard.size();
  std::vector<std::vector<bool>> dirty(n);
  shard_lazy_dirty_.resize(n);
  if (ckpt_dirty_.size() < n) ckpt_dirty_.resize(n, true);
  for (size_t s = 0; s < n; ++s) {
    const auto& per_tree = per_shard[s];
    if (!per_tree.empty()) {
      // The op touched this shard: its serialized bytes changed (store
      // rows and/or node stats), so the next incremental checkpoint must
      // re-serialize it even if no tree needs a cache re-walk.
      ckpt_dirty_[s] = true;
      dirty[s].assign(per_tree.size(), false);
      for (size_t t = 0; t < per_tree.size(); ++t) {
        dirty[s][t] = per_tree[t].subtrees_retrained > 0 ||
                      per_tree[t].nodes_copied > 0;
      }
    }
    auto& lazy = shard_lazy_dirty_[s];
    if (!lazy.empty()) {
      if (dirty[s].empty()) dirty[s].assign(lazy.size(), false);
      FUME_CHECK_EQ(lazy.size(), dirty[s].size());
      for (size_t t = 0; t < lazy.size(); ++t) {
        if (lazy[t]) dirty[s][t] = true;
      }
      lazy.clear();
    }
  }
  return dirty;
}

void StreamEngine::RebuildLiveIndex() {
  dense_of_id_.clear();
  dense_of_id_.reserve(store_ids_.size());
  for (size_t dense = 0; dense < store_ids_.size(); ++dense) {
    dense_of_id_[store_ids_[dense]] = static_cast<int64_t>(dense);
  }
}

void StreamEngine::RefreshMetric() {
  const std::vector<int>& preds = sharded_.has_value()
                                      ? shard_cache_.predictions()
                                      : cache_.predictions();
  metric_ = ComputeFairness(test_, preds, config_.fume.group,
                            config_.fume.metric);
  int64_t correct = 0;
  for (int64_t r = 0; r < test_.num_rows(); ++r) {
    if (preds[static_cast<size_t>(r)] == test_.Label(r)) ++correct;
  }
  accuracy_ = test_.num_rows() == 0
                  ? 0.0
                  : static_cast<double>(correct) /
                        static_cast<double>(test_.num_rows());
}

Status StreamEngine::RunSearch() {
  obs::TraceSpan span("stream.search",
                      {{"staleness", staleness_ops_},
                       {"rows", train_data_.num_rows()}});
  StreamMetrics::Get().searches->Inc();
  metric_at_last_search_ = metric_;
  staleness_ops_ = 0;
  StreamMetrics::Get().staleness->Set(0);
  if (std::fabs(metric_) < config_.fume.min_original_bias) {
    // No violation to explain right now; serve "model is fair".
    explanation_.reset();
    return Status::OK();
  }
  ModelEval original;
  original.fairness = metric_;
  original.accuracy = accuracy_;
  // Sharded engines evaluate leave-outs shard-locally through the warm
  // per-shard cache; monolithic engines keep the original method.
  std::optional<UnlearnRemovalMethod> mono;
  std::optional<ShardedRemovalMethod> shard;
  RemovalMethod* inner = nullptr;
  const char* name = "dare-unlearn-stream";
  if (sharded_.has_value()) {
    shard.emplace(&*sharded_, &test_, config_.fume.group, config_.fume.metric,
                  &shard_cache_);
    inner = &*shard;
    name = "dare-unlearn-sharded-stream";
  } else {
    mono.emplace(&forest_, &test_, config_.fume.group, config_.fume.metric);
    inner = &*mono;
  }
  MappedRemoval removal(inner, name, &store_ids_);
  // Every search of this engine's lifetime shares one worker pool, created
  // at the first parallel search.
  FumeConfig fume_config = config_.fume;
  if (fume_config.pool == nullptr && fume_config.num_threads > 1) {
    fume_config.pool = MaybePool();
  }
  FUME_ASSIGN_OR_RETURN(
      FumeResult result,
      ExplainWithRemoval(original, train_data_, fume_config, &removal));
  explanation_ = std::move(result);
  return Status::OK();
}

Status StreamEngine::ApplyInsert(const StreamOp& op) {
  if (op.rows.empty()) return Status::Invalid("insert op carries no rows");
  Dataset batch(train_data_.schema());
  for (const StreamRow& row : op.rows) {
    FUME_RETURN_NOT_OK(batch.AppendRow(row.codes, row.label));
  }
  std::vector<DeletionStats> per_tree;
  std::vector<std::vector<DeletionStats>> per_shard;
  std::vector<RowId> new_ids;
  if (sharded_.has_value()) {
    FUME_ASSIGN_OR_RETURN(new_ids, sharded_->AddData(batch, &per_shard,
                                                     MaybePool(),
                                                     &shard_scratch_));
  } else {
    FUME_ASSIGN_OR_RETURN(
        new_ids, forest_.AddData(batch, &per_tree, &unlearn_scratch_));
  }
  for (size_t i = 0; i < op.rows.size(); ++i) {
    // Validated above; appending to the mirror cannot fail now.
    FUME_CHECK(train_data_.AppendRow(op.rows[i].codes, op.rows[i].label).ok());
    dense_of_id_[new_ids[i]] =
        static_cast<int64_t>(store_ids_.size());
    store_ids_.push_back(new_ids[i]);
  }
  if (sharded_.has_value()) {
    // Same flush-boundary contract as the monolithic branch below: AddData
    // flushed every pending tag (per-shard reports carry those retrains),
    // so fold the deferred-burst dirtiness and resume exact metrics.
    const std::vector<std::vector<bool>> shard_dirty =
        FoldShardDirty(per_shard);
    metric_stale_ = false;
    shard_cache_.Update(*sharded_, test_, shard_dirty);
    StreamMetrics::Get().inserts->Inc();
    StreamMetrics::Get().rows_added->Inc(
        static_cast<int64_t>(op.rows.size()));
    return Status::OK();
  }
  // Addition rebuilds absorbed leaves *in place* (same node address, fresh
  // children), so cached pointers stay valid and the cache resumes each
  // row's descent from them. A re-walk from the root is forced when a
  // subtree retrain freed nodes, or when CoW unsharing (a live snapshot
  // clone held the nodes) rerouted the mutation into fresh copies while
  // the cached pointers still reference the untouched originals.
  std::vector<bool> dirty(per_tree.size());
  for (size_t t = 0; t < per_tree.size(); ++t) {
    dirty[t] =
        per_tree[t].subtrees_retrained > 0 || per_tree[t].nodes_copied > 0;
  }
  // An insert is a flush boundary: AddData flushed any pending tags first
  // (its per_tree report already carries those retrains), so fold in the
  // dirtiness accumulated by the deferred deletes themselves and resume
  // exact per-op metrics.
  if (!lazy_dirty_.empty()) {
    FUME_CHECK_EQ(lazy_dirty_.size(), dirty.size());
    for (size_t t = 0; t < dirty.size(); ++t) {
      if (lazy_dirty_[t]) dirty[t] = true;
    }
    lazy_dirty_.assign(lazy_dirty_.size(), false);
  }
  metric_stale_ = false;
  cache_.Update(forest_, test_, dirty);
  StreamMetrics::Get().inserts->Inc();
  StreamMetrics::Get().rows_added->Inc(static_cast<int64_t>(op.rows.size()));
  return Status::OK();
}

Status StreamEngine::ApplyDelete(const StreamOp& op) {
  if (op.row_ids.empty()) return Status::Invalid("delete op carries no ids");
  std::vector<int64_t> dense_rows;
  dense_rows.reserve(op.row_ids.size());
  for (RowId id : op.row_ids) {
    auto it = dense_of_id_.find(id);
    if (it == dense_of_id_.end()) {
      return Status::KeyError("row id " + std::to_string(id) +
                              " is not live (never inserted, or already "
                              "deleted)");
    }
    dense_rows.push_back(it->second);
  }
  std::vector<DeletionStats> per_tree;
  std::vector<std::vector<DeletionStats>> per_shard;
  if (sharded_.has_value()) {
    FUME_RETURN_NOT_OK(sharded_->DeleteRows(op.row_ids, &per_shard,
                                            MaybePool(), &shard_scratch_));
  } else {
    FUME_RETURN_NOT_OK(
        forest_.DeleteRows(op.row_ids, &per_tree, &unlearn_scratch_));
  }
  train_data_ = train_data_.DropRows(dense_rows);
  // Drop the same dense positions from the id map, preserving order.
  std::vector<bool> doomed(store_ids_.size(), false);
  for (int64_t dense : dense_rows) doomed[static_cast<size_t>(dense)] = true;
  size_t kept = 0;
  for (size_t dense = 0; dense < store_ids_.size(); ++dense) {
    if (!doomed[dense]) store_ids_[kept++] = store_ids_[dense];
  }
  store_ids_.resize(kept);
  RebuildLiveIndex();
  if (sharded_.has_value()) {
    if (config_.forest.lazy_unlearn) {
      // Deferred burst (see the monolithic branch below): accumulate each
      // touched shard's per-tree dirtiness and mark it dirty for the next
      // incremental checkpoint; the cache and metric keep describing the
      // pre-burst model until the next flush boundary.
      shard_lazy_dirty_.resize(per_shard.size());
      if (ckpt_dirty_.size() < per_shard.size()) {
        ckpt_dirty_.resize(per_shard.size(), true);
      }
      for (size_t s = 0; s < per_shard.size(); ++s) {
        const auto& shard_trees = per_shard[s];
        if (shard_trees.empty()) continue;
        ckpt_dirty_[s] = true;
        auto& lazy = shard_lazy_dirty_[s];
        lazy.resize(shard_trees.size(), false);
        for (size_t t = 0; t < shard_trees.size(); ++t) {
          if (shard_trees[t].subtrees_retrained > 0 ||
              shard_trees[t].nodes_copied > 0) {
            lazy[t] = true;
          }
        }
      }
      metric_stale_ = true;
    } else {
      shard_cache_.Update(*sharded_, test_, FoldShardDirty(per_shard));
    }
    StreamMetrics::Get().deletes->Inc();
    StreamMetrics::Get().rows_deleted->Inc(
        static_cast<int64_t>(op.row_ids.size()));
    return Status::OK();
  }
  // Deletion mutates statistics strictly in place unless a subtree
  // retrained; leaves stay leaves, so cached pointers survive. As above,
  // CoW unsharing also invalidates cached pointers: the mutation lands in
  // fresh private copies while the cache still points at the shared
  // originals a snapshot clone keeps alive.
  std::vector<bool> dirty(per_tree.size());
  for (size_t t = 0; t < per_tree.size(); ++t) {
    dirty[t] =
        per_tree[t].subtrees_retrained > 0 || per_tree[t].nodes_copied > 0;
  }
  if (config_.forest.lazy_unlearn) {
    // Deferred burst: the forest parked retrain-triggering deletes under
    // lazy tags (a budget overflow may already have flushed them — its
    // retrains are in per_tree either way). Accumulate the dirtiness and
    // leave the cache and metric describing the pre-burst model until the
    // next flush boundary (insert, checkpoint, FlushLazy).
    lazy_dirty_.resize(dirty.size(), false);
    for (size_t t = 0; t < dirty.size(); ++t) {
      if (dirty[t]) lazy_dirty_[t] = true;
    }
    metric_stale_ = true;
    StreamMetrics::Get().deletes->Inc();
    StreamMetrics::Get().rows_deleted->Inc(
        static_cast<int64_t>(op.row_ids.size()));
    return Status::OK();
  }
  cache_.Update(forest_, test_, dirty);
  StreamMetrics::Get().deletes->Inc();
  StreamMetrics::Get().rows_deleted->Inc(
      static_cast<int64_t>(op.row_ids.size()));
  return Status::OK();
}

Result<OpOutcome> StreamEngine::Apply(const StreamOp& op) {
  if (op.seq <= last_seq_) {
    return Status::Invalid("op seq " + std::to_string(op.seq) +
                           " is not past the engine's last applied seq " +
                           std::to_string(last_seq_));
  }
  StreamMetrics& metrics = StreamMetrics::Get();
  obs::TraceSpan span("stream.apply",
                      {{"seq", op.seq},
                       {"kind", static_cast<int64_t>(op.kind)}});
  Stopwatch apply_watch;
  OpOutcome outcome;
  outcome.seq = op.seq;
  outcome.kind = op.kind;

  bool model_changed = false;
  switch (op.kind) {
    case OpKind::kInsert:
      FUME_RETURN_NOT_OK(ApplyInsert(op));
      model_changed = true;
      break;
    case OpKind::kDelete:
      FUME_RETURN_NOT_OK(ApplyDelete(op));
      model_changed = true;
      break;
    case OpKind::kCheckpoint:
      metrics.checkpoints->Inc();
      // A checkpoint op is a flush boundary: retire any deferred burst so
      // the searched/persisted state is exact.
      FlushLazy();
      break;
  }
  last_seq_ = op.seq;
  if (model_changed) {
    // While a deferred burst is pending the cache still describes the
    // pre-burst model; the metric refreshes at the next flush boundary.
    if (!metric_stale_) RefreshMetric();
    ++staleness_ops_;
  }
  outcome.apply_seconds = apply_watch.ElapsedSeconds();

  // Drift policy: checkpoints refresh whenever stale (so the persisted
  // explanation is current); data ops re-search only past the thresholds.
  // Deferred bursts suspend drift gating — the metric is stale, so drift
  // against it is meaningless; it is re-evaluated at flush points only.
  bool want_search = false;
  if (op.kind == OpKind::kCheckpoint) {
    want_search = config_.search_on_checkpoint && staleness_ops_ > 0;
  } else if (!metric_stale_) {
    want_search =
        config_.drift.ShouldSearch(metric_at_last_search_, metric_);
  }
  if (want_search) {
    Stopwatch search_watch;
    FUME_RETURN_NOT_OK(RunSearch());
    outcome.searched = true;
    outcome.search_seconds = search_watch.ElapsedSeconds();
  } else if (model_changed) {
    metrics.drift_holds->Inc();
  }

  if (op.kind == OpKind::kCheckpoint && !config_.checkpoint_path.empty()) {
    FUME_RETURN_NOT_OK(SaveCheckpointToFile(config_.checkpoint_path));
  }

  metrics.ops->Inc();
  metrics.staleness->Set(staleness_ops_);
  metrics.live->Set(rows_live());
  metrics.apply_us->Record(
      static_cast<int64_t>(apply_watch.ElapsedSeconds() * 1e6));
  outcome.metric = metric_;
  outcome.accuracy = accuracy_;
  outcome.rows_live = rows_live();
  outcome.staleness_ops = staleness_ops_;
  return outcome;
}

Result<std::vector<OpOutcome>> StreamEngine::Replay(
    const std::vector<StreamOp>& ops) {
  std::vector<OpOutcome> outcomes;
  outcomes.reserve(ops.size());
  for (const StreamOp& op : ops) {
    FUME_ASSIGN_OR_RETURN(OpOutcome outcome, Apply(op));
    outcomes.push_back(outcome);
  }
  return outcomes;
}

void StreamEngine::FlushLazy() {
  if (sharded_.has_value()) {
    if (!metric_stale_ && !sharded_->HasLazyTags()) return;
    obs::TraceSpan span("stream.lazy_flush",
                        {{"rows", sharded_->lazy_rows()},
                         {"nodes", sharded_->lazy_nodes()}});
    std::vector<std::vector<DeletionStats>> per_shard;
    sharded_->FlushAll(&per_shard, MaybePool(), &shard_scratch_);
    // FoldShardDirty merges each shard's flush retrains with the dirtiness
    // its deferred deletes accumulated (shard_lazy_dirty_); shards with
    // neither stay untouched in the cache.
    shard_cache_.Update(*sharded_, test_, FoldShardDirty(per_shard));
    metric_stale_ = false;
    RefreshMetric();
    return;
  }
  if (!metric_stale_ && !forest_.HasLazyTags()) return;
  obs::TraceSpan span("stream.lazy_flush",
                      {{"rows", forest_.lazy_rows()},
                       {"nodes", forest_.lazy_nodes()}});
  std::vector<DeletionStats> per_tree;
  forest_.FlushAll(&per_tree, &unlearn_scratch_);
  // Rewalk trees the flush retrained OR the deferred deletes dirtied
  // (CoW unshares / leaf removals) — everything else resumes in place.
  // per_tree stays empty when a budget overflow inside DeleteRows already
  // retired every tag (FlushAll is then a no-op) — the metric is still
  // stale and lazy_dirty_ carries that burst's dirtiness below.
  std::vector<bool> dirty(static_cast<size_t>(forest_.num_trees()), false);
  FUME_CHECK(per_tree.empty() || per_tree.size() == dirty.size());
  for (size_t t = 0; t < per_tree.size(); ++t) {
    dirty[t] =
        per_tree[t].subtrees_retrained > 0 || per_tree[t].nodes_copied > 0;
  }
  if (!lazy_dirty_.empty()) {
    FUME_CHECK_EQ(lazy_dirty_.size(), dirty.size());
    for (size_t t = 0; t < dirty.size(); ++t) {
      if (lazy_dirty_[t]) dirty[t] = true;
    }
    lazy_dirty_.assign(lazy_dirty_.size(), false);
  }
  cache_.Update(forest_, test_, dirty);
  metric_stale_ = false;
  RefreshMetric();
}

Status StreamEngine::SaveCheckpoint(std::ostream& out) const {
  obs::TraceSpan span("stream.checkpoint.save", {{"seq", last_seq_}});
  // Checkpoints never persist a deferred burst: Restore recomputes the
  // metric from a fresh cache and verifies it against the saved value, so
  // the state written here must be flush-exact. The const_cast mirrors
  // DareForest::EnsureFlushed — a deferring engine is thread-confined
  // (serve holds the writer lock around checkpoints).
  const_cast<StreamEngine*>(this)->FlushLazy();
  out.write(kCkptMagic, sizeof(kCkptMagic));
  WritePod<uint32_t>(out, sharded_.has_value() ? kCkptVersionSharded
                                               : kCkptVersion);
  WritePod<int64_t>(out, last_seq_);
  WritePod<double>(out, metric_);
  WritePod<double>(out, accuracy_);
  WritePod<double>(out, metric_at_last_search_);
  WritePod<int64_t>(out, staleness_ops_);
  WritePod<uint64_t>(out, store_ids_.size());
  if (!store_ids_.empty()) {
    out.write(reinterpret_cast<const char*>(store_ids_.data()),
              static_cast<std::streamsize>(store_ids_.size() *
                                           sizeof(RowId)));
  }
  WritePod<uint8_t>(out, explanation_.has_value() ? 1 : 0);
  if (explanation_.has_value()) {
    WritePod<double>(out, explanation_->original_fairness);
    WritePod<double>(out, explanation_->original_accuracy);
    WritePod<uint32_t>(out,
                       static_cast<uint32_t>(explanation_->top_k.size()));
    for (const AttributableSubset& s : explanation_->top_k) {
      WriteSubset(out, s);
    }
  }
  if (sharded_.has_value()) {
    // Incremental: only shards dirtied since the previous checkpoint are
    // re-serialized; the rest reuse their cached bytes verbatim (counted
    // by shard.checkpoint.* inside SaveWithCache).
    if (ckpt_dirty_.size() <
        static_cast<size_t>(sharded_->num_shards())) {
      ckpt_dirty_.resize(static_cast<size_t>(sharded_->num_shards()), true);
    }
    FUME_RETURN_NOT_OK(
        sharded_->SaveWithCache(out, &ckpt_blobs_, ckpt_dirty_));
    ckpt_dirty_.assign(ckpt_dirty_.size(), false);
  } else {
    FUME_RETURN_NOT_OK(SaveForest(forest_, out));
  }
  if (!out) return Status::IOError("checkpoint write failed");
  StreamMetrics::Get().saves->Inc();
  return Status::OK();
}

Status StreamEngine::SaveCheckpointToFile(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IOError("cannot open '" + path + "' for writing");
  return SaveCheckpoint(out);
}

Result<StreamEngine> StreamEngine::Restore(std::istream& in,
                                           const Schema& schema, Dataset test,
                                           StreamEngineConfig config) {
  obs::TraceSpan span("stream.restore");
  char magic[8];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kCkptMagic, sizeof(kCkptMagic)) != 0) {
    return Status::IOError("not a FUME stream checkpoint (bad magic)");
  }
  uint32_t version = 0;
  if (!ReadPod(in, &version) ||
      (version != kCkptVersion && version != kCkptVersionSharded)) {
    return Status::IOError("unsupported stream checkpoint version");
  }
  StreamEngine engine(std::move(test), std::move(config));
  double saved_metric = 0.0;
  double saved_accuracy = 0.0;
  if (!ReadPod(in, &engine.last_seq_) || !ReadPod(in, &saved_metric) ||
      !ReadPod(in, &saved_accuracy) ||
      !ReadPod(in, &engine.metric_at_last_search_) ||
      !ReadPod(in, &engine.staleness_ops_)) {
    return Status::IOError("checkpoint: truncated engine state");
  }
  uint64_t num_live = 0;
  if (!ReadPod(in, &num_live) || num_live > (1ull << 30)) {
    return Status::IOError("checkpoint: bad live-row count");
  }
  engine.store_ids_.resize(num_live);
  if (num_live > 0) {
    in.read(reinterpret_cast<char*>(engine.store_ids_.data()),
            static_cast<std::streamsize>(num_live * sizeof(RowId)));
  }
  uint8_t has_explanation = 0;
  if (!in || !ReadPod(in, &has_explanation)) {
    return Status::IOError("checkpoint: truncated live-id block");
  }
  if (has_explanation != 0) {
    FumeResult cached;
    uint32_t k = 0;
    if (!ReadPod(in, &cached.original_fairness) ||
        !ReadPod(in, &cached.original_accuracy) || !ReadPod(in, &k) ||
        k > 100000) {
      return Status::IOError("checkpoint: truncated explanation header");
    }
    cached.top_k.reserve(k);
    for (uint32_t i = 0; i < k; ++i) {
      FUME_ASSIGN_OR_RETURN(AttributableSubset s, ReadSubset(in));
      cached.top_k.push_back(std::move(s));
    }
    engine.explanation_ = std::move(cached);
  }
  if (version == kCkptVersionSharded) {
    // A sharded checkpoint must be restored as the same SISA deployment:
    // the persisted routing config is authoritative, and the caller's
    // config must agree so future ops route and vote identically.
    if (engine.config_.shard.num_shards <= 1) {
      return Status::Invalid(
          "sharded checkpoint restored with config.shard.num_shards <= 1");
    }
    FUME_ASSIGN_OR_RETURN(ShardedForest loaded, ShardedForest::Load(in));
    const ShardConfig& saved = loaded.shard_config();
    const ShardConfig& want = engine.config_.shard;
    if (saved.num_shards != want.num_shards ||
        saved.placement != want.placement || saved.vote != want.vote ||
        saved.slice_attr != want.slice_attr ||
        saved.slice_value != want.slice_value ||
        saved.hot_shards != want.hot_shards) {
      return Status::Invalid(
          "checkpoint shard config disagrees with engine config");
    }
    engine.sharded_.emplace(std::move(loaded));
  } else {
    if (engine.config_.shard.num_shards > 1) {
      return Status::Invalid(
          "monolithic checkpoint restored with config.shard.num_shards > 1");
    }
    FUME_ASSIGN_OR_RETURN(engine.forest_, LoadForest(in));
  }

  // Reassemble the dense training mirror from the store and the live-id
  // map, then verify the checkpoint is self-consistent. All shards share
  // one schema (they partition one dataset), so shard 0 speaks for it.
  const TrainingStore& store = engine.sharded_.has_value()
                                   ? engine.sharded_->shard(0).store()
                                   : engine.forest_.store();
  if (!schema.AllCategorical() ||
      schema.num_attributes() != store.num_attrs()) {
    return Status::Invalid("restore schema does not match checkpoint store");
  }
  for (int j = 0; j < schema.num_attributes(); ++j) {
    if (schema.attribute(j).cardinality() != store.cardinality(j)) {
      return Status::Invalid("restore schema cardinality mismatch at '" +
                             schema.attribute(j).name + "'");
    }
  }
  engine.train_data_ = Dataset(schema);
  std::vector<int32_t> codes(static_cast<size_t>(store.num_attrs()));
  if (engine.sharded_.has_value()) {
    const int64_t limit = engine.sharded_->num_global_ids();
    for (RowId id : engine.store_ids_) {
      if (id < 0 || static_cast<int64_t>(id) >= limit) {
        return Status::IOError("checkpoint: live id out of store range");
      }
      for (int j = 0; j < store.num_attrs(); ++j) {
        codes[static_cast<size_t>(j)] = engine.sharded_->Code(id, j);
      }
      FUME_RETURN_NOT_OK(
          engine.train_data_.AppendRow(codes, engine.sharded_->Label(id)));
    }
    if (engine.train_data_.num_rows() !=
        engine.sharded_->num_training_rows()) {
      return Status::IOError("checkpoint: live ids disagree with forest");
    }
  } else {
    for (RowId id : engine.store_ids_) {
      if (id < 0 || id >= store.num_rows()) {
        return Status::IOError("checkpoint: live id out of store range");
      }
      for (int j = 0; j < store.num_attrs(); ++j) {
        codes[static_cast<size_t>(j)] = store.code(id, j);
      }
      FUME_RETURN_NOT_OK(engine.train_data_.AppendRow(codes, store.label(id)));
    }
    if (engine.train_data_.num_rows() != engine.forest_.num_training_rows()) {
      return Status::IOError("checkpoint: live ids disagree with forest");
    }
  }
  engine.RebuildLiveIndex();
  if (engine.dense_of_id_.size() != engine.store_ids_.size()) {
    return Status::IOError("checkpoint: duplicate live ids");
  }
  if (engine.sharded_.has_value()) {
    engine.ckpt_dirty_.assign(
        static_cast<size_t>(engine.sharded_->num_shards()), true);
    engine.shard_cache_.Rebuild(*engine.sharded_, engine.test_);
  } else {
    engine.cache_.Rebuild(engine.forest_, engine.test_);
  }
  engine.RefreshMetric();
  if (engine.metric_ != saved_metric || engine.accuracy_ != saved_accuracy) {
    return Status::IOError(
        "checkpoint: recomputed metric disagrees with saved state (corrupt "
        "file, or different test data / config)");
  }
  StreamMetrics::Get().restores->Inc();
  return engine;
}

Result<StreamEngine> StreamEngine::RestoreFromFile(
    const std::string& path, const Schema& schema, Dataset test,
    StreamEngineConfig config) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open '" + path + "' for reading");
  return Restore(in, schema, std::move(test), std::move(config));
}

}  // namespace stream
}  // namespace fume
