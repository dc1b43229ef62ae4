#include "stream/engine.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <istream>
#include <limits>
#include <numeric>
#include <ostream>

#include "core/removal_method.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/binary_io.h"
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
/// train_data(); it forwards the corresponding engine ids (the model's
/// global ids) to the wrapped unlearning method over the streaming model.
/// Thread-safe like the inner method (the map is read-only during a
/// search).
class MappedRemoval : public RemovalMethod {
 public:
  MappedRemoval(RemovalMethod* inner, const std::vector<RowId>* dense_to_id)
      : inner_(inner), dense_to_id_(dense_to_id) {}

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
  const char* name() const override { return "dare-unlearn-stream"; }

 private:
  RemovalMethod* inner_;
  const std::vector<RowId>* dense_to_id_;
};

// ---- checkpoint format (util/binary_io.h).

constexpr char kCkptMagic[8] = {'F', 'U', 'M', 'E', 'S', 'T', 'R', 'M'};
/// The engine state block, then the model's ShardedForest container (shard
/// config + placement maps + one forest blob per shard). Version 1 held a
/// bare SaveForest blob instead of the container; it is no longer read.
constexpr uint32_t kCkptVersion = 2;

void WriteSubset(util::BinaryWriter& out, const AttributableSubset& s) {
  out.Pod<uint32_t>(static_cast<uint32_t>(s.predicate.num_literals()));
  for (const Literal& lit : s.predicate.literals()) {
    out.Pod<int32_t>(lit.attr);
    out.Pod<uint8_t>(static_cast<uint8_t>(lit.op));
    out.Pod<int32_t>(lit.value);
  }
  out.Pod<double>(s.support);
  out.Pod<int64_t>(s.num_rows);
  out.Pod<double>(s.phi);
  out.Pod<double>(s.attribution);
  out.Pod<double>(s.new_fairness);
  out.Pod<double>(s.new_accuracy);
}

Result<AttributableSubset> ReadSubset(util::BinaryReader& in) {
  uint32_t num_literals = 0;
  if (!in.Pod(&num_literals)) return in.Error("checkpoint: literal count");
  if (num_literals > 64) {
    return Status::IOError("checkpoint: bad literal count");
  }
  std::vector<Literal> literals;
  literals.reserve(num_literals);
  for (uint32_t i = 0; i < num_literals; ++i) {
    Literal lit;
    uint8_t op = 0;
    if (!in.Pods(&lit.attr, &op, &lit.value)) {
      return in.Error("checkpoint: literal");
    }
    lit.op = static_cast<LiteralOp>(op);
    literals.push_back(lit);
  }
  AttributableSubset s;
  s.predicate = Predicate(std::move(literals));
  if (!in.Pods(&s.support, &s.num_rows, &s.phi, &s.attribution,
               &s.new_fairness, &s.new_accuracy)) {
    return in.Error("checkpoint: subset record");
  }
  return s;
}

/// The cached top-k is printed and served against `schema`, which indexes
/// attributes unchecked: every literal must name an attribute, operator and
/// code the lattice could have emitted.
Status ValidateTopK(const FumeResult& result, const Schema& schema) {
  for (const AttributableSubset& s : result.top_k) {
    for (const Literal& lit : s.predicate.literals()) {
      if (lit.attr < 0 || lit.attr >= schema.num_attributes()) {
        return Status::IOError("checkpoint: top-k literal attribute " +
                               std::to_string(lit.attr) + " out of range");
      }
      if (static_cast<uint8_t>(lit.op) >
          static_cast<uint8_t>(LiteralOp::kGt)) {
        return Status::IOError("checkpoint: top-k literal operator " +
                               std::to_string(static_cast<int>(lit.op)) +
                               " is not a LiteralOp");
      }
      if (lit.value < 0 ||
          lit.value >= schema.attribute(lit.attr).cardinality()) {
        return Status::IOError("checkpoint: top-k literal value " +
                               std::to_string(lit.value) +
                               " out of range for '" +
                               schema.attribute(lit.attr).name + "'");
      }
    }
  }
  return Status::OK();
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
  FUME_ASSIGN_OR_RETURN(
      engine.model_,
      ShardedForest::Train(initial_train, engine.config_.forest,
                           engine.config_.shard, engine.MaybePool()));
  engine.schema_ = initial_train.schema();
  engine.store_ids_.resize(static_cast<size_t>(initial_train.num_rows()));
  std::iota(engine.store_ids_.begin(), engine.store_ids_.end(), RowId{0});
  engine.cache_.Rebuild(engine.model_, engine.test_, engine.MaybePool());
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

Dataset StreamEngine::train_data() const {
  Dataset live(schema_);
  std::vector<int32_t> codes(static_cast<size_t>(schema_.num_attributes()));
  for (const RowId id : store_ids_) {
    for (int j = 0; j < schema_.num_attributes(); ++j) {
      codes[static_cast<size_t>(j)] = model_.Code(id, j);
    }
    // Every stored row was validated against schema_ on its way in (Create,
    // ApplyInsert, or Restore's cardinality check).
    FUME_CHECK(live.AppendRow(codes, model_.Label(id)).ok());
  }
  return live;
}

void StreamEngine::RefreshMetric() {
  const ModelEval eval = EvaluatePredictions(
      test_, cache_.predictions(), config_.fume.group, config_.fume.metric);
  metric_ = eval.fairness;
  accuracy_ = eval.accuracy;
}

Status StreamEngine::RunSearch() {
  obs::TraceSpan span("stream.search",
                      {{"staleness", staleness_ops_},
                       {"rows", rows_live()}});
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
  // Leave-outs unlearn shard-locally and rescore through the warm cache.
  UnlearnRemovalMethod inner(&model_, &test_, config_.fume.group,
                             config_.fume.metric, &cache_);
  MappedRemoval removal(&inner, &store_ids_);
  // Every search of this engine's lifetime shares one worker pool, created
  // at the first parallel search.
  FumeConfig fume_config = config_.fume;
  if (fume_config.pool == nullptr && fume_config.num_threads > 1) {
    fume_config.pool = MaybePool();
  }
  FUME_ASSIGN_OR_RETURN(
      FumeResult result,
      ExplainWithRemoval(original, train_data(), fume_config, &removal));
  explanation_ = std::make_shared<const FumeResult>(std::move(result));
  return Status::OK();
}

Status StreamEngine::ApplyInsert(const StreamOp& op) {
  if (op.rows.empty()) return Status::Invalid("insert op carries no rows");
  Dataset batch(schema_);
  for (const StreamRow& row : op.rows) {
    FUME_RETURN_NOT_OK(batch.AppendRow(row.codes, row.label));
  }
  FUME_ASSIGN_OR_RETURN(std::vector<RowId> new_ids,
                        model_.AddData(batch, MaybePool(), &scratch_));
  store_ids_.insert(store_ids_.end(), new_ids.begin(), new_ids.end());
  cache_.Update(model_, test_, MaybePool());
  StreamMetrics::Get().inserts->Inc();
  StreamMetrics::Get().rows_added->Inc(static_cast<int64_t>(op.rows.size()));
  return Status::OK();
}

Status StreamEngine::ApplyDelete(const StreamOp& op) {
  if (op.row_ids.empty()) return Status::Invalid("delete op carries no ids");
  std::vector<int64_t> dense_rows;
  dense_rows.reserve(op.row_ids.size());
  for (RowId id : op.row_ids) {
    // store_ids_ is strictly ascending: ids are assigned in arrival order
    // and deletes keep the order.
    auto it = std::lower_bound(store_ids_.begin(), store_ids_.end(), id);
    if (it == store_ids_.end() || *it != id) {
      return Status::KeyError("row id " + std::to_string(id) +
                              " is not live (never inserted, or already "
                              "deleted)");
    }
    dense_rows.push_back(it - store_ids_.begin());
  }
  FUME_RETURN_NOT_OK(model_.DeleteRows(op.row_ids, MaybePool(), &scratch_));
  // Drop the dense positions from the id map, preserving order.
  std::vector<bool> doomed(store_ids_.size(), false);
  for (int64_t dense : dense_rows) doomed[static_cast<size_t>(dense)] = true;
  size_t kept = 0;
  for (size_t dense = 0; dense < store_ids_.size(); ++dense) {
    if (!doomed[dense]) store_ids_[kept++] = store_ids_[dense];
  }
  store_ids_.resize(kept);
  cache_.Update(model_, test_, MaybePool());
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
      break;
  }
  last_seq_ = op.seq;
  if (model_changed) {
    RefreshMetric();
    ++staleness_ops_;
  }
  outcome.apply_seconds = apply_watch.ElapsedSeconds();

  // Drift policy: checkpoints refresh whenever stale (so the persisted
  // explanation is current); data ops re-search only past the thresholds.
  const bool want_search =
      op.kind == OpKind::kCheckpoint
          ? config_.search_on_checkpoint && staleness_ops_ > 0
          : config_.drift.ShouldSearch(metric_at_last_search_, metric_);
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

Status StreamEngine::SaveCheckpoint(std::ostream& out) const {
  obs::TraceSpan span("stream.checkpoint.save", {{"seq", last_seq_}});
  util::BinaryWriter w(out);
  w.Header(kCkptMagic, kCkptVersion);
  w.Pod<int64_t>(last_seq_);
  w.Pod<double>(metric_);
  w.Pod<double>(accuracy_);
  w.Pod<double>(metric_at_last_search_);
  w.Pod<int64_t>(staleness_ops_);
  w.Vec(store_ids_);
  w.Pod<uint8_t>(explanation_ != nullptr ? 1 : 0);
  if (explanation_ != nullptr) {
    w.Pod<double>(explanation_->original_fairness);
    w.Pod<double>(explanation_->original_accuracy);
    w.Pod<uint32_t>(static_cast<uint32_t>(explanation_->top_k.size()));
    for (const AttributableSubset& s : explanation_->top_k) {
      WriteSubset(w, s);
    }
  }
  FUME_RETURN_NOT_OK(model_.Save(out));
  if (!w.ok()) return Status::IOError("checkpoint write failed");
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
  util::BinaryReader r(in);
  if (!r.Header(kCkptMagic, kCkptVersion, "stream checkpoint",
                " (a monolithic-forest checkpoint, no longer read): replay "
                "the op-log from seq 0 instead")) {
    return r.status();
  }
  StreamEngine engine(std::move(test), std::move(config));
  double saved_metric = 0.0;
  double saved_accuracy = 0.0;
  if (!r.Pods(&engine.last_seq_, &saved_metric, &saved_accuracy,
              &engine.metric_at_last_search_, &engine.staleness_ops_)) {
    return r.Error("checkpoint: engine state");
  }
  uint8_t has_explanation = 0;
  if (!r.Vec(&engine.store_ids_) || !r.Pod(&has_explanation)) {
    return r.Error("checkpoint: live-id block");
  }
  if (has_explanation != 0) {
    FumeResult cached;
    uint32_t k = 0;
    if (!r.Pods(&cached.original_fairness, &cached.original_accuracy, &k)) {
      return r.Error("checkpoint: explanation header");
    }
    if (k > 100000) return Status::IOError("checkpoint: bad top-k count");
    for (uint32_t i = 0; i < k; ++i) {
      FUME_ASSIGN_OR_RETURN(AttributableSubset s, ReadSubset(r));
      cached.top_k.push_back(std::move(s));
    }
    engine.explanation_ =
        std::make_shared<const FumeResult>(std::move(cached));
  }
  // The checkpoint must be restored as the same deployment: the persisted
  // routing config is authoritative, and the caller's config must agree so
  // future ops route identically.
  FUME_ASSIGN_OR_RETURN(engine.model_, ShardedForest::Load(in));
  if (engine.model_.shard_config() != engine.config_.shard) {
    return Status::Invalid(
        "checkpoint shard config disagrees with engine config");
  }

  // Verify the checkpoint is self-consistent. All shards share one schema
  // (they partition one dataset), so shard 0 speaks for it.
  const TrainingStore& store = engine.model_.shard(0).store();
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
  if (engine.explanation_ != nullptr) {
    FUME_RETURN_NOT_OK(ValidateTopK(*engine.explanation_, schema));
  }
  engine.schema_ = schema;
  const int64_t limit = engine.model_.num_global_ids();
  RowId prev = -1;
  for (RowId id : engine.store_ids_) {
    if (id < 0 || static_cast<int64_t>(id) >= limit) {
      return Status::IOError("checkpoint: live id out of store range");
    }
    // Deletes look ids up by binary search, so the block must be strictly
    // ascending (which also rules out duplicates).
    if (id <= prev) {
      return Status::IOError("checkpoint: live ids not strictly ascending");
    }
    prev = id;
  }
  if (engine.rows_live() != engine.model_.num_training_rows()) {
    return Status::IOError("checkpoint: live ids disagree with forest");
  }
  engine.cache_.Rebuild(engine.model_, engine.test_, engine.MaybePool());
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
