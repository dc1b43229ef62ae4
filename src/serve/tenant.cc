#include "serve/tenant.h"

#include <cmath>
#include <utility>

#include "core/removal_method.h"
#include "obs/metrics.h"
#include "util/check.h"

namespace fume::serve {

Tenant::Tenant(std::string name, TenantConfig config)
    : name_(std::move(name)), config_(std::move(config)) {}

Tenant::~Tenant() { Shutdown(); }

Result<std::unique_ptr<Tenant>> Tenant::Make(std::string name,
                                             const Dataset& initial_train,
                                             Dataset test,
                                             TenantConfig config) {
  if (config.whatif_threads < 1) {
    return Status::Invalid("whatif_threads must be >= 1");
  }
  std::unique_ptr<Tenant> tenant(
      new Tenant(std::move(name), std::move(config)));
  FUME_ASSIGN_OR_RETURN(
      auto engine, stream::StreamEngine::Create(initial_train, std::move(test),
                                                tenant->config_.engine));
  tenant->engine_.emplace(std::move(engine));
  if (!tenant->config_.oplog_path.empty()) {
    tenant->oplog_.open(tenant->config_.oplog_path, std::ios::app);
    if (!tenant->oplog_) {
      return Status::IOError("cannot open op-log " +
                             tenant->config_.oplog_path);
    }
  }
  tenant->pool_ =
      std::make_unique<util::ThreadPool>(tenant->config_.whatif_threads);
  tenant->batcher_ = std::make_unique<WhatIfBatcher>(
      tenant->config_.batch, [t = tenant.get()](
                                 const std::vector<BatchJob*>& batch) {
        t->ExecuteBatch(batch);
      });
  {
    std::lock_guard<std::mutex> lk(tenant->write_mu_);
    tenant->PublishSnapshotLocked();
  }
  return tenant;
}

const Schema& Tenant::schema() const { return test_data().schema(); }

const Dataset& Tenant::test_data() const {
  // The engine never mutates its test set, so this is safe lock-free.
  return engine_->test_data();
}

void Tenant::PublishSnapshotLocked() {
  static obs::Counter* published = obs::GetCounter("serve.snapshot.published");
  // A published snapshot is shared with lock-free readers, so it must
  // never contain a lazy tag (DESIGN.md §6 invariant 9): the clone below
  // would owe a flush it could only pay by mutating shared nodes. The
  // engine flushed at every publication point — ApplyStreamOp skips
  // publication while deferring; checkpoints flush first.
  FUME_CHECK(!engine_->deferring());
  auto snap = std::make_shared<TenantSnapshot>();
  snap->seq = engine_->last_seq();
  snap->metric = engine_->current_metric();
  snap->accuracy = engine_->current_accuracy();
  snap->staleness = engine_->staleness();
  snap->rows_live = engine_->rows_live();
  snap->model = engine_->model().Clone();
  snap->model_cache = std::make_shared<const ShardedPredictionCache>(
      engine_->prediction_cache());
  if (snap->model.num_shards() == 1) {
    snap->forest = snap->model.shard(0).Clone();
    snap->cache = std::shared_ptr<const TestPredictionCache>(
        snap->model_cache, &snap->model_cache->shard(0));
  }
  snap->live_ids = engine_->live_ids();
  snap->explanation = engine_->shared_explanation();
  std::shared_ptr<const TenantSnapshot> replaced = std::move(snap);
  {
    std::lock_guard<std::mutex> lk(snapshot_mu_);
    snapshot_.swap(replaced);
  }
  // `replaced` now holds the old snapshot. When no reader still shares it,
  // its node frees run as it goes out of scope: after the unlock, not
  // inside the lock every reader takes.
  published->Inc();
}

Result<stream::OpOutcome> Tenant::ApplyStreamOp(const stream::StreamOp& op) {
  std::lock_guard<std::mutex> lk(write_mu_);
  if (shut_down_) return Status::Invalid("tenant is shut down");
  FUME_ASSIGN_OR_RETURN(stream::OpOutcome outcome, engine_->Apply(op));
  if (oplog_.is_open()) {
    oplog_ << stream::FormatOp(op) << '\n';
    oplog_.flush();
    if (!oplog_) {
      return Status::IOError("op-log append failed for tenant " + name_);
    }
  }
  // During a deferred delete burst readers keep the older exact snapshot;
  // the first flush boundary (insert, checkpoint, explicit Checkpoint())
  // publishes the caught-up state.
  if (!engine_->deferring()) PublishSnapshotLocked();
  return outcome;
}

Result<std::string> Tenant::Checkpoint() {
  std::lock_guard<std::mutex> lk(write_mu_);
  if (shut_down_) return Status::Invalid("tenant is shut down");
  if (config_.engine.checkpoint_path.empty()) {
    return Status::Invalid("tenant " + name_ + " has no checkpoint_path");
  }
  // Retire any deferred burst before persisting, then publish the flushed
  // state so readers catch up along with the checkpoint.
  engine_->FlushLazy();
  FUME_RETURN_NOT_OK(
      engine_->SaveCheckpointToFile(config_.engine.checkpoint_path));
  PublishSnapshotLocked();
  return config_.engine.checkpoint_path;
}

AdmitResult Tenant::WhatIf(BatchJob* job) { return batcher_->Submit(job); }

void Tenant::Shutdown() {
  // Null-tolerant: the destructor runs this on tenants Make() abandoned
  // half-built (e.g. an op-log that failed to open), before the batcher or
  // even the engine existed.
  if (batcher_ != nullptr) batcher_->Shutdown();
  std::lock_guard<std::mutex> lk(write_mu_);
  if (shut_down_) return;
  shut_down_ = true;
  if (engine_.has_value() && !config_.engine.checkpoint_path.empty()) {
    // Best effort: a failed final checkpoint must not abort shutdown.
    const Status ckpt =
        engine_->SaveCheckpointToFile(config_.engine.checkpoint_path);
    (void)ckpt;
  }
  if (oplog_.is_open()) {
    oplog_.flush();
    oplog_.close();
  }
}

void Tenant::ExecuteBatch(const std::vector<BatchJob*>& batch) {
  // One snapshot and one warm scratch set for the whole batch — the point
  // of grouping. The batcher guarantees one batch in flight per tenant, so
  // the pool and the scratch are exclusive. Jobs run one after another,
  // each using every pool thread on its own trees, so a lone whatif is as
  // parallel as a full batch.
  std::shared_ptr<const TenantSnapshot> snap = snapshot();
  for (BatchJob* job : batch) EvaluateWhatIf(*snap, job);
}

void Tenant::EvaluateWhatIf(const TenantSnapshot& snap, BatchJob* job) {
  WhatIfState& state = whatif_;
  WhatIfOutcome out;
  out.snapshot_seq = snap.seq;
  out.before_fairness = snap.metric;
  out.before_accuracy = snap.accuracy;

  // Live rows matching the candidate predicate, against the append-stable
  // stores the snapshot's shards reference.
  state.matched.clear();
  for (const RowId id : snap.live_ids) {
    bool all = true;
    for (const Literal& lit : job->predicate.literals()) {
      if (!lit.Matches(snap.model.Code(id, lit.attr))) {
        all = false;
        break;
      }
    }
    if (all) state.matched.push_back(id);
  }
  out.rows_matched = static_cast<int64_t>(state.matched.size());

  if (!state.matched.empty()) {
    // Unlearn and rescore straight off the shared snapshot, by (shard,
    // tree) on the what-if pool: the fused walk only reads the snapshot,
    // so readers share it as is. The snapshot is flushed by contract and
    // the matched ids are live, so this cannot fail.
    const Dataset& test = test_data();
    FUME_CHECK(snap.model_cache
                   ->ScoreWithout(snap.model, state.matched, test,
                                  &state.scratch, &state.deletion,
                                  pool_.get())
                   .ok());
    const ModelEval after =
        EvaluatePredictions(test, state.scratch.preds,
                            config_.engine.fume.group,
                            config_.engine.fume.metric);
    out.after_fairness = after.fairness;
    out.after_accuracy = after.accuracy;
    // Same normalized improvement as repair/what_if.cc.
    const double original = std::fabs(out.before_fairness);
    out.parity_reduction =
        original == 0.0
            ? 0.0
            : (original - std::fabs(out.after_fairness)) / original;
  } else {
    out.after_fairness = snap.metric;
    out.after_accuracy = snap.accuracy;
    out.parity_reduction = 0.0;
  }
  job->outcome = out;
}

Status TenantRegistry::Add(std::unique_ptr<Tenant> tenant) {
  const std::string& name = tenant->name();
  if (tenants_.count(name) != 0) {
    return Status::Invalid("duplicate tenant \"" + name + "\"");
  }
  tenants_.emplace(name, std::move(tenant));
  return Status::OK();
}

Tenant* TenantRegistry::Find(const std::string& name) const {
  const auto it = tenants_.find(name);
  return it == tenants_.end() ? nullptr : it->second.get();
}

std::vector<std::string> TenantRegistry::Names() const {
  std::vector<std::string> names;
  names.reserve(tenants_.size());
  for (const auto& [name, tenant] : tenants_) names.push_back(name);
  return names;
}

void TenantRegistry::ShutdownAll() {
  for (auto& [name, tenant] : tenants_) tenant->Shutdown();
}

}  // namespace fume::serve
