// Tenant: one registered dataset's serving state — a live StreamEngine
// behind a writer lock, an atomically published CoW snapshot for readers,
// and a WhatIfBatcher that scores grouped what-if candidates off one
// snapshot per batch: one job after another, each fanned out by (shard,
// tree) on the tenant's what-if pool.
//
// Snapshot-swap scheme: mutations (stream_op) run under `write_mu_` against
// the engine, then publish a fresh TenantSnapshot (CoW ensemble clone + a
// copy of the warm prediction cache) by swapping a shared_ptr under a
// dedicated pointer mutex whose critical section is just that copy.
// Readers grab the pointer and keep the snapshot alive for as long as
// they need it, so a predict/explain/whatif never waits behind engine
// work and never observes a half-applied op. The TrainingStores shared
// by the engine's shards and every snapshot clone are append-stable
// (forest/training_store.h), so concurrent inserts never move the rows a
// snapshot reader is scanning.

#ifndef FUME_SERVE_TENANT_H_
#define FUME_SERVE_TENANT_H_

#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "forest/deletion_scratch.h"
#include "forest/sharded_forest.h"
#include "serve/batcher.h"
#include "stream/engine.h"
#include "util/thread_pool.h"

namespace fume::serve {

struct TenantConfig {
  stream::StreamEngineConfig engine;
  /// When non-empty, every applied stream op is appended (and flushed) to
  /// this op-log file so the served history stays replayable offline.
  std::string oplog_path;
  /// Threads scoring each whatif, by (shard, tree) (1 = serial).
  int whatif_threads = 2;
  BatchConfig batch;
};

/// Immutable published serving state. Readers share it by shared_ptr; the
/// model is a CoW clone so the writer's later mutations never touch it.
struct TenantSnapshot {
  int64_t seq = -1;
  double metric = 0.0;
  double accuracy = 0.0;
  int64_t staleness = 0;
  int64_t rows_live = 0;
  ShardedForest model;
  /// Global row ids (the model's) of the live rows, dense order.
  std::vector<RowId> live_ids;
  std::shared_ptr<const ShardedPredictionCache> model_cache;
  /// The engine's explanation, shared (not copied) by every snapshot
  /// published until the next search or restore replaces it; null while
  /// fair.
  std::shared_ptr<const FumeResult> explanation;
  /// Single-shard view for out-of-tree probes: a clone of model.shard(0)
  /// and an alias of model_cache->shard(0), filled only when the tenant
  /// has one shard (empty otherwise). Serving code reads model/model_cache.
  DareForest forest;
  std::shared_ptr<const TestPredictionCache> cache;
};

class Tenant {
 public:
  static Result<std::unique_ptr<Tenant>> Make(std::string name,
                                              const Dataset& initial_train,
                                              Dataset test,
                                              TenantConfig config);
  ~Tenant();
  Tenant(const Tenant&) = delete;
  Tenant& operator=(const Tenant&) = delete;

  const std::string& name() const { return name_; }
  const TenantConfig& config() const { return config_; }
  const Schema& schema() const;
  /// Immutable after Make; safe to read from any thread.
  const Dataset& test_data() const;

  /// Current published snapshot (never null after Make). The critical
  /// section is one shared_ptr copy — readers never wait behind engine
  /// work, which all happens before the writer swaps the pointer in.
  /// (A plain mutex rather than std::atomic<shared_ptr>: libstdc++'s
  /// _Sp_atomic guards its pointer with an embedded lock bit that TSan
  /// cannot model, so every load/store pair reports a false race.)
  std::shared_ptr<const TenantSnapshot> snapshot() const {
    std::lock_guard<std::mutex> lk(snapshot_mu_);
    return snapshot_;
  }

  /// Applies one op through the engine, appends it to the op-log, and
  /// publishes a fresh snapshot. Serialized across callers.
  Result<stream::OpOutcome> ApplyStreamOp(const stream::StreamOp& op);

  /// Writes the engine checkpoint to the configured path; returns the path.
  Result<std::string> Checkpoint();

  /// Scores one whatif through the batcher (blocks; see batcher.h).
  AdmitResult WhatIf(BatchJob* job);

  /// Stops admitting whatifs, drains, writes a final checkpoint when a
  /// checkpoint path is configured, and flushes the op-log. Idempotent.
  void Shutdown();

 private:
  /// Warm what-if scratch so steady-state batches do not allocate. The
  /// batcher runs one batch at a time, and a batch scores one job at a
  /// time, so one set serves every whatif.
  struct WhatIfState {
    std::vector<RowId> matched;
    /// Entry w serves what-if pool worker w.
    std::vector<DeletionScratch> deletion;
    ShardedPredictionCache::WhatIfScratch scratch;
  };

  Tenant(std::string name, TenantConfig config);
  void PublishSnapshotLocked();
  void ExecuteBatch(const std::vector<BatchJob*>& batch);
  void EvaluateWhatIf(const TenantSnapshot& snap, BatchJob* job);

  const std::string name_;
  const TenantConfig config_;

  std::mutex write_mu_;
  std::optional<stream::StreamEngine> engine_;  // guarded by write_mu_
  std::ofstream oplog_;                         // guarded by write_mu_
  bool shut_down_ = false;                      // guarded by write_mu_

  mutable std::mutex snapshot_mu_;
  std::shared_ptr<const TenantSnapshot> snapshot_;  // guarded by snapshot_mu_

  /// whatif_threads workers fanning out each whatif's trees.
  std::unique_ptr<util::ThreadPool> pool_;
  WhatIfState whatif_;  // used by the one batch in flight
  std::unique_ptr<WhatIfBatcher> batcher_;
};

/// Name -> tenant map, fixed after server start (no locking on lookup).
class TenantRegistry {
 public:
  Status Add(std::unique_ptr<Tenant> tenant);
  /// nullptr when unknown.
  Tenant* Find(const std::string& name) const;
  std::vector<std::string> Names() const;
  void ShutdownAll();

 private:
  std::map<std::string, std::unique_ptr<Tenant>> tenants_;
};

}  // namespace fume::serve

#endif  // FUME_SERVE_TENANT_H_
