// WhatIfBatcher: leader–follower group commit for concurrent `whatif`
// requests against one tenant.
//
// Connection threads call Submit() and block. Once no batch is executing,
// the thread whose job is at the queue front becomes the leader: it drains
// up to `max_batch` jobs, expires past-deadline jobs, dedups identical
// predicates, and hands the unique representatives to the executor in ONE
// call — which lets the tenant score the whole batch off a single snapshot
// with one warm scratch set. Followers get their results copied and wake
// up. By default the leader never waits, so a batch is whatever queued
// while the previous one ran (natural group commit) and a lone job runs at
// once; a positive `window_us` makes the leader hold the batch open first.
// With max_batch == 1 the same path degenerates to batch-1 serving (the
// bench's comparison baseline).
//
// Admission control: a bounded queue (`queue_cap`) rejects excess load with
// an explicit kOverloaded instead of queueing unboundedly, and per-job
// deadlines reject stale work with kTimeout before any evaluation runs.
//
// The executor is injected so tests can drive admission and deadline
// behavior deterministically with a gated fake.

#ifndef FUME_SERVE_BATCHER_H_
#define FUME_SERVE_BATCHER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <vector>

#include "subset/predicate.h"

namespace fume::serve {

/// Batching / admission knobs for one tenant.
struct BatchConfig {
  /// How long a leader waits for its batch to fill (or for max_batch jobs)
  /// before executing. 0 never waits.
  int64_t window_us = 0;
  /// Max jobs grouped into one executor call (1 = batch-1 serving).
  int max_batch = 16;
  /// Max jobs waiting; beyond this Submit returns kOverloaded immediately.
  int queue_cap = 64;
};

/// What happened to one submitted job.
enum class AdmitResult : uint8_t {
  kOk,          // executed; outcome is valid
  kOverloaded,  // rejected at admission (queue full)
  kTimeout,     // deadline passed before execution started
  kShutdown,    // batcher is shutting down
};

const char* AdmitResultName(AdmitResult r);

/// Payload the executor fills for each unique-predicate representative.
struct WhatIfOutcome {
  int64_t snapshot_seq = 0;
  int64_t rows_matched = 0;
  double before_fairness = 0.0;
  double before_accuracy = 0.0;
  double after_fairness = 0.0;
  double after_accuracy = 0.0;
  double parity_reduction = 0.0;
};

/// One queued whatif. Owned by the submitting thread for its whole life.
struct BatchJob {
  Predicate predicate;
  bool has_deadline = false;
  std::chrono::steady_clock::time_point deadline{};

  // Filled by the batcher / executor:
  WhatIfOutcome outcome;
  AdmitResult admit = AdmitResult::kOk;
  /// Jobs grouped into the executor call this job rode in (after expiry,
  /// including duplicates).
  int batch_size = 0;
  /// True when this job's result was copied from an identical predicate.
  bool deduped = false;

 private:
  friend class WhatIfBatcher;
  bool done = false;
  BatchJob* rep = nullptr;  // representative when deduped
};

class WhatIfBatcher {
 public:
  /// Executes one batch of unique-predicate jobs (never empty), filling
  /// job->outcome for each. Called outside the batcher lock, one batch at
  /// a time per batcher.
  using Executor = std::function<void(const std::vector<BatchJob*>&)>;

  WhatIfBatcher(BatchConfig config, Executor executor);
  ~WhatIfBatcher();
  WhatIfBatcher(const WhatIfBatcher&) = delete;
  WhatIfBatcher& operator=(const WhatIfBatcher&) = delete;

  /// Blocks until `job` is executed, rejected, or expired. Jobs already
  /// admitted when Shutdown() is called still drain through the executor.
  AdmitResult Submit(BatchJob* job);

  /// Rejects new submissions; queued jobs keep draining. Idempotent.
  void Shutdown();

 private:
  void RunAsLeader(std::unique_lock<std::mutex>& lk);

  const BatchConfig config_;
  const Executor executor_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<BatchJob*> queue_;
  bool executing_ = false;
  bool stop_ = false;
};

}  // namespace fume::serve

#endif  // FUME_SERVE_BATCHER_H_
