// A persistent worker pool for level-synchronous fan-out.
//
// FUME's search evaluates one lattice level's jobs, applies the pruning
// rules, and repeats — spawning fresh std::threads per level costs more
// than the small levels it parallelizes. This pool keeps its workers
// parked on a condition variable between ParallelFor calls, so a search
// (or a whole stream-engine lifetime) pays thread creation exactly once.
//
// Determinism: ParallelFor only distributes loop indices; each index is
// claimed by exactly one worker via an atomic counter, and every write a
// worker makes is visible to the caller when ParallelFor returns. Callers
// that keep per-index (not per-worker-order) outputs therefore produce
// results independent of scheduling and thread count.

#ifndef FUME_UTIL_THREAD_POOL_H_
#define FUME_UTIL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace fume {

namespace obs {
namespace internal {
struct ScopeHook;
}  // namespace internal
}  // namespace obs

namespace util {

class ThreadPool {
 public:
  /// A pool of `num_threads` total workers: `num_threads - 1` parked
  /// threads plus the calling thread, which participates as worker 0 in
  /// every ParallelFor. num_threads <= 1 creates no threads (ParallelFor
  /// runs inline).
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Runs fn(worker, index) for every index in [0, n), distributing
  /// indices across workers, and returns when all calls have completed.
  /// `worker` is in [0, num_threads()); concurrent calls with the same
  /// worker id never happen, so per-worker scratch needs no locking. Not
  /// reentrant: fn must not call ParallelFor on the same pool (a
  /// FUME_CHECK aborts a nested call, which would otherwise hang); calling
  /// it on another pool is fine.
  ///
  /// Observability: the caller's active obs::QueryScope (if any) is
  /// propagated to every worker for the duration of its chunk, so metric
  /// deltas inside fn attribute to the enqueuing query regardless of which
  /// thread runs them; when tracing is enabled, a flow event connects the
  /// enqueue site to each worker's `pool.worker` span. Both are fully
  /// quiesced before ParallelFor returns — no worker touches the scope or
  /// the trace on this batch's behalf afterwards.
  void ParallelFor(size_t n, const std::function<void(int, size_t)>& fn);

  int num_threads() const { return static_cast<int>(threads_.size()) + 1; }

 private:
  void WorkerLoop(int worker);
  /// Drains batch `gen`'s indices. `fn`/`count` are the worker's own
  /// snapshot of that batch, taken under mutex_ (parked workers) or by
  /// being the publisher (worker 0) — never read from shared state here.
  void RunChunk(int worker, uint64_t gen,
                const std::function<void(int, size_t)>* fn, size_t count);

  std::vector<std::thread> threads_;
  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  uint64_t generation_ = 0;  // guarded by mutex_
  bool stop_ = false;        // guarded by mutex_
  // Current batch, guarded by mutex_. Workers snapshot these together with
  // generation_ while holding the lock; nothing reads them lock-free.
  const std::function<void(int, size_t)>* job_fn_ = nullptr;
  size_t job_count_ = 0;
  /// Query scope active on the enqueuing thread when the batch was
  /// published; workers attach to it while running their chunk.
  obs::internal::ScopeHook* job_scope_ = nullptr;
  /// First flow id of the batch's reserved range (one id per parked
  /// worker), or 0 when tracing was off at publication.
  uint64_t job_flow_base_ = 0;
  /// Parked workers currently inside the published batch (snapshot taken
  /// through detach), guarded by mutex_. ParallelFor waits for this to hit
  /// zero as well as for all indices to complete: a straggler that claims
  /// no index still holds the batch's scope pointer until it detaches, and
  /// the scope may be destroyed as soon as ParallelFor returns.
  int active_workers_ = 0;
  /// Batch tag and claim counter in one word: generation_ (mod 2^32) in
  /// the upper 32 bits, the next unclaimed index in the lower 32. Claims
  /// are CAS increments that first verify the generation tag, so a
  /// straggler from a previous batch can neither consume one of the new
  /// batch's indices nor claim a stale index against the new batch.
  std::atomic<uint64_t> ticket_{0};
  std::atomic<size_t> completed_{0};
};

}  // namespace util
}  // namespace fume

#endif  // FUME_UTIL_THREAD_POOL_H_
