#include "util/thread_pool.h"

#include "obs/metrics.h"
#include "obs/query_scope.h"
#include "obs/trace.h"
#include "util/check.h"

namespace fume {
namespace util {

namespace {

constexpr int kGenShift = 32;
constexpr uint64_t kIndexMask = (uint64_t{1} << kGenShift) - 1;

constexpr uint64_t GenTag(uint64_t generation) {
  return generation & kIndexMask;
}

/// The pool whose batch the calling thread is running a job of, or null:
/// what ParallelFor checks its no-reentry contract against.
thread_local const ThreadPool* tls_running_pool = nullptr;

/// Marks the calling thread as running jobs of `pool` while in scope.
class RunningJobs {
 public:
  explicit RunningJobs(const ThreadPool* pool) : outer_(tls_running_pool) {
    tls_running_pool = pool;
  }
  ~RunningJobs() { tls_running_pool = outer_; }
  RunningJobs(const RunningJobs&) = delete;
  RunningJobs& operator=(const RunningJobs&) = delete;

 private:
  const ThreadPool* outer_;
};

}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  const int spawn = num_threads - 1;
  if (spawn <= 0) return;
  static obs::Counter* started = obs::GetCounter("pool.threads_started");
  started->Inc(spawn);
  threads_.reserve(static_cast<size_t>(spawn));
  for (int t = 1; t <= spawn; ++t) {
    threads_.emplace_back([this, t] { WorkerLoop(t); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& thread : threads_) thread.join();
}

void ThreadPool::RunChunk(int worker, uint64_t gen,
                          const std::function<void(int, size_t)>* fn,
                          size_t count) {
  // Every claim checks the generation tag before the CAS commits it, so a
  // straggler still here after ParallelFor published a new batch backs off
  // without consuming an index or double-counting completed_ — it re-parks
  // in WorkerLoop and picks the new batch up through the mutex. (A tag
  // collision would need the straggler to sleep across 2^32 batches.)
  uint64_t t = ticket_.load(std::memory_order_acquire);
  while (true) {
    if ((t >> kGenShift) != GenTag(gen)) return;  // new batch published
    const uint64_t i = t & kIndexMask;
    if (i >= count) return;  // batch fully claimed
    if (!ticket_.compare_exchange_weak(t, t + 1, std::memory_order_acq_rel,
                                       std::memory_order_acquire)) {
      continue;  // t reloaded: re-check generation and bounds
    }
    (*fn)(worker, static_cast<size_t>(i));
    // The acq_rel RMW chain makes every job's writes visible to
    // ParallelFor's acquire load that observes completed_ == count.
    if (completed_.fetch_add(1, std::memory_order_acq_rel) + 1 == count) {
      std::lock_guard<std::mutex> lock(mutex_);
      done_cv_.notify_all();
    }
    t = ticket_.load(std::memory_order_acquire);
  }
}

void ThreadPool::WorkerLoop(int worker) {
  // A parked worker only ever runs this pool's jobs.
  const RunningJobs running(this);
  uint64_t seen = 0;
  while (true) {
    uint64_t gen;
    const std::function<void(int, size_t)>* fn;
    size_t count;
    obs::internal::ScopeHook* scope;
    uint64_t flow_base;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      // Snapshot the batch while holding the lock: the {fn, count,
      // generation, scope, flow_base} tuple is immutable for as long as
      // this batch's indices are claimable, and the mutex orders it with
      // ParallelFor's publication.
      seen = generation_;
      gen = generation_;
      fn = job_fn_;
      count = job_count_;
      scope = job_scope_;
      flow_base = job_flow_base_;
      if (fn != nullptr) ++active_workers_;
    }
    // fn is null when this worker woke only after the batch had fully
    // completed (ParallelFor already cleared it): nothing left to claim.
    if (fn == nullptr) continue;
    {
      // Everything this worker does for the batch — metric deltas inside
      // fn and this thread's CPU time — attributes to the query scope that
      // was active on the enqueuing thread.
      obs::internal::ScopeAttachGuard attach(scope);
      if (flow_base != 0) {
        obs::TraceSpan span("pool.worker", {{"worker", worker}});
        obs::TraceFlowEnd("pool.batch",
                          flow_base + static_cast<uint64_t>(worker) - 1);
        RunChunk(worker, gen, fn, count);
      } else {
        RunChunk(worker, gen, fn, count);
      }
    }
    {
      // The detach above was this worker's last touch of the batch's scope;
      // announce it so ParallelFor can let the scope owner destroy it.
      std::lock_guard<std::mutex> lock(mutex_);
      if (--active_workers_ == 0) done_cv_.notify_all();
    }
  }
}

void ThreadPool::ParallelFor(size_t n,
                             const std::function<void(int, size_t)>& fn) {
  // A nested call would hand its items worker id 0, which the outer caller
  // is using, then wait for active_workers_ == 0 while its own thread is
  // still an active worker of the outer batch: it would hang.
  FUME_CHECK(tls_running_pool != this &&
             "ParallelFor called from a job of the same pool");
  if (n == 0) return;
  static obs::Counter* calls = obs::GetCounter("pool.parallel_for.calls");
  static obs::Counter* jobs = obs::GetCounter("pool.jobs_dispatched");
  calls->Inc();
  jobs->Inc(static_cast<int64_t>(n));
  const RunningJobs running(this);
  if (threads_.empty() || n == 1) {
    for (size_t i = 0; i < n; ++i) fn(0, i);
    return;
  }
  FUME_CHECK(n <= kIndexMask);  // index must fit beside the generation tag
  uint64_t gen;
  const uint64_t spawn = static_cast<uint64_t>(threads_.size());
  const uint64_t flow_base =
      obs::TracingEnabled() ? obs::AllocateFlowIds(spawn) : 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    gen = ++generation_;
    job_fn_ = &fn;
    job_count_ = n;
    job_scope_ = obs::internal::tls_scope;
    job_flow_base_ = flow_base;
    completed_.store(0, std::memory_order_relaxed);
    // Publishing the tagged ticket retires the previous batch: from here
    // on, claims by stragglers of older generations fail their tag check.
    ticket_.store(GenTag(gen) << kGenShift, std::memory_order_release);
  }
  if (flow_base != 0) {
    // One flow per parked worker, started at the enqueue site: the arrow
    // runs from the caller's enclosing span to each worker's pool.worker
    // span (an unmatched start — a worker that never woke — is harmless).
    for (uint64_t w = 0; w < spawn; ++w) {
      obs::TraceFlowBegin("pool.batch", flow_base + w);
    }
  }
  work_cv_.notify_all();
  RunChunk(0, gen, &fn, n);  // the caller is worker 0
  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [&] {
    // Both conditions matter: all indices done AND every worker detached
    // from the batch's query scope (see active_workers_ in the header).
    return completed_.load(std::memory_order_acquire) == n &&
           active_workers_ == 0;
  });
  job_fn_ = nullptr;
  job_scope_ = nullptr;
  job_flow_base_ = 0;
}

}  // namespace util
}  // namespace fume
