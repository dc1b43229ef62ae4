// Process-wide metrics: named counters, gauges and log-scale histograms
// with lock-free hot paths. Instrumented code keeps a raw pointer to its
// metric (registration is a one-time, mutex-guarded lookup; the canonical
// idiom is a function-local static) and updates it with a single relaxed
// atomic operation, so leaving the counters permanently enabled costs one
// uncontended add per event. Snapshots serialize to plain text and JSON
// for `fume_cli --metrics-out` and the bench artifacts.
//
// Naming scheme (docs/observability.md): dotted lowercase paths,
// `<subsystem>.<object>.<event>`, e.g. `fume.prune.rule4_parent`,
// `forest.unlearn.subtrees_retrained`, `fume.rowset_cache.hit`.

#ifndef FUME_OBS_METRICS_H_
#define FUME_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace fume {
namespace obs {

class Counter;
class Histogram;

namespace internal {

/// Per-query delta accumulator installed by obs::QueryScope
/// (obs/query_scope.h). The hot-path contract: when no scope is active on
/// the current thread the hook pointer is null and a metric update pays
/// exactly one thread-local load and a not-taken branch on top of its
/// relaxed atomic; when a scope is active, tracked metrics additionally
/// add their delta into the scope (untracked ones fall through after a
/// short pointer scan). Definition lives in query_scope.cc.
struct ScopeHook;

/// Innermost active scope of the current thread (null when none). Worker
/// threads borrow the caller's hook for the duration of a ThreadPool batch
/// via internal::ScopeAttachGuard. constinit: it is constant-initialized,
/// so a read needs no TLS-init guard.
extern constinit thread_local ScopeHook* tls_scope;

void ScopeCounterAdd(ScopeHook* hook, const Counter* counter, int64_t n);
void ScopeHistogramRecord(ScopeHook* hook, const Histogram* histogram,
                          int64_t value);

}  // namespace internal

/// Monotonically increasing event count. All operations are lock-free.
class Counter {
 public:
  void Inc(int64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
    if (internal::ScopeHook* hook = internal::tls_scope) {
      internal::ScopeCounterAdd(hook, this, n);
    }
  }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Last-write-wins instantaneous value (e.g. a frontier size).
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Log2-bucketed histogram of non-negative integer samples. Bucket b holds
/// values whose bit width is b, i.e. [2^(b-1), 2^b - 1] (bucket 0 holds
/// value 0 and clamped negatives), so 64 buckets cover all of int64_t and
/// Record() is a shift plus one relaxed add.
class Histogram {
 public:
  static constexpr int kNumBuckets = 64;

  void Record(int64_t v) {
    buckets_[BucketIndex(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v < 0 ? 0 : v, std::memory_order_relaxed);
    if (internal::ScopeHook* hook = internal::tls_scope) {
      internal::ScopeHistogramRecord(hook, this, v < 0 ? 0 : v);
    }
  }

  int64_t Count() const { return count_.load(std::memory_order_relaxed); }
  int64_t Sum() const { return sum_.load(std::memory_order_relaxed); }
  void Reset();

  static int BucketIndex(int64_t v);
  /// Smallest value the bucket can hold (0 for bucket 0, else 2^(b-1)).
  static int64_t BucketLowerBound(int bucket);
  /// Largest value the bucket can hold (inclusive; 2^b - 1).
  static int64_t BucketUpperBound(int bucket);

 private:
  friend class MetricsRegistry;
  std::atomic<int64_t> buckets_[kNumBuckets] = {};
  std::atomic<int64_t> count_{0};
  std::atomic<int64_t> sum_{0};
};

/// Point-in-time copy of one histogram's buckets (non-empty buckets only).
struct HistogramSnapshot {
  int64_t count = 0;
  int64_t sum = 0;
  /// (inclusive upper bound, sample count) per non-empty bucket, ascending.
  std::vector<std::pair<int64_t, int64_t>> buckets;

  /// Inclusive upper bound of the bucket containing the q-quantile sample
  /// (q in [0, 1]); 0 when empty. The true sample is <= this bound and
  /// >= half of it — the guarantee the tests pin down.
  int64_t QuantileUpperBound(double q) const;
  double Mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
};

/// Point-in-time copy of every metric in a registry, sorted by name.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, int64_t>> counters;
  std::vector<std::pair<std::string, int64_t>> gauges;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;

  /// Value of a named counter, or 0 when absent (convenience for tests).
  int64_t CounterValue(const std::string& name) const;

  /// `counter <name> <value>` / `histogram <name> count=... p50<=...` lines.
  void PrintText(std::ostream& os) const;
  /// {"counters":{...},"gauges":{...},"histograms":{name:{count,sum,
  /// buckets:[{le,count}]}}} — stable key order (sorted by name).
  std::string ToJson() const;
};

/// \brief Thread-safe name -> metric registry.
///
/// Get*() registers on first use and afterwards returns the same pointer
/// (stable for the registry's lifetime; metrics are never deleted, Reset()
/// only zeroes them). A name denotes one metric kind for the lifetime of
/// the registry; Get*() with the wrong kind returns nullptr.
class MetricsRegistry {
 public:
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  MetricsSnapshot Snapshot() const;
  /// Zeroes every registered metric (pointers stay valid).
  void Reset();

  /// The process-wide registry all built-in instrumentation reports to.
  static MetricsRegistry& Global();

 private:
  enum class Kind : uint8_t { kCounter, kGauge, kHistogram };
  struct Entry {
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry* FindOrCreate(const std::string& name, Kind kind);

  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;
};

/// Shorthands for the global registry, used at instrumentation sites:
///   static obs::Counter* hits = obs::GetCounter("fume.rowset_cache.hit");
///   hits->Inc();
Counter* GetCounter(const std::string& name);
Gauge* GetGauge(const std::string& name);
Histogram* GetHistogram(const std::string& name);

}  // namespace obs
}  // namespace fume

#endif  // FUME_OBS_METRICS_H_
