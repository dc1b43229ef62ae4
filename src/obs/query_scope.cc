#include "obs/query_scope.h"

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <ctime>
#include <sstream>

#include "util/check.h"

namespace fume {
namespace obs {

namespace internal {

constinit thread_local ScopeHook* tls_scope = nullptr;

namespace {

int64_t WallNowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t ThreadCpuNanos() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 +
         static_cast<int64_t>(ts.tv_nsec);
#else
  return 0;
#endif
}

}  // namespace

void ScopeCounterAdd(ScopeHook* hook, const Counter* counter, int64_t n) {
  // The chain walk makes an outer scope's report include everything its
  // inner scopes attributed — the natural containment semantics when a
  // query issues sub-operations that are themselves scoped.
  for (ScopeHook* h = hook; h != nullptr; h = h->parent) {
    for (int i = 0; i < h->num_counters; ++i) {
      if (h->counters[i] == counter) {
        h->counter_deltas[i].fetch_add(n, std::memory_order_relaxed);
        break;
      }
    }
  }
}

void ScopeHistogramRecord(ScopeHook* hook, const Histogram* histogram,
                          int64_t value) {
  for (ScopeHook* h = hook; h != nullptr; h = h->parent) {
    for (int i = 0; i < h->num_histograms; ++i) {
      if (h->histograms[i] == histogram) {
        h->histogram_counts[i].fetch_add(1, std::memory_order_relaxed);
        h->histogram_sums[i].fetch_add(value, std::memory_order_relaxed);
        break;
      }
    }
  }
}

ScopeAttachGuard::ScopeAttachGuard(ScopeHook* hook)
    : hook_(hook), saved_(nullptr) {
  if (hook_ == nullptr) return;
  saved_ = tls_scope;
  tls_scope = hook_;
  cpu_start_ns_ = ThreadCpuNanos();
}

ScopeAttachGuard::~ScopeAttachGuard() {
  if (hook_ == nullptr) return;
  const int64_t cpu_ns = ThreadCpuNanos() - cpu_start_ns_;
  for (ScopeHook* h = hook_; h != nullptr; h = h->parent) {
    h->worker_cpu_ns.fetch_add(cpu_ns, std::memory_order_relaxed);
  }
  tls_scope = saved_;
}

}  // namespace internal

int64_t QueryCost::CounterDelta(const std::string& name) const {
  for (const QueryCounterDelta& c : counters) {
    if (c.name == name) return c.delta;
  }
  return 0;
}

namespace {

void AppendMicrosField(const char* key, double seconds, std::ostream& os) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "\"%s\":%.1f", key, seconds * 1e6);
  os << buf;
}

}  // namespace

std::string QueryCost::ToJson() const {
  std::ostringstream os;
  os << "{\"label\":\"" << label << "\",";
  AppendMicrosField("wall_us", wall_seconds, os);
  os << ',';
  AppendMicrosField("cpu_us", cpu_seconds, os);
  os << ",\"counters\":{";
  bool first = true;
  for (const QueryCounterDelta& c : counters) {
    if (c.delta == 0) continue;
    if (!first) os << ',';
    first = false;
    os << '"' << c.name << "\":" << c.delta;
  }
  os << "},\"histograms\":{";
  first = true;
  for (const QueryHistogramDelta& h : histograms) {
    if (h.count == 0) continue;
    if (!first) os << ',';
    first = false;
    os << '"' << h.name << "\":{\"count\":" << h.count << ",\"sum\":" << h.sum
       << '}';
  }
  os << "}}";
  return os.str();
}

std::string QueryCost::CompactString() const {
  std::ostringstream os;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "wall %.1fms cpu %.1fms",
                wall_seconds * 1e3, cpu_seconds * 1e3);
  os << buf;
  bool any = false;
  for (const QueryCounterDelta& c : counters) {
    if (c.delta == 0) continue;
    os << (any ? " " : " | ") << c.name << '=' << c.delta;
    any = true;
  }
  for (const QueryHistogramDelta& h : histograms) {
    if (h.count == 0) continue;
    os << (any ? " " : " | ") << h.name << "=" << h.sum << "/" << h.count;
    any = true;
  }
  return os.str();
}

void QueryCost::PrintText(std::ostream& os) const {
  char buf[96];
  std::snprintf(buf, sizeof(buf),
                "query %s: wall %.3f ms, thread-cpu %.3f ms\n", label.c_str(),
                wall_seconds * 1e3, cpu_seconds * 1e3);
  os << buf;
  for (const QueryCounterDelta& c : counters) {
    if (c.delta != 0) os << "  " << c.name << " +" << c.delta << "\n";
  }
  for (const QueryHistogramDelta& h : histograms) {
    if (h.count != 0) {
      os << "  " << h.name << " count+" << h.count << " sum+" << h.sum << "\n";
    }
  }
}

const std::vector<std::string>& QueryScope::DefaultCounters() {
  static const std::vector<std::string>* names = new std::vector<std::string>{
      "fume.search.evaluations",
      "fume.search.explored_subsets",
      "fume.prune.rule1_contradiction",
      "fume.prune.rule2_support_low",
      "fume.prune.rule2_support_high",
      "fume.prune.rule3_unexpanded",
      "fume.prune.rule4_parent",
      "fume.prune.rule5_nonpositive",
      "fume.rowset_cache.hit",
      "fume.rowset_cache.miss",
      "forest.unlearn.rows_deleted",
      "forest.unlearn.subtrees_retrained",
      "forest.unlearn.rows_retrained",
      "forest.unlearn.cow_nodes_copied",
      "forest.add.rows_added",
      "removal.unlearn.cow_rows_rescored",
      "lattice.rowset.derived",
      "lattice.rowset.scratch",
      "pool.jobs_dispatched",
      "stream.predcache.trees_rewalked",
      "stream.predcache.rows_rewalked",
      "stream.rows.inserted",
      "stream.rows.deleted",
  };
  return *names;
}

const std::vector<std::string>& QueryScope::DefaultHistograms() {
  static const std::vector<std::string>* names = new std::vector<std::string>{
      "removal.unlearn.rows_per_evaluation",
  };
  return *names;
}

QueryScope::QueryScope(std::string label)
    : QueryScope(std::move(label), DefaultCounters(), DefaultHistograms()) {}

QueryScope::QueryScope(std::string label,
                       const std::vector<std::string>& counter_names,
                       const std::vector<std::string>& histogram_names)
    : label_(std::move(label)), hook_(new internal::ScopeHook()) {
  for (const std::string& name : counter_names) {
    if (hook_->num_counters >= internal::ScopeHook::kMaxTracked) break;
    Counter* counter = GetCounter(name);
    if (counter == nullptr) continue;  // name registered as another kind
    counter_names_.push_back(name);
    hook_->counters[hook_->num_counters++] = counter;
  }
  for (const std::string& name : histogram_names) {
    if (hook_->num_histograms >= internal::ScopeHook::kMaxTracked) break;
    Histogram* histogram = GetHistogram(name);
    if (histogram == nullptr) continue;
    histogram_names_.push_back(name);
    hook_->histograms[hook_->num_histograms++] = histogram;
  }
  hook_->parent = internal::tls_scope;
  internal::tls_scope = hook_.get();
  wall_start_ns_ = internal::WallNowNanos();
  cpu_start_ns_ = internal::ThreadCpuNanos();
}

QueryScope::~QueryScope() { Finish(); }

QueryCost QueryScope::Finish() {
  if (finished_) return cost_;
  finished_ = true;
  // LIFO discipline: this scope must still be the innermost on its owning
  // thread (Finish from a different thread or out of order would corrupt
  // the chain).
  FUME_CHECK(internal::tls_scope == hook_.get());
  const int64_t own_cpu_ns = internal::ThreadCpuNanos() - cpu_start_ns_;
  const int64_t wall_ns = internal::WallNowNanos() - wall_start_ns_;
  internal::tls_scope = hook_->parent;
  // Credit this scope's own-thread CPU to enclosing scopes too, mirroring
  // what a nested Counter::Inc does via the chain walk.
  for (internal::ScopeHook* h = hook_->parent; h != nullptr; h = h->parent) {
    h->worker_cpu_ns.fetch_add(own_cpu_ns, std::memory_order_relaxed);
  }

  cost_.label = label_;
  cost_.wall_seconds = static_cast<double>(wall_ns) * 1e-9;
  cost_.cpu_seconds =
      static_cast<double>(
          own_cpu_ns + hook_->worker_cpu_ns.load(std::memory_order_relaxed)) *
      1e-9;
  cost_.counters.reserve(counter_names_.size());
  for (size_t i = 0; i < counter_names_.size(); ++i) {
    cost_.counters.push_back(
        {counter_names_[i],
         hook_->counter_deltas[i].load(std::memory_order_relaxed)});
  }
  cost_.histograms.reserve(histogram_names_.size());
  for (size_t i = 0; i < histogram_names_.size(); ++i) {
    cost_.histograms.push_back(
        {histogram_names_[i],
         hook_->histogram_counts[i].load(std::memory_order_relaxed),
         hook_->histogram_sums[i].load(std::memory_order_relaxed)});
  }
  return cost_;
}

}  // namespace obs
}  // namespace fume
