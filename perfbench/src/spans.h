// The benchmark's own trace: spans recorded around each call the benchmark
// makes into a layer (the program's obs tracing stays off). Spans are kept
// in memory and written out once, when the run ends.

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  int64_t id = 0;
  /// 0 = root.
  int64_t parent = 0;
  /// Spans serving one request (or one audit) share this identifier.
  int64_t request = 0;
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

class SpanRecorder {
 public:
  /// Reserves an id, so children can name a parent still in flight.
  int64_t NewId() { return next_id_.fetch_add(1) + 1; }
  void Record(const Span& span);
  std::vector<Span> spans() const;
  /// Writes {"spans":[...]} with times relative to the first span.
  bool WriteJson(const std::string& path) const;

 private:
  std::atomic<int64_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// Records [construction, destruction) as one span; a no-op without a
/// recorder, so untraced code paths pay one branch.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, int64_t parent,
             int64_t request);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t id() const { return span_.id; }

 private:
  SpanRecorder* recorder_;
  Span span_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
