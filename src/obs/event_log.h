// Structured JSONL event log for operational timelines.
//
// Metrics (obs/metrics.h) aggregate; traces (obs/trace.h) profile one run
// under a viewer. The event log sits between them: an append-only file of
// one JSON object per line — one line per discrete operation the process
// performed (a FUME search, a stream op, a checkpoint) with that
// operation's QueryScope cost summary embedded. JSONL is greppable,
// tail-able, and trivially ingested by jq / pandas / log shippers, which
// is the access pattern an audit trail needs.
//
// Usage:
//
//   obs::EventLog log("events.jsonl");
//   log.Event("search")
//       .Field("dataset", path)
//       .Field("top_k", 5)
//       .Field("cost", scope.Finish())
//       .Write();
//
// Every line carries "seq" (per-log monotone sequence) and "ts_us"
// (wall-clock unix micros). Writes are mutex-serialized so concurrent
// emitters interleave whole lines, never fragments. A default-constructed
// or failed-to-open log swallows events (ok() reports which).

#ifndef FUME_OBS_EVENT_LOG_H_
#define FUME_OBS_EVENT_LOG_H_

#include <atomic>
#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>

#include "obs/query_scope.h"

namespace fume {
namespace obs {

class EventLog {
 public:
  /// Disabled sink: Event(...).Write() is a no-op, ok() is false.
  EventLog() = default;
  /// Opens `path` for writing (truncates any previous log). An empty path
  /// yields a disabled sink, so CLIs can construct one unconditionally
  /// from an optional --event-log flag.
  explicit EventLog(const std::string& path);

  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;

  /// True when the log is backed by a healthy output file.
  bool ok() const { return static_cast<bool>(out_) && out_.is_open(); }

  /// Number of lines written so far (for tests).
  int64_t lines_written() const {
    return seq_.load(std::memory_order_relaxed);
  }

  /// \brief One pending line, filled field-by-field, emitted by Write().
  ///
  /// Field ordering in the output matches call order, after the standard
  /// "seq"/"ts_us"/"event" prefix. Keys must be plain identifiers (they
  /// are not escaped); string values are JSON-escaped.
  class Builder {
   public:
    Builder(Builder&&) = default;

    Builder& Field(const char* key, const std::string& value);
    Builder& Field(const char* key, const char* value);
    Builder& Field(const char* key, int64_t value);
    Builder& Field(const char* key, int value) {
      return Field(key, static_cast<int64_t>(value));
    }
    Builder& Field(const char* key, size_t value) {
      return Field(key, static_cast<int64_t>(value));
    }
    Builder& Field(const char* key, double value);
    Builder& Field(const char* key, bool value);
    /// Embeds the cost report as a nested object (QueryCost::ToJson).
    Builder& Field(const char* key, const QueryCost& cost);

    /// Appends the line (with trailing '\n') and flushes. Call exactly
    /// once; a Builder dropped without Write() emits nothing.
    void Write();

   private:
    friend class EventLog;
    Builder(EventLog* log, const std::string& event);

    EventLog* log_;  // nullptr once written or when the log is disabled
    std::string line_;
  };

  /// Starts a line with `"event":"<event>"`.
  Builder Event(const std::string& event);

 private:
  friend class Builder;
  void WriteLine(const std::string& body);

  std::ofstream out_;
  std::mutex mu_;  // serializes WriteLine
  std::atomic<int64_t> seq_{0};
};

}  // namespace obs
}  // namespace fume

#endif  // FUME_OBS_EVENT_LOG_H_
