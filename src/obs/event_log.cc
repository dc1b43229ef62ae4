#include "obs/event_log.h"

#include <chrono>
#include <cstdio>

#include "util/json.h"

namespace fume {
namespace obs {

namespace {

int64_t UnixMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

// `,"key":` — keys are plain identifiers and are not escaped.
void AppendKey(std::string* line, const char* key) {
  line->append(",\"");
  line->append(key);
  line->append("\":");
}

}  // namespace

EventLog::EventLog(const std::string& path) {
  if (!path.empty()) out_.open(path);
}

EventLog::Builder::Builder(EventLog* log, const std::string& event)
    : log_(log), line_("\"event\":") {
  util::AppendJsonString(&line_, event);
}

EventLog::Builder& EventLog::Builder::Field(const char* key,
                                            const std::string& value) {
  AppendKey(&line_, key);
  util::AppendJsonString(&line_, value);
  return *this;
}

EventLog::Builder& EventLog::Builder::Field(const char* key,
                                            const char* value) {
  return Field(key, std::string(value));
}

EventLog::Builder& EventLog::Builder::Field(const char* key, int64_t value) {
  AppendKey(&line_, key);
  line_.append(std::to_string(value));
  return *this;
}

EventLog::Builder& EventLog::Builder::Field(const char* key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  AppendKey(&line_, key);
  line_.append(buf);
  return *this;
}

EventLog::Builder& EventLog::Builder::Field(const char* key, bool value) {
  AppendKey(&line_, key);
  line_.append(value ? "true" : "false");
  return *this;
}

EventLog::Builder& EventLog::Builder::Field(const char* key,
                                            const QueryCost& cost) {
  AppendKey(&line_, key);
  line_.append(cost.ToJson());
  return *this;
}

void EventLog::Builder::Write() {
  if (log_ == nullptr) return;
  log_->WriteLine(line_);
  log_ = nullptr;
}

EventLog::Builder EventLog::Event(const std::string& event) {
  return Builder(ok() ? this : nullptr, event);
}

void EventLog::WriteLine(const std::string& body) {
  const int64_t ts_us = UnixMicros();
  std::lock_guard<std::mutex> lock(mu_);
  const int64_t seq = seq_.fetch_add(1, std::memory_order_relaxed);
  out_ << "{\"seq\":" << seq << ",\"ts_us\":" << ts_us << ',' << body
       << "}\n";
  out_.flush();
}

}  // namespace obs
}  // namespace fume
