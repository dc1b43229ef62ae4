#include "spans.h"

#include <algorithm>
#include <fstream>

#include "common.h"

namespace perfbench {

void SpanRecorder::Record(const Span& span) {
  std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back(span);
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lk(mu_);
  return spans_;
}

bool SpanRecorder::WriteJson(const std::string& path) const {
  std::vector<Span> all = spans();
  std::sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
    return a.start_ns < b.start_ns;
  });
  const int64_t origin = all.empty() ? 0 : all.front().start_ns;
  std::ofstream out(path);
  out << "{\"spans\":[";
  for (size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    out << (i == 0 ? "" : ",") << "\n{\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"request\":" << s.request
        << ",\"name\":\"" << s.name << "\",\"start_ns\":"
        << s.start_ns - origin << ",\"end_ns\":" << s.end_ns - origin << "}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

ScopedSpan::ScopedSpan(SpanRecorder* recorder, const char* name,
                       int64_t parent, int64_t request)
    : recorder_(recorder) {
  if (recorder_ == nullptr) return;
  span_.id = recorder_->NewId();
  span_.parent = parent;
  span_.request = request;
  span_.name = name;
  span_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (recorder_ == nullptr) return;
  span_.end_ns = NowNs();
  recorder_->Record(span_);
}

}  // namespace perfbench
