#include "obs/metrics.h"

#include <algorithm>
#include <sstream>

#include "util/json.h"

namespace fume {
namespace obs {

namespace {

int BitWidth(uint64_t v) {
  int w = 0;
  while (v != 0) {
    ++w;
    v >>= 1;
  }
  return w;
}

}  // namespace

int Histogram::BucketIndex(int64_t v) {
  if (v <= 0) return 0;
  const int w = BitWidth(static_cast<uint64_t>(v));
  return std::min(w, kNumBuckets - 1);
}

int64_t Histogram::BucketLowerBound(int bucket) {
  if (bucket <= 0) return 0;
  return int64_t{1} << (bucket - 1);
}

int64_t Histogram::BucketUpperBound(int bucket) {
  if (bucket <= 0) return 0;
  if (bucket >= kNumBuckets - 1) return INT64_MAX;
  return (int64_t{1} << bucket) - 1;
}

void Histogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

int64_t HistogramSnapshot::QuantileUpperBound(double q) const {
  if (count == 0 || buckets.empty()) return 0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the q-quantile sample, 1-based; q = 0 means the minimum.
  const int64_t rank = std::max<int64_t>(
      1, static_cast<int64_t>(q * static_cast<double>(count) + 0.5));
  int64_t seen = 0;
  for (const auto& [upper, n] : buckets) {
    seen += n;
    if (seen >= rank) return upper;
  }
  return buckets.back().first;
}

int64_t MetricsSnapshot::CounterValue(const std::string& name) const {
  for (const auto& [n, v] : counters) {
    if (n == name) return v;
  }
  return 0;
}

void MetricsSnapshot::PrintText(std::ostream& os) const {
  for (const auto& [name, value] : counters) {
    os << "counter " << name << " " << value << "\n";
  }
  for (const auto& [name, value] : gauges) {
    os << "gauge " << name << " " << value << "\n";
  }
  for (const auto& [name, h] : histograms) {
    os << "histogram " << name << " count=" << h.count << " sum=" << h.sum
       << " p50<=" << h.QuantileUpperBound(0.5)
       << " p90<=" << h.QuantileUpperBound(0.9)
       << " p99<=" << h.QuantileUpperBound(0.99) << "\n";
  }
}

namespace {

template <typename T, typename Fn>
void AppendJsonObject(const std::vector<std::pair<std::string, T>>& items,
                      std::ostream& os, Fn&& append_value) {
  os << '{';
  bool first = true;
  std::string key;
  for (const auto& [name, value] : items) {
    if (!first) os << ',';
    first = false;
    // Metric names are restricted to [a-z0-9._-] by convention, but escape
    // anyway so the output is always valid JSON.
    key.clear();
    util::AppendJsonString(&key, name);
    os << key << ':';
    append_value(value);
  }
  os << '}';
}

}  // namespace

std::string MetricsSnapshot::ToJson() const {
  std::ostringstream os;
  os << "{\"counters\":";
  AppendJsonObject(counters, os, [&](int64_t v) { os << v; });
  os << ",\"gauges\":";
  AppendJsonObject(gauges, os, [&](int64_t v) { os << v; });
  os << ",\"histograms\":";
  AppendJsonObject(histograms, os, [&](const HistogramSnapshot& h) {
    // Quantile *upper bounds* (log2-bucket resolution, see
    // QuantileUpperBound) so JSON consumers need not re-derive them from
    // the raw buckets.
    os << "{\"count\":" << h.count << ",\"sum\":" << h.sum
       << ",\"p50\":" << h.QuantileUpperBound(0.5)
       << ",\"p90\":" << h.QuantileUpperBound(0.9)
       << ",\"p99\":" << h.QuantileUpperBound(0.99) << ",\"buckets\":[";
    bool first = true;
    for (const auto& [upper, n] : h.buckets) {
      if (!first) os << ',';
      first = false;
      os << "{\"le\":" << upper << ",\"count\":" << n << "}";
    }
    os << "]}";
  });
  os << '}';
  return os.str();
}

MetricsRegistry::Entry* MetricsRegistry::FindOrCreate(const std::string& name,
                                                      Kind kind) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    Entry entry;
    entry.kind = kind;
    switch (kind) {
      case Kind::kCounter: entry.counter = std::make_unique<Counter>(); break;
      case Kind::kGauge: entry.gauge = std::make_unique<Gauge>(); break;
      case Kind::kHistogram:
        entry.histogram = std::make_unique<Histogram>();
        break;
    }
    it = entries_.emplace(name, std::move(entry)).first;
  }
  return it->second.kind == kind ? &it->second : nullptr;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  Entry* e = FindOrCreate(name, Kind::kCounter);
  return e == nullptr ? nullptr : e->counter.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  Entry* e = FindOrCreate(name, Kind::kGauge);
  return e == nullptr ? nullptr : e->gauge.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  Entry* e = FindOrCreate(name, Kind::kHistogram);
  return e == nullptr ? nullptr : e->histogram.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snapshot;
  for (const auto& [name, entry] : entries_) {
    switch (entry.kind) {
      case Kind::kCounter:
        snapshot.counters.emplace_back(name, entry.counter->Value());
        break;
      case Kind::kGauge:
        snapshot.gauges.emplace_back(name, entry.gauge->Value());
        break;
      case Kind::kHistogram: {
        HistogramSnapshot h;
        h.count = entry.histogram->Count();
        h.sum = entry.histogram->Sum();
        for (int b = 0; b < Histogram::kNumBuckets; ++b) {
          const int64_t n =
              entry.histogram->buckets_[b].load(std::memory_order_relaxed);
          if (n > 0) {
            h.buckets.emplace_back(Histogram::BucketUpperBound(b), n);
          }
        }
        snapshot.histograms.emplace_back(name, std::move(h));
        break;
      }
    }
  }
  return snapshot;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, entry] : entries_) {
    switch (entry.kind) {
      case Kind::kCounter: entry.counter->Reset(); break;
      case Kind::kGauge: entry.gauge->Reset(); break;
      case Kind::kHistogram: entry.histogram->Reset(); break;
    }
  }
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter* GetCounter(const std::string& name) {
  return MetricsRegistry::Global().GetCounter(name);
}

Gauge* GetGauge(const std::string& name) {
  return MetricsRegistry::Global().GetGauge(name);
}

Histogram* GetHistogram(const std::string& name) {
  return MetricsRegistry::Global().GetHistogram(name);
}

}  // namespace obs
}  // namespace fume
