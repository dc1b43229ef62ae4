#include "stats.h"

#include <algorithm>
#include <cmath>

#include "common.h"

namespace perfbench {

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

namespace {

size_t RankIndex(size_t n, double q) {
  const double rank = std::ceil(q * static_cast<double>(n));
  return static_cast<size_t>(std::max(1.0, rank)) - 1;
}

}  // namespace

LatencySummary Summarize(std::vector<double> values) {
  LatencySummary s;
  s.count = static_cast<int64_t>(values.size());
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  s.p50 = Median(values);
  for (const double q : {0.999, 0.99, 0.90}) {
    const int64_t beyond =
        s.count - 1 - static_cast<int64_t>(RankIndex(values.size(), q));
    if (beyond >= 10) {
      s.tail_q = q;
      s.tail = values[RankIndex(values.size(), q)];
      s.beyond = beyond;
      break;
    }
  }
  return s;
}

std::string FormatSummary(const LatencySummary& s, const std::string& unit) {
  std::string out = "p50 " + Fmt(s.p50, 3) + " " + unit;
  if (s.tail_q > 0.0) {
    const std::string label = s.tail_q >= 0.999  ? "p99.9"
                              : s.tail_q >= 0.99 ? "p99"
                                                 : "p90";
    out += ", " + label + " " + Fmt(s.tail, 3) + " " + unit + " (" +
           std::to_string(s.beyond) + " beyond)";
  } else {
    out += ", no tail percentile has 10 samples beyond it";
  }
  out += ", n=" + std::to_string(s.count);
  return out;
}

int64_t UnionLength(std::vector<Interval> intervals) {
  std::sort(intervals.begin(), intervals.end());
  int64_t total = 0;
  int64_t cur_start = 0;
  int64_t cur_end = 0;
  bool open = false;
  for (const Interval& iv : intervals) {
    if (iv.second <= iv.first) continue;
    if (!open || iv.first > cur_end) {
      if (open) total += cur_end - cur_start;
      cur_start = iv.first;
      cur_end = iv.second;
      open = true;
    } else {
      cur_end = std::max(cur_end, iv.second);
    }
  }
  if (open) total += cur_end - cur_start;
  return total;
}

int64_t SelfTime(const Interval& parent,
                 const std::vector<Interval>& children) {
  std::vector<Interval> clipped;
  clipped.reserve(children.size());
  for (const Interval& c : children) {
    clipped.emplace_back(std::max(c.first, parent.first),
                         std::min(c.second, parent.second));
  }
  return (parent.second - parent.first) - UnionLength(std::move(clipped));
}

}  // namespace perfbench
