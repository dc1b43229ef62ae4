// Order statistics and interval arithmetic for the benchmark's reports.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Median (mean of the two middle values for an even count); 0 when empty.
double Median(std::vector<double> values);

/// A latency sample summarized by its median plus the highest of p90 / p99 /
/// p99.9 that still has at least ten samples above it (none when the sample
/// is too small), so no reported tail rests on a handful of samples. Percentiles
/// are nearest-rank: the value at 0-based index ceil(q * n) - 1.
struct LatencySummary {
  int64_t count = 0;
  double p50 = 0.0;
  /// 0 when no tail percentile has ten samples beyond it.
  double tail_q = 0.0;
  double tail = 0.0;
  /// Samples strictly above the tail percentile's rank.
  int64_t beyond = 0;
};
LatencySummary Summarize(std::vector<double> values);

/// "p50 1.234 ms, p99 5.678 ms (12 beyond), n=1200".
std::string FormatSummary(const LatencySummary& s, const std::string& unit);

/// Half-open time interval [first, second) in nanoseconds.
using Interval = std::pair<int64_t, int64_t>;

/// Length of the union of the intervals (overlaps counted once).
int64_t UnionLength(std::vector<Interval> intervals);

/// A span's self time: its duration minus the part of [start, end) that
/// its children cover. Children may overlap each other (parallel workers)
/// and may stick out of the parent; only the covered part inside counts.
int64_t SelfTime(const Interval& parent, const std::vector<Interval>& children);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
