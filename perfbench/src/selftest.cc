// Self-tests of the benchmark's own code: percentile selection, span self
// time, and the write-sequence generator. Run before every workload and on
// their own with --selftest.

#include <cstdio>
#include <set>

#include "stats.h"
#include "workloads.h"
#include "write_sequence.h"

namespace perfbench {

namespace {

int g_failures = 0;

void Expect(bool cond, const char* what) {
  if (!cond) {
    ++g_failures;
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
  }
}

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void TestPercentiles() {
  // 100 samples: p90 is rank 90, with exactly ten samples above it; p99 has
  // one, so p90 is the highest percentile the sample supports.
  LatencySummary s = Summarize(OneTo(100));
  Expect(s.count == 100 && s.p50 == 50.5, "median of 1..100");
  Expect(s.tail_q == 0.90 && s.tail == 90 && s.beyond == 10,
         "100 samples report p90 with 10 beyond");
  // 99 samples: only nine above p90 -> no tail percentile.
  s = Summarize(OneTo(99));
  Expect(s.p50 == 50 && s.tail_q == 0.0, "99 samples report no tail");
  // 1000 samples: p99 (rank 990) has ten above it; p99.9 has one.
  s = Summarize(OneTo(1000));
  Expect(s.tail_q == 0.99 && s.tail == 990 && s.beyond == 10,
         "1000 samples report p99 with 10 beyond");
  // 10000 samples: p99.9 qualifies.
  s = Summarize(OneTo(10000));
  Expect(s.tail_q == 0.999 && s.tail == 9990 && s.beyond == 10,
         "10000 samples report p99.9 with 10 beyond");
  s = Summarize({});
  Expect(s.count == 0 && s.tail_q == 0.0, "empty sample");
  Expect(Median({3, 1, 2}) == 2 && Median({4, 1, 3, 2}) == 2.5, "median");
}

void TestSelfTime() {
  // Two evaluate workers' spans overlap inside [0, 100): their union
  // [10, 70) covers 60, so the parent's self time is 40, not 100 - 80.
  Expect(SelfTime({0, 100}, {{10, 50}, {30, 70}}) == 40,
         "overlapping children counted once");
  // A child sticking out of the parent only covers its inside part.
  Expect(SelfTime({0, 100}, {{10, 50}, {30, 70}, {90, 120}}) == 30,
         "child clipped to the parent");
  Expect(SelfTime({0, 100}, {{20, 40}, {20, 40}}) == 80, "identical children");
  Expect(SelfTime({0, 100}, {}) == 100, "no children");
  Expect(UnionLength({{0, 10}, {10, 20}, {25, 30}}) == 25, "adjacent union");
}

void TestWriteSequence() {
  constexpr int64_t kInitial = 50;
  constexpr int64_t kPool = 12;
  const WriteSequence a = MakeWriteSequence(7, kInitial, kPool, 300);
  const WriteSequence b = MakeWriteSequence(7, kInitial, kPool, 300);
  const WriteSequence c = MakeWriteSequence(8, kInitial, kPool, 300);
  bool same = a.requests.size() == b.requests.size();
  bool differs = false;
  for (size_t i = 0; same && i < a.requests.size(); ++i) {
    const WriteRequest& x = a.requests[i];
    const WriteRequest& y = b.requests[i];
    same = x.kind == y.kind && x.seq == y.seq && x.ids == y.ids &&
           x.pool_rows == y.pool_rows && x.live_after == y.live_after;
    differs = differs || x.ids != c.requests[i].ids;
  }
  Expect(same && a.final_live == b.final_live, "same seed gives the same ops");
  Expect(differs, "another seed gives other deletes");

  std::set<int64_t> live;
  for (int64_t id = 0; id < kInitial; ++id) live.insert(id);
  int64_t next_id = kInitial;
  int64_t expected_seq = 0;
  bool ok = true;
  for (size_t i = 0; i < a.requests.size(); ++i) {
    const WriteRequest& w = a.requests[i];
    if ((i + 1) % kCheckpointEvery == 0) {
      ok = ok && w.kind == WriteRequest::Kind::kCheckpoint;
    } else if (w.kind == WriteRequest::Kind::kInsert) {
      ok = ok && w.seq == expected_seq++ &&
           static_cast<int>(w.pool_rows.size()) == kWriteBatchRows;
      for (const int64_t r : w.pool_rows) ok = ok && r >= 0 && r < kPool;
      for (int k = 0; k < kWriteBatchRows; ++k) live.insert(next_id++);
      ok = ok && w.live_after == kInitial + kWriteBatchRows;
    } else {
      ok = ok && w.kind == WriteRequest::Kind::kDelete &&
           w.seq == expected_seq++ &&
           static_cast<int>(w.ids.size()) == kWriteBatchRows;
      // Every deleted id is alive when deleted, so the count stays fixed.
      for (const fume::RowId id : w.ids) ok = ok && live.erase(id) == 1;
      ok = ok && w.live_after == kInitial;
    }
    ok = ok && static_cast<int64_t>(live.size()) == w.live_after;
  }
  Expect(ok, "alternating inserts/deletes keep the live-row count constant");
  Expect(std::vector<fume::RowId>(live.begin(), live.end()) == a.final_live,
         "final live ids are the surviving ids in arrival order");
  Expect(a.inserted_pool_rows.size() ==
             static_cast<size_t>(next_id - kInitial),
         "every inserted row has a pool source");
}

}  // namespace

int RunSelfTests() {
  g_failures = 0;
  TestPercentiles();
  TestSelfTime();
  TestWriteSequence();
  return g_failures;
}

}  // namespace perfbench
