// Tests for src/util: Status/Result, keyed hashing, Rng, string helpers and
// the table printer.

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>

#include "util/result.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace fume {
namespace {

// --------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
  EXPECT_TRUE(st.message().empty());
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::Invalid("bad knob");
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsInvalid());
  EXPECT_EQ(st.message(), "bad knob");
  EXPECT_EQ(st.ToString(), "Invalid argument: bad knob");
}

TEST(StatusTest, CopyPreservesState) {
  Status st = Status::IOError("disk gone");
  Status copy = st;
  EXPECT_TRUE(copy.IsIOError());
  EXPECT_EQ(copy.message(), "disk gone");
  // Copy-assign over an error.
  Status ok;
  copy = ok;
  EXPECT_TRUE(copy.ok());
}

TEST(StatusTest, AllFactoriesMatchPredicates) {
  EXPECT_TRUE(Status::KeyError("k").IsKeyError());
  EXPECT_TRUE(Status::IndexError("i").IsIndexError());
  EXPECT_TRUE(Status::NotImplemented("n").IsNotImplemented());
  EXPECT_TRUE(Status::Internal("x").IsInternal());
}

Status FailsThenPropagates() {
  FUME_RETURN_NOT_OK(Status::Invalid("inner"));
  return Status::OK();
}

TEST(StatusTest, ReturnNotOkPropagates) {
  EXPECT_TRUE(FailsThenPropagates().IsInvalid());
}

// --------------------------------------------------------------- Result

Result<int> ParsePositive(int x) {
  if (x <= 0) return Status::Invalid("not positive");
  return x;
}

Result<int> DoublePositive(int x) {
  FUME_ASSIGN_OR_RETURN(int v, ParsePositive(x));
  return v * 2;
}

TEST(ResultTest, ValueRoundTrip) {
  Result<int> r = ParsePositive(21);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 21);
}

TEST(ResultTest, ErrorRoundTrip) {
  Result<int> r = ParsePositive(-3);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalid());
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(*DoublePositive(5), 10);
  EXPECT_FALSE(DoublePositive(0).ok());
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(7);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).ValueOrDie();
  EXPECT_EQ(*v, 7);
}

// --------------------------------------------------------------- Hashing

TEST(HashTest, Mix64IsDeterministicAndSpreads) {
  EXPECT_EQ(Mix64(42), Mix64(42));
  EXPECT_NE(Mix64(42), Mix64(43));
  // Consecutive inputs should not produce consecutive outputs.
  EXPECT_GT(std::abs(static_cast<int64_t>(Mix64(1) - Mix64(0))), 1000);
}

TEST(HashTest, Hash64OrderSensitivity) {
  EXPECT_NE(Hash64({1, 2}), Hash64({2, 1}));
  EXPECT_NE(Hash64({1}), Hash64({1, 0}));
  EXPECT_EQ(Hash64({5, 6, 7}), Hash64({5, 6, 7}));
}

// --------------------------------------------------------------- Rng

TEST(RngTest, DeterministicBySeed) {
  Rng a(123), b(123), c(124);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(RngTest, NextBoundedStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(9);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double v = rng.NextDouble();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(11);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.NextBernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
  EXPECT_FALSE(rng.NextBernoulli(0.0));
  EXPECT_TRUE(rng.NextBernoulli(1.0));
}

TEST(RngTest, GaussianMoments) {
  Rng rng(13);
  double sum = 0, sum2 = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double g = rng.NextGaussian();
    sum += g;
    sum2 += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

TEST(RngTest, SampleWithoutReplacementIsDistinctSorted) {
  Rng rng(15);
  for (int rep = 0; rep < 50; ++rep) {
    auto sample = rng.SampleWithoutReplacement(30, 10);
    ASSERT_EQ(sample.size(), 10u);
    std::set<int> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), 10u);
    EXPECT_TRUE(std::is_sorted(sample.begin(), sample.end()));
    for (int v : sample) EXPECT_TRUE(v >= 0 && v < 30);
  }
}

TEST(RngTest, WeightedRespectsWeights) {
  Rng rng(17);
  std::vector<double> weights = {1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 20000; ++i) ++counts[rng.NextWeighted(weights)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(counts[2] / 20000.0, 0.75, 0.02);
}

TEST(RngTest, ShufflePermutes) {
  Rng rng(19);
  std::vector<int> v = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::vector<int> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, orig);
}

// --------------------------------------------------------------- Strings

TEST(StringTest, SplitKeepsEmptyFields) {
  auto parts = Split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[1], "");
}

TEST(StringTest, SplitSingleField) {
  auto parts = Split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(StringTest, TrimBothEnds) {
  EXPECT_EQ(Trim("  hi \t"), "hi");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
}

TEST(StringTest, JoinWithSeparator) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringTest, ParseDoubleStrict) {
  double v;
  EXPECT_TRUE(ParseDouble("3.25", &v));
  EXPECT_DOUBLE_EQ(v, 3.25);
  EXPECT_TRUE(ParseDouble("  -1e3 ", &v));
  EXPECT_FALSE(ParseDouble("3.2x", &v));
  EXPECT_FALSE(ParseDouble("", &v));
}

TEST(StringTest, ParseIntStrict) {
  int v;
  EXPECT_TRUE(ParseInt("42", &v));
  EXPECT_EQ(v, 42);
  EXPECT_FALSE(ParseInt("42.5", &v));
  EXPECT_FALSE(ParseInt("four", &v));
  // Values that do not fit are rejected, never wrapped or truncated.
  EXPECT_TRUE(ParseInt("2147483647", &v));
  EXPECT_EQ(v, 2147483647);
  EXPECT_TRUE(ParseInt("-2147483648", &v));
  EXPECT_EQ(v, -2147483647 - 1);
  EXPECT_FALSE(ParseInt("2147483648", &v));   // INT_MAX + 1
  EXPECT_FALSE(ParseInt("-2147483649", &v));  // INT_MIN - 1
  EXPECT_FALSE(ParseInt("4294967297", &v));   // would wrap to 1
  EXPECT_EQ(v, -2147483647 - 1);              // untouched on failure

  int64_t l = 0;
  EXPECT_TRUE(ParseInt64("9223372036854775807", &l));
  EXPECT_EQ(l, INT64_MAX);
  EXPECT_TRUE(ParseInt64(" -9223372036854775808 ", &l));
  EXPECT_EQ(l, INT64_MIN);
  EXPECT_FALSE(ParseInt64("9223372036854775808", &l));  // INT64_MAX + 1
  EXPECT_FALSE(ParseInt64("-9223372036854775809", &l));
  EXPECT_FALSE(ParseInt64("12x", &l));
  EXPECT_FALSE(ParseInt64("", &l));

  uint64_t u = 0;
  EXPECT_TRUE(ParseUint64("18446744073709551615", &u));
  EXPECT_EQ(u, UINT64_MAX);
  EXPECT_TRUE(ParseUint64("4294967301", &u));
  EXPECT_EQ(u, 4294967301u);
  EXPECT_FALSE(ParseUint64("18446744073709551616", &u));  // UINT64_MAX + 1
  EXPECT_FALSE(ParseUint64("-1", &u));  // strtoull would wrap it
  EXPECT_FALSE(ParseUint64(" -0", &u));
  EXPECT_FALSE(ParseUint64("1.5", &u));
}

TEST(StringTest, Formatting) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatPercent(0.127), "12.70%");
  EXPECT_EQ(FormatPercent(1.0, 0), "100%");
}

// --------------------------------------------------------------- Table

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter table({"A", "LongHeader"});
  table.AddRow({"xxxx", "y"});
  const std::string out = table.ToString();
  // Every line has the same width.
  std::istringstream iss(out);
  std::string line;
  size_t width = 0;
  while (std::getline(iss, line)) {
    if (width == 0) width = line.size();
    EXPECT_EQ(line.size(), width);
  }
  EXPECT_NE(out.find("xxxx"), std::string::npos);
}

TEST(TablePrinterTest, PadsShortRows) {
  TablePrinter table({"A", "B", "C"});
  table.AddRow({"1"});
  EXPECT_EQ(table.num_rows(), 1u);
  EXPECT_NE(table.ToString().find("| 1 |"), std::string::npos);
}

}  // namespace
}  // namespace fume
