// Tests for src/data: schema, dataset storage/selection, CSV round trips,
// discretizer binning and train/test splitting.

#include <gtest/gtest.h>

#include <sstream>

#include "data/csv.h"
#include "data/dataset.h"
#include "data/discretizer.h"
#include "data/schema.h"
#include "data/split.h"

namespace fume {
namespace {

Schema TwoAttrSchema() {
  Schema schema;
  EXPECT_TRUE(schema.AddCategorical("color", {"red", "green", "blue"}).ok());
  EXPECT_TRUE(schema.AddCategorical("size", {"S", "L"}).ok());
  return schema;
}

// --------------------------------------------------------------- Schema

TEST(SchemaTest, AddAndFind) {
  Schema schema = TwoAttrSchema();
  EXPECT_EQ(schema.num_attributes(), 2);
  EXPECT_EQ(*schema.FindAttribute("size"), 1);
  EXPECT_TRUE(schema.FindAttribute("nope").status().IsKeyError());
  EXPECT_TRUE(schema.AllCategorical());
}

TEST(SchemaTest, RejectsDuplicatesAndEmpty) {
  Schema schema = TwoAttrSchema();
  EXPECT_TRUE(schema.AddCategorical("color", {"x"}).IsInvalid());
  EXPECT_TRUE(schema.AddCategorical("", {"x"}).IsInvalid());
  EXPECT_TRUE(schema.AddCategorical("empty", {}).IsInvalid());
}

TEST(SchemaTest, NumericBreaksAllCategorical) {
  Schema schema = TwoAttrSchema();
  ASSERT_TRUE(schema.AddNumeric("weight").ok());
  EXPECT_FALSE(schema.AllCategorical());
}

TEST(SchemaTest, FindCategory) {
  Schema schema = TwoAttrSchema();
  EXPECT_EQ(schema.attribute(0).FindCategory("green"), 1);
  EXPECT_EQ(schema.attribute(0).FindCategory("purple"), -1);
}

TEST(SchemaTest, Equals) {
  Schema a = TwoAttrSchema();
  Schema b = TwoAttrSchema();
  EXPECT_TRUE(a.Equals(b));
  b.set_label_name("other");
  EXPECT_FALSE(a.Equals(b));
}

// --------------------------------------------------------------- Dataset

Dataset SmallDataset() {
  Dataset data(TwoAttrSchema());
  // (color, size) -> label
  EXPECT_TRUE(data.AppendRow({0, 0}, 1).ok());
  EXPECT_TRUE(data.AppendRow({1, 1}, 0).ok());
  EXPECT_TRUE(data.AppendRow({2, 0}, 1).ok());
  EXPECT_TRUE(data.AppendRow({0, 1}, 0).ok());
  return data;
}

TEST(DatasetTest, AppendAndAccess) {
  Dataset data = SmallDataset();
  EXPECT_EQ(data.num_rows(), 4);
  EXPECT_EQ(data.Code(2, 0), 2);
  EXPECT_EQ(data.Label(2), 1);
  EXPECT_EQ(data.CellToString(1, 0), "green");
  EXPECT_TRUE(data.Validate().ok());
}

TEST(DatasetTest, RejectsBadRows) {
  Dataset data(TwoAttrSchema());
  EXPECT_TRUE(data.AppendRow({0}, 1).IsInvalid());          // wrong width
  EXPECT_TRUE(data.AppendRow({0, 5}, 1).IsInvalid());       // code range
  EXPECT_TRUE(data.AppendRow({0, 0}, 2).IsInvalid());       // label range
  EXPECT_EQ(data.num_rows(), 0);
}

TEST(DatasetTest, PositiveAndBaseRates) {
  Dataset data = SmallDataset();
  EXPECT_DOUBLE_EQ(data.PositiveRate(), 0.5);
  // size == S rows: {0, 2}, both positive.
  EXPECT_DOUBLE_EQ(data.BaseRate(1, 0), 1.0);
  EXPECT_DOUBLE_EQ(data.BaseRate(1, 1), 0.0);
  EXPECT_DOUBLE_EQ(data.GroupFraction(1, 0), 0.5);
}

TEST(DatasetTest, SelectPreservesOrder) {
  Dataset data = SmallDataset();
  Dataset sel = data.Select({3, 0});
  ASSERT_EQ(sel.num_rows(), 2);
  EXPECT_EQ(sel.Code(0, 0), 0);
  EXPECT_EQ(sel.Label(0), 0);
  EXPECT_EQ(sel.Label(1), 1);
}

TEST(DatasetTest, DropRowsToleratesDuplicates) {
  Dataset data = SmallDataset();
  Dataset dropped = data.DropRows({1, 1, 3});
  ASSERT_EQ(dropped.num_rows(), 2);
  EXPECT_EQ(dropped.Label(0), 1);
  EXPECT_EQ(dropped.Label(1), 1);
}

TEST(DatasetTest, WithPermutedColumnOnlyTouchesThatColumn) {
  Dataset data = SmallDataset();
  Dataset perm = data.WithPermutedColumn(0, {3, 2, 1, 0});
  EXPECT_EQ(perm.Code(0, 0), data.Code(3, 0));
  EXPECT_EQ(perm.Code(3, 0), data.Code(0, 0));
  for (int64_t r = 0; r < 4; ++r) {
    EXPECT_EQ(perm.Code(r, 1), data.Code(r, 1));
    EXPECT_EQ(perm.Label(r), data.Label(r));
  }
}

// --------------------------------------------------------------- CSV

TEST(CsvTest, ReadTypedColumns) {
  std::istringstream in(
      "city,temp,label\n"
      "berlin,21.5,1\n"
      "paris,19.0,0\n"
      "berlin,30.5,1\n");
  CsvReadOptions opts;
  opts.label_column = "label";
  auto result = ReadCsv(in, opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const Dataset& data = *result;
  EXPECT_EQ(data.num_rows(), 3);
  EXPECT_EQ(data.schema().attribute(0).type, AttributeType::kCategorical);
  EXPECT_EQ(data.schema().attribute(1).type, AttributeType::kNumeric);
  EXPECT_EQ(data.Code(2, 0), 0);  // berlin == first seen
  EXPECT_DOUBLE_EQ(data.Numeric(2, 1), 30.5);
  EXPECT_EQ(data.Label(1), 0);
}

TEST(CsvTest, PositiveLabelValues) {
  std::istringstream in(
      "risk,label\n"
      "low,good\n"
      "high,bad\n");
  CsvReadOptions opts;
  opts.positive_label_values = {"good"};
  auto result = ReadCsv(in, opts);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->Label(0), 1);
  EXPECT_EQ(result->Label(1), 0);
}

TEST(CsvTest, QuotedFieldsWithDelimiters) {
  std::istringstream in(
      "name,label\n"
      "\"Smith, John\",1\n"
      "\"say \"\"hi\"\"\",0\n");
  auto result = ReadCsv(in, CsvReadOptions{});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->CellToString(0, 0), "Smith, John");
  EXPECT_EQ(result->CellToString(1, 0), "say \"hi\"");
}

TEST(CsvTest, ForceCategorical) {
  std::istringstream in(
      "zip,label\n"
      "10115,1\n"
      "75001,0\n");
  CsvReadOptions opts;
  opts.force_categorical = {"zip"};
  auto result = ReadCsv(in, opts);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->schema().attribute(0).type, AttributeType::kCategorical);
}

TEST(CsvTest, MissingValuesBecomeACategory) {
  std::istringstream in(
      "city,income,label\n"
      "berlin,1000,1\n"
      "?,2000,0\n"
      "paris,NA,1\n"
      "berlin,1500,0\n");
  CsvReadOptions opts;
  opts.missing_values = {"?", "NA"};
  auto result = ReadCsv(in, opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const Dataset& data = *result;
  // city: berlin, (missing), paris. income has a missing value -> whole
  // column read as categorical with "(missing)" among the categories.
  EXPECT_EQ(data.schema().attribute(0).type, AttributeType::kCategorical);
  EXPECT_EQ(data.schema().attribute(1).type, AttributeType::kCategorical);
  EXPECT_EQ(data.CellToString(1, 0), "(missing)");
  EXPECT_EQ(data.CellToString(2, 1), "(missing)");
  EXPECT_EQ(data.CellToString(0, 1), "1000");
  // Without missing handling, "NA" is just another category string.
  std::istringstream in2(
      "city,income,label\nberlin,1000,1\nparis,NA,0\n");
  auto plain = ReadCsv(in2, CsvReadOptions{});
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain->CellToString(1, 1), "NA");
}

TEST(CsvTest, MissingHandlingKeepsCleanNumericColumnsNumeric) {
  std::istringstream in(
      "x,y,label\n"
      "1.5,a,1\n"
      "2.5,?,0\n");
  CsvReadOptions opts;
  opts.missing_values = {"?"};
  auto result = ReadCsv(in, opts);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->schema().attribute(0).type, AttributeType::kNumeric);
  EXPECT_EQ(result->schema().attribute(1).type, AttributeType::kCategorical);
}

TEST(CsvTest, ErrorsAreReported) {
  {
    std::istringstream in("");
    EXPECT_FALSE(ReadCsv(in, CsvReadOptions{}).ok());
  }
  {
    std::istringstream in("a,label\n1,1\n2\n");  // ragged row
    EXPECT_FALSE(ReadCsv(in, CsvReadOptions{}).ok());
  }
  {
    std::istringstream in("a,lab\n1,1\n");  // missing label column
    EXPECT_TRUE(ReadCsv(in, CsvReadOptions{}).status().IsKeyError());
  }
  {
    std::istringstream in("a,label\nx,2\n");  // non-binary label
    EXPECT_FALSE(ReadCsv(in, CsvReadOptions{}).ok());
  }
  {
    std::istringstream in("a,label\nx,4294967297\n");  // would wrap to 1
    EXPECT_FALSE(ReadCsv(in, CsvReadOptions{}).ok());
  }
}

TEST(CsvTest, WriteReadRoundTrip) {
  Dataset data = SmallDataset();
  std::ostringstream out;
  ASSERT_TRUE(WriteCsv(data, out).ok());
  std::istringstream in(out.str());
  auto back = ReadCsv(in, CsvReadOptions{});
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->num_rows(), data.num_rows());
  for (int64_t r = 0; r < data.num_rows(); ++r) {
    EXPECT_EQ(back->CellToString(r, 0), data.CellToString(r, 0));
    EXPECT_EQ(back->Label(r), data.Label(r));
  }
}

// --------------------------------------------------------------- Discretizer

Dataset NumericDataset() {
  Schema schema;
  EXPECT_TRUE(schema.AddNumeric("x").ok());
  EXPECT_TRUE(schema.AddCategorical("c", {"u", "v"}).ok());
  Dataset data(schema);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(
        data.AppendRowMixed({0, i % 2}, {static_cast<double>(i), 0.0}, i % 2)
            .ok());
  }
  return data;
}

TEST(DiscretizerTest, QuantileBinsAreBalanced) {
  Dataset data = NumericDataset();
  DiscretizerOptions opts;
  opts.strategy = BinningStrategy::kQuantile;
  opts.num_bins = 4;
  auto disc = Discretizer::Fit(data, opts);
  ASSERT_TRUE(disc.ok()) << disc.status().ToString();
  auto binned = disc->Transform(data);
  ASSERT_TRUE(binned.ok());
  EXPECT_TRUE(binned->schema().AllCategorical());
  // Each quantile bin holds roughly a quarter of the rows.
  int counts[4] = {0, 0, 0, 0};
  for (int64_t r = 0; r < binned->num_rows(); ++r) {
    ASSERT_LT(binned->Code(r, 0), 4);
    ++counts[binned->Code(r, 0)];
  }
  for (int b = 0; b < 4; ++b) EXPECT_NEAR(counts[b], 25, 3);
}

TEST(DiscretizerTest, EquiWidthEdges) {
  Dataset data = NumericDataset();
  DiscretizerOptions opts;
  opts.strategy = BinningStrategy::kEquiWidth;
  opts.num_bins = 4;
  auto disc = Discretizer::Fit(data, opts);
  ASSERT_TRUE(disc.ok());
  const auto& edges = disc->edges(0);
  ASSERT_EQ(edges.size(), 3u);
  EXPECT_NEAR(edges[0], 24.75, 1e-9);
  EXPECT_NEAR(edges[1], 49.5, 1e-9);
}

TEST(DiscretizerTest, BinOrderIsMonotone) {
  Dataset data = NumericDataset();
  auto disc = Discretizer::Fit(data, DiscretizerOptions{});
  ASSERT_TRUE(disc.ok());
  auto binned = disc->Transform(data);
  ASSERT_TRUE(binned.ok());
  // Larger values never land in smaller bins.
  for (int64_t r = 1; r < data.num_rows(); ++r) {
    EXPECT_GE(binned->Code(r, 0), binned->Code(r - 1, 0));
  }
}

TEST(DiscretizerTest, CategoricalPassThrough) {
  Dataset data = NumericDataset();
  auto disc = Discretizer::Fit(data, DiscretizerOptions{});
  ASSERT_TRUE(disc.ok());
  auto binned = disc->Transform(data);
  ASSERT_TRUE(binned.ok());
  for (int64_t r = 0; r < data.num_rows(); ++r) {
    EXPECT_EQ(binned->Code(r, 1), data.Code(r, 1));
  }
}

TEST(DiscretizerTest, ConstantColumnCollapses) {
  Schema schema;
  ASSERT_TRUE(schema.AddNumeric("flat").ok());
  Dataset data(schema);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(data.AppendRowMixed({0}, {5.0}, 0).ok());
  }
  auto disc = Discretizer::Fit(data, DiscretizerOptions{});
  ASSERT_TRUE(disc.ok());
  auto binned = disc->Transform(data);
  ASSERT_TRUE(binned.ok());
  EXPECT_EQ(binned->schema().attribute(0).cardinality(), 1);
}

TEST(DiscretizerTest, RejectsSchemaMismatch) {
  Dataset data = NumericDataset();
  auto disc = Discretizer::Fit(data, DiscretizerOptions{});
  ASSERT_TRUE(disc.ok());
  Dataset other = SmallDataset();
  EXPECT_FALSE(disc->Transform(other).ok());
}

// --------------------------------------------------------------- Split

TEST(SplitTest, FractionsAndDisjointness) {
  Dataset data = NumericDataset();
  SplitOptions opts;
  opts.test_fraction = 0.3;
  auto split = SplitTrainTest(data, opts);
  ASSERT_TRUE(split.ok());
  EXPECT_EQ(split->train.num_rows() + split->test.num_rows(), 100);
  EXPECT_NEAR(split->test.num_rows(), 30, 2);
}

TEST(SplitTest, StratificationPreservesPositiveRate) {
  Dataset data = NumericDataset();  // 50% positive
  SplitOptions opts;
  opts.test_fraction = 0.4;
  opts.stratify_by_label = true;
  auto split = SplitTrainTest(data, opts);
  ASSERT_TRUE(split.ok());
  EXPECT_NEAR(split->train.PositiveRate(), 0.5, 0.02);
  EXPECT_NEAR(split->test.PositiveRate(), 0.5, 0.02);
}

TEST(SplitTest, DeterministicBySeed) {
  Dataset data = NumericDataset();
  SplitOptions opts;
  opts.seed = 5;
  auto a = SplitTrainTest(data, opts);
  auto b = SplitTrainTest(data, opts);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->train.num_rows(), b->train.num_rows());
  for (int64_t r = 0; r < a->train.num_rows(); ++r) {
    EXPECT_EQ(a->train.Numeric(r, 0), b->train.Numeric(r, 0));
  }
}

TEST(SplitTest, RejectsBadFraction) {
  Dataset data = NumericDataset();
  SplitOptions opts;
  opts.test_fraction = 1.5;
  EXPECT_FALSE(SplitTrainTest(data, opts).ok());
}

}  // namespace
}  // namespace fume
