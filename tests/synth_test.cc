// Tests for the synthetic dataset generators: Table 2 calibration (size,
// protected fraction, per-group base rates), determinism and the planted
// structure each generator promises.

#include <gtest/gtest.h>

#include <cmath>

#include "synth/datasets.h"
#include "synth/registry.h"

namespace fume {
namespace {

using synth::AllDatasets;
using synth::DatasetBundle;
using synth::RegisteredDataset;
using synth::SynthOptions;

struct Table2Row {
  std::string name;
  int64_t rows;
  int features;
  double protected_fraction;
  double priv_base;
  double prot_base;
};

// The paper's Table 2.
const Table2Row kTable2[] = {
    {"german-credit", 1000, 21, 0.4110, 0.7419, 0.6399},
    {"adult-income", 45222, 10, 0.3250, 0.3124, 0.1135},
    {"sqf", 72546, 16, 0.3594, 0.3832, 0.3016},
    {"acs-income", 139833, 10, 0.4855, 0.4353, 0.3106},
    {"meps", 11081, 42, 0.6407, 0.2549, 0.1236},
};

// Without a printer gtest lists the parameter as its raw bytes, and the
// std::string's heap pointer would put a per-process address into the
// test's discovered name.
void PrintTo(const Table2Row& row, std::ostream* os) { *os << row.name; }

class CalibrationSweep : public testing::TestWithParam<Table2Row> {};

TEST_P(CalibrationSweep, MatchesTable2) {
  const Table2Row& row = GetParam();
  auto registered = synth::FindDataset(row.name);
  ASSERT_TRUE(registered.ok());
  EXPECT_EQ(registered->paper_rows, row.rows);
  EXPECT_EQ(registered->paper_features, row.features);

  SynthOptions opts;
  // Scale the big datasets down for test speed; rates are size-invariant.
  opts.num_rows = std::min<int64_t>(row.rows, 12000);
  auto bundle = registered->make(opts);
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
  const Dataset& data = bundle->data;

  EXPECT_EQ(data.num_rows(), opts.num_rows);
  EXPECT_EQ(data.num_attributes(), row.features);
  EXPECT_TRUE(data.schema().AllCategorical());
  ASSERT_TRUE(data.Validate().ok());

  const GroupSpec& group = bundle->group;
  const double protected_fraction =
      1.0 - data.GroupFraction(group.sensitive_attr, group.privileged_code);
  EXPECT_NEAR(protected_fraction, row.protected_fraction, 0.02);

  const double priv_base =
      data.BaseRate(group.sensitive_attr, group.privileged_code);
  const double prot_base =
      data.BaseRate(group.sensitive_attr, 1 - group.privileged_code);
  // Tolerance: fixed 2pp for systematic calibration error plus a 3-sigma
  // binomial sampling band for this dataset size.
  auto tolerance = [&](double p, double group_fraction) {
    const double group_n =
        static_cast<double>(opts.num_rows) * group_fraction;
    return 0.02 + 3.0 * std::sqrt(p * (1.0 - p) / group_n);
  };
  EXPECT_NEAR(priv_base, row.priv_base,
              tolerance(row.priv_base, 1.0 - row.protected_fraction));
  EXPECT_NEAR(prot_base, row.prot_base,
              tolerance(row.prot_base, row.protected_fraction));
  // The privileged group must be favored (the violation to explain).
  EXPECT_GT(priv_base, prot_base);
}

INSTANTIATE_TEST_SUITE_P(Table2, CalibrationSweep, testing::ValuesIn(kTable2),
                         [](const testing::TestParamInfo<Table2Row>& row) {
                           std::string name = row.param.name;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(SynthTest, RegistryIsComplete) {
  EXPECT_EQ(AllDatasets().size(), 5u);
  EXPECT_TRUE(synth::FindDataset("german-credit").ok());
  EXPECT_TRUE(synth::FindDataset("nope").status().IsKeyError());
}

TEST(SynthTest, GeneratorsAreDeterministic) {
  for (const RegisteredDataset& d : AllDatasets()) {
    SynthOptions opts;
    opts.num_rows = 500;
    opts.seed = 9;
    auto a = d.make(opts);
    auto b = d.make(opts);
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_EQ(a->data.num_rows(), b->data.num_rows());
    for (int64_t r = 0; r < a->data.num_rows(); ++r) {
      ASSERT_EQ(a->data.Label(r), b->data.Label(r)) << d.name;
      for (int j = 0; j < a->data.num_attributes(); ++j) {
        ASSERT_EQ(a->data.Code(r, j), b->data.Code(r, j)) << d.name;
      }
    }
  }
}

TEST(SynthTest, SeedsChangeTheData) {
  SynthOptions a, b;
  a.num_rows = b.num_rows = 500;
  a.seed = 1;
  b.seed = 2;
  auto da = synth::MakeGermanCredit(a);
  auto db = synth::MakeGermanCredit(b);
  ASSERT_TRUE(da.ok() && db.ok());
  bool any_diff = false;
  for (int64_t r = 0; r < 500 && !any_diff; ++r) {
    if (da->data.Label(r) != db->data.Label(r) ||
        da->data.Code(r, 0) != db->data.Code(r, 0)) {
      any_diff = true;
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(SynthTest, SqfPlantsTheSexRaceProxy) {
  SynthOptions opts;
  opts.num_rows = 20000;
  auto bundle = synth::MakeSqf(opts);
  ASSERT_TRUE(bundle.ok());
  const Dataset& data = bundle->data;
  const int race = *data.schema().FindAttribute("Race");
  const int sex = *data.schema().FindAttribute("Sex");
  const int female = data.schema().attribute(sex).FindCategory("Female");
  const int white = data.schema().attribute(race).FindCategory("White");
  int64_t female_n = 0, female_prot = 0;
  for (int64_t r = 0; r < data.num_rows(); ++r) {
    if (data.Code(r, sex) == female) {
      ++female_n;
      if (data.Code(r, race) != white) ++female_prot;
    }
  }
  // Females are rare (~6.5%) and skewed protected (correlation planted).
  const double female_fraction =
      static_cast<double>(female_n) / static_cast<double>(data.num_rows());
  EXPECT_NEAR(female_fraction, 0.065, 0.015);
  EXPECT_GT(static_cast<double>(female_prot) / static_cast<double>(female_n),
            0.55);
}

TEST(SynthTest, MepsCancerCohortIsConcentratedAndBiased) {
  SynthOptions opts;
  opts.num_rows = 11081;
  auto bundle = synth::MakeMeps(opts);
  ASSERT_TRUE(bundle.ok());
  const Dataset& data = bundle->data;
  const int cancer = *data.schema().FindAttribute("CancerDx");
  const int yes = data.schema().attribute(cancer).FindCategory("True");
  const double support = data.GroupFraction(cancer, yes);
  EXPECT_NEAR(support, 0.06, 0.02);  // paper's ME5 support 6.17%
  // Inside the cohort, privileged members fare far better.
  const int race = bundle->group.sensitive_attr;
  int64_t n[2] = {0, 0}, pos[2] = {0, 0};
  for (int64_t r = 0; r < data.num_rows(); ++r) {
    if (data.Code(r, cancer) != yes) continue;
    const int g =
        data.Code(r, race) == bundle->group.privileged_code ? 1 : 0;
    ++n[g];
    pos[g] += data.Label(r);
  }
  ASSERT_GT(n[0], 0);
  ASSERT_GT(n[1], 0);
  const double prot_rate = static_cast<double>(pos[0]) / n[0];
  const double priv_rate = static_cast<double>(pos[1]) / n[1];
  EXPECT_GT(priv_rate - prot_rate, 0.3);
}

TEST(SynthTest, PlantedCohortSupportAndGap) {
  synth::PlantedOptions opts;
  opts.num_rows = 4000;
  auto bundle = synth::MakePlantedBias(opts);
  ASSERT_TRUE(bundle.ok());
  const Dataset& data = bundle->data;
  const auto conditions = synth::PlantedCohortConditions();
  int64_t in = 0, in_prot = 0, in_prot_pos = 0, in_priv = 0, in_priv_pos = 0;
  for (int64_t r = 0; r < data.num_rows(); ++r) {
    bool match = true;
    for (const auto& [attr, code] : conditions) {
      if (data.Code(r, attr) != code) match = false;
    }
    if (!match) continue;
    ++in;
    if (data.Code(r, bundle->group.sensitive_attr) ==
        bundle->group.privileged_code) {
      ++in_priv;
      in_priv_pos += data.Label(r);
    } else {
      ++in_prot;
      in_prot_pos += data.Label(r);
    }
  }
  EXPECT_GT(in, 100);
  ASSERT_GT(in_prot, 10);
  ASSERT_GT(in_priv, 10);
  EXPECT_GT(static_cast<double>(in_priv_pos) / in_priv -
                static_cast<double>(in_prot_pos) / in_prot,
            0.25);
}

TEST(SynthTest, ParametricShapes) {
  auto bundle = synth::MakeParametric(1000, 8, 5, 3);
  ASSERT_TRUE(bundle.ok());
  EXPECT_EQ(bundle->data.num_rows(), 1000);
  EXPECT_EQ(bundle->data.num_attributes(), 8);
  for (int j = 1; j < 8; ++j) {
    EXPECT_EQ(bundle->data.schema().attribute(j).cardinality(), 5);
  }
  EXPECT_EQ(bundle->data.schema().attribute(0).cardinality(), 2);
  // Bad shapes are rejected.
  EXPECT_FALSE(synth::MakeParametric(100, 1, 5, 3).ok());
  EXPECT_FALSE(synth::MakeParametric(100, 5, 1, 3).ok());
  EXPECT_FALSE(synth::MakeParametric(0, 5, 4, 3).ok());
}

TEST(SynthTest, ModelErrorsAreReported) {
  synth::SynthModel bad;
  bad.name = "bad";
  bad.sensitive_attr = "missing";
  bad.privileged_category = "x";
  synth::AttrSpec a;
  a.name = "only";
  a.categories = {"u", "v"};
  a.priv_weights = {1, 1};
  bad.attrs.push_back(a);
  EXPECT_FALSE(synth::GenerateFromModel(bad, 10, 1).ok());

  bad.sensitive_attr = "only";
  bad.privileged_category = "nope";
  EXPECT_FALSE(synth::GenerateFromModel(bad, 10, 1).ok());

  bad.privileged_category = "u";
  synth::CohortEffect c;
  c.conditions = {{"only", "zzz"}};
  bad.cohorts = {c};
  EXPECT_FALSE(synth::GenerateFromModel(bad, 10, 1).ok());
}

}  // namespace
}  // namespace fume
