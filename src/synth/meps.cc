// Synthetic MEPS Panel 19 (Table 2 row 5): 11,081 rows, 42 attributes,
// sensitive = race (Non-white = protected, 64.07%), base rates 25.49% /
// 12.36% (label = high utilization of medical care). The outcome is
// strongly driven by a cancer-diagnosis flag whose effect is concentrated in
// the protected group, reproducing the paper's Table 7 where CancerDx=True
// appears in four of the top-5 subsets.

#include "synth/datasets.h"

#include "util/rng.h"

namespace fume {
namespace synth {

namespace {

SynthModel MepsModel() {
  SynthModel m;
  m.name = "meps";
  m.sensitive_attr = "Race";
  m.privileged_category = "White";
  m.protected_fraction = 0.6407;
  m.priv_base = 0.2549;
  m.prot_base = 0.1236;
  m.label_noise = 0.02;

  auto add = [&m](const std::string& name, std::vector<std::string> cats,
                  std::vector<double> priv_w,
                  std::vector<double> prot_w = {}) {
    AttrSpec a;
    a.name = name;
    a.categories = std::move(cats);
    a.priv_weights = std::move(priv_w);
    a.prot_weights = std::move(prot_w);
    m.attrs.push_back(std::move(a));
  };

  add("Race", {"Non-white", "White"}, {0.5, 0.5});  // sensitive
  add("Age", {"Child", "Young adult", "Middle-aged", "Senior"},
      {0.24, 0.26, 0.30, 0.20});
  add("Sex", {"Male", "Female"}, {0.48, 0.52});
  add("Marital", {"Married", "Never married", "Divorced", "Widowed"},
      {0.48, 0.36, 0.11, 0.05});
  add("Region", {"Northeast", "Midwest", "South", "West"},
      {0.16, 0.20, 0.38, 0.26});
  add("IncomeBracket", {"Poor", "Near poor", "Low", "Middle", "High"},
      {0.15, 0.06, 0.14, 0.30, 0.35}, {0.27, 0.08, 0.18, 0.28, 0.19});
  add("InsuranceCoverage", {"False", "True"}, {0.10, 0.90}, {0.17, 0.83});
  add("EmploymentStatus", {"Employed", "Unemployed", "Retired", "Student"},
      {0.58, 0.13, 0.19, 0.10}, {0.55, 0.20, 0.13, 0.12});
  // Diagnosis / limitation flags.
  add("CancerDx", {"No", "True"}, {0.915, 0.085}, {0.955, 0.045});
  add("ChronicBronchitis", {"No", "Yes"}, {0.95, 0.05});
  add("EmphysemaDx", {"No", "Yes"}, {0.975, 0.025});
  add("CognitiveLimitations", {"No", "Yes"}, {0.93, 0.07});
  add("ActivityLimitation", {"No", "Yes"}, {0.81, 0.19});
  add("HighBloodPressure", {"No", "Yes"}, {0.67, 0.33});
  add("HeartDisease", {"No", "Yes"}, {0.90, 0.10});
  add("Stroke", {"No", "Yes"}, {0.96, 0.04});
  add("Diabetes", {"No", "Yes"}, {0.89, 0.11});
  add("Asthma", {"No", "Yes"}, {0.90, 0.10});
  add("Arthritis", {"No", "Yes"}, {0.74, 0.26});
  add("JointPain", {"No", "Yes"}, {0.66, 0.34});
  // Generic survey attributes filling out the 42-column layout.
  for (int i = 0; i < 22; ++i) {
    AttrSpec a;
    a.name = "SurveyItem" + std::to_string(i + 1);
    const int card = 2 + (i % 3);  // cardinalities 2..4
    for (int v = 0; v < card; ++v) {
      a.categories.push_back(std::string("V").append(std::to_string(v)));
    }
    a.priv_weights = RoughUniform(card, 0x3e95ULL + static_cast<uint64_t>(i));
    m.attrs.push_back(std::move(a));
  }

  m.cohorts = {
      // The comorbidity-free cancer sub-cohort (~95% of cancer patients)
      // carries a strong penalty while the small comorbid complement
      // actively counteracts — so removing a PAIR like (CancerDx AND
      // Bronchitis=No) keeps the counteracting sliver and outranks removing
      // the whole flag, the ordering the paper's Table 7 shows. Pairs with
      // the other comorbidity flags select nearly the same rows and score
      // alongside (the paper's ME3/ME4).
      {{{"CancerDx", "True"}}, +0.22, +0.32},
      {{{"CancerDx", "True"}, {"ChronicBronchitis", "No"}}, -0.50, -0.02},
      // ME2: insured-but-unemployed cohort.
      {{{"InsuranceCoverage", "True"}, {"EmploymentStatus", "Unemployed"}},
       -0.28, +0.10},
      // Mild reinforcing comorbidity effects.
      {{{"ActivityLimitation", "Yes"}}, +0.06, +0.12},
      {{{"CognitiveLimitations", "Yes"}}, -0.06, +0.04},
  };
  return m;
}

}  // namespace

Result<DatasetBundle> MakeMeps(const SynthOptions& options) {
  const int64_t n = options.num_rows > 0 ? options.num_rows : 11081;
  return GenerateFromModel(MepsModel(), n, Hash64({options.seed, 0x3e95ULL}));
}

}  // namespace synth
}  // namespace fume
