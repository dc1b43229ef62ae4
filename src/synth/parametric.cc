// Parametric synthetic generator for the scaling study (paper Figure 5):
// arbitrary row count, attribute count and per-attribute cardinality, with a
// sensitive attribute, a moderate group gap and a handful of keyed cohorts
// so FUME has real work to do at every size.

#include "synth/datasets.h"

#include "util/rng.h"

namespace fume {
namespace synth {

Result<DatasetBundle> MakeParametric(int64_t num_rows, int num_attrs,
                                     int values_per_attr, uint64_t seed) {
  if (num_attrs < 2) return Status::Invalid("need at least 2 attributes");
  if (values_per_attr < 2 || values_per_attr > 32) {
    return Status::Invalid("values_per_attr must be in [2, 32]");
  }
  SynthModel m;
  m.name = "parametric-n" + std::to_string(num_rows) + "-p" +
           std::to_string(num_attrs) + "-d" + std::to_string(values_per_attr);
  m.sensitive_attr = "S";
  m.privileged_category = "priv";
  m.protected_fraction = 0.45;
  m.priv_base = 0.60;
  m.prot_base = 0.45;
  m.label_noise = 0.02;

  {
    AttrSpec s;
    s.name = "S";
    s.categories = {"prot", "priv"};
    s.priv_weights = {0.5, 0.5};
    m.attrs.push_back(std::move(s));
  }
  for (int j = 1; j < num_attrs; ++j) {
    AttrSpec a;
    a.name = "X" + std::to_string(j);
    for (int v = 0; v < values_per_attr; ++v) {
      a.categories.push_back(std::string("v").append(std::to_string(v)));
    }
    a.priv_weights =
        RoughUniform(values_per_attr, Hash64({seed, 0x9a4aULL,
                                              static_cast<uint64_t>(j)}));
    m.attrs.push_back(std::move(a));
  }

  // A few keyed cohorts over the non-sensitive attributes.
  const int num_cohorts = std::min(4, num_attrs - 1);
  for (int c = 0; c < num_cohorts; ++c) {
    CohortEffect effect;
    const int attr1 = 1 + static_cast<int>(
                              Hash64({seed, 0xc0bULL,
                                      static_cast<uint64_t>(c), 0}) %
                              static_cast<uint64_t>(num_attrs - 1));
    const int val1 = static_cast<int>(Hash64({seed, 0xc0bULL,
                                              static_cast<uint64_t>(c), 1}) %
                                      static_cast<uint64_t>(values_per_attr));
    effect.conditions.emplace_back(m.attrs[static_cast<size_t>(attr1)].name,
                                   "v" + std::to_string(val1));
    effect.protected_delta = -0.18 - 0.04 * c;
    effect.privileged_delta = 0.05;
    m.cohorts.push_back(std::move(effect));
  }
  return GenerateFromModel(m, num_rows, Hash64({seed, 0x9a3aULL}));
}

}  // namespace synth
}  // namespace fume
