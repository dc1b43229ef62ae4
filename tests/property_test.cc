// Cross-cutting property tests: randomized sweeps checking module
// invariants against brute-force reference implementations.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "data/csv.h"
#include "fairness/metrics.h"
#include "forest/forest.h"
#include "subset/lattice.h"
#include "util/rng.h"

namespace fume {
namespace {

Dataset RandomDataset(int64_t n, int p, int max_card, uint64_t seed) {
  Schema schema;
  Rng schema_rng(seed);
  std::vector<int> cards;
  for (int j = 0; j < p; ++j) {
    const int card = schema_rng.NextInt(2, max_card);
    cards.push_back(card);
    std::vector<std::string> cats;
    for (int v = 0; v < card; ++v) {
      cats.push_back(std::string("a")
                         .append(std::to_string(j))
                         .append("v")
                         .append(std::to_string(v)));
    }
    EXPECT_TRUE(schema.AddCategorical("attr" + std::to_string(j), cats).ok());
  }
  Dataset data(schema);
  Rng rng(seed + 1);
  for (int64_t i = 0; i < n; ++i) {
    std::vector<int32_t> row(static_cast<size_t>(p));
    for (int j = 0; j < p; ++j) {
      row[static_cast<size_t>(j)] = rng.NextInt(0, cards[static_cast<size_t>(j)] - 1);
    }
    EXPECT_TRUE(data.AppendRow(row, rng.NextInt(0, 1)).ok());
  }
  return data;
}

// ------------------------------------------------ lattice vs brute force

class LatticeBruteForceSweep : public testing::TestWithParam<int> {};

TEST_P(LatticeBruteForceSweep, Level2MatchesEnumeration) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  Dataset data = RandomDataset(80, 3 + static_cast<int>(seed % 3), 4, seed);
  Lattice lattice(data, LatticeOptions{});
  auto level2 = lattice.MergeLevel(lattice.MakeLevel1(), nullptr);

  // Brute force: every pair of equality literals on distinct attributes.
  std::set<std::string> expected;
  const Schema& schema = data.schema();
  for (int a = 0; a < schema.num_attributes(); ++a) {
    for (int b = a + 1; b < schema.num_attributes(); ++b) {
      for (int32_t va = 0; va < schema.attribute(a).cardinality(); ++va) {
        for (int32_t vb = 0; vb < schema.attribute(b).cardinality(); ++vb) {
          Predicate pred({Literal{a, LiteralOp::kEq, va},
                          Literal{b, LiteralOp::kEq, vb}});
          expected.insert(pred.ToString(schema));
        }
      }
    }
  }
  std::set<std::string> produced;
  for (const auto& node : level2) {
    produced.insert(node.predicate.ToString(schema));
    // Support and row bitmaps must agree with a rescan.
    EXPECT_EQ(node.rows.ToRows(), node.predicate.MatchingRows(data));
  }
  EXPECT_EQ(produced, expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LatticeBruteForceSweep, testing::Range(0, 6));

// ------------------------------------- interleaved add/delete exactness

class InterleaveSweep : public testing::TestWithParam<int> {};

TEST_P(InterleaveSweep, AddDeleteInterleavingsMatchScratch) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  Dataset base = RandomDataset(120, 4, 4, seed * 7 + 1);
  Dataset extra = RandomDataset(60, 4, 4, seed * 7 + 1);  // same schema seed
  ForestConfig config;
  config.num_trees = 2;
  config.max_depth = 6;
  config.random_depth = 1;
  config.seed = seed;

  auto forest = DareForest::Train(base, config);
  ASSERT_TRUE(forest.ok());

  // Random interleaving of add-batches and delete-batches, tracking the
  // expected surviving multiset as (row source, index) pairs.
  Rng rng(seed + 55);
  std::vector<std::pair<int, int64_t>> alive;  // (0=base,1=extra, idx)
  for (int64_t r = 0; r < base.num_rows(); ++r) alive.emplace_back(0, r);
  std::vector<RowId> id_of;  // store ids parallel to `alive`
  for (int64_t r = 0; r < base.num_rows(); ++r) {
    id_of.push_back(static_cast<RowId>(r));
  }
  int64_t extra_cursor = 0;
  for (int step = 0; step < 6; ++step) {
    if (rng.NextBernoulli(0.5) && extra_cursor + 10 <= extra.num_rows()) {
      // Add a batch of 10 new rows.
      std::vector<int64_t> take;
      for (int64_t i = 0; i < 10; ++i) take.push_back(extra_cursor + i);
      auto ids = forest->AddData(extra.Select(take));
      ASSERT_TRUE(ids.ok());
      for (int64_t i = 0; i < 10; ++i) {
        alive.emplace_back(1, extra_cursor + i);
        id_of.push_back((*ids)[static_cast<size_t>(i)]);
      }
      extra_cursor += 10;
    } else if (alive.size() > 20) {
      // Delete 8 random surviving rows.
      std::vector<size_t> order(alive.size());
      for (size_t i = 0; i < order.size(); ++i) order[i] = i;
      rng.Shuffle(&order);
      std::vector<size_t> victims(order.begin(), order.begin() + 8);
      std::sort(victims.rbegin(), victims.rend());
      std::vector<RowId> doomed;
      for (size_t v : victims) doomed.push_back(id_of[v]);
      ASSERT_TRUE(forest->DeleteRows(doomed).ok());
      for (size_t v : victims) {
        alive.erase(alive.begin() + static_cast<std::ptrdiff_t>(v));
        id_of.erase(id_of.begin() + static_cast<std::ptrdiff_t>(v));
      }
    }
  }
  ASSERT_TRUE(forest->ValidateStats());

  // Scratch model trained on the surviving rows in store order (base rows
  // first, added rows after — the ids are monotone in insertion order, so
  // sorting by id reproduces it).
  std::vector<size_t> order(alive.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](size_t x, size_t y) { return id_of[x] < id_of[y]; });
  Dataset survivors(base.schema());
  std::vector<int32_t> codes(static_cast<size_t>(base.num_attributes()));
  for (size_t i : order) {
    const Dataset& src = alive[i].first == 0 ? base : extra;
    const int64_t r = alive[i].second;
    for (int j = 0; j < base.num_attributes(); ++j) {
      codes[static_cast<size_t>(j)] = src.Code(r, j);
    }
    ASSERT_TRUE(survivors.AppendRow(codes, src.Label(r)).ok());
  }
  auto scratch = DareForest::Train(survivors, config);
  ASSERT_TRUE(scratch.ok());
  for (int64_t r = 0; r < base.num_rows(); ++r) {
    ASSERT_DOUBLE_EQ(forest->PredictProb(base, r),
                     scratch->PredictProb(base, r));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, InterleaveSweep, testing::Range(0, 8));

// ------------------------------------------------ fairness invariances

TEST(FairnessPropertyTest, RowPermutationInvariance) {
  Dataset data = RandomDataset(300, 3, 3, 9);
  GroupSpec group{0, 0};
  Rng rng(10);
  std::vector<int> preds(static_cast<size_t>(data.num_rows()));
  for (auto& p : preds) p = rng.NextInt(0, 1);

  std::vector<int64_t> perm(static_cast<size_t>(data.num_rows()));
  for (int64_t i = 0; i < data.num_rows(); ++i) perm[static_cast<size_t>(i)] = i;
  rng.Shuffle(&perm);
  Dataset shuffled = data.Select(perm);
  std::vector<int> shuffled_preds(preds.size());
  for (size_t i = 0; i < perm.size(); ++i) {
    shuffled_preds[i] = preds[static_cast<size_t>(perm[i])];
  }
  for (FairnessMetric metric :
       {FairnessMetric::kStatisticalParity, FairnessMetric::kEqualizedOdds,
        FairnessMetric::kPredictiveParity, FairnessMetric::kEqualOpportunity,
        FairnessMetric::kDisparateImpact}) {
    EXPECT_DOUBLE_EQ(ComputeFairness(data, preds, group, metric),
                     ComputeFairness(shuffled, shuffled_preds, group, metric));
  }
}

TEST(FairnessPropertyTest, SwappingPrivilegedCodeFlipsDifferenceMetrics) {
  Dataset data = RandomDataset(300, 3, 2, 11);
  Rng rng(12);
  std::vector<int> preds(static_cast<size_t>(data.num_rows()));
  for (auto& p : preds) p = rng.NextInt(0, 1);
  GroupSpec g0{0, 0};
  GroupSpec g1{0, 1};
  for (FairnessMetric metric :
       {FairnessMetric::kStatisticalParity,
        FairnessMetric::kEqualOpportunity}) {
    EXPECT_NEAR(ComputeFairness(data, preds, g0, metric),
                -ComputeFairness(data, preds, g1, metric), 1e-12);
  }
}

// ------------------------------------------------ CSV fuzz round trips

class CsvFuzzSweep : public testing::TestWithParam<int> {};

TEST_P(CsvFuzzSweep, RandomDatasetsRoundTrip) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  Dataset data = RandomDataset(40 + static_cast<int64_t>(seed * 17), 2 + static_cast<int>(seed % 4),
                               5, seed);
  std::ostringstream out;
  ASSERT_TRUE(WriteCsv(data, out).ok());
  std::istringstream in(out.str());
  auto loaded = ReadCsv(in, CsvReadOptions{});
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->num_rows(), data.num_rows());
  for (int64_t r = 0; r < data.num_rows(); ++r) {
    EXPECT_EQ(loaded->Label(r), data.Label(r));
    for (int j = 0; j < data.num_attributes(); ++j) {
      EXPECT_EQ(loaded->CellToString(r, j), data.CellToString(r, j));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsvFuzzSweep, testing::Range(0, 6));

}  // namespace
}  // namespace fume
