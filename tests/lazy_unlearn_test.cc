// Lazy subtree retraining (config.lazy_unlearn, DESIGN.md §6 invariant 9):
// a delete that would retrain a subtree parks its doomed rows under a
// LazyTag instead, and the rebuild runs at the next flush boundary — first
// query descent, FlushAll, serialization, or a staleness-budget overflow.
// The anchor property pinned here: after ANY flush the lazy forest's
// serialized model bytes equal the eager kernel's on the same op sequence
// (DeletionStats deliberately differ — lazy does less work — so both sides
// are zeroed before each byte comparison). Plus: budget-triggered flushes,
// CoW tag isolation in both directions, stream-engine deferral identity,
// and a TSan readers-vs-lazy-writer interleave over published clones.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <mutex>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "data/split.h"
#include "forest/serialize.h"
#include "stream/engine.h"
#include "stream/op_log.h"
#include "synth/datasets.h"
#include "util/rng.h"

namespace fume {
namespace {

struct LazyCase {
  const char* dataset;  // "german" or "planted"
  uint64_t seed;
};

// Without a printer gtest lists the parameter as its raw bytes, and the
// dataset pointer would put a per-process address into the test's
// discovered name.
void PrintTo(const LazyCase& c, std::ostream* os) {
  *os << c.dataset << " seed " << c.seed;
}

std::string CaseName(const testing::TestParamInfo<LazyCase>& info) {
  return std::string(info.param.dataset) + "_s" +
         std::to_string(info.param.seed);
}

Dataset CaseData(const LazyCase& c) {
  if (std::string(c.dataset) == "german") {
    synth::SynthOptions opts;
    opts.num_rows = 600;
    opts.seed = c.seed;
    auto bundle = synth::MakeGermanCredit(opts);
    EXPECT_TRUE(bundle.ok());
    return bundle->data;
  }
  synth::PlantedOptions opts;
  opts.num_rows = 800;
  opts.seed = c.seed;
  auto bundle = synth::MakePlantedBias(opts);
  EXPECT_TRUE(bundle.ok());
  return bundle->data;
}

ForestConfig BaseConfig(uint64_t seed) {
  ForestConfig config;
  config.num_trees = 4;
  config.max_depth = 8;
  config.random_depth = 2;
  config.seed = seed * 13 + 1;
  return config;
}

// Model bytes with the work counters zeroed first: lazy and eager do
// different amounts of retrain work by design, so only the model itself is
// compared. lazy_unlearn is a runtime knob (not serialized), so a flushed
// lazy forest and an eager one can match byte for byte.
std::string ModelBytes(DareForest* forest) {
  forest->ResetDeletionStats();
  std::ostringstream out(std::ios::binary);
  EXPECT_TRUE(SaveForest(*forest, out).ok());
  return out.str();
}

class LazyIdentitySweep : public testing::TestWithParam<LazyCase> {};

TEST_P(LazyIdentitySweep, FlushReproducesEagerBytes) {
  const LazyCase& c = GetParam();
  const Dataset train = CaseData(c);
  ForestConfig config = BaseConfig(c.seed);

  auto eager = DareForest::Train(train, config);
  ASSERT_TRUE(eager.ok());
  config.lazy_unlearn = true;
  auto lazy = DareForest::Train(train, config);
  ASSERT_TRUE(lazy.ok());

  // Random delete/flush interleaving over the live pool. Every flush point
  // must land both forests on identical model bytes and predictions.
  Rng rng(c.seed + 71);
  std::vector<RowId> live(static_cast<size_t>(train.num_rows()));
  std::iota(live.begin(), live.end(), 0);
  rng.Shuffle(&live);
  DeletionScratch eager_scratch, lazy_scratch;
  size_t cursor = 0;
  int flushes = 0;
  while (cursor + 32 < live.size() && flushes < 6) {
    const size_t batch_size = 1 + static_cast<size_t>(rng.NextInt(0, 24));
    std::vector<RowId> batch(
        live.begin() + static_cast<int64_t>(cursor),
        live.begin() + static_cast<int64_t>(cursor + batch_size));
    cursor += batch_size;
    ASSERT_TRUE(eager->DeleteRows(batch, nullptr, &eager_scratch).ok());
    ASSERT_TRUE(lazy->DeleteRows(batch, nullptr, &lazy_scratch).ok());
    if (rng.NextInt(0, 2) == 0) {
      lazy->FlushAll(nullptr, &lazy_scratch);
      ++flushes;
      ASSERT_FALSE(lazy->HasLazyTags());
      ASSERT_TRUE(lazy->ValidateStats());
      ASSERT_EQ(ModelBytes(&*lazy), ModelBytes(&*eager))
          << "lazy flush diverged from eager after " << cursor << " deletes";
      ASSERT_EQ(lazy->PredictProbAll(train), eager->PredictProbAll(train));
    }
  }
  lazy->FlushAll();
  EXPECT_EQ(ModelBytes(&*lazy), ModelBytes(&*eager));
}

INSTANTIATE_TEST_SUITE_P(Datasets, LazyIdentitySweep,
                         testing::Values(LazyCase{"german", 1},
                                         LazyCase{"german", 2},
                                         LazyCase{"planted", 3},
                                         LazyCase{"planted", 4}),
                         CaseName);

TEST(LazyUnlearnTest, QueryDescentFlushesTags) {
  const Dataset train = CaseData({"german", 5});
  ForestConfig config = BaseConfig(5);
  auto eager = DareForest::Train(train, config);
  ASSERT_TRUE(eager.ok());
  config.lazy_unlearn = true;
  auto lazy = DareForest::Train(train, config);
  ASSERT_TRUE(lazy.ok());

  std::vector<RowId> doomed;
  for (RowId r = 0; r < 120; r += 2) doomed.push_back(r);
  ASSERT_TRUE(eager->DeleteRows(doomed).ok());
  ASSERT_TRUE(lazy->DeleteRows(doomed).ok());
  ASSERT_TRUE(lazy->HasLazyTags());
  ASSERT_GT(lazy->lazy_rows(), 0);

  // The first traversal entry point retires every pending tag — and the
  // answers match the eager kernel exactly.
  EXPECT_EQ(lazy->PredictProbAll(train), eager->PredictProbAll(train));
  EXPECT_FALSE(lazy->HasLazyTags());
  EXPECT_EQ(lazy->lazy_rows(), 0);
  EXPECT_EQ(lazy->lazy_nodes(), 0);
  EXPECT_EQ(ModelBytes(&*lazy), ModelBytes(&*eager));
}

TEST(LazyUnlearnTest, SerializationFlushesTagsAndRoundTrips) {
  const Dataset train = CaseData({"planted", 6});
  ForestConfig config = BaseConfig(6);
  auto eager = DareForest::Train(train, config);
  ASSERT_TRUE(eager.ok());
  config.lazy_unlearn = true;
  auto lazy = DareForest::Train(train, config);
  ASSERT_TRUE(lazy.ok());

  std::vector<RowId> doomed;
  for (RowId r = 1; r < 200; r += 3) doomed.push_back(r);
  ASSERT_TRUE(eager->DeleteRows(doomed).ok());
  ASSERT_TRUE(lazy->DeleteRows(doomed).ok());
  ASSERT_TRUE(lazy->HasLazyTags());

  // SaveForest refuses to write a tagged graph — it flushes first, so no
  // tag ever escapes to disk. The flush retrain work lands in the lazy
  // forest's DeletionStats (serialized in the v2 format), so byte identity
  // with eager is asserted on a second save with both counters zeroed.
  std::ostringstream first(std::ios::binary);
  ASSERT_TRUE(SaveForest(*lazy, first).ok());
  EXPECT_FALSE(lazy->HasLazyTags());
  const std::string lazy_bytes = ModelBytes(&*lazy);
  EXPECT_EQ(lazy_bytes, ModelBytes(&*eager));

  std::istringstream in(lazy_bytes, std::ios::binary);
  auto loaded = LoadForest(in);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->StructurallyEquals(*eager));
}

TEST(LazyUnlearnTest, StalenessBudgetTriggersFlush) {
  const Dataset train = CaseData({"german", 7});
  ForestConfig config = BaseConfig(7);
  config.lazy_unlearn = true;
  config.max_lazy_rows = 16;  // tiny budget: bursts overflow immediately
  auto lazy = DareForest::Train(train, config);
  ASSERT_TRUE(lazy.ok());
  config.lazy_unlearn = false;
  auto eager = DareForest::Train(train, config);
  ASSERT_TRUE(eager.ok());

  Rng rng(77);
  std::vector<RowId> live(static_cast<size_t>(train.num_rows()));
  std::iota(live.begin(), live.end(), 0);
  rng.Shuffle(&live);
  size_t cursor = 0;
  for (int burst = 0; burst < 8; ++burst) {
    std::vector<RowId> batch(live.begin() + static_cast<int64_t>(cursor),
                             live.begin() + static_cast<int64_t>(cursor) + 40);
    cursor += 40;
    ASSERT_TRUE(lazy->DeleteRows(batch).ok());
    ASSERT_TRUE(eager->DeleteRows(batch).ok());
    // The budget is an invariant, not a hint: pending work never exceeds it
    // past the end of a DeleteRows call.
    EXPECT_LE(lazy->lazy_rows(), config.max_lazy_rows);
    EXPECT_LE(lazy->lazy_nodes(), config.max_lazy_nodes);
  }
  lazy->FlushAll();
  EXPECT_EQ(ModelBytes(&*lazy), ModelBytes(&*eager));
}

TEST(LazyUnlearnTest, CowCloneAndParentTagsStayIsolated) {
  const Dataset train = CaseData({"planted", 8});
  ForestConfig config = BaseConfig(8);
  auto eager = DareForest::Train(train, config);
  ASSERT_TRUE(eager.ok());
  config.lazy_unlearn = true;
  auto lazy = DareForest::Train(train, config);
  ASSERT_TRUE(lazy.ok());

  std::vector<RowId> first;
  for (RowId r = 0; r < 150; r += 2) first.push_back(r);
  ASSERT_TRUE(lazy->DeleteRows(first).ok());
  ASSERT_TRUE(eager->DeleteRows(first).ok());
  ASSERT_TRUE(lazy->HasLazyTags());

  // Direction 1: a clone of a tagged parent owes the same flush, and each
  // side pays it independently — flushing the parent must not disturb the
  // clone's pending tags (deep-copied on unshare, never aliased).
  DareForest clone = lazy->Clone();
  ASSERT_TRUE(clone.HasLazyTags());
  EXPECT_EQ(clone.lazy_rows(), lazy->lazy_rows());
  lazy->FlushAll();
  ASSERT_FALSE(lazy->HasLazyTags());
  ASSERT_TRUE(clone.HasLazyTags());
  clone.FlushAll();
  const std::string eager_bytes = ModelBytes(&*eager);
  EXPECT_EQ(ModelBytes(&*lazy), eager_bytes);
  EXPECT_EQ(ModelBytes(&clone), eager_bytes);

  // Direction 2: new tags on one side never leak into the other. Delete
  // more from the clone only; the parent's model must not move.
  std::vector<RowId> second;
  for (RowId r = 1; r < 151; r += 2) second.push_back(r);
  ASSERT_TRUE(clone.DeleteRows(second).ok());
  clone.FlushAll();
  EXPECT_EQ(ModelBytes(&*lazy), eager_bytes);
  ASSERT_TRUE(eager->DeleteRows(second).ok());
  EXPECT_EQ(ModelBytes(&clone), ModelBytes(&*eager));
}

TEST(LazyUnlearnTest, ConcurrentReadersOverPublishedClones) {
  // The thread-confinement contract in action: the writer lazily deletes
  // and flushes on its private forest, publishing a flushed CoW clone
  // after each burst; readers only ever traverse published clones. TSan
  // (scripts/run_tsan_tests.sh) checks the unshare/refcount machinery,
  // ASan the freed-subtree hazards.
  const Dataset train = CaseData({"german", 9});
  ForestConfig config = BaseConfig(9);
  config.lazy_unlearn = true;
  auto writer_forest = DareForest::Train(train, config);
  ASSERT_TRUE(writer_forest.ok());

  std::mutex mu;
  auto published =
      std::make_shared<const DareForest>(writer_forest->Clone());
  auto snapshot = [&] {
    std::lock_guard<std::mutex> lk(mu);
    return published;
  };

  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  for (int i = 0; i < 3; ++i) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        std::shared_ptr<const DareForest> snap = snapshot();
        const std::vector<double> probs = snap->PredictProbAll(train);
        EXPECT_EQ(probs.size(), static_cast<size_t>(train.num_rows()));
      }
    });
  }

  Rng rng(99);
  std::vector<RowId> live(static_cast<size_t>(train.num_rows()));
  std::iota(live.begin(), live.end(), 0);
  rng.Shuffle(&live);
  size_t cursor = 0;
  for (int burst = 0; burst < 10; ++burst) {
    for (int b = 0; b < 3; ++b) {
      std::vector<RowId> batch(
          live.begin() + static_cast<int64_t>(cursor),
          live.begin() + static_cast<int64_t>(cursor) + 8);
      cursor += 8;
      ASSERT_TRUE(writer_forest->DeleteRows(batch).ok());
    }
    writer_forest->FlushAll();
    auto next = std::make_shared<const DareForest>(writer_forest->Clone());
    std::lock_guard<std::mutex> lk(mu);
    published = std::move(next);
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  config.lazy_unlearn = false;
  auto eager = DareForest::Train(train, config);
  ASSERT_TRUE(eager.ok());
  std::vector<RowId> deleted(live.begin(),
                             live.begin() + static_cast<int64_t>(cursor));
  ASSERT_TRUE(eager->DeleteRows(deleted).ok());
  EXPECT_EQ(ModelBytes(&*writer_forest), ModelBytes(&*eager));
}

// ---------------------------------------------------------------- stream

TEST(LazyUnlearnStreamTest, DeferredBurstsMatchEagerReplay) {
  // The engine-level contract: a lazy engine defers across delete bursts
  // (stale metric, suspended drift gating) but lands on the eager engine's
  // exact state at every flush boundary — inserts and checkpoint ops here.
  synth::SynthOptions opts;
  opts.num_rows = 500;
  opts.seed = 11;
  auto bundle = synth::MakeGermanCredit(opts);
  ASSERT_TRUE(bundle.ok());

  stream::StreamEngineConfig config;
  config.forest.num_trees = 6;
  config.forest.max_depth = 6;
  config.forest.random_depth = 2;
  config.forest.seed = 31;
  config.fume.top_k = 3;
  config.fume.support_min = 0.05;
  config.fume.support_max = 0.30;
  config.fume.max_literals = 1;
  config.fume.group = bundle->group;

  // Train on the front, keep a test slice and an insert pool.
  Dataset train(bundle->data.schema());
  Dataset test(bundle->data.schema());
  Dataset pool(bundle->data.schema());
  std::vector<int32_t> codes(
      static_cast<size_t>(bundle->data.num_attributes()));
  for (int64_t r = 0; r < bundle->data.num_rows(); ++r) {
    for (int j = 0; j < bundle->data.num_attributes(); ++j) {
      codes[static_cast<size_t>(j)] = bundle->data.Code(r, j);
    }
    Dataset* dst = r < 300 ? &train : (r < 440 ? &test : &pool);
    ASSERT_TRUE(dst->AppendRow(codes, bundle->data.Label(r)).ok());
  }

  std::vector<stream::StreamOp> ops;
  int64_t seq = 0;
  Rng rng(123);
  std::vector<RowId> live(300);
  std::iota(live.begin(), live.end(), 0);
  rng.Shuffle(&live);
  size_t cursor = 0;
  int64_t pool_next = 0;
  for (int round = 0; round < 4; ++round) {
    for (int burst = 0; burst < 3; ++burst) {  // delete burst
      std::vector<RowId> batch(
          live.begin() + static_cast<int64_t>(cursor),
          live.begin() + static_cast<int64_t>(cursor) + 6);
      cursor += 6;
      ops.push_back(stream::StreamOp::Delete(seq++, batch));
    }
    if (round % 2 == 0 && pool_next + 4 <= pool.num_rows()) {
      std::vector<stream::StreamRow> rows;
      for (int i = 0; i < 4; ++i, ++pool_next) {
        stream::StreamRow row;
        for (int j = 0; j < pool.num_attributes(); ++j) {
          row.codes.push_back(pool.Code(pool_next, j));
        }
        row.label = pool.Label(pool_next);
        rows.push_back(std::move(row));
      }
      ops.push_back(stream::StreamOp::Insert(seq++, std::move(rows)));
    } else {
      ops.push_back(stream::StreamOp::Checkpoint(seq++));
    }
  }

  auto eager_engine = stream::StreamEngine::Create(train, test, config);
  ASSERT_TRUE(eager_engine.ok()) << eager_engine.status().ToString();
  config.forest.lazy_unlearn = true;
  auto lazy_engine = stream::StreamEngine::Create(train, test, config);
  ASSERT_TRUE(lazy_engine.ok()) << lazy_engine.status().ToString();

  for (const stream::StreamOp& op : ops) {
    auto eager_out = eager_engine->Apply(op);
    ASSERT_TRUE(eager_out.ok()) << eager_out.status().ToString();
    auto lazy_out = lazy_engine->Apply(op);
    ASSERT_TRUE(lazy_out.ok()) << lazy_out.status().ToString();
    if (op.kind == stream::OpKind::kDelete) {
      EXPECT_TRUE(lazy_engine->deferring());
    } else {
      // Flush boundary: metric, accuracy and model state all caught up.
      EXPECT_FALSE(lazy_engine->deferring());
      EXPECT_EQ(lazy_out->metric, eager_out->metric);
      EXPECT_EQ(lazy_out->accuracy, eager_out->accuracy);
      EXPECT_FALSE(lazy_engine->forest().HasLazyTags());
      EXPECT_EQ(lazy_engine->forest().PredictProbAll(test),
                eager_engine->forest().PredictProbAll(test));
    }
  }

  // Mid-burst: a trailing delete leaves the engine deferring; FlushLazy()
  // lands it on the eager engine's state.
  std::vector<RowId> tail(live.begin() + static_cast<int64_t>(cursor),
                          live.begin() + static_cast<int64_t>(cursor) + 6);
  ops.push_back(stream::StreamOp::Delete(seq, tail));
  ASSERT_TRUE(eager_engine->Apply(ops.back()).ok());
  ASSERT_TRUE(lazy_engine->Apply(ops.back()).ok());
  lazy_engine->FlushLazy();
  EXPECT_FALSE(lazy_engine->deferring());
  EXPECT_EQ(lazy_engine->current_metric(), eager_engine->current_metric());
  EXPECT_EQ(lazy_engine->current_accuracy(),
            eager_engine->current_accuracy());
  EXPECT_EQ(lazy_engine->forest().PredictProbAll(test),
            eager_engine->forest().PredictProbAll(test));
}

TEST(LazyUnlearnStreamTest, BudgetFlushMidBurstThenBoundaryFlush) {
  // Regression: with a tiny staleness budget, the forest self-flushes
  // *inside* DeleteRows, so by the next boundary the engine is stale
  // (metric_stale_) while the forest holds no tags — FlushAll is a no-op
  // and returns no per-tree stats. The boundary flush must still rewalk
  // the burst-dirtied trees and land on the eager engine's exact state.
  synth::SynthOptions sopts;
  sopts.num_rows = 400;
  sopts.seed = 17;
  auto bundle = synth::MakeGermanCredit(sopts);
  ASSERT_TRUE(bundle.ok());
  SplitOptions split_opts;
  split_opts.seed = 7;
  auto split = SplitTrainTest(bundle->data, split_opts);
  ASSERT_TRUE(split.ok());

  stream::StreamEngineConfig config;
  config.forest.num_trees = 5;
  config.forest.max_depth = 6;
  config.forest.random_depth = 2;
  config.forest.seed = 31;
  config.fume.top_k = 3;
  config.fume.support_min = 0.05;
  config.fume.support_max = 0.30;
  config.fume.max_literals = 1;
  config.fume.group = bundle->group;

  auto eager_engine =
      stream::StreamEngine::Create(split->train, split->test, config);
  ASSERT_TRUE(eager_engine.ok()) << eager_engine.status().ToString();
  config.forest.lazy_unlearn = true;
  config.forest.max_lazy_rows = 8;  // overflowed by every burst below
  auto lazy_engine =
      stream::StreamEngine::Create(split->train, split->test, config);
  ASSERT_TRUE(lazy_engine.ok()) << lazy_engine.status().ToString();

  Rng rng(99);
  std::vector<RowId> live(static_cast<size_t>(split->train.num_rows()));
  std::iota(live.begin(), live.end(), 0);
  rng.Shuffle(&live);
  int64_t seq = 0;
  size_t cursor = 0;
  for (int round = 0; round < 3; ++round) {
    for (int burst = 0; burst < 3; ++burst) {
      std::vector<RowId> batch(
          live.begin() + static_cast<int64_t>(cursor),
          live.begin() + static_cast<int64_t>(cursor) + 6);
      cursor += 6;
      stream::StreamOp op = stream::StreamOp::Delete(seq++, batch);
      ASSERT_TRUE(eager_engine->Apply(op).ok());
      ASSERT_TRUE(lazy_engine->Apply(op).ok());
      // The budget keeps pending rows bounded even mid-burst...
      EXPECT_LE(lazy_engine->forest().lazy_rows(), 8);
      // ...but the engine still defers the metric until the boundary.
      EXPECT_TRUE(lazy_engine->deferring());
    }
    stream::StreamOp ckpt = stream::StreamOp::Checkpoint(seq++);
    auto eager_out = eager_engine->Apply(ckpt);
    ASSERT_TRUE(eager_out.ok()) << eager_out.status().ToString();
    auto lazy_out = lazy_engine->Apply(ckpt);
    ASSERT_TRUE(lazy_out.ok()) << lazy_out.status().ToString();
    EXPECT_FALSE(lazy_engine->deferring());
    EXPECT_EQ(lazy_out->metric, eager_out->metric);
    EXPECT_EQ(lazy_out->accuracy, eager_out->accuracy);
    EXPECT_EQ(lazy_engine->forest().PredictProbAll(split->test),
              eager_engine->forest().PredictProbAll(split->test));
  }
}

}  // namespace
}  // namespace fume
