// Stream engine exactness suite (ISSUE: streaming explanation engine).
//
// The anchor: after any prefix of an op-log, the engine's forest
// predictions, fairness metric and (post-search) top-k must be
// byte-identical to a cold retrain on the surviving rows plus a fresh FUME
// search with the same config/seed. Also pins op-log round-tripping,
// checkpoint/restore resume equivalence, drift-policy holds and the
// prediction cache against the forest's own predictors.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>

#include "core/fume.h"
#include "core/removal_method.h"
#include "data/split.h"
#include "fairness/metrics.h"
#include "stream/engine.h"
#include "stream/op_log.h"
#include "forest/prediction_cache.h"
#include "obs/metrics.h"
#include "stream/workload.h"
#include "synth/datasets.h"

namespace fume {
namespace stream {
namespace {

// ---------------------------------------------------------------------------
// Shared fixture data: a small German Credit pipeline split three ways —
// initial training data, a pool of future insert rows, and a test set.

struct StreamPipeline : StreamFixture {
  StreamEngineConfig config;
};

StreamPipeline BuildPipeline(uint64_t seed) {
  synth::SynthOptions opts;
  opts.num_rows = 700;
  opts.seed = seed;
  auto bundle = synth::MakeGermanCredit(opts);
  EXPECT_TRUE(bundle.ok());
  auto fixture = MakeStreamFixture(*bundle, /*test_fraction=*/0.3);
  EXPECT_TRUE(fixture.ok());
  StreamPipeline p{std::move(*fixture), {}};
  p.config.forest.num_trees = 10;
  p.config.forest.max_depth = 6;
  p.config.forest.random_depth = 2;
  p.config.forest.seed = 31;
  p.config.fume.top_k = 3;
  p.config.fume.support_min = 0.05;
  p.config.fume.support_max = 0.30;
  p.config.fume.max_literals = 1;
  p.config.fume.group = p.group;
  return p;
}

// Fresh FUME search against a cold model, mirroring what the engine does.
Result<FumeResult> ColdSearch(const DareForest& model, const Dataset& train,
                              const Dataset& test,
                              const StreamEngineConfig& config) {
  ModelEval original;
  original.fairness =
      ComputeFairness(model, test, config.fume.group, config.fume.metric);
  original.accuracy = model.Accuracy(test);
  UnlearnRemovalMethod removal(&model, &test, config.fume.group,
                               config.fume.metric);
  return ExplainWithRemoval(original, train, config.fume, &removal);
}

void ExpectSubsetsIdentical(const AttributableSubset& a,
                            const AttributableSubset& b) {
  EXPECT_TRUE(a.predicate == b.predicate);
  EXPECT_EQ(a.support, b.support);
  EXPECT_EQ(a.num_rows, b.num_rows);
  EXPECT_EQ(a.phi, b.phi);
  EXPECT_EQ(a.attribution, b.attribution);
  EXPECT_EQ(a.new_fairness, b.new_fairness);
  EXPECT_EQ(a.new_accuracy, b.new_accuracy);
}

void ExpectEngineMatchesCold(const StreamEngine& engine,
                             const StreamPipeline& p, bool compare_topk) {
  auto cold = DareForest::Train(engine.train_data(), p.config.forest);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();

  // Predictions byte-identical (exact doubles, not approx).
  const std::vector<double> engine_probs =
      engine.model().shard(0).PredictProbAll(p.test);
  const std::vector<double> cold_probs = cold->PredictProbAll(p.test);
  ASSERT_EQ(engine_probs.size(), cold_probs.size());
  for (size_t r = 0; r < cold_probs.size(); ++r) {
    ASSERT_EQ(engine_probs[r], cold_probs[r]) << "test row " << r;
  }

  // Engine-served metric/accuracy match a cold evaluation exactly.
  EXPECT_EQ(engine.current_metric(),
            ComputeFairness(*cold, p.test, p.group, p.config.fume.metric));
  EXPECT_EQ(engine.current_accuracy(), cold->Accuracy(p.test));

  if (!compare_topk) return;
  auto fresh = ColdSearch(*cold, engine.train_data(), p.test, p.config);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  const FumeResult* served = engine.explanation();
  ASSERT_NE(served, nullptr);
  EXPECT_EQ(served->original_fairness, fresh->original_fairness);
  ASSERT_EQ(served->top_k.size(), fresh->top_k.size());
  for (size_t i = 0; i < fresh->top_k.size(); ++i) {
    ExpectSubsetsIdentical(served->top_k[i], fresh->top_k[i]);
  }
}

// ---------------------------------------------------------------------------
// Op-log format.

TEST(OpLogTest, FormatParseRoundTrip) {
  StreamOp insert = StreamOp::Insert(
      7, {StreamRow{{1, 0, 3}, 1}, StreamRow{{2, 2, 0}, 0}});
  StreamOp del = StreamOp::Delete(8, {4, 19, 23});
  StreamOp ckpt = StreamOp::Checkpoint(9);
  // A seq past int's range round-trips instead of wrapping to 0.
  StreamOp far = StreamOp::Checkpoint(int64_t{1} << 32);
  for (const StreamOp& op : {insert, del, ckpt, far}) {
    auto parsed = ParseOp(FormatOp(op));
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_TRUE(*parsed == op);
  }
}

TEST(OpLogTest, StreamRoundTripAndResumeFilter) {
  std::vector<StreamOp> ops = {
      StreamOp::Insert(1, {StreamRow{{0, 1}, 0}}),
      StreamOp::Delete(3, {0}),
      StreamOp::Checkpoint(4),
      StreamOp::Insert(9, {StreamRow{{1, 1}, 1}}),
  };
  std::stringstream buf;
  ASSERT_TRUE(WriteOpLog(ops, buf).ok());

  auto all = ReadOpLog(buf);
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  ASSERT_EQ(all->size(), ops.size());
  for (size_t i = 0; i < ops.size(); ++i) EXPECT_TRUE((*all)[i] == ops[i]);

  // Resume-from-checkpoint: skip everything at or below seq 4.
  buf.clear();
  buf.seekg(0);
  auto tail = ReadOpLog(buf, /*after_seq=*/4);
  ASSERT_TRUE(tail.ok());
  ASSERT_EQ(tail->size(), 1u);
  EXPECT_EQ((*tail)[0].seq, 9);
}

TEST(OpLogTest, RejectsMalformedLines) {
  EXPECT_FALSE(ParseOp("X 1").ok());                // unknown kind
  EXPECT_FALSE(ParseOp("I 1").ok());                // insert with no rows
  EXPECT_FALSE(ParseOp("I 1 7:0,1").ok());          // label out of range
  EXPECT_FALSE(ParseOp("I 1 1:0,-2").ok());         // negative code
  EXPECT_FALSE(ParseOp("I 1 1:0,1 0:4").ok());      // ragged widths
  EXPECT_FALSE(ParseOp("D 2").ok());                // delete with no ids
  EXPECT_FALSE(ParseOp("C x").ok());                // non-numeric seq
  // Values past int's range are rejected, never wrapped: these would read
  // as a delete of row 1, code 0 and label 1.
  EXPECT_FALSE(ParseOp("D 7 4294967297").ok());
  EXPECT_FALSE(ParseOp("I 1 1:0,4294967296").ok());
  EXPECT_FALSE(ParseOp("I 1 4294967297:0,1").ok());
  EXPECT_FALSE(ParseOp("C 9223372036854775808").ok());  // seq past int64
  EXPECT_TRUE(ParseOp("C 5").ok());

  std::stringstream decreasing("# fume-oplog v1\nC 5\nC 3\n");
  EXPECT_FALSE(ReadOpLog(decreasing).ok());
}

TEST(WorkloadTest, DeterministicAndWellFormed) {
  StreamPipeline p = BuildPipeline(4);
  WorkloadOptions w;
  w.num_ops = 60;
  w.checkpoint_every = 20;
  w.seed = 5;
  auto a = SynthesizeOpLog(p.pool, p.initial_train.num_rows(), w);
  auto b = SynthesizeOpLog(p.pool, p.initial_train.num_rows(), w);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->size(), b->size());
  int checkpoints = 0;
  int64_t prev_seq = 0;
  for (size_t i = 0; i < a->size(); ++i) {
    EXPECT_TRUE((*a)[i] == (*b)[i]);
    EXPECT_GT((*a)[i].seq, prev_seq);
    prev_seq = (*a)[i].seq;
    if ((*a)[i].kind == OpKind::kCheckpoint) ++checkpoints;
  }
  EXPECT_GE(checkpoints, 3);
  EXPECT_EQ(a->back().kind, OpKind::kCheckpoint);
}

TEST(WorkloadTest, StreamFixtureCarvesThePoolOffTheTrainingTail) {
  synth::SynthOptions opts;
  opts.num_rows = 700;
  opts.seed = 4;
  auto bundle = synth::MakeGermanCredit(opts);
  ASSERT_TRUE(bundle.ok());
  auto fixture = MakeStreamFixture(*bundle, /*test_fraction=*/0.3);
  ASSERT_TRUE(fixture.ok()) << fixture.status().ToString();
  SplitOptions split_opts;
  split_opts.test_fraction = 0.3;
  split_opts.seed = 2;
  auto split = SplitTrainTest(bundle->data, split_opts);
  ASSERT_TRUE(split.ok());
  // initial + pool, in order, is the training half, and the pool is its
  // last floor(n/3) rows: pool row 0 is training row n - floor(n/3).
  const int64_t n = split->train.num_rows();
  const Dataset& pool = fixture->pool;
  ASSERT_EQ(fixture->initial_train.num_rows() + pool.num_rows(), n);
  ASSERT_EQ(pool.num_rows(), n / 3);
  auto joined = [&](auto column) {
    auto out = column(fixture->initial_train);
    const auto tail = column(pool);
    out.insert(out.end(), tail.begin(), tail.end());
    return out;
  };
  EXPECT_EQ(joined([](const Dataset& d) { return d.labels(); }),
            split->train.labels());
  for (int j = 0; j < split->train.num_attributes(); ++j) {
    EXPECT_EQ(joined([j](const Dataset& d) { return d.codes(j); }),
              split->train.codes(j))
        << "attribute " << j;
  }
  EXPECT_EQ(fixture->test.labels(), split->test.labels());
}

// ---------------------------------------------------------------------------
// Prediction cache: byte-identical to the forest's own predictors.

TEST(PredictionCacheTest, MatchesForestThroughMixedOps) {
  StreamPipeline p = BuildPipeline(4);
  auto forest =
      ShardedForest::Train(p.initial_train, p.config.forest, ShardConfig{});
  ASSERT_TRUE(forest.ok());

  ShardedPredictionCache cache;
  cache.Rebuild(*forest, p.test);
  EXPECT_EQ(cache.probs(), forest->PredictProbAll(p.test));
  EXPECT_EQ(cache.predictions(), forest->PredictAll(p.test));

  // Delete a spread of rows, then add some back; after each op the cache
  // must still agree exactly with a full re-prediction.
  std::vector<RowId> doomed;
  for (RowId id = 3; id < 120; id += 7) doomed.push_back(id);
  ASSERT_TRUE(forest->DeleteRows(doomed).ok());
  cache.Update(*forest, p.test);
  EXPECT_EQ(cache.probs(), forest->PredictProbAll(p.test));
  EXPECT_EQ(cache.predictions(), forest->PredictAll(p.test));

  std::vector<int64_t> keep;
  for (int64_t r = 40; r < 60; ++r) keep.push_back(r);
  Dataset batch = p.pool;
  std::vector<int64_t> drop;
  for (int64_t r = 0; r < batch.num_rows(); ++r) {
    if (r >= 20) drop.push_back(r);
  }
  batch = batch.DropRows(drop);
  auto added = forest->AddData(batch);
  ASSERT_TRUE(added.ok());
  cache.Update(*forest, p.test);
  EXPECT_EQ(cache.probs(), forest->PredictProbAll(p.test));
  EXPECT_EQ(cache.predictions(), forest->PredictAll(p.test));
}

// The engine's cache follows the node stamps alone, so it must stay exact
// however a write reaches the nodes. Here a snapshot clone taken before
// every op, as a serving tenant publishes one, shares every node, so each
// write copies the paths it touches. The op-log mixes 12-row inserts, which
// grow leaves into splits, with 3-row deletes; the lazy engine defers each
// run of deletes until the next insert or checkpoint flushes it.
void ExpectCacheExactUnderLiveSnapshots(StreamPipeline p, int num_shards) {
  if (num_shards > 1) {
    p.config.shard.num_shards = num_shards;
    p.config.shard.placement = ShardConfig::Placement::kSlice;
    p.config.shard.slice_attr = p.group.sensitive_attr;
    p.config.shard.slice_value = p.group.privileged_code;
  }
  WorkloadOptions w;
  w.num_ops = 60;
  w.insert_batch = 12;
  w.delete_batch = 3;
  w.delete_fraction = 0.6;
  w.checkpoint_every = 20;
  w.seed = 5;
  auto ops = SynthesizeOpLog(p.pool, p.initial_train.num_rows(), w);
  ASSERT_TRUE(ops.ok()) << ops.status().ToString();
  for (const bool lazy : {false, true}) {
    SCOPED_TRACE(lazy ? "lazy" : "eager");
    p.config.forest.lazy_unlearn = lazy;
    auto engine = StreamEngine::Create(p.initial_train, p.test, p.config);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    int64_t grown = 0;
    int64_t flushed_bursts = 0;
    int64_t checked = 0;
    for (const StreamOp& op : *ops) {
      const bool was_deferring = engine->deferring();
      const ShardedForest snapshot = engine->model().Clone();
      const std::vector<double> snapshot_probs =
          engine->prediction_cache().probs();
      const int64_t nodes = engine->model().num_nodes();
      ASSERT_TRUE(engine->Apply(op).ok()) << "op seq " << op.seq;
      if (op.kind == OpKind::kInsert && engine->model().num_nodes() > nodes) {
        ++grown;
      }
      if (!was_deferring) {
        // The write copied what it touched: the snapshot still predicts
        // what the cache said before the op.
        EXPECT_EQ(snapshot.PredictProbAll(p.test), snapshot_probs)
            << "op seq " << op.seq;
      }
      // Mid-burst the cache describes the pre-burst model by contract.
      if (engine->deferring()) continue;
      if (was_deferring) ++flushed_bursts;
      ASSERT_EQ(engine->prediction_cache().probs(),
                engine->model().PredictProbAll(p.test))
          << "op seq " << op.seq;
      ASSERT_EQ(engine->prediction_cache().predictions(),
                engine->model().PredictAll(p.test))
          << "op seq " << op.seq;
      ++checked;
    }
    EXPECT_GT(grown, 0);
    if (lazy) {
      EXPECT_GT(flushed_bursts, 3);
      EXPECT_GT(checked, 10);
    } else {
      EXPECT_EQ(checked, static_cast<int64_t>(ops->size()));
    }
  }
}

TEST(PredictionCacheTest, ExactUnderLiveSnapshotsOneShard) {
  ExpectCacheExactUnderLiveSnapshots(BuildPipeline(6), 1);
}

TEST(PredictionCacheTest, ExactUnderLiveSnapshotsFourSliceShards) {
  ExpectCacheExactUnderLiveSnapshots(BuildPipeline(6), 4);
}

// Update rewrites only the (row, tree) pairs whose leaf an op wrote: here
// under half of every test row in every visited tree. Exact counts: they
// depend only on the data, the seeds and the op-log.
TEST(PredictionCacheTest, RewalkCountsArePinned) {
  StreamPipeline p = BuildPipeline(4);
  auto engine = StreamEngine::Create(p.initial_train, p.test, p.config);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  WorkloadOptions w;
  w.num_ops = 30;
  w.checkpoint_every = 0;
  w.seed = 11;
  auto ops = SynthesizeOpLog(p.pool, p.initial_train.num_rows(), w);
  ASSERT_TRUE(ops.ok()) << ops.status().ToString();
  obs::Counter* trees = obs::GetCounter("stream.predcache.trees_rewalked");
  obs::Counter* rows = obs::GetCounter("stream.predcache.rows_rewalked");
  const int64_t trees_before = trees->Value();
  const int64_t rows_before = rows->Value();
  int64_t writes = 0;
  for (const StreamOp& op : *ops) {
    ASSERT_TRUE(engine->Apply(op).ok()) << "op seq " << op.seq;
    if (op.kind != OpKind::kCheckpoint) ++writes;
  }
  const int64_t trees_rewalked = trees->Value() - trees_before;
  const int64_t rows_rewalked = rows->Value() - rows_before;
  ASSERT_EQ(writes, 29);
  // Each tree holds every row, so every write reaches all ten trees.
  EXPECT_EQ(trees_rewalked, writes * p.config.forest.num_trees);
  EXPECT_EQ(rows_rewalked, 27307);
  EXPECT_LT(rows_rewalked, trees_rewalked * p.test.num_rows() / 2);
}

// ---------------------------------------------------------------------------
// The exactness anchor: >= 200 interleaved ops, multiple checkpoints,
// engine state byte-identical to cold retrain + fresh search at every one.

void RunExactness(uint64_t data_seed, uint64_t workload_seed) {
  StreamPipeline p = BuildPipeline(data_seed);
  auto engine = StreamEngine::Create(p.initial_train, p.test, p.config);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  WorkloadOptions w;
  w.num_ops = 200;
  w.insert_batch = 4;
  w.delete_batch = 3;
  w.checkpoint_every = 40;  // 5 interior checkpoints + the final one
  w.seed = workload_seed;
  auto ops = SynthesizeOpLog(p.pool, p.initial_train.num_rows(), w);
  ASSERT_TRUE(ops.ok()) << ops.status().ToString();
  ASSERT_GE(ops->size(), 200u);

  int checkpoints_verified = 0;
  for (const StreamOp& op : *ops) {
    auto outcome = engine->Apply(op);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    if (op.kind != OpKind::kCheckpoint) continue;
    // Checkpoint ops refresh the explanation whenever stale, so the
    // served top-k must equal a fresh cold search here.
    EXPECT_EQ(engine->staleness(), 0);
    ExpectEngineMatchesCold(*engine, p, /*compare_topk=*/true);
    ++checkpoints_verified;
  }
  EXPECT_GE(checkpoints_verified, 3);
  EXPECT_EQ(engine->rows_live(), engine->train_data().num_rows());
  EXPECT_EQ(engine->live_ids().size(),
            static_cast<size_t>(engine->rows_live()));
}

TEST(StreamExactnessTest, TwoHundredOpsSeedA) { RunExactness(4, 11); }
TEST(StreamExactnessTest, TwoHundredOpsSeedB) { RunExactness(9, 23); }

// More than one shard: at every checkpoint op, each shard predicts exactly
// like a forest trained from scratch on that shard's surviving rows with
// the shard's derived seed, and the served metric and accuracy are the
// vote of those cold shards.
TEST(StreamExactnessTest, FourSliceShardsMatchPerShardRetrains) {
  StreamPipeline p = BuildPipeline(4);
  p.config.shard.num_shards = 4;
  p.config.shard.placement = ShardConfig::Placement::kSlice;
  p.config.shard.slice_attr = p.group.sensitive_attr;
  p.config.shard.slice_value = p.group.privileged_code;
  auto engine = StreamEngine::Create(p.initial_train, p.test, p.config);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  WorkloadOptions w;
  w.num_ops = 200;
  w.insert_batch = 4;
  w.delete_batch = 3;
  w.checkpoint_every = 40;
  w.seed = 11;
  auto ops = SynthesizeOpLog(p.pool, p.initial_train.num_rows(), w);
  ASSERT_TRUE(ops.ok()) << ops.status().ToString();

  int checkpoints_verified = 0;
  for (const StreamOp& op : *ops) {
    ASSERT_TRUE(engine->Apply(op).ok()) << "op seq " << op.seq;
    if (op.kind != OpKind::kCheckpoint) continue;
    const ShardedForest& model = engine->model();
    ASSERT_EQ(model.num_shards(), 4);
    const std::vector<RowId>& ids = engine->live_ids();
    std::vector<std::vector<double>> cold_probs(4);
    for (int s = 0; s < 4; ++s) {
      std::vector<int64_t> members;
      for (size_t r = 0; r < ids.size(); ++r) {
        if (model.shard_of(ids[r]) == s) {
          members.push_back(static_cast<int64_t>(r));
        }
      }
      ForestConfig cfg = p.config.forest;
      cfg.seed = p.config.forest.seed +
                 ShardedForest::kShardSeedStride * static_cast<uint64_t>(s);
      auto cold = DareForest::Train(engine->train_data().Select(members), cfg);
      ASSERT_TRUE(cold.ok()) << cold.status().ToString();
      cold_probs[static_cast<size_t>(s)] = cold->PredictProbAll(p.test);
      const std::vector<double> live = model.shard(s).PredictProbAll(p.test);
      ASSERT_EQ(live.size(), cold_probs[static_cast<size_t>(s)].size());
      for (size_t r = 0; r < live.size(); ++r) {
        ASSERT_EQ(live[r], cold_probs[static_cast<size_t>(s)][r])
            << "shard " << s << " test row " << r << " at seq " << op.seq;
      }
    }
    std::vector<const std::vector<double>*> votes;
    for (const auto& probs : cold_probs) votes.push_back(&probs);
    std::vector<double> mean;
    std::vector<int> preds;
    VoteFromShardProbs(votes, &mean, &preds);
    EXPECT_EQ(engine->current_metric(),
              ComputeFairness(p.test, preds, p.group, p.config.fume.metric));
    int64_t correct = 0;
    for (int64_t r = 0; r < p.test.num_rows(); ++r) {
      if (preds[static_cast<size_t>(r)] == p.test.Label(r)) ++correct;
    }
    EXPECT_EQ(engine->current_accuracy(),
              static_cast<double>(correct) /
                  static_cast<double>(p.test.num_rows()));
    ++checkpoints_verified;
  }
  EXPECT_GE(checkpoints_verified, 3);
}

// ---------------------------------------------------------------------------
// Checkpoint / restore: killing the engine mid-log and resuming replays to
// exactly the state the uninterrupted engine reaches.

TEST(StreamCheckpointTest, RestoreMidLogMatchesUninterrupted) {
  StreamPipeline p = BuildPipeline(4);
  WorkloadOptions w;
  w.num_ops = 80;
  w.checkpoint_every = 20;
  w.seed = 7;
  auto ops = SynthesizeOpLog(p.pool, p.initial_train.num_rows(), w);
  ASSERT_TRUE(ops.ok());

  auto uninterrupted = StreamEngine::Create(p.initial_train, p.test, p.config);
  ASSERT_TRUE(uninterrupted.ok());
  auto shard = StreamEngine::Create(p.initial_train, p.test, p.config);
  ASSERT_TRUE(shard.ok());

  // Drive both to the second checkpoint; snapshot the shard there.
  size_t cut = 0;
  int seen = 0;
  for (size_t i = 0; i < ops->size(); ++i) {
    ASSERT_TRUE(uninterrupted->Apply((*ops)[i]).ok());
    ASSERT_TRUE(shard->Apply((*ops)[i]).ok());
    if ((*ops)[i].kind == OpKind::kCheckpoint && ++seen == 2) {
      cut = i;
      break;
    }
  }
  ASSERT_EQ(seen, 2);
  std::stringstream blob;
  ASSERT_TRUE(shard->SaveCheckpoint(blob).ok());

  auto restored = StreamEngine::Restore(blob, p.initial_train.schema(),
                                        p.test, p.config);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->last_seq(), shard->last_seq());
  EXPECT_EQ(restored->current_metric(), shard->current_metric());
  EXPECT_TRUE(restored->live_ids() == shard->live_ids());

  // Resume: replay the remaining ops into both engines.
  for (size_t i = cut + 1; i < ops->size(); ++i) {
    ASSERT_TRUE(uninterrupted->Apply((*ops)[i]).ok());
    ASSERT_TRUE(restored->Apply((*ops)[i]).ok());
  }
  EXPECT_EQ(restored->last_seq(), uninterrupted->last_seq());
  EXPECT_EQ(restored->current_metric(), uninterrupted->current_metric());
  EXPECT_EQ(restored->current_accuracy(), uninterrupted->current_accuracy());
  EXPECT_EQ(restored->model().shard(0).PredictProbAll(p.test),
            uninterrupted->model().shard(0).PredictProbAll(p.test));
  const FumeResult* a = restored->explanation();
  const FumeResult* b = uninterrupted->explanation();
  ASSERT_EQ(a != nullptr, b != nullptr);
  if (a != nullptr) {
    ASSERT_EQ(a->top_k.size(), b->top_k.size());
    for (size_t i = 0; i < a->top_k.size(); ++i) {
      ExpectSubsetsIdentical(a->top_k[i], b->top_k[i]);
    }
  }
}

TEST(StreamCheckpointTest, RestoreRejectsGarbageAndWrongSchema) {
  StreamPipeline p = BuildPipeline(4);
  std::stringstream garbage("not a checkpoint at all");
  EXPECT_FALSE(
      StreamEngine::Restore(garbage, p.initial_train.schema(), p.test,
                            p.config)
          .ok());

  auto engine = StreamEngine::Create(p.initial_train, p.test, p.config);
  ASSERT_TRUE(engine.ok());
  std::stringstream blob;
  ASSERT_TRUE(engine->SaveCheckpoint(blob).ok());
  Schema wrong;
  wrong.AddCategorical("only", {"a", "b"});
  EXPECT_FALSE(
      StreamEngine::Restore(blob, wrong, p.test, p.config).ok());
}

// The cached top-k's literals index the schema when printed or served, so
// Restore must reject any literal the lattice could not have emitted. Each
// case patches one field of the first top-k literal of a checkpoint saved
// by a real engine.

// Byte offset of the first top-k literal's `attr` in a checkpoint: magic,
// version, seq, metric, accuracy, drift reference, staleness, the live-id
// block, the explanation flag and header, and the literal count.
size_t FirstLiteralOffset(const StreamEngine& engine) {
  const size_t engine_block = 8 + 4 + 8 + 8 + 8 + 8 + 8;
  const size_t live = 8 + engine.live_ids().size() * sizeof(RowId);
  return engine_block + live + 1 + 8 + 8 + 4 + 4;
}

std::string CheckpointWithTopK(const StreamPipeline& p, size_t* attr_at) {
  auto engine = StreamEngine::Create(p.initial_train, p.test, p.config);
  EXPECT_TRUE(engine.ok());
  EXPECT_NE(engine->explanation(), nullptr);
  EXPECT_FALSE(engine->explanation()->top_k.empty());
  EXPECT_GE(engine->explanation()->top_k[0].predicate.num_literals(), 1);
  std::ostringstream out(std::ios::binary);
  EXPECT_TRUE(engine->SaveCheckpoint(out).ok());
  *attr_at = FirstLiteralOffset(*engine);
  // The saved literal is the served one.
  const Literal& lit = engine->explanation()->top_k[0].predicate.literals()[0];
  int32_t attr = -1;
  std::memcpy(&attr, out.str().data() + *attr_at, sizeof(attr));
  EXPECT_EQ(attr, lit.attr);
  return out.str();
}

template <typename T>
Status RestorePatched(const StreamPipeline& p, std::string bytes,
                      size_t offset, T value) {
  std::memcpy(bytes.data() + offset, &value, sizeof(T));
  std::istringstream in(bytes, std::ios::binary);
  return StreamEngine::Restore(in, p.initial_train.schema(), p.test, p.config)
      .status();
}

// Deletes find live ids by binary search, so a live-id block that is not
// strictly ascending must not restore. Swaps the first two live ids (0 and
// 1 in a fresh engine), which follow the engine block and the id count.
TEST(StreamCheckpointTest, RestoreRejectsNonAscendingLiveIds) {
  StreamPipeline p = BuildPipeline(4);
  auto engine = StreamEngine::Create(p.initial_train, p.test, p.config);
  ASSERT_TRUE(engine.ok());
  std::ostringstream out(std::ios::binary);
  ASSERT_TRUE(engine->SaveCheckpoint(out).ok());
  const size_t ids_at = 8 + 4 + 8 + 8 + 8 + 8 + 8 + 8;
  RowId saved[2] = {-1, -1};
  std::memcpy(saved, out.str().data() + ids_at, sizeof(saved));
  ASSERT_TRUE(saved[0] == 0 && saved[1] == 1);
  EXPECT_TRUE(RestorePatched<RowId>(p, out.str(), ids_at, 0).ok());
  std::string swapped = out.str();
  const RowId one = 1;
  std::memcpy(swapped.data() + ids_at, &one, sizeof(RowId));
  const Status st =
      RestorePatched<RowId>(p, swapped, ids_at + sizeof(RowId), 0);
  EXPECT_TRUE(st.IsIOError()) << st.ToString();
}

TEST(StreamCheckpointTest, RestoreRejectsTopKLiteralAttributeOutOfRange) {
  StreamPipeline p = BuildPipeline(4);
  size_t at = 0;
  const std::string bytes = CheckpointWithTopK(p, &at);
  int32_t intact = 0;
  std::memcpy(&intact, bytes.data() + at, sizeof(intact));
  EXPECT_TRUE(RestorePatched<int32_t>(p, bytes, at, intact).ok());
  for (const int32_t attr :
       {int32_t{1000000}, int32_t{-1},
        static_cast<int32_t>(p.initial_train.num_attributes())}) {
    const Status st = RestorePatched<int32_t>(p, bytes, at, attr);
    EXPECT_TRUE(st.IsIOError()) << "attr " << attr << ": " << st.ToString();
  }
}

TEST(StreamCheckpointTest, RestoreRejectsTopKLiteralOperatorOutOfRange) {
  StreamPipeline p = BuildPipeline(4);
  size_t at = 0;
  const std::string bytes = CheckpointWithTopK(p, &at);
  for (const uint8_t op :
       {static_cast<uint8_t>(static_cast<uint8_t>(LiteralOp::kGt) + 1),
        uint8_t{255}}) {
    const Status st = RestorePatched<uint8_t>(p, bytes, at + 4, op);
    EXPECT_TRUE(st.IsIOError()) << "op " << int{op} << ": " << st.ToString();
  }
}

TEST(StreamCheckpointTest, RestoreRejectsTopKLiteralValueOutOfRange) {
  StreamPipeline p = BuildPipeline(4);
  size_t at = 0;
  const std::string bytes = CheckpointWithTopK(p, &at);
  int32_t attr = 0;
  std::memcpy(&attr, bytes.data() + at, sizeof(attr));
  const int32_t card =
      p.initial_train.schema().attribute(attr).cardinality();
  for (const int32_t value : {card, int32_t{-1}, int32_t{1000000}}) {
    const Status st = RestorePatched<int32_t>(p, bytes, at + 5, value);
    EXPECT_TRUE(st.IsIOError()) << "value " << value << ": " << st.ToString();
  }
}

// ---------------------------------------------------------------------------
// Drift policy and serving semantics.

TEST(DriftPolicyTest, ThresholdEdges) {
  DriftPolicy policy;
  policy.abs_threshold = 0.05;
  policy.rel_threshold = 0.5;
  EXPECT_FALSE(policy.ShouldSearch(0.20, 0.21));  // small drift
  EXPECT_TRUE(policy.ShouldSearch(0.20, 0.26));   // abs bound crossed
  EXPECT_TRUE(policy.ShouldSearch(0.04, 0.08));   // rel bound crossed
  EXPECT_FALSE(policy.ShouldSearch(0.0, 0.04));   // rel ignored at F_last=0
  EXPECT_TRUE(policy.ShouldSearch(0.0, 0.05));    // ...but abs still applies
  EXPECT_TRUE(policy.ShouldSearch(0.03, -0.03));  // sign flip counts as drift
}

TEST(StreamEngineTest, DriftHoldServesStaleExplanation) {
  StreamPipeline p = BuildPipeline(4);
  p.config.drift.abs_threshold = 1e9;  // never re-search on data ops
  p.config.drift.rel_threshold = 1e9;
  p.config.search_on_checkpoint = false;
  auto engine = StreamEngine::Create(p.initial_train, p.test, p.config);
  ASSERT_TRUE(engine.ok());
  const FumeResult* initial = engine->explanation();
  ASSERT_NE(initial, nullptr);
  const double frozen_reference = engine->metric_at_last_search();

  WorkloadOptions w;
  w.num_ops = 30;
  w.checkpoint_every = 10;
  w.seed = 3;
  auto ops = SynthesizeOpLog(p.pool, p.initial_train.num_rows(), w);
  ASSERT_TRUE(ops.ok());
  int64_t data_ops = 0;
  for (const StreamOp& op : *ops) {
    auto outcome = engine->Apply(op);
    ASSERT_TRUE(outcome.ok());
    EXPECT_FALSE(outcome->searched);
    if (op.kind != OpKind::kCheckpoint) ++data_ops;
    EXPECT_EQ(outcome->staleness_ops, data_ops);
  }
  // Cached top-k still served, staleness annotated, reference untouched.
  EXPECT_EQ(engine->explanation(), initial);
  EXPECT_EQ(engine->staleness(), data_ops);
  EXPECT_EQ(engine->metric_at_last_search(), frozen_reference);
}

TEST(StreamEngineTest, RejectsStaleSeqAndUnknownIds) {
  StreamPipeline p = BuildPipeline(4);
  auto engine = StreamEngine::Create(p.initial_train, p.test, p.config);
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE(engine->Apply(StreamOp::Checkpoint(5)).ok());
  EXPECT_FALSE(engine->Apply(StreamOp::Checkpoint(5)).ok());
  EXPECT_FALSE(engine->Apply(StreamOp::Checkpoint(4)).ok());

  // Deleting a never-issued id fails cleanly and changes nothing.
  const double before = engine->current_metric();
  EXPECT_FALSE(engine->Apply(StreamOp::Delete(6, {999999})).ok());
  EXPECT_EQ(engine->current_metric(), before);

  // Double-delete: the second op must fail (id no longer live).
  ASSERT_TRUE(engine->Apply(StreamOp::Delete(7, {0})).ok());
  EXPECT_FALSE(engine->Apply(StreamOp::Delete(8, {0})).ok());
}

}  // namespace
}  // namespace stream
}  // namespace fume
