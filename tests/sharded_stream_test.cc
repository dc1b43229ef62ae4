// Sharded stream engine suite: the engine always runs a SISA
// ShardedForest; these cases use more than one shard. Pins the checkpoint
// container (one streamed blob per shard, deterministic bytes), restore
// equivalence with an uninterrupted run, lazy-deferral flush identity, and
// config/version validation at restore time.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "data/split.h"
#include "stream/engine.h"
#include "stream/op_log.h"
#include "synth/datasets.h"

namespace fume {
namespace stream {
namespace {

struct ShardedPipeline {
  Dataset initial_train;
  Dataset pool;
  Dataset test;
  StreamEngineConfig config;
};

ShardedPipeline BuildPipeline(uint64_t seed, int num_shards) {
  synth::SynthOptions opts;
  opts.num_rows = 700;
  opts.seed = seed;
  auto bundle = synth::MakeGermanCredit(opts);
  EXPECT_TRUE(bundle.ok());
  SplitOptions split_opts;
  split_opts.test_fraction = 0.3;
  split_opts.seed = 2;
  auto split = SplitTrainTest(bundle->data, split_opts);
  EXPECT_TRUE(split.ok());
  const int64_t pool_rows = split->train.num_rows() / 3;
  std::vector<int64_t> tail, head;
  for (int64_t r = split->train.num_rows() - pool_rows;
       r < split->train.num_rows(); ++r) {
    tail.push_back(r);
  }
  for (int64_t r = 0; r < split->train.num_rows() - pool_rows; ++r) {
    head.push_back(r);
  }
  ShardedPipeline p;
  p.initial_train = split->train.DropRows(tail);
  p.pool = split->train.DropRows(head);
  p.test = std::move(split->test);
  p.config.forest.num_trees = 8;
  p.config.forest.max_depth = 6;
  p.config.forest.random_depth = 2;
  p.config.forest.seed = 31;
  p.config.fume.top_k = 3;
  p.config.fume.support_min = 0.05;
  p.config.fume.support_max = 0.30;
  p.config.fume.max_literals = 1;
  p.config.fume.group = bundle->group;
  p.config.shard.num_shards = num_shards;
  return p;
}

// Deletes + one insert + a checkpoint op, all at fixed seqs.
std::vector<StreamOp> Ops(const ShardedPipeline& p) {
  std::vector<StreamOp> ops;
  ops.push_back(StreamOp::Delete(1, {4, 19, 23, 77}));
  ops.push_back(StreamOp::Delete(2, {101, 102, 103}));
  for (int64_t r = 0; r < 5; ++r) {
    StreamRow row;
    for (int a = 0; a < p.pool.num_attributes(); ++a) {
      row.codes.push_back(p.pool.Code(r, a));
    }
    row.label = p.pool.Label(r);
    ops.push_back(StreamOp::Insert(3 + r, {row}));
  }
  ops.push_back(StreamOp::Delete(9, {0, 1, 2, 150, 151}));
  ops.push_back(StreamOp::Checkpoint(10));
  return ops;
}

TEST(ShardedStreamTest, RestoreMidLogMatchesUninterrupted) {
  const ShardedPipeline p = BuildPipeline(5, 4);
  const std::vector<StreamOp> ops = Ops(p);

  auto uninterrupted = StreamEngine::Create(p.initial_train, p.test, p.config);
  ASSERT_TRUE(uninterrupted.ok()) << uninterrupted.status().ToString();
  auto victim = StreamEngine::Create(p.initial_train, p.test, p.config);
  ASSERT_TRUE(victim.ok());

  // Kill the victim after the 4th op; restore and replay the rest.
  std::stringstream blob(std::ios::in | std::ios::out | std::ios::binary);
  size_t cut = 4;
  for (size_t i = 0; i < ops.size(); ++i) {
    ASSERT_TRUE(uninterrupted->Apply(ops[i]).ok()) << "op " << i;
    if (i < cut) {
      ASSERT_TRUE(victim->Apply(ops[i]).ok());
    }
  }
  ASSERT_TRUE(victim->SaveCheckpoint(blob).ok());
  auto restored = StreamEngine::Restore(blob, p.initial_train.schema(),
                                        p.test, p.config);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->model().num_shards(), 4);
  for (size_t i = cut; i < ops.size(); ++i) {
    ASSERT_TRUE(restored->Apply(ops[i]).ok()) << "op " << i;
  }

  EXPECT_EQ(restored->current_metric(), uninterrupted->current_metric());
  EXPECT_EQ(restored->current_accuracy(), uninterrupted->current_accuracy());
  EXPECT_EQ(restored->live_ids(), uninterrupted->live_ids());
  const auto a = restored->model().PredictProbAll(p.test);
  const auto b = uninterrupted->model().PredictProbAll(p.test);
  ASSERT_EQ(a.size(), b.size());
  for (size_t r = 0; r < a.size(); ++r) ASSERT_EQ(a[r], b[r]) << "row " << r;
  EXPECT_TRUE(restored->model().StructurallyEquals(
      uninterrupted->model()));
}

TEST(ShardedStreamTest, CheckpointBytesAreDeterministic) {
  const ShardedPipeline p = BuildPipeline(6, 4);
  auto engine = StreamEngine::Create(p.initial_train, p.test, p.config);
  ASSERT_TRUE(engine.ok());
  for (const StreamOp& op : Ops(p)) ASSERT_TRUE(engine->Apply(op).ok());

  // Saving twice with nothing applied in between emits identical bytes.
  std::ostringstream first(std::ios::binary), second(std::ios::binary);
  ASSERT_TRUE(engine->SaveCheckpoint(first).ok());
  ASSERT_TRUE(engine->SaveCheckpoint(second).ok());
  EXPECT_EQ(first.str(), second.str());

  // A restored engine re-saves to the same bytes.
  std::istringstream in(first.str(), std::ios::binary);
  auto restored = StreamEngine::Restore(in, p.initial_train.schema(), p.test,
                                        p.config);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  std::ostringstream resaved(std::ios::binary);
  ASSERT_TRUE(restored->SaveCheckpoint(resaved).ok());
  EXPECT_EQ(resaved.str(), first.str());

  // After the same further op, the original and the restored engine save
  // the same bytes.
  ASSERT_TRUE(engine->Apply(StreamOp::Delete(11, {30, 31})).ok());
  ASSERT_TRUE(restored->Apply(StreamOp::Delete(11, {30, 31})).ok());
  std::ostringstream inc(std::ios::binary), fresh(std::ios::binary);
  ASSERT_TRUE(engine->SaveCheckpoint(inc).ok());
  ASSERT_TRUE(restored->SaveCheckpoint(fresh).ok());
  EXPECT_EQ(inc.str(), fresh.str());
}

TEST(ShardedStreamTest, LazyDeferralFlushesToTheEagerState) {
  ShardedPipeline eager_p = BuildPipeline(7, 4);
  ShardedPipeline lazy_p = BuildPipeline(7, 4);
  lazy_p.config.forest.lazy_unlearn = true;
  auto eager = StreamEngine::Create(eager_p.initial_train, eager_p.test,
                                    eager_p.config);
  auto lazy =
      StreamEngine::Create(lazy_p.initial_train, lazy_p.test, lazy_p.config);
  ASSERT_TRUE(eager.ok());
  ASSERT_TRUE(lazy.ok());
  for (int seq = 1; seq <= 3; ++seq) {
    const StreamOp op = StreamOp::Delete(
        seq, {seq * 10, seq * 10 + 1, seq * 10 + 2, seq * 100});
    ASSERT_TRUE(eager->Apply(op).ok());
    ASSERT_TRUE(lazy->Apply(op).ok());
  }
  lazy->FlushLazy();
  EXPECT_EQ(lazy->current_metric(), eager->current_metric());
  const auto a = lazy->model().PredictProbAll(lazy_p.test);
  const auto b = eager->model().PredictProbAll(eager_p.test);
  EXPECT_EQ(a, b);
}

TEST(ShardedStreamTest, RestoreValidatesVersionAndShardConfig) {
  const ShardedPipeline p = BuildPipeline(8, 2);
  auto engine = StreamEngine::Create(p.initial_train, p.test, p.config);
  ASSERT_TRUE(engine.ok());
  std::ostringstream out(std::ios::binary);
  ASSERT_TRUE(engine->SaveCheckpoint(out).ok());

  // A 2-shard checkpoint cannot restore into a 1-shard config...
  StreamEngineConfig mono = p.config;
  mono.shard.num_shards = 1;
  std::istringstream in1(out.str(), std::ios::binary);
  EXPECT_FALSE(
      StreamEngine::Restore(in1, p.initial_train.schema(), p.test, mono).ok());
  // ...nor into one with a different shard layout.
  StreamEngineConfig wrong = p.config;
  wrong.shard.num_shards = 4;
  std::istringstream in2(out.str(), std::ios::binary);
  EXPECT_FALSE(
      StreamEngine::Restore(in2, p.initial_train.schema(), p.test, wrong).ok());
  // The exact config restores fine.
  std::istringstream in3(out.str(), std::ios::binary);
  EXPECT_TRUE(
      StreamEngine::Restore(in3, p.initial_train.schema(), p.test, p.config)
          .ok());

  // And a 1-shard checkpoint refuses a 2-shard config.
  auto mono_engine = StreamEngine::Create(p.initial_train, p.test, mono);
  ASSERT_TRUE(mono_engine.ok());
  std::ostringstream mono_out(std::ios::binary);
  ASSERT_TRUE(mono_engine->SaveCheckpoint(mono_out).ok());
  std::istringstream in4(mono_out.str(), std::ios::binary);
  EXPECT_FALSE(
      StreamEngine::Restore(in4, p.initial_train.schema(), p.test, p.config)
          .ok());
}

TEST(ShardedStreamTest, RestoreRejectsVersionOneWithTheReplayRemedy) {
  const ShardedPipeline p = BuildPipeline(8, 1);
  // The FUMESTRM magic and version 1 (the retired monolithic layout); the
  // rest of the bytes are never read.
  std::string blob = "FUMESTRM";
  const uint32_t version = 1;
  blob.append(reinterpret_cast<const char*>(&version), sizeof(version));
  blob.append(64, '\0');
  std::istringstream in(blob, std::ios::binary);
  auto restored =
      StreamEngine::Restore(in, p.initial_train.schema(), p.test, p.config);
  ASSERT_FALSE(restored.ok());
  EXPECT_TRUE(restored.status().IsIOError()) << restored.status().ToString();
  EXPECT_NE(restored.status().message().find("version 1"), std::string::npos)
      << restored.status().message();
  EXPECT_NE(restored.status().message().find("replay the op-log"),
            std::string::npos)
      << restored.status().message();
}

}  // namespace
}  // namespace stream
}  // namespace fume
