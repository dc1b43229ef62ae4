// Sharded stream engine suite: the engine always runs a SISA
// ShardedForest; most cases use more than one shard, slicing the
// privileged cohort into the last one. Pins the checkpoint container (one
// streamed blob per shard, deterministic bytes), restore equivalence with
// an uninterrupted run, the write path's bytes and work at every thread
// count, and config/version/placement validation at restore time.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "stream/engine.h"
#include "stream/op_log.h"
#include "stream/workload.h"
#include "synth/datasets.h"

namespace fume {
namespace stream {
namespace {

struct ShardedPipeline : StreamFixture {
  StreamEngineConfig config;
};

ShardedPipeline BuildPipeline(uint64_t seed, int num_shards) {
  synth::SynthOptions opts;
  opts.num_rows = 700;
  opts.seed = seed;
  auto bundle = synth::MakeGermanCredit(opts);
  EXPECT_TRUE(bundle.ok());
  auto fixture = MakeStreamFixture(*bundle, /*test_fraction=*/0.3);
  EXPECT_TRUE(fixture.ok());
  ShardedPipeline p{std::move(*fixture), {}};
  p.config.forest.num_trees = 8;
  p.config.forest.max_depth = 6;
  p.config.forest.random_depth = 2;
  p.config.forest.seed = 31;
  p.config.fume.top_k = 3;
  p.config.fume.support_min = 0.05;
  p.config.fume.support_max = 0.30;
  p.config.fume.max_literals = 1;
  p.config.fume.group = bundle->group;
  p.config.shard = ShardConfigFromFlags(
      num_shards, bundle->group.sensitive_attr, bundle->group.privileged_code);
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

// Everything one applied op leaves observable, as exact text: the op's
// outcome, the metrics the engine serves, and (when `checkpoint`) the
// checkpoint bytes.
std::string Observed(const StreamEngine& engine, const OpOutcome& out,
                     bool checkpoint) {
  std::ostringstream s(std::ios::binary);
  s << std::hexfloat << out.seq << ' ' << static_cast<int>(out.kind) << ' '
    << out.metric << ' ' << out.accuracy << ' ' << out.rows_live << ' '
    << out.searched << ' ' << out.staleness_ops << ' '
    << engine.current_metric() << ' ' << engine.current_accuracy() << ' '
    << engine.staleness() << ' ' << engine.live_ids().size() << '\n';
  if (checkpoint) {
    EXPECT_TRUE(engine.SaveCheckpoint(s).ok());
  }
  return s.str();
}

uint64_t Fnv1a64(const std::string& bytes) {
  uint64_t h = 14695981039346656037ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

// The engine's pool sizes only how its work is spread, never what it
// computes (DESIGN.md §6 invariant 8): one 60-op log of inserts, deletes
// and checkpoints, replayed at fume.num_threads 1, 2 and 4, at one shard
// and at four slice shards, gives the same outcome, served metrics and
// checkpoint bytes after every op. Those observations and the engine's
// summed unlearning work are pinned too, so the write path's bytes and
// work cannot drift at all thread counts at once: an FNV-1a-64 digest of
// the 60 observations, and the model's final DeletionStats.
TEST(ShardedStreamTest, ThreadCountsReplayIdentically) {
  struct Pin {
    int num_shards;
    uint64_t digest;
    DeletionStats work;
  };
  const Pin pins[] = {
      {1, 0x024ca05655fd29b0ull, {6633, 5494, 602, 66707, 1139, 0}},
      {4, 0x9865d25a5b0f1087ull, {8308, 7239, 937, 43215, 1069, 0}},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE(testing::Message() << pin.num_shards << " shards");
    const ShardedPipeline p = BuildPipeline(12, pin.num_shards);
    WorkloadOptions w;
    w.num_ops = 60;
    w.insert_batch = 5;
    w.delete_batch = 6;
    w.checkpoint_every = 20;
    w.seed = 29;
    auto ops = SynthesizeOpLog(p.pool, p.initial_train.num_rows(), w);
    ASSERT_TRUE(ops.ok()) << ops.status().ToString();
    ASSERT_EQ(ops->size(), 60u);

    std::vector<std::string> serial;
    for (const int threads : {1, 2, 4}) {
      StreamEngineConfig config = p.config;
      config.fume.num_threads = threads;
      auto engine = StreamEngine::Create(p.initial_train, p.test, config);
      ASSERT_TRUE(engine.ok()) << engine.status().ToString();
      std::vector<std::string> seen;
      std::string all;
      for (const StreamOp& op : *ops) {
        auto out = engine->Apply(op);
        ASSERT_TRUE(out.ok()) << out.status().ToString();
        seen.push_back(Observed(*engine, *out, /*checkpoint=*/true));
        all += seen.back();
      }
      EXPECT_EQ(Fnv1a64(all), pin.digest) << threads << " threads";
      const DeletionStats work = engine->model().deletion_stats();
      EXPECT_EQ(work, pin.work)
          << threads << " threads: {" << work.nodes_visited << ", "
          << work.nodes_updated << ", " << work.subtrees_retrained << ", "
          << work.rows_retrained << ", " << work.leaves_updated << ", "
          << work.nodes_copied << "}";
      if (threads == 1) {
        serial = std::move(seen);
        continue;
      }
      ASSERT_EQ(seen.size(), serial.size());
      for (size_t i = 0; i < seen.size(); ++i) {
        ASSERT_EQ(seen[i], serial[i])
            << threads << " threads, op " << (*ops)[i].seq;
      }
    }
  }
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

// A checkpoint whose model container was hash-placed (placement byte 0
// above one shard) is refused with the remedy: its rows sit where the
// slice rule would not route them.
TEST(ShardedStreamTest, RestoreRefusesTheRetiredHashPlacement) {
  const ShardedPipeline p = BuildPipeline(9, 4);
  auto engine = StreamEngine::Create(p.initial_train, p.test, p.config);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  std::ostringstream out(std::ios::binary);
  ASSERT_TRUE(engine->SaveCheckpoint(out).ok());
  std::string blob = out.str();
  const size_t container = blob.find("FUMESHRD");
  ASSERT_NE(container, std::string::npos);
  ASSERT_EQ(blob[container + 16], '\1');  // the placement byte
  blob[container + 16] = '\0';
  std::istringstream in(blob, std::ios::binary);
  auto restored =
      StreamEngine::Restore(in, p.initial_train.schema(), p.test, p.config);
  ASSERT_FALSE(restored.ok());
  EXPECT_TRUE(restored.status().IsIOError()) << restored.status().ToString();
  EXPECT_NE(restored.status().message().find("replay the op-log from seq 0"),
            std::string::npos)
      << restored.status().message();
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
