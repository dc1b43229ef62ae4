// Exactness suite for the SISA sharded ensemble (forest/sharded_forest.h).
//
// Pins the determinism contract from docs/sharding.md: placement is a pure
// function of the global id, a 1-shard ensemble (trained, or a trained
// forest's FromForest view) is byte-identical to the monolithic forest,
// UnlearnRemovalMethod scores an ensemble like a clone that deleted the
// rows, a sharded delete equals running each shard's rows
// through that shard as a standalone monolithic forest, every observable
// result is identical across thread counts, the streamed container's
// header bytes are pinned, and the container rejects blobs whose length
// prefix or one-shard placement maps lie.

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <streambuf>
#include <string>
#include <vector>

#include "core/removal_method.h"
#include "fairness/metrics.h"
#include "forest/serialize.h"
#include "forest/sharded_forest.h"
#include "obs/metrics.h"
#include "synth/datasets.h"
#include "util/thread_pool.h"

namespace fume {
namespace {

synth::DatasetBundle Bundle(int64_t rows, uint64_t seed) {
  auto bundle = synth::MakeParametric(rows, 8, 4, seed);
  EXPECT_TRUE(bundle.ok());
  return std::move(*bundle);
}

ForestConfig Config(uint64_t seed) {
  ForestConfig config;
  config.num_trees = 6;
  config.max_depth = 6;
  config.random_depth = 2;
  config.seed = seed;
  return config;
}

ShardConfig Shards(int n) {
  ShardConfig shard;
  shard.num_shards = n;
  return shard;
}

std::string Bytes(const ShardedForest& forest) {
  std::ostringstream out(std::ios::binary);
  EXPECT_TRUE(forest.Save(out).ok());
  return out.str();
}

std::string Bytes(const DareForest& forest) {
  std::ostringstream out(std::ios::binary);
  EXPECT_TRUE(SaveForest(forest, out).ok());
  return out.str();
}

// The rows each shard owns, as indices into the training dataset (global
// ids == dense train indices for a one-shot Train).
std::vector<std::vector<int64_t>> MembersPerShard(const ShardedForest& f) {
  std::vector<std::vector<int64_t>> members(
      static_cast<size_t>(f.num_shards()));
  for (RowId g = 0; g < f.num_global_ids(); ++g) {
    members[static_cast<size_t>(f.shard_of(g))].push_back(g);
  }
  return members;
}

TEST(ShardedForestTest, ParsePlacementRoundTrips) {
  auto hash = ParsePlacement("hash");
  ASSERT_TRUE(hash.ok());
  EXPECT_EQ(*hash, ShardConfig::Placement::kHash);
  auto slice = ParsePlacement("slice");
  ASSERT_TRUE(slice.ok());
  EXPECT_EQ(*slice, ShardConfig::Placement::kSlice);
  EXPECT_FALSE(ParsePlacement("round-robin").ok());
  EXPECT_STREQ(PlacementName(ShardConfig::Placement::kHash), "hash");
  EXPECT_STREQ(PlacementName(ShardConfig::Placement::kSlice), "slice");
}

TEST(ShardedForestTest, ShardConfigFromFlagsIgnoresPlacementAtOneShard) {
  auto one = ShardConfigFromFlags(1, "no-such-placement", 3, 1);
  ASSERT_TRUE(one.ok());
  EXPECT_EQ(one->num_shards, 1);
  EXPECT_EQ(one->placement, ShardConfig::Placement::kHash);
  EXPECT_EQ(one->slice_attr, -1);

  auto hash = ShardConfigFromFlags(4, "hash", 3, 1);
  ASSERT_TRUE(hash.ok());
  EXPECT_EQ(hash->num_shards, 4);
  EXPECT_EQ(hash->placement, ShardConfig::Placement::kHash);
  EXPECT_EQ(hash->slice_attr, -1);

  auto slice = ShardConfigFromFlags(4, "slice", 3, 1);
  ASSERT_TRUE(slice.ok());
  EXPECT_EQ(slice->placement, ShardConfig::Placement::kSlice);
  EXPECT_EQ(slice->slice_attr, 3);
  EXPECT_EQ(slice->slice_value, 1);

  EXPECT_FALSE(ShardConfigFromFlags(4, "round-robin", 3, 1).ok());
}

TEST(ShardedForestTest, RejectsBadConfigs) {
  auto bundle = Bundle(200, 1);
  EXPECT_FALSE(
      ShardedForest::Train(bundle.data, Config(9), Shards(0)).ok());
  EXPECT_FALSE(
      ShardedForest::Train(bundle.data, Config(9), Shards(65)).ok());
  ShardConfig slice = Shards(4);
  slice.placement = ShardConfig::Placement::kSlice;
  slice.slice_attr = -1;  // slice mode needs a slice attribute
  EXPECT_FALSE(ShardedForest::Train(bundle.data, Config(9), slice).ok());
  slice.slice_attr = 0;
  slice.num_shards = 1;  // the hot shard needs a cold shard beside it
  EXPECT_FALSE(ShardedForest::Train(bundle.data, Config(9), slice).ok());
}

TEST(ShardedForestTest, OneShardIsByteIdenticalToMonolithic) {
  auto bundle = Bundle(400, 2);
  const ForestConfig config = Config(11);
  auto mono = DareForest::Train(bundle.data, config);
  ASSERT_TRUE(mono.ok());
  auto sharded = ShardedForest::Train(bundle.data, config, Shards(1));
  ASSERT_TRUE(sharded.ok());

  EXPECT_TRUE(sharded->shard(0).StructurallyEquals(*mono));
  EXPECT_EQ(Bytes(sharded->shard(0)), Bytes(*mono));

  // Soft vote over one shard divides by 1.0: bit-identical probabilities.
  const auto mono_probs = mono->PredictProbAll(bundle.data);
  const auto shard_probs = sharded->PredictProbAll(bundle.data);
  ASSERT_EQ(mono_probs.size(), shard_probs.size());
  for (size_t r = 0; r < mono_probs.size(); ++r) {
    ASSERT_EQ(mono_probs[r], shard_probs[r]) << "row " << r;
  }
  EXPECT_EQ(mono->PredictAll(bundle.data), sharded->PredictAll(bundle.data));

  // A bare forest's one-shard view is the same container: identical
  // bytes and probabilities, identity placement.
  const ShardedForest view = ShardedForest::FromForest(*mono);
  EXPECT_EQ(Bytes(view), Bytes(*sharded));
  const auto view_probs = view.PredictProbAll(bundle.data);
  ASSERT_EQ(view_probs.size(), shard_probs.size());
  for (size_t r = 0; r < view_probs.size(); ++r) {
    ASSERT_EQ(view_probs[r], shard_probs[r]) << "row " << r;
  }
  EXPECT_EQ(view.num_global_ids(), mono->num_training_rows());
  for (RowId g = 0; g < view.num_global_ids(); ++g) {
    ASSERT_EQ(view.shard_of(g), 0) << "id " << g;
    ASSERT_EQ(view.local_of(g), g) << "id " << g;
  }

  // And the equivalence survives unlearning.
  const std::vector<RowId> doomed = {3, 17, 90, 222, 391};
  ShardedForest mutated_view = ShardedForest::FromForest(*mono);
  const std::string source_bytes = Bytes(*mono);
  ASSERT_TRUE(mutated_view.DeleteRows(doomed).ok());
  EXPECT_EQ(Bytes(*mono), source_bytes);  // CoW: the source is untouched
  ASSERT_TRUE(mono->DeleteRows(doomed).ok());
  ASSERT_TRUE(sharded->DeleteRows(doomed).ok());
  EXPECT_TRUE(sharded->shard(0).StructurallyEquals(*mono));
  EXPECT_EQ(Bytes(sharded->shard(0)), Bytes(*mono));
  EXPECT_EQ(Bytes(mutated_view), Bytes(*sharded));
}

TEST(ShardedForestTest, HashPlacementIsAPureFunctionOfTheId) {
  auto bundle = Bundle(300, 3);
  auto forest = ShardedForest::Train(bundle.data, Config(5), Shards(4));
  ASSERT_TRUE(forest.ok());
  for (RowId g = 0; g < forest->num_global_ids(); ++g) {
    const int expect =
        static_cast<int>(ShardedForest::HashGlobalId(g) % 4);
    EXPECT_EQ(forest->shard_of(g), expect) << "global id " << g;
    EXPECT_EQ(forest->PlaceRow(g, /*slice_code=*/0), expect);
  }
  // Placement maps address the original cells by global id.
  for (RowId g = 0; g < forest->num_global_ids(); ++g) {
    EXPECT_EQ(forest->Label(g), bundle.data.Label(g));
    for (int a = 0; a < bundle.data.num_attributes(); ++a) {
      ASSERT_EQ(forest->Code(g, a), bundle.data.Code(g, a));
    }
  }
}

TEST(ShardedForestTest, SlicePlacementConcentratesTheHotCohort) {
  auto bundle = Bundle(400, 4);
  ShardConfig shard = Shards(4);
  shard.placement = ShardConfig::Placement::kSlice;
  shard.slice_attr = 0;
  shard.slice_value = bundle.data.Code(0, 0);  // a code that exists
  auto forest = ShardedForest::Train(bundle.data, Config(5), shard);
  ASSERT_TRUE(forest.ok());
  for (RowId g = 0; g < forest->num_global_ids(); ++g) {
    if (bundle.data.Code(g, 0) == shard.slice_value) {
      EXPECT_EQ(forest->shard_of(g), 3) << "hot row " << g;
    } else {
      EXPECT_LT(forest->shard_of(g), 3) << "cold row " << g;
    }
  }
}

TEST(ShardedForestTest, ShardedDeleteEqualsPerShardMonolithicDelete) {
  auto bundle = Bundle(500, 6);
  const ForestConfig config = Config(21);
  auto forest = ShardedForest::Train(bundle.data, config, Shards(4));
  ASSERT_TRUE(forest.ok());

  // Reference: each shard as a standalone monolithic forest over exactly
  // its member rows, trained with the derived per-shard seed.
  const auto members = MembersPerShard(*forest);
  std::vector<DareForest> reference;
  for (int s = 0; s < 4; ++s) {
    ForestConfig cfg = config;
    cfg.seed = config.seed +
               ShardedForest::kShardSeedStride * static_cast<uint64_t>(s);
    const Dataset select = bundle.data.Select(members[static_cast<size_t>(s)]);
    auto ref = DareForest::Train(select, cfg);
    ASSERT_TRUE(ref.ok());
    reference.push_back(std::move(*ref));
  }
  for (int s = 0; s < 4; ++s) {
    EXPECT_EQ(Bytes(forest->shard(s)), Bytes(reference[static_cast<size_t>(s)]))
        << "shard " << s << " after train";
  }

  // Delete a global batch; route the same rows by hand into the refs.
  std::vector<RowId> doomed;
  for (RowId g = 0; g < forest->num_global_ids(); g += 7) doomed.push_back(g);
  std::vector<std::vector<RowId>> local(4);
  for (const RowId g : doomed) {
    local[static_cast<size_t>(forest->shard_of(g))].push_back(
        forest->local_of(g));
  }
  ASSERT_TRUE(forest->DeleteRows(doomed).ok());
  for (int s = 0; s < 4; ++s) {
    ASSERT_TRUE(
        reference[static_cast<size_t>(s)].DeleteRows(local[static_cast<size_t>(s)]).ok());
    EXPECT_TRUE(forest->shard(s).StructurallyEquals(
        reference[static_cast<size_t>(s)]))
        << "shard " << s;
    EXPECT_EQ(Bytes(forest->shard(s)), Bytes(reference[static_cast<size_t>(s)]))
        << "shard " << s << " after delete";
    // Exactly the touched shards did unlearning work.
    EXPECT_EQ(forest->shard(s).deletion_stats() == DeletionStats{},
              local[static_cast<size_t>(s)].empty());
  }
  EXPECT_TRUE(forest->ValidateStats());
}

// Every (shard, tree) job keeps its own output and the merge runs in
// ascending (shard, tree) order, so the pool's size never shows: training,
// a delete, an insert and (lazily) a budget flush and a full flush leave
// the same bytes, probabilities, per-shard work and cache at every thread
// count, at one shard and at four.
TEST(ShardedForestTest, ResultsAreIdenticalAcrossThreadCounts) {
  auto bundle = Bundle(400, 7);
  std::vector<int64_t> head, tail;
  for (int64_t r = 0; r < 400; ++r) (r < 360 ? head : tail).push_back(r);
  const Dataset train = bundle.data.Select(head);
  const Dataset inserts = bundle.data.Select(tail);
  std::vector<RowId> doomed;
  for (RowId g = 1; g < 360; g += 5) doomed.push_back(g);

  // Everything observable about the ensemble and a cache kept in sync.
  struct Observed {
    std::string trained, deleted, added, flushed;
    std::vector<double> probs;
    std::vector<DeletionStats> stats;
    std::vector<double> cache_probs;
  };
  obs::Counter* budget_flushes = obs::GetCounter("forest.lazy.budget_flushes");
  for (const int num_shards : {1, 4}) {
    for (const bool lazy : {false, true}) {
      ForestConfig config = Config(33);
      config.lazy_unlearn = lazy;
      config.max_lazy_rows = 40;  // the delete below overflows it
      Observed serial;
      for (const int threads : {0, 1, 2, 4, 8}) {
        SCOPED_TRACE(testing::Message() << num_shards << " shards, lazy="
                                        << lazy << ", " << threads
                                        << " threads");
        std::unique_ptr<util::ThreadPool> pool;
        if (threads > 0) pool = std::make_unique<util::ThreadPool>(threads);
        auto forest =
            ShardedForest::Train(train, config, Shards(num_shards), pool.get());
        ASSERT_TRUE(forest.ok());
        Observed seen;
        seen.trained = Bytes(*forest);
        ShardedPredictionCache cache;
        cache.Rebuild(*forest, bundle.data, pool.get());
        std::vector<DeletionScratch> scratch;
        const int64_t flushes_before = budget_flushes->Value();
        ASSERT_TRUE(forest->DeleteRows(doomed, pool.get(), &scratch).ok());
        EXPECT_EQ(budget_flushes->Value() > flushes_before, lazy);
        if (!lazy) cache.Update(*forest, bundle.data, pool.get());
        ShardedForest after_delete = forest->Clone();
        seen.deleted = Bytes(after_delete);
        ASSERT_TRUE(forest->AddData(inserts, pool.get(), &scratch).ok());
        EXPECT_FALSE(forest->HasLazyTags());
        cache.Update(*forest, bundle.data, pool.get());
        seen.added = Bytes(*forest);
        ASSERT_TRUE(forest->DeleteRows({2, 3, 370}, pool.get(), &scratch).ok());
        forest->FlushAll(pool.get(), &scratch);
        cache.Update(*forest, bundle.data, pool.get());
        seen.flushed = Bytes(*forest);
        seen.probs = forest->PredictProbAll(bundle.data);
        for (int s = 0; s < forest->num_shards(); ++s) {
          seen.stats.push_back(forest->shard(s).deletion_stats());
        }
        seen.cache_probs = cache.probs();
        EXPECT_EQ(seen.cache_probs, seen.probs) << "cache out of sync";
        if (threads == 0) {
          serial = std::move(seen);
          continue;
        }
        EXPECT_EQ(seen.trained, serial.trained);
        EXPECT_EQ(seen.deleted, serial.deleted);
        EXPECT_EQ(seen.added, serial.added);
        EXPECT_EQ(seen.flushed, serial.flushed);
        EXPECT_EQ(seen.probs, serial.probs);
        EXPECT_EQ(seen.cache_probs, serial.cache_probs);
        ASSERT_EQ(seen.stats.size(), serial.stats.size());
        for (size_t s = 0; s < seen.stats.size(); ++s) {
          EXPECT_EQ(seen.stats[s], serial.stats[s]) << "shard " << s;
        }
      }
    }
  }
}

TEST(ShardedForestTest, AddDataRoutesAndAssignsSequentialIds) {
  auto bundle = Bundle(300, 8);
  auto extra = synth::MakeParametric(40, 8, 4, 99);
  ASSERT_TRUE(extra.ok());
  auto forest = ShardedForest::Train(bundle.data, Config(13), Shards(3));
  ASSERT_TRUE(forest.ok());
  const int64_t before = forest->num_global_ids();
  auto ids = forest->AddData(extra->data);
  ASSERT_TRUE(ids.ok());
  ASSERT_EQ(ids->size(), 40u);
  for (size_t i = 0; i < ids->size(); ++i) {
    const RowId g = (*ids)[i];
    EXPECT_EQ(g, before + static_cast<int64_t>(i));  // arrival order
    EXPECT_EQ(forest->shard_of(g),
              forest->PlaceRow(g, extra->data.Code(static_cast<int64_t>(i),
                                                   0)));
    EXPECT_EQ(forest->Label(g), extra->data.Label(static_cast<int64_t>(i)));
  }
  EXPECT_EQ(forest->num_training_rows(), 340);
  EXPECT_TRUE(forest->ValidateStats());
}

TEST(ShardedForestTest, CloneSharesPlacementUntilAddData) {
  auto bundle = Bundle(300, 9);
  auto forest = ShardedForest::Train(bundle.data, Config(13), Shards(3));
  ASSERT_TRUE(forest.ok());
  ShardedForest clone = forest->Clone();
  EXPECT_TRUE(clone.StructurallyEquals(*forest));
  // Mutating the clone never disturbs the base (CoW maps + CoW nodes).
  auto extra = synth::MakeParametric(10, 8, 4, 55);
  ASSERT_TRUE(extra.ok());
  ASSERT_TRUE(clone.AddData(extra->data).ok());
  ASSERT_TRUE(clone.DeleteRows({1, 2, 3}).ok());
  EXPECT_EQ(forest->num_global_ids(), 300);
  EXPECT_EQ(clone.num_global_ids(), 310);
  EXPECT_FALSE(clone.StructurallyEquals(*forest));
}

TEST(ShardedForestTest, SaveLoadRoundTrip) {
  auto bundle = Bundle(350, 10);
  auto forest = ShardedForest::Train(bundle.data, Config(17), Shards(4));
  ASSERT_TRUE(forest.ok());
  ASSERT_TRUE(forest->DeleteRows({2, 40, 41, 200, 349}).ok());
  const std::string bytes = Bytes(*forest);
  std::istringstream in(bytes, std::ios::binary);
  auto loaded = ShardedForest::Load(in);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->StructurallyEquals(*forest));
  EXPECT_EQ(loaded->num_global_ids(), forest->num_global_ids());
  for (RowId g = 0; g < forest->num_global_ids(); ++g) {
    ASSERT_EQ(loaded->shard_of(g), forest->shard_of(g));
    ASSERT_EQ(loaded->local_of(g), forest->local_of(g));
  }
  EXPECT_EQ(Bytes(*loaded), bytes);  // save(load(x)) == x

  // Continued unlearning stays in lockstep.
  ASSERT_TRUE(forest->DeleteRows({7, 8, 9}).ok());
  ASSERT_TRUE(loaded->DeleteRows({7, 8, 9}).ok());
  EXPECT_EQ(Bytes(*loaded), Bytes(*forest));

  // Corrupt input fails cleanly.
  for (size_t cut : {size_t{4}, size_t{60}, bytes.size() / 2}) {
    std::istringstream trunc(bytes.substr(0, cut), std::ios::binary);
    EXPECT_FALSE(ShardedForest::Load(trunc).ok()) << "cut at " << cut;
  }
}

// Byte offset of the first shard's length prefix in a Save container:
// magic, version, shard count, placement, vote, slice attr/value, hot
// shards, then the two length-prefixed placement maps.
size_t FirstBlobPrefixOffset(int64_t num_global_ids) {
  const size_t header = 8 + 4 + 4 + 1 + 1 + 4 + 4 + 4;
  const size_t ids = static_cast<size_t>(num_global_ids);
  return header + 8 + ids * sizeof(uint8_t) + 8 + ids * sizeof(RowId);
}

template <typename T>
void Patch(std::string* bytes, size_t offset, T value) {
  ASSERT_LE(offset + sizeof(T), bytes->size());
  std::memcpy(bytes->data() + offset, &value, sizeof(T));
}

template <typename T>
T Peek(const std::string& bytes, size_t offset) {
  T value{};
  std::memcpy(&value, bytes.data() + offset, sizeof(T));
  return value;
}

// FUMESHRD v1 keeps a vote byte and a hot-shard count in its header, each
// with one legal value: 0 (the soft vote) and 1. Any other value is not a
// container this code writes, so Load rejects it.
TEST(ShardedForestTest, HeaderBytesArePinned) {
  auto bundle = Bundle(300, 16);
  auto one = ShardedForest::Train(bundle.data, Config(29), Shards(1));
  ASSERT_TRUE(one.ok());
  ShardConfig slice_config = Shards(4);
  slice_config.placement = ShardConfig::Placement::kSlice;
  slice_config.slice_attr = 2;
  slice_config.slice_value = bundle.data.Code(0, 2);
  auto slice = ShardedForest::Train(bundle.data, Config(29), slice_config);
  ASSERT_TRUE(slice.ok());

  struct Header {
    const ShardedForest* forest;
    uint32_t shards;
    uint8_t placement;
    int32_t slice_attr;
    int32_t slice_value;
  };
  for (const Header& want :
       {Header{&*one, 1, 0, -1, 0},
        Header{&*slice, 4, 1, 2, slice_config.slice_value}}) {
    SCOPED_TRACE(testing::Message() << want.shards << " shards");
    const std::string bytes = Bytes(*want.forest);
    EXPECT_EQ(bytes.substr(0, 8), "FUMESHRD");
    EXPECT_EQ(Peek<uint32_t>(bytes, 8), 1u);  // version
    EXPECT_EQ(Peek<uint32_t>(bytes, 12), want.shards);
    EXPECT_EQ(Peek<uint8_t>(bytes, 16), want.placement);
    EXPECT_EQ(Peek<uint8_t>(bytes, 17), 0);  // vote byte: the soft vote
    EXPECT_EQ(Peek<int32_t>(bytes, 18), want.slice_attr);
    EXPECT_EQ(Peek<int32_t>(bytes, 22), want.slice_value);
    EXPECT_EQ(Peek<int32_t>(bytes, 26), 1);  // hot-shard count

    std::string voted = bytes;
    Patch<uint8_t>(&voted, 17, 1);
    std::istringstream voted_in(voted, std::ios::binary);
    auto loaded = ShardedForest::Load(voted_in);
    ASSERT_FALSE(loaded.ok()) << "vote byte 1 loaded";
    EXPECT_TRUE(loaded.status().IsIOError()) << loaded.status().ToString();

    std::string hot = bytes;
    Patch<int32_t>(&hot, 26, 2);
    std::istringstream hot_in(hot, std::ios::binary);
    loaded = ShardedForest::Load(hot_in);
    ASSERT_FALSE(loaded.ok()) << "hot-shard count 2 loaded";
    EXPECT_TRUE(loaded.status().IsIOError()) << loaded.status().ToString();

    std::istringstream intact(bytes, std::ios::binary);
    EXPECT_TRUE(ShardedForest::Load(intact).ok());
  }
}

TEST(ShardedForestTest, OneShardContainerCarriesIdentityMaps) {
  auto bundle = Bundle(300, 12);
  auto forest = ShardedForest::Train(bundle.data, Config(21), Shards(1));
  ASSERT_TRUE(forest.ok());
  ASSERT_TRUE(forest->DeleteRows({5, 6, 250}).ok());
  auto extra = synth::MakeParametric(7, 8, 4, 3);
  ASSERT_TRUE(extra.ok());
  auto ids = forest->AddData(extra->data);
  ASSERT_TRUE(ids.ok());
  EXPECT_EQ(ids->front(), 300);
  EXPECT_EQ(forest->num_global_ids(), 307);
  for (RowId g = 0; g < forest->num_global_ids(); ++g) {
    ASSERT_EQ(forest->shard_of(g), 0);
    ASSERT_EQ(forest->local_of(g), g);
  }

  // The container spells out the identity maps and one length-prefixed
  // SaveForest blob, exactly as a multi-shard container lays out its maps.
  const std::string bytes = Bytes(*forest);
  const size_t prefix = FirstBlobPrefixOffset(307);
  size_t at = prefix - (8 + 307 * sizeof(RowId)) - (8 + 307);
  EXPECT_EQ(Peek<uint64_t>(bytes, at), 307u);
  for (size_t g = 0; g < 307; ++g) {
    ASSERT_EQ(Peek<uint8_t>(bytes, at + 8 + g), 0);
  }
  at += 8 + 307;
  EXPECT_EQ(Peek<uint64_t>(bytes, at), 307u);
  for (size_t g = 0; g < 307; ++g) {
    ASSERT_EQ(Peek<RowId>(bytes, at + 8 + g * sizeof(RowId)),
              static_cast<RowId>(g));
  }
  const std::string blob = Bytes(forest->shard(0));
  EXPECT_EQ(Peek<uint64_t>(bytes, prefix), blob.size());
  EXPECT_EQ(bytes.substr(prefix + 8), blob);

  std::istringstream in(bytes, std::ios::binary);
  auto loaded = ShardedForest::Load(in);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->StructurallyEquals(*forest));
  EXPECT_EQ(loaded->num_global_ids(), 307);
}

TEST(ShardedForestTest, LoadRejectsNonIdentityOneShardMaps) {
  auto bundle = Bundle(200, 13);
  auto forest = ShardedForest::Train(bundle.data, Config(23), Shards(1));
  ASSERT_TRUE(forest.ok());
  const std::string bytes = Bytes(*forest);
  const size_t local_of = FirstBlobPrefixOffset(200) - 200 * sizeof(RowId);
  // Swapping two local ids still covers the store exactly once, so only
  // the identity check can catch it.
  std::string swapped = bytes;
  Patch<RowId>(&swapped, local_of, 1);
  Patch<RowId>(&swapped, local_of + sizeof(RowId), 0);
  std::istringstream in(swapped, std::ios::binary);
  auto loaded = ShardedForest::Load(in);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsIOError()) << loaded.status().ToString();

  std::istringstream intact(bytes, std::ios::binary);
  EXPECT_TRUE(ShardedForest::Load(intact).ok());
}

TEST(ShardedForestTest, LoadRejectsABlobLengthPrefixOffByOne) {
  auto bundle = Bundle(300, 14);
  auto forest = ShardedForest::Train(bundle.data, Config(25), Shards(2));
  ASSERT_TRUE(forest.ok());
  const std::string bytes = Bytes(*forest);
  const size_t prefix = FirstBlobPrefixOffset(forest->num_global_ids());
  const uint64_t len = Peek<uint64_t>(bytes, prefix);
  EXPECT_EQ(len, Bytes(forest->shard(0)).size());
  for (const uint64_t lie : {len - 1, len + 1}) {
    std::string patched = bytes;
    Patch<uint64_t>(&patched, prefix, lie);
    std::istringstream in(patched, std::ios::binary);
    auto loaded = ShardedForest::Load(in);
    ASSERT_FALSE(loaded.ok()) << "prefix " << lie;
    EXPECT_TRUE(loaded.status().IsIOError()) << loaded.status().ToString();
  }
}

// A stream buffer that accepts bytes but cannot report its position.
class UnseekableBuf : public std::streambuf {
 protected:
  int_type overflow(int_type ch) override { return ch; }
  std::streamsize xsputn(const char*, std::streamsize n) override {
    return n;
  }
};

TEST(ShardedForestTest, SaveNeedsAPositionedStream) {
  auto bundle = Bundle(200, 15);
  auto forest = ShardedForest::Train(bundle.data, Config(27), Shards(2));
  ASSERT_TRUE(forest.ok());
  UnseekableBuf buf;
  std::ostream out(&buf);
  const Status st = forest->Save(out);
  EXPECT_TRUE(st.IsIOError()) << st.ToString();
}

TEST(ShardedForestTest, VoteIsTheMeanOfShardMeans) {
  auto bundle = Bundle(300, 12);
  auto forest = ShardedForest::Train(bundle.data, Config(23), Shards(3));
  ASSERT_TRUE(forest.ok());
  std::vector<double> probs;
  std::vector<int> preds;
  forest->Predict(bundle.data, &probs, &preds);
  // Recompute the vote from the per-shard means through the shared helper.
  std::vector<std::vector<double>> shard_probs;
  for (int s = 0; s < 3; ++s) {
    shard_probs.push_back(forest->shard(s).PredictProbAll(bundle.data));
  }
  std::vector<const std::vector<double>*> ptrs;
  for (const auto& p : shard_probs) ptrs.push_back(&p);
  std::vector<double> mean;
  std::vector<int> manual;
  VoteFromShardProbs(ptrs, &mean, &manual);
  EXPECT_EQ(probs, mean);
  EXPECT_EQ(preds, manual);
  for (size_t r = 0; r < mean.size(); ++r) {
    // Summed in shard order, divided once.
    const double sum =
        shard_probs[0][r] + shard_probs[1][r] + shard_probs[2][r];
    ASSERT_EQ(mean[r], sum / 3.0) << "row " << r;
    ASSERT_EQ(preds[r], mean[r] >= 0.5 ? 1 : 0) << "row " << r;
  }
}

TEST(ShardedForestTest, LazyFlushMatchesEagerBytes) {
  auto bundle = Bundle(400, 13);
  ForestConfig eager_cfg = Config(27);
  ForestConfig lazy_cfg = eager_cfg;
  lazy_cfg.lazy_unlearn = true;
  auto eager = ShardedForest::Train(bundle.data, eager_cfg, Shards(4));
  auto lazy = ShardedForest::Train(bundle.data, lazy_cfg, Shards(4));
  ASSERT_TRUE(eager.ok());
  ASSERT_TRUE(lazy.ok());
  std::vector<RowId> doomed;
  for (RowId g = 0; g < 200; g += 2) doomed.push_back(g);
  ASSERT_TRUE(eager->DeleteRows(doomed).ok());
  ASSERT_TRUE(lazy->DeleteRows(doomed).ok());
  lazy->FlushAll();
  EXPECT_FALSE(lazy->HasLazyTags());
  // Work counters legitimately differ (lazy does less); zero both before
  // the byte comparison, as in serialize_test's monolithic twin.
  eager->ResetDeletionStats();
  lazy->ResetDeletionStats();
  EXPECT_EQ(Bytes(*lazy), Bytes(*eager));
}

TEST(ShardedCachePredictionTest, CacheMatchesForestThroughUpdates) {
  auto bundle = Bundle(400, 14);
  std::vector<int64_t> head, tail;
  for (int64_t r = 0; r < 300; ++r) head.push_back(r);
  for (int64_t r = 300; r < 400; ++r) tail.push_back(r);
  const Dataset train = bundle.data.Select(head);
  const Dataset test = bundle.data.Select(tail);
  auto forest = ShardedForest::Train(train, Config(29), Shards(4));
  ASSERT_TRUE(forest.ok());

  ShardedPredictionCache cache;
  cache.Rebuild(*forest, test);
  EXPECT_EQ(cache.probs(), forest->PredictProbAll(test));
  EXPECT_EQ(cache.predictions(), forest->PredictAll(test));

  // Mutate two shards and refresh.
  std::vector<RowId> doomed;
  for (RowId g = 0; g < forest->num_global_ids() && doomed.size() < 30; ++g) {
    if (forest->shard_of(g) <= 1) doomed.push_back(g);
  }
  ASSERT_TRUE(forest->DeleteRows(doomed).ok());
  cache.Update(*forest, test);
  EXPECT_EQ(cache.probs(), forest->PredictProbAll(test));
  EXPECT_EQ(cache.predictions(), forest->PredictAll(test));

  // Fused what-if off the updated ensemble: voted preds equal a clone's
  // own PredictAll after the deletion, and only the touched shard is
  // counted as changed.
  ShardedForest clone = forest->Clone();
  std::vector<RowId> what_if;
  for (RowId g = 0; g < forest->num_global_ids() && what_if.size() < 10; ++g) {
    if (forest->shard_of(g) == 3 && forest->Label(g) == 1) what_if.push_back(g);
  }
  ASSERT_FALSE(what_if.empty());
  ASSERT_TRUE(clone.DeleteRows(what_if).ok());
  ShardedPredictionCache::WhatIfScratch scratch;
  std::vector<DeletionScratch> deletion;
  ASSERT_TRUE(
      cache.ScoreWithout(*forest, what_if, test, &scratch, &deletion).ok());
  EXPECT_EQ(scratch.preds, clone.PredictAll(test));
  EXPECT_EQ(scratch.shards_changed, 1);
}

TEST(UnlearnRemovalMethodTest, MatchesManualCloneDeletePredict) {
  auto bundle = Bundle(500, 15);
  std::vector<int64_t> head, tail;
  for (int64_t r = 0; r < 350; ++r) head.push_back(r);
  for (int64_t r = 350; r < 500; ++r) tail.push_back(r);
  const Dataset train = bundle.data.Select(head);
  const Dataset test = bundle.data.Select(tail);
  auto forest = ShardedForest::Train(train, Config(37), Shards(4));
  ASSERT_TRUE(forest.ok());

  UnlearnRemovalMethod removal(&*forest, &test, bundle.group,
                               FairnessMetric::kStatisticalParity);
  const std::vector<RowId> rows = {1, 5, 44, 120, 121, 300, 349};
  auto eval = removal.EvaluateWithout(rows);
  ASSERT_TRUE(eval.ok());

  ShardedForest clone = forest->Clone();
  ASSERT_TRUE(clone.DeleteRows(rows).ok());
  const ModelEval manual = {
      ComputeFairness(test, clone.PredictAll(test), bundle.group,
                      FairnessMetric::kStatisticalParity),
      clone.Accuracy(test)};
  EXPECT_EQ(eval->fairness, manual.fairness);
  EXPECT_EQ(eval->accuracy, manual.accuracy);

  // Deterministic pure function of the row set, including under the
  // parallel bracket with per-worker scratch slots.
  auto again = removal.EvaluateWithout(rows);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->fairness, eval->fairness);
  removal.BeginParallel(4);
  auto on3 = removal.EvaluateWithoutOn(3, rows);
  removal.EndParallel();
  ASSERT_TRUE(on3.ok());
  EXPECT_EQ(on3->fairness, eval->fairness);
  EXPECT_EQ(on3->accuracy, eval->accuracy);
}

TEST(UnlearnRemovalMethodTest, OneShardMatchesMonolithicRemoval) {
  auto bundle = Bundle(400, 16);
  std::vector<int64_t> head, tail;
  for (int64_t r = 0; r < 280; ++r) head.push_back(r);
  for (int64_t r = 280; r < 400; ++r) tail.push_back(r);
  const Dataset train = bundle.data.Select(head);
  const Dataset test = bundle.data.Select(tail);
  const ForestConfig config = Config(41);
  auto mono = DareForest::Train(train, config);
  auto sharded = ShardedForest::Train(train, config, Shards(1));
  ASSERT_TRUE(mono.ok());
  ASSERT_TRUE(sharded.ok());

  UnlearnRemovalMethod mono_removal(&*mono, &test, bundle.group,
                                    FairnessMetric::kStatisticalParity);
  UnlearnRemovalMethod shard_removal(&*sharded, &test, bundle.group,
                                     FairnessMetric::kStatisticalParity);
  for (const auto& rows : std::vector<std::vector<RowId>>{
           {0}, {5, 6, 7}, {10, 50, 90, 130, 170, 210, 250, 279}}) {
    auto a = mono_removal.EvaluateWithout(rows);
    auto b = shard_removal.EvaluateWithout(rows);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a->fairness, b->fairness) << rows.size() << " rows";
    EXPECT_EQ(a->accuracy, b->accuracy) << rows.size() << " rows";
  }
}

}  // namespace
}  // namespace fume
