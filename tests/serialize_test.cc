// Tests for forest serialization: byte-exact model round trips, continued
// unlearning after load, and corrupt-input rejection.

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <string>

#include "forest/serialize.h"
#include "synth/datasets.h"
#include "util/rng.h"

namespace fume {
namespace {

DareForest TrainedForest(uint64_t seed, ThresholdMode mode) {
  auto bundle = synth::MakeParametric(500, 6, 4, seed);
  EXPECT_TRUE(bundle.ok());
  ForestConfig config;
  config.num_trees = 4;
  config.max_depth = 7;
  config.random_depth = 2;
  config.threshold_mode = mode;
  config.seed = seed + 1;
  auto forest = DareForest::Train(bundle->data, config);
  EXPECT_TRUE(forest.ok());
  return std::move(*forest);
}

TEST(SerializeTest, RoundTripIsStructurallyIdentical) {
  DareForest forest = TrainedForest(1, ThresholdMode::kExact);
  std::ostringstream out(std::ios::binary);
  ASSERT_TRUE(SaveForest(forest, out).ok());
  std::istringstream in(out.str(), std::ios::binary);
  auto loaded = LoadForest(in);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->StructurallyEquals(forest));
  EXPECT_EQ(loaded->num_nodes(), forest.num_nodes());
  EXPECT_EQ(loaded->config().seed, forest.config().seed);
}

TEST(SerializeTest, SampledModeRoundTrips) {
  DareForest forest = TrainedForest(2, ThresholdMode::kSampled);
  std::ostringstream out(std::ios::binary);
  ASSERT_TRUE(SaveForest(forest, out).ok());
  std::istringstream in(out.str(), std::ios::binary);
  auto loaded = LoadForest(in);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->StructurallyEquals(forest));
  EXPECT_EQ(loaded->config().threshold_mode, ThresholdMode::kSampled);
}

TEST(SerializeTest, LoadedForestStillUnlearnsExactly) {
  DareForest forest = TrainedForest(3, ThresholdMode::kExact);
  std::ostringstream out(std::ios::binary);
  ASSERT_TRUE(SaveForest(forest, out).ok());
  std::istringstream in(out.str(), std::ios::binary);
  auto loaded = LoadForest(in);
  ASSERT_TRUE(loaded.ok());

  std::vector<RowId> doomed = {3, 50, 77, 123, 400, 499};
  ASSERT_TRUE(forest.DeleteRows(doomed).ok());
  ASSERT_TRUE(loaded->DeleteRows(doomed).ok());
  EXPECT_TRUE(loaded->StructurallyEquals(forest));
  EXPECT_TRUE(loaded->ValidateStats());
}

TEST(SerializeTest, DeleteBeforeSaveIsPreserved) {
  DareForest forest = TrainedForest(4, ThresholdMode::kExact);
  ASSERT_TRUE(forest.DeleteRows({1, 2, 3, 100}).ok());
  std::ostringstream out(std::ios::binary);
  ASSERT_TRUE(SaveForest(forest, out).ok());
  std::istringstream in(out.str(), std::ios::binary);
  auto loaded = LoadForest(in);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->StructurallyEquals(forest));
  EXPECT_EQ(loaded->num_training_rows(), 496);
}

TEST(SerializeTest, DeletionStatsSurviveMixedOpsRoundTrip) {
  // v2 pins the unlearning work counters: a forest that has absorbed a mix
  // of adds and deletes must round-trip its DeletionStats exactly, and keep
  // unlearning identically afterwards.
  DareForest forest = TrainedForest(7, ThresholdMode::kExact);
  auto extra = synth::MakeParametric(40, 6, 4, 99);
  ASSERT_TRUE(extra.ok());
  auto added = forest.AddData(extra->data);
  ASSERT_TRUE(added.ok());
  ASSERT_TRUE(forest.DeleteRows({2, 17, 130, (*added)[5], (*added)[20]}).ok());
  ASSERT_NE(forest.deletion_stats(), DeletionStats{});

  std::ostringstream out(std::ios::binary);
  ASSERT_TRUE(SaveForest(forest, out).ok());
  std::istringstream in(out.str(), std::ios::binary);
  auto loaded = LoadForest(in);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->StructurallyEquals(forest));
  EXPECT_EQ(loaded->deletion_stats(), forest.deletion_stats());

  // Continued ops on both copies accrue identical counters.
  ASSERT_TRUE(forest.DeleteRows({5, 200, 333}).ok());
  ASSERT_TRUE(loaded->DeleteRows({5, 200, 333}).ok());
  EXPECT_TRUE(loaded->StructurallyEquals(forest));
  EXPECT_EQ(loaded->deletion_stats(), forest.deletion_stats());
}

TEST(SerializeTest, FileRoundTrip) {
  DareForest forest = TrainedForest(5, ThresholdMode::kExact);
  const std::string path = "/tmp/fume_forest_test.bin";
  ASSERT_TRUE(SaveForestToFile(forest, path).ok());
  auto loaded = LoadForestFromFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->StructurallyEquals(forest));
  EXPECT_FALSE(LoadForestFromFile("/tmp/does-not-exist.bin").ok());
}

TEST(SerializeTest, RejectsCorruptInput) {
  {
    std::istringstream in(std::string("NOTAFORE"), std::ios::binary);
    EXPECT_TRUE(LoadForest(in).status().IsIOError());
  }
  {
    std::istringstream in(std::string(""), std::ios::binary);
    EXPECT_TRUE(LoadForest(in).status().IsIOError());
  }
  // Truncation anywhere in the stream must fail cleanly, never crash.
  DareForest forest = TrainedForest(6, ThresholdMode::kExact);
  std::ostringstream out(std::ios::binary);
  ASSERT_TRUE(SaveForest(forest, out).ok());
  const std::string blob = out.str();
  for (size_t cut : {size_t{9}, size_t{40}, blob.size() / 2,
                     blob.size() - 3}) {
    std::istringstream in(blob.substr(0, cut), std::ios::binary);
    EXPECT_FALSE(LoadForest(in).ok()) << "cut at " << cut;
  }
}

// ---- Hostile-input checks on real saved forests. Each test patches one
// field of a saved 200-row German Credit forest and expects LoadForest to
// return IOError before anything indexes the store with the bad value.

// Byte layout of a version-2 forest file, in serialize.cc's write order:
// magic, version, config block (six int32, a mode byte, an int32, the
// uint64 seed), DeletionStats block (five int64), then the store block.
constexpr size_t kStoreBlockOffset = 8 + 4 + 6 * 4 + 1 + 4 + 8 + 5 * 8;
// A node record opens with is_leaf (uint8), count and pos (int64 each).
constexpr size_t kNodeHeaderBytes = 1 + 8 + 8;

template <typename T>
T Peek(const std::string& blob, size_t at) {
  T value;
  std::memcpy(&value, blob.data() + at, sizeof(T));
  return value;
}

template <typename T>
std::string Poke(std::string blob, size_t at, T value) {
  std::memcpy(blob.data() + at, &value, sizeof(T));
  return blob;
}

struct SavedForest {
  std::string blob;
  int64_t num_attrs = 0;
  int64_t num_rows = 0;
  size_t cards = 0;   // first cardinality
  size_t rows = 0;    // the row count
  size_t codes = 0;   // row 0's first code
  size_t labels = 0;  // row 0's label
  size_t root = 0;    // tree 0's root node record
};

SavedForest SaveGerman(int min_samples_split) {
  synth::SynthOptions opts;
  opts.num_rows = 200;
  opts.seed = 3;
  auto bundle = synth::MakeGermanCredit(opts);
  EXPECT_TRUE(bundle.ok());
  ForestConfig config;
  config.num_trees = 3;
  config.max_depth = 6;
  config.min_samples_split = min_samples_split;
  auto forest = DareForest::Train(bundle->data, config);
  EXPECT_TRUE(forest.ok());
  std::ostringstream out(std::ios::binary);
  EXPECT_TRUE(SaveForest(*forest, out).ok());

  SavedForest s;
  s.blob = out.str();
  s.num_attrs = static_cast<int64_t>(Peek<uint64_t>(s.blob, kStoreBlockOffset));
  s.cards = kStoreBlockOffset + 8;
  s.rows = s.cards + 4 * static_cast<size_t>(s.num_attrs);
  s.num_rows = Peek<int64_t>(s.blob, s.rows);
  s.codes = s.rows + 8;
  s.labels = s.codes + 4 * static_cast<size_t>(s.num_rows * s.num_attrs);
  // Tree count (int32), then tree 0's id (int32) and has-root flag.
  s.root = s.labels + static_cast<size_t>(s.num_rows) + 4 + 4 + 1;
  EXPECT_EQ(s.num_rows, 200);
  // Unpatched, the file loads: each rejection below is the patch's doing.
  std::istringstream in(s.blob, std::ios::binary);
  EXPECT_TRUE(LoadForest(in).ok());
  return s;
}

bool RejectedAsIOError(const std::string& blob) {
  std::istringstream in(blob, std::ios::binary);
  const auto loaded = LoadForest(in);
  return !loaded.ok() && loaded.status().IsIOError();
}

TEST(SerializeTest, LoaderRejectsAttributeCodesOutOfRange) {
  const SavedForest s = SaveGerman(2);
  ASSERT_EQ(Peek<uint8_t>(s.blob, s.root), 0) << "root should be a split";
  const int32_t attr = Peek<int32_t>(s.blob, s.root + kNodeHeaderBytes);
  ASSERT_GE(attr, 0);
  ASSERT_LT(attr, s.num_attrs);
  const int32_t card = Peek<int32_t>(s.blob, s.cards + 4 * attr);
  // Row 0's code for the root's split attribute: far out of range (used to
  // crash the stats recount), just past the cardinality, and negative.
  for (const int32_t bad : {1000000, card, -1}) {
    EXPECT_TRUE(RejectedAsIOError(Poke(s.blob, s.codes + 4 * attr, bad)))
        << "code " << bad;
  }
}

TEST(SerializeTest, LoaderRejectsNonPositiveCardinality) {
  const SavedForest s = SaveGerman(2);
  EXPECT_TRUE(RejectedAsIOError(Poke<int32_t>(s.blob, s.cards, 0)));
}

TEST(SerializeTest, LoaderRejectsLabelsOtherThanZeroOrOne) {
  const SavedForest s = SaveGerman(2);
  EXPECT_TRUE(RejectedAsIOError(Poke<uint8_t>(s.blob, s.labels, 2)));
}

TEST(SerializeTest, LoaderRejectsSplitAttributeOutOfRange) {
  const SavedForest s = SaveGerman(2);
  ASSERT_EQ(Peek<uint8_t>(s.blob, s.root), 0) << "root should be a split";
  for (const int32_t bad : {static_cast<int32_t>(s.num_attrs), -1}) {
    EXPECT_TRUE(
        RejectedAsIOError(Poke(s.blob, s.root + kNodeHeaderBytes, bad)))
        << "attr " << bad;
  }
}

TEST(SerializeTest, LoaderRejectsCandidateAttributeOutOfRange) {
  const SavedForest s = SaveGerman(2);
  ASSERT_EQ(Peek<uint8_t>(s.blob, s.root), 0) << "root should be a split";
  // attr (int32), threshold (int32), is_random (uint8), then the
  // candidate list's uint64 length and its int32 entries.
  const size_t cand = s.root + kNodeHeaderBytes + 4 + 4 + 1;
  ASSERT_GT(Peek<uint64_t>(s.blob, cand), 0u);
  EXPECT_TRUE(RejectedAsIOError(
      Poke(s.blob, cand + 8, static_cast<int32_t>(s.num_attrs + 5))));
}

TEST(SerializeTest, LoaderRejectsLeafRowIdsOutOfRange) {
  // min_samples_split above the row count makes every root a leaf.
  const SavedForest s = SaveGerman(1000);
  ASSERT_EQ(Peek<uint8_t>(s.blob, s.root), 1) << "root should be a leaf";
  const size_t rows = s.root + kNodeHeaderBytes;
  ASSERT_GT(Peek<uint64_t>(s.blob, rows), 0u);
  for (const RowId bad : {static_cast<RowId>(s.num_rows), RowId{-1}}) {
    EXPECT_TRUE(RejectedAsIOError(Poke(s.blob, rows + 8, bad)))
        << "row " << bad;
  }
}

TEST(SerializeTest, LoaderRefusesVersionOne) {
  // Version 1 lacked the deletion-stats block; nothing writes it any more.
  const SavedForest s = SaveGerman(2);
  std::istringstream in(Poke<uint32_t>(s.blob, 8, 1), std::ios::binary);
  const Status st = LoadForest(in).status();
  EXPECT_TRUE(st.IsIOError()) << st.ToString();
  EXPECT_NE(st.message().find("version 1"), std::string::npos) << st.message();
}

TEST(SerializeTest, LoaderRejectsStoreBeyondTheVectorBound) {
  // A row count at the loader's per-vector bound (2^30 elements) times the
  // attribute count exceeds that bound; it must be refused before the code
  // matrix is allocated.
  const SavedForest s = SaveGerman(2);
  ASSERT_GT(s.num_attrs, 1);
  EXPECT_TRUE(
      RejectedAsIOError(Poke(s.blob, s.rows, int64_t{1} << 30)));
}

}  // namespace
}  // namespace fume
