// Tests for the binary codec under every saved format (util/binary_io.h):
// round trips, truncation at every byte, the element bound and the chunked
// fill; then one forged file per format (FUMEDARE, FUMESHRD, FUMESTRM)
// whose length prefix claims gigabytes the file does not hold. Each forged
// load must come back as an IOError without allocating the claim.

#include <gtest/gtest.h>

#include <sys/resource.h>
#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "forest/serialize.h"
#include "forest/sharded_forest.h"
#include "stream/engine.h"
#include "util/binary_io.h"

namespace fume {
namespace {

using util::BinaryReader;
using util::BinaryWriter;

constexpr char kMagic[8] = {'F', 'U', 'M', 'E', 'T', 'E', 'S', 'T'};

// One field of every kind: header, PODs, a vector and a raw block.
std::string SampleRecord() {
  std::ostringstream out(std::ios::binary);
  BinaryWriter w(out);
  w.Header(kMagic, 3);
  w.Pod<int32_t>(-7);
  w.Pod<double>(0.25);
  w.Vec(std::vector<int64_t>{1, 2, 3});
  const uint8_t block[4] = {9, 8, 7, 6};
  w.Block(block, 4);
  EXPECT_TRUE(w.ok());
  return out.str();
}

// Reads SampleRecord's fields back; false at the first failed read.
bool ReadSample(BinaryReader& r, int32_t* i, double* d,
                std::vector<int64_t>* v, std::vector<uint8_t>* block) {
  return r.Header(kMagic, 3, "test record") && r.Pods(i, d) && r.Vec(v) &&
         r.Block(block, 4);
}

TEST(BinaryIoTest, RoundTripsEveryFieldKind) {
  const std::string bytes = SampleRecord();
  EXPECT_EQ(bytes.size(), 8u + 4 + 4 + 8 + 8 + 3 * 8 + 4);
  std::istringstream in(bytes, std::ios::binary);
  BinaryReader r(in);
  int32_t i = 0;
  double d = 0.0;
  std::vector<int64_t> v;
  std::vector<uint8_t> block;
  ASSERT_TRUE(ReadSample(r, &i, &d, &v, &block)) << r.status().ToString();
  EXPECT_EQ(i, -7);
  EXPECT_EQ(d, 0.25);
  EXPECT_EQ(v, (std::vector<int64_t>{1, 2, 3}));
  EXPECT_EQ(block, (std::vector<uint8_t>{9, 8, 7, 6}));
  EXPECT_EQ(r.consumed(), bytes.size());
  EXPECT_TRUE(r.status().ok());
}

TEST(BinaryIoTest, TruncationAtEveryByteFails) {
  const std::string bytes = SampleRecord();
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    SCOPED_TRACE(testing::Message() << "cut at " << cut);
    std::istringstream in(bytes.substr(0, cut), std::ios::binary);
    BinaryReader r(in);
    int32_t i = 0;
    double d = 0.0;
    std::vector<int64_t> v;
    std::vector<uint8_t> block;
    EXPECT_FALSE(ReadSample(r, &i, &d, &v, &block));
    EXPECT_TRUE(r.status().IsIOError());
    EXPECT_LE(r.consumed(), cut);
    // The first failure is kept: a later read fails and consumes nothing.
    const uint64_t consumed = r.consumed();
    int32_t more = 0;
    EXPECT_FALSE(r.Pod(&more));
    EXPECT_EQ(r.consumed(), consumed);
  }
}

TEST(BinaryIoTest, HeaderNamesTheFormatAndTheRetiredVersion) {
  auto header = [](const char (&magic)[8], uint32_t version) {
    std::ostringstream out(std::ios::binary);
    BinaryWriter(out).Header(magic, version);
    return out.str();
  };
  auto read = [](const std::string& bytes) {
    std::istringstream in(bytes, std::ios::binary);
    BinaryReader r(in);
    r.Header(kMagic, 2, "test record", " (retired)");
    return r.status();
  };
  EXPECT_TRUE(read(header(kMagic, 2)).ok());
  const char other[8] = {'F', 'U', 'M', 'E', 'O', 'T', 'H', 'R'};
  EXPECT_EQ(read(header(other, 2)).message(),
            "not a FUME test record (bad magic)");
  EXPECT_EQ(read("").message(), "not a FUME test record (bad magic)");
  EXPECT_EQ(read(header(kMagic, 1)).message(),
            "unsupported test record version 1 (retired)");
  EXPECT_EQ(read(header(kMagic, 3)).message(),
            "unsupported test record version 3");
  EXPECT_EQ(read(header(kMagic, 2).substr(0, 10)).message(),
            "test record header: truncated at byte 10");
}

TEST(BinaryIoTest, LengthOverTheBoundIsRefusedBeforeAnyAllocation) {
  std::ostringstream out(std::ios::binary);
  BinaryWriter(out).Pod<uint64_t>(BinaryReader::kMaxElements + 1);
  std::istringstream in(out.str(), std::ios::binary);
  BinaryReader r(in);
  std::vector<int32_t> v;
  EXPECT_FALSE(r.Vec(&v));
  EXPECT_EQ(v.capacity(), 0u);
  EXPECT_EQ(r.Error("field").message(),
            "field: length 1073741825 over the 2^30-element bound");
}

TEST(BinaryIoTest, LengthOverTheBytesPresentCostsOneChunk) {
  // A count at the bound, followed by ten elements: the fill stops at the
  // first short chunk, having sized one chunk, not 2^30 elements.
  std::ostringstream out(std::ios::binary);
  BinaryWriter w(out);
  w.Pod<uint64_t>(BinaryReader::kMaxElements);
  const std::vector<int64_t> present(10, 42);
  w.Block(present.data(), present.size());
  std::istringstream in(out.str(), std::ios::binary);
  BinaryReader r(in);
  std::vector<int64_t> v;
  EXPECT_FALSE(r.Vec(&v));
  EXPECT_LE(v.capacity() * sizeof(int64_t), BinaryReader::kChunkBytes);
  EXPECT_EQ(r.consumed(), out.str().size());
  EXPECT_EQ(r.Error("field").message(), "field: truncated at byte 88");
}

TEST(BinaryIoTest, BlocksLargerThanAChunkRoundTrip) {
  std::vector<int32_t> big(3 * BinaryReader::kChunkBytes / sizeof(int32_t) +
                           5);
  for (size_t i = 0; i < big.size(); ++i) big[i] = static_cast<int32_t>(i);
  std::ostringstream out(std::ios::binary);
  BinaryWriter(out).Vec(big);
  std::istringstream in(out.str(), std::ios::binary);
  BinaryReader r(in);
  std::vector<int32_t> back;
  ASSERT_TRUE(r.Vec(&back));
  EXPECT_EQ(back, big);
}

// ---- Forged files: each claims gigabytes behind a length prefix but ends
// right after it. The load runs in a child whose address space may grow by
// at most kHeadroomBytes, far below every claim.

constexpr uint64_t kHeadroomBytes = uint64_t{256} << 20;

#if defined(__SANITIZE_ADDRESS__)
constexpr bool kAddressSanitizer = true;
#else
constexpr bool kAddressSanitizer = false;
#endif
#if defined(__SANITIZE_THREAD__)
constexpr bool kThreadSanitizer = true;
#else
constexpr bool kThreadSanitizer = false;
#endif

// Caps this process's address space at its current size plus the headroom.
void CapAddressSpace() {
  std::ifstream statm("/proc/self/statm");
  uint64_t pages = 0;
  statm >> pages;
  const uint64_t cap =
      pages * static_cast<uint64_t>(sysconf(_SC_PAGESIZE)) + kHeadroomBytes;
  const rlimit limit{cap, cap};
  setrlimit(RLIMIT_AS, &limit);
}

// Sanitizers reserve terabytes of shadow address space, so no address-space
// cap can run under them. Under ASan the load runs in-process instead: the
// ASan sweep fails any single allocation over 1 GiB
// (max_allocation_size_mb). TSan has no such cap, so the check is skipped.
#define EXPECT_REFUSED_UNDER_ADDRESS_CAP(load)                              \
  do {                                                                      \
    if (kThreadSanitizer) GTEST_SKIP() << "no allocation cap under TSan";   \
    if (kAddressSanitizer) {                                                \
      EXPECT_TRUE((load).IsIOError());                                      \
      break;                                                                \
    }                                                                       \
    EXPECT_EXIT(                                                            \
        {                                                                   \
          CapAddressSpace();                                                \
          std::_Exit((load).IsIOError() ? 0 : 1);                           \
        },                                                                  \
        testing::ExitedWithCode(0), "");                                    \
  } while (false)

TEST(ForgedFileTest, ForestStoreRowCountIsRefusedCheaply) {
  // 109 bytes: a FUMEDARE v2 header, config and stats blocks, one
  // attribute, and a row count of 2^30 - 1 (5 GB of codes and labels).
  std::ostringstream out(std::ios::binary);
  BinaryWriter w(out);
  const char magic[8] = {'F', 'U', 'M', 'E', 'D', 'A', 'R', 'E'};
  w.Header(magic, 2);
  for (int i = 0; i < 6; ++i) w.Pod<int32_t>(2);
  w.Pod<uint8_t>(0);
  w.Pod<int32_t>(0);
  w.Pod<uint64_t>(1);
  for (int i = 0; i < 5; ++i) w.Pod<int64_t>(0);
  w.Vec(std::vector<int32_t>{2});
  w.Pod<int64_t>((int64_t{1} << 30) - 1);
  const std::string bytes = out.str();
  ASSERT_EQ(bytes.size(), 109u);
  auto load = [&bytes] {
    std::istringstream in(bytes, std::ios::binary);
    return LoadForest(in).status();
  };
  EXPECT_REFUSED_UNDER_ADDRESS_CAP(load());
}

TEST(ForgedFileTest, ShardedPlacementLengthIsRefusedCheaply) {
  // 38 bytes: a one-shard FUMESHRD v1 header and a placement map claiming
  // 2^30 entries (1 GB).
  std::ostringstream out(std::ios::binary);
  BinaryWriter w(out);
  const char magic[8] = {'F', 'U', 'M', 'E', 'S', 'H', 'R', 'D'};
  w.Header(magic, 1);
  w.Pod<uint32_t>(1);   // shards
  w.Pod<uint8_t>(0);    // placement byte of one shard
  w.Pod<uint8_t>(0);    // soft vote
  w.Pod<int32_t>(-1);   // slice attribute
  w.Pod<int32_t>(0);    // slice value
  w.Pod<int32_t>(1);    // hot shards
  w.Pod<uint64_t>(uint64_t{1} << 30);
  const std::string bytes = out.str();
  ASSERT_EQ(bytes.size(), 38u);
  auto load = [&bytes] {
    std::istringstream in(bytes, std::ios::binary);
    return ShardedForest::Load(in).status();
  };
  EXPECT_REFUSED_UNDER_ADDRESS_CAP(load());
}

TEST(ForgedFileTest, StreamCheckpointLiveIdCountIsRefusedCheaply) {
  // 60 bytes: a FUMESTRM v2 header, the engine state block and a live-id
  // count of 2^30 - 1 (4 GB), the `fume_stream --resume` path.
  std::ostringstream out(std::ios::binary);
  BinaryWriter w(out);
  const char magic[8] = {'F', 'U', 'M', 'E', 'S', 'T', 'R', 'M'};
  w.Header(magic, 2);
  w.Pod<int64_t>(0);  // last seq
  w.Pod<double>(0.0);
  w.Pod<double>(0.0);
  w.Pod<double>(0.0);
  w.Pod<int64_t>(0);  // staleness
  w.Pod<uint64_t>((uint64_t{1} << 30) - 1);
  const std::string bytes = out.str();
  ASSERT_EQ(bytes.size(), 60u);
  auto load = [&bytes] {
    std::istringstream in(bytes, std::ios::binary);
    Schema schema;
    schema.AddCategorical("a", {"x", "y"});
    return stream::StreamEngine::Restore(in, schema, Dataset(schema),
                                         stream::StreamEngineConfig{})
        .status();
  };
  EXPECT_REFUSED_UNDER_ADDRESS_CAP(load());
}

}  // namespace
}  // namespace fume
