#include "forest/serialize.h"

#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>

namespace fume {

namespace {

constexpr char kMagic[8] = {'F', 'U', 'M', 'E', 'D', 'A', 'R', 'E'};
// Version 2 appends the forest's DeletionStats to the config block, so the
// unlearning work counters survive a save/load round trip. Version 1 files
// (no stats block) still load, with zeroed counters.
constexpr uint32_t kVersion = 2;

// ---- primitive writers/readers (little-endian native assumed; the format
// is an internal artifact, not a cross-platform interchange format).

template <typename T>
void WritePod(std::ostream& out, T value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
bool ReadPod(std::istream& in, T* value) {
  in.read(reinterpret_cast<char*>(value), sizeof(T));
  return static_cast<bool>(in);
}

template <typename T>
void WriteVec(std::ostream& out, const std::vector<T>& v) {
  WritePod<uint64_t>(out, v.size());
  if (!v.empty()) {
    out.write(reinterpret_cast<const char*>(v.data()),
              static_cast<std::streamsize>(v.size() * sizeof(T)));
  }
}

template <typename T>
bool ReadVec(std::istream& in, std::vector<T>* v, uint64_t max_size) {
  uint64_t size = 0;
  if (!ReadPod(in, &size)) return false;
  if (size > max_size) return false;  // corrupt / hostile input
  v->resize(size);
  if (size > 0) {
    in.read(reinterpret_cast<char*>(v->data()),
            static_cast<std::streamsize>(size * sizeof(T)));
  }
  return static_cast<bool>(in);
}

// Sanity bound for any vector in the file (1 billion elements).
constexpr uint64_t kMaxVec = 1ull << 30;

void WriteNode(std::ostream& out, const TreeNode* node) {
  WritePod<uint8_t>(out, node->is_leaf() ? 1 : 0);
  WritePod<int64_t>(out, node->count);
  WritePod<int64_t>(out, node->pos);
  if (node->is_leaf()) {
    WriteVec(out, node->rows);
    return;
  }
  WritePod<int32_t>(out, node->attr);
  WritePod<int32_t>(out, node->threshold);
  WritePod<uint8_t>(out, node->is_random ? 1 : 0);
  WriteVec(out, node->stats.cand_attrs);
  // The on-disk format predates the flat interleaved histogram buffer and
  // stays per-attribute (count vector, pos vector) pairs — de-interleave at
  // this boundary so old files keep loading byte-for-byte.
  WritePod<uint64_t>(out, node->stats.cand_attrs.size());
  for (size_t i = 0; i < node->stats.cand_attrs.size(); ++i) {
    const int64_t* h = node->stats.HistRow(i);
    const size_t card = static_cast<size_t>(node->stats.HistCard(i));
    std::vector<int64_t> hc(card), hp(card);
    for (size_t v = 0; v < card; ++v) {
      hc[v] = h[2 * v];
      hp[v] = h[2 * v + 1];
    }
    WriteVec(out, hc);
    WriteVec(out, hp);
  }
  WriteNode(out, node->left.get());
  WriteNode(out, node->right.get());
}

// Index checks that must pass before anything indexes the store with a
// value read from the file: ValidateStats recounts statistics through
// these attributes and row ids.
bool AttrInRange(int attr, int num_attrs) {
  return attr >= 0 && attr < num_attrs;
}

Result<std::shared_ptr<TreeNode>> ReadNode(std::istream& in, int depth,
                                           int num_attrs, int64_t num_rows) {
  if (depth > 64) return Status::IOError("forest file: tree too deep");
  auto node = std::make_shared<TreeNode>();
  uint8_t is_leaf = 0;
  if (!ReadPod(in, &is_leaf) || !ReadPod(in, &node->count) ||
      !ReadPod(in, &node->pos)) {
    return Status::IOError("forest file: truncated node header");
  }
  if (is_leaf != 0) {
    if (!ReadVec(in, &node->rows, kMaxVec)) {
      return Status::IOError("forest file: truncated leaf rows");
    }
    for (const RowId r : node->rows) {
      if (r < 0 || r >= num_rows) {
        return Status::IOError("forest file: leaf row id out of range");
      }
    }
    return node;
  }
  uint8_t is_random = 0;
  if (!ReadPod(in, &node->attr) || !ReadPod(in, &node->threshold) ||
      !ReadPod(in, &is_random)) {
    return Status::IOError("forest file: truncated split record");
  }
  node->is_random = is_random != 0;
  if (!AttrInRange(node->attr, num_attrs)) {
    return Status::IOError("forest file: split attribute out of range");
  }
  if (!ReadVec(in, &node->stats.cand_attrs, kMaxVec)) {
    return Status::IOError("forest file: truncated candidate attrs");
  }
  for (const int a : node->stats.cand_attrs) {
    if (!AttrInRange(a, num_attrs)) {
      return Status::IOError("forest file: candidate attribute out of range");
    }
  }
  uint64_t num_hists = 0;
  if (!ReadPod(in, &num_hists) || num_hists != node->stats.cand_attrs.size()) {
    return Status::IOError("forest file: histogram count mismatch");
  }
  node->stats.hist_offsets.assign(num_hists + 1, 0);
  node->stats.hist.clear();
  std::vector<int64_t> hc, hp;
  for (uint64_t i = 0; i < num_hists; ++i) {
    if (!ReadVec(in, &hc, kMaxVec) || !ReadVec(in, &hp, kMaxVec) ||
        hc.size() != hp.size()) {
      return Status::IOError("forest file: truncated histograms");
    }
    node->stats.hist_offsets[i + 1] =
        node->stats.hist_offsets[i] + static_cast<int32_t>(hc.size());
    for (size_t v = 0; v < hc.size(); ++v) {
      node->stats.hist.push_back(hc[v]);
      node->stats.hist.push_back(hp[v]);
    }
  }
  node->stats.count = node->count;
  node->stats.pos = node->pos;
  FUME_ASSIGN_OR_RETURN(node->left,
                        ReadNode(in, depth + 1, num_attrs, num_rows));
  FUME_ASSIGN_OR_RETURN(node->right,
                        ReadNode(in, depth + 1, num_attrs, num_rows));
  return node;
}

}  // namespace

Status SaveForest(const DareForest& forest, std::ostream& out) {
  // No tag escapes a flush boundary (DESIGN.md §6 invariant 9): a lazily
  // deferred forest is flushed before a single byte is written, so saved
  // models — and every checkpoint built on this — are always exact. The
  // CHECK is belt-and-braces for forests mutated concurrently (illegal).
  forest.EnsureFlushed();
  FUME_CHECK(!forest.HasLazyTags());
  out.write(kMagic, sizeof(kMagic));
  WritePod<uint32_t>(out, kVersion);

  // Config block.
  const ForestConfig& config = forest.config();
  WritePod<int32_t>(out, config.num_trees);
  WritePod<int32_t>(out, config.max_depth);
  WritePod<int32_t>(out, config.random_depth);
  WritePod<int32_t>(out, config.min_samples_split);
  WritePod<int32_t>(out, config.min_samples_leaf);
  WritePod<int32_t>(out, config.num_candidate_attrs);
  WritePod<uint8_t>(out,
                    config.threshold_mode == ThresholdMode::kExact ? 0 : 1);
  WritePod<int32_t>(out, config.num_sampled_thresholds);
  WritePod<uint64_t>(out, config.seed);

  // Unlearning work counters (v2+).
  const DeletionStats& stats = forest.deletion_stats();
  WritePod<int64_t>(out, stats.nodes_visited);
  WritePod<int64_t>(out, stats.nodes_updated);
  WritePod<int64_t>(out, stats.subtrees_retrained);
  WritePod<int64_t>(out, stats.rows_retrained);
  WritePod<int64_t>(out, stats.leaves_updated);

  // Training store block.
  const TrainingStore& store = forest.store();
  const int p = store.num_attrs();
  std::vector<int32_t> cards(static_cast<size_t>(p));
  for (int j = 0; j < p; ++j) cards[static_cast<size_t>(j)] = store.cardinality(j);
  WriteVec(out, cards);
  WritePod<int64_t>(out, store.num_rows());
  for (RowId r = 0; r < store.num_rows(); ++r) {
    for (int j = 0; j < p; ++j) WritePod<int32_t>(out, store.code(r, j));
  }
  for (RowId r = 0; r < store.num_rows(); ++r) {
    WritePod<uint8_t>(out, static_cast<uint8_t>(store.label(r)));
  }

  // Trees.
  WritePod<int32_t>(out, forest.num_trees());
  for (int t = 0; t < forest.num_trees(); ++t) {
    WritePod<int32_t>(out, forest.tree(t).tree_id());
    const TreeNode* root = forest.tree(t).root();
    WritePod<uint8_t>(out, root != nullptr ? 1 : 0);
    if (root != nullptr) WriteNode(out, root);
  }
  if (!out) return Status::IOError("forest write failed");
  return Status::OK();
}

Result<DareForest> LoadForest(std::istream& in) {
  char magic[8];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::IOError("not a FUME forest file (bad magic)");
  }
  uint32_t version = 0;
  if (!ReadPod(in, &version) || version < 1 || version > kVersion) {
    return Status::IOError("unsupported forest file version");
  }

  ForestConfig config;
  uint8_t mode = 0;
  if (!ReadPod(in, &config.num_trees) || !ReadPod(in, &config.max_depth) ||
      !ReadPod(in, &config.random_depth) ||
      !ReadPod(in, &config.min_samples_split) ||
      !ReadPod(in, &config.min_samples_leaf) ||
      !ReadPod(in, &config.num_candidate_attrs) || !ReadPod(in, &mode) ||
      !ReadPod(in, &config.num_sampled_thresholds) ||
      !ReadPod(in, &config.seed)) {
    return Status::IOError("forest file: truncated config block");
  }
  config.threshold_mode =
      mode == 0 ? ThresholdMode::kExact : ThresholdMode::kSampled;

  DeletionStats stats;
  if (version >= 2) {
    if (!ReadPod(in, &stats.nodes_visited) ||
        !ReadPod(in, &stats.nodes_updated) ||
        !ReadPod(in, &stats.subtrees_retrained) ||
        !ReadPod(in, &stats.rows_retrained) ||
        !ReadPod(in, &stats.leaves_updated)) {
      return Status::IOError("forest file: truncated deletion-stats block");
    }
  }

  std::vector<int32_t> cards;
  if (!ReadVec(in, &cards, kMaxVec) || cards.empty()) {
    return Status::IOError("forest file: bad cardinality block");
  }
  for (const int32_t card : cards) {
    if (card < 1) return Status::IOError("forest file: bad cardinality");
  }
  int64_t num_rows = 0;
  // Both factors are at most kMaxVec, so the product cannot overflow.
  if (!ReadPod(in, &num_rows) || num_rows < 0 ||
      num_rows > static_cast<int64_t>(kMaxVec) ||
      static_cast<uint64_t>(num_rows) * cards.size() > kMaxVec) {
    return Status::IOError("forest file: bad row count");
  }
  std::vector<int32_t> codes(static_cast<size_t>(num_rows) * cards.size());
  if (!codes.empty()) {
    in.read(reinterpret_cast<char*>(codes.data()),
            static_cast<std::streamsize>(codes.size() * sizeof(int32_t)));
  }
  std::vector<uint8_t> labels(static_cast<size_t>(num_rows));
  if (!labels.empty()) {
    in.read(reinterpret_cast<char*>(labels.data()),
            static_cast<std::streamsize>(labels.size()));
  }
  if (!in) return Status::IOError("forest file: truncated store block");
  for (size_t i = 0; i < codes.size(); ++i) {
    const int32_t card = cards[i % cards.size()];
    if (codes[i] < 0 || codes[i] >= card) {
      return Status::IOError("forest file: attribute code out of range");
    }
  }
  for (const uint8_t label : labels) {
    if (label > 1) return Status::IOError("forest file: label is not 0/1");
  }
  const int num_attrs = static_cast<int>(cards.size());
  auto store = TrainingStore::FromParts(std::move(cards), std::move(codes),
                                        std::move(labels));

  int32_t num_trees = 0;
  if (!ReadPod(in, &num_trees) || num_trees < 0 || num_trees > 1000000) {
    return Status::IOError("forest file: bad tree count");
  }
  std::vector<DareTree> trees;
  trees.reserve(static_cast<size_t>(num_trees));
  for (int32_t t = 0; t < num_trees; ++t) {
    int32_t tree_id = 0;
    uint8_t has_root = 0;
    if (!ReadPod(in, &tree_id) || !ReadPod(in, &has_root)) {
      return Status::IOError("forest file: truncated tree header");
    }
    std::shared_ptr<TreeNode> root;
    if (has_root != 0) {
      FUME_ASSIGN_OR_RETURN(root, ReadNode(in, 0, num_attrs, num_rows));
    }
    trees.push_back(
        DareTree::FromParts(store, config, tree_id, std::move(root)));
  }
  DareForest forest =
      DareForest::FromParts(std::move(store), config, std::move(trees), stats);
  if (!forest.ValidateStats()) {
    return Status::IOError("forest file: cached statistics fail validation");
  }
  return forest;
}

Status SaveForestToFile(const DareForest& forest, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IOError("cannot open '" + path + "' for writing");
  return SaveForest(forest, out);
}

Result<DareForest> LoadForestFromFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open '" + path + "' for reading");
  return LoadForest(in);
}

}  // namespace fume
