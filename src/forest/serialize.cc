#include "forest/serialize.h"

#include <fstream>

namespace fume {

namespace {

using util::BinaryReader;
using util::BinaryWriter;

constexpr char kMagic[8] = {'F', 'U', 'M', 'E', 'D', 'A', 'R', 'E'};
// Version 2 appends the forest's DeletionStats to the config block, so the
// unlearning work counters survive a save/load round trip. Version 1 files
// (no stats block) are no longer read.
constexpr uint32_t kVersion = 2;

void WriteNode(BinaryWriter& out, const TreeNode* node) {
  out.Pod<uint8_t>(node->is_leaf() ? 1 : 0);
  out.Pod<int64_t>(node->count);
  out.Pod<int64_t>(node->pos);
  if (node->is_leaf()) {
    out.Vec(node->rows);
    return;
  }
  out.Pod<int32_t>(node->attr);
  out.Pod<int32_t>(node->threshold);
  out.Pod<uint8_t>(node->is_random ? 1 : 0);
  out.Vec(node->stats.cand_attrs);
  // The on-disk format predates the flat interleaved histogram buffer and
  // stays per-attribute (count vector, pos vector) pairs — de-interleave at
  // this boundary so old files keep loading byte-for-byte.
  out.Pod<uint64_t>(node->stats.cand_attrs.size());
  for (size_t i = 0; i < node->stats.cand_attrs.size(); ++i) {
    const int64_t* h = node->stats.HistRow(i);
    const size_t card = static_cast<size_t>(node->stats.HistCard(i));
    std::vector<int64_t> hc(card), hp(card);
    for (size_t v = 0; v < card; ++v) {
      hc[v] = h[2 * v];
      hp[v] = h[2 * v + 1];
    }
    out.Vec(hc);
    out.Vec(hp);
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

Result<std::shared_ptr<TreeNode>> ReadNode(BinaryReader& in, int depth,
                                           int num_attrs, int64_t num_rows) {
  if (depth > 64) return Status::IOError("forest file: tree too deep");
  auto node = std::make_shared<TreeNode>();
  uint8_t is_leaf = 0;
  if (!in.Pods(&is_leaf, &node->count, &node->pos)) {
    return in.Error("forest file: node header");
  }
  if (is_leaf != 0) {
    if (!in.Vec(&node->rows)) return in.Error("forest file: leaf rows");
    for (const RowId r : node->rows) {
      if (r < 0 || r >= num_rows) {
        return Status::IOError("forest file: leaf row id out of range");
      }
    }
    return node;
  }
  uint8_t is_random = 0;
  if (!in.Pods(&node->attr, &node->threshold, &is_random)) {
    return in.Error("forest file: split record");
  }
  node->is_random = is_random != 0;
  if (!AttrInRange(node->attr, num_attrs)) {
    return Status::IOError("forest file: split attribute out of range");
  }
  if (!in.Vec(&node->stats.cand_attrs)) {
    return in.Error("forest file: candidate attrs");
  }
  for (const int a : node->stats.cand_attrs) {
    if (!AttrInRange(a, num_attrs)) {
      return Status::IOError("forest file: candidate attribute out of range");
    }
  }
  uint64_t num_hists = 0;
  if (!in.Pod(&num_hists)) return in.Error("forest file: histogram count");
  if (num_hists != node->stats.cand_attrs.size()) {
    return Status::IOError("forest file: histogram count mismatch");
  }
  node->stats.hist_offsets.assign(num_hists + 1, 0);
  node->stats.hist.clear();
  std::vector<int64_t> hc, hp;
  for (uint64_t i = 0; i < num_hists; ++i) {
    if (!in.Vec(&hc) || !in.Vec(&hp)) {
      return in.Error("forest file: histograms");
    }
    if (hc.size() != hp.size()) {
      return Status::IOError("forest file: histogram halves disagree");
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

Status SaveForest(const DareForest& forest, std::ostream& stream) {
  BinaryWriter out(stream);
  out.Header(kMagic, kVersion);

  // Config block.
  const ForestConfig& config = forest.config();
  out.Pod<int32_t>(config.num_trees);
  out.Pod<int32_t>(config.max_depth);
  out.Pod<int32_t>(config.random_depth);
  out.Pod<int32_t>(config.min_samples_split);
  out.Pod<int32_t>(config.min_samples_leaf);
  out.Pod<int32_t>(config.num_candidate_attrs);
  out.Pod<uint8_t>(config.threshold_mode == ThresholdMode::kExact ? 0 : 1);
  out.Pod<int32_t>(config.num_sampled_thresholds);
  out.Pod<uint64_t>(config.seed);

  // Unlearning work counters.
  const DeletionStats& stats = forest.deletion_stats();
  out.Pod<int64_t>(stats.nodes_visited);
  out.Pod<int64_t>(stats.nodes_updated);
  out.Pod<int64_t>(stats.subtrees_retrained);
  out.Pod<int64_t>(stats.rows_retrained);
  out.Pod<int64_t>(stats.leaves_updated);

  // Training store block: the cardinalities, the row count, the row-major
  // code matrix, then one label byte per row.
  const TrainingStore& store = forest.store();
  const int p = store.num_attrs();
  std::vector<int32_t> cards(static_cast<size_t>(p));
  for (int j = 0; j < p; ++j) cards[static_cast<size_t>(j)] = store.cardinality(j);
  out.Vec(cards);
  out.Pod<int64_t>(store.num_rows());
  for (RowId r = 0; r < store.num_rows(); ++r) {
    for (int j = 0; j < p; ++j) out.Pod<int32_t>(store.code(r, j));
  }
  for (RowId r = 0; r < store.num_rows(); ++r) {
    out.Pod<uint8_t>(static_cast<uint8_t>(store.label(r)));
  }

  // Trees.
  out.Pod<int32_t>(forest.num_trees());
  for (int t = 0; t < forest.num_trees(); ++t) {
    out.Pod<int32_t>(forest.tree(t).tree_id());
    const TreeNode* root = forest.tree(t).root();
    out.Pod<uint8_t>(root != nullptr ? 1 : 0);
    if (root != nullptr) WriteNode(out, root);
  }
  if (!out.ok()) return Status::IOError("forest write failed");
  return Status::OK();
}

Result<DareForest> LoadForest(std::istream& stream) {
  BinaryReader in(stream);
  return LoadForest(in);
}

Result<DareForest> LoadForest(BinaryReader& in) {
  if (!in.Header(kMagic, kVersion, "forest file",
                 " (written before deletion stats were saved, no longer "
                 "read): retrain and save the model again")) {
    return in.status();
  }
  ForestConfig config;
  uint8_t mode = 0;
  if (!in.Pods(&config.num_trees, &config.max_depth, &config.random_depth,
               &config.min_samples_split, &config.min_samples_leaf,
               &config.num_candidate_attrs, &mode,
               &config.num_sampled_thresholds, &config.seed)) {
    return in.Error("forest file: config block");
  }
  config.threshold_mode =
      mode == 0 ? ThresholdMode::kExact : ThresholdMode::kSampled;

  DeletionStats stats;
  if (!in.Pods(&stats.nodes_visited, &stats.nodes_updated,
               &stats.subtrees_retrained, &stats.rows_retrained,
               &stats.leaves_updated)) {
    return in.Error("forest file: deletion-stats block");
  }

  std::vector<int32_t> cards;
  if (!in.Vec(&cards)) return in.Error("forest file: cardinality block");
  if (cards.empty()) return Status::IOError("forest file: no attributes");
  for (const int32_t card : cards) {
    if (card < 1) return Status::IOError("forest file: bad cardinality");
  }
  int64_t num_rows = 0;
  if (!in.Pod(&num_rows)) return in.Error("forest file: row count");
  // Both factors are at most the element bound, so the product cannot
  // overflow.
  if (num_rows < 0 ||
      static_cast<uint64_t>(num_rows) > BinaryReader::kMaxElements ||
      static_cast<uint64_t>(num_rows) * cards.size() >
          BinaryReader::kMaxElements) {
    return Status::IOError("forest file: bad row count");
  }
  std::vector<int32_t> codes;
  std::vector<uint8_t> labels;
  if (!in.Block(&codes, static_cast<uint64_t>(num_rows) * cards.size()) ||
      !in.Block(&labels, static_cast<uint64_t>(num_rows))) {
    return in.Error("forest file: store block");
  }
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
  if (!in.Pod(&num_trees)) return in.Error("forest file: tree count");
  if (num_trees < 0 || num_trees > 1000000) {
    return Status::IOError("forest file: bad tree count");
  }
  std::vector<DareTree> trees;
  for (int32_t t = 0; t < num_trees; ++t) {
    int32_t tree_id = 0;
    uint8_t has_root = 0;
    if (!in.Pods(&tree_id, &has_root)) {
      return in.Error("forest file: tree header");
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
