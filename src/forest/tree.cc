#include "forest/tree.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <unordered_set>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"

namespace fume {

namespace cow_debug {

#ifndef NDEBUG
namespace {
std::atomic<int64_t> g_live_tree_nodes{0};
}  // namespace

NodeTally::NodeTally() {
  g_live_tree_nodes.fetch_add(1, std::memory_order_relaxed);
}
NodeTally::NodeTally(const NodeTally&) {
  g_live_tree_nodes.fetch_add(1, std::memory_order_relaxed);
}
NodeTally::~NodeTally() {
  g_live_tree_nodes.fetch_sub(1, std::memory_order_relaxed);
}

int64_t LiveTreeNodes() {
  return g_live_tree_nodes.load(std::memory_order_relaxed);
}
#else
int64_t LiveTreeNodes() { return 0; }
#endif

}  // namespace cow_debug

namespace {

// Unlearning work, attributed per event class. Retrains are rare (that is
// DaRE's whole point), so the per-retrain histogram/counter updates are
// off the common path; the bulk counters are added once per batch.
struct UnlearnMetrics {
  obs::Counter* nodes_visited = obs::GetCounter("forest.unlearn.nodes_visited");
  obs::Counter* nodes_updated = obs::GetCounter("forest.unlearn.nodes_updated");
  obs::Counter* leaves_updated =
      obs::GetCounter("forest.unlearn.leaves_updated");
  obs::Counter* subtrees_retrained =
      obs::GetCounter("forest.unlearn.subtrees_retrained");
  obs::Counter* rows_retrained =
      obs::GetCounter("forest.unlearn.rows_retrained");
  /// Nodes privately copied because a mutation hit a node shared with a
  /// CoW clone. Zero while a forest has no live clones.
  obs::Counter* cow_nodes_copied =
      obs::GetCounter("forest.unlearn.cow_nodes_copied");
  /// Retrains of nodes in the random upper levels ("resampled" random
  /// splits) vs. greedy nodes below them.
  obs::Counter* retrain_random_nodes =
      obs::GetCounter("forest.unlearn.retrain_random_nodes");
  obs::Counter* retrain_greedy_nodes =
      obs::GetCounter("forest.unlearn.retrain_greedy_nodes");
  /// Depth at which each subtree retrain was triggered.
  obs::Histogram* retrain_depth =
      obs::GetHistogram("forest.unlearn.retrain_depth");

  static UnlearnMetrics& Get() {
    static UnlearnMetrics metrics;
    return metrics;
  }
};

void RecordBatch(const DeletionStats& s) {
  UnlearnMetrics& m = UnlearnMetrics::Get();
  m.nodes_visited->Inc(s.nodes_visited);
  m.nodes_updated->Inc(s.nodes_updated);
  m.leaves_updated->Inc(s.leaves_updated);
  m.subtrees_retrained->Inc(s.subtrees_retrained);
  m.rows_retrained->Inc(s.rows_retrained);
}

void RecordRetrain(int depth, int random_depth) {
  UnlearnMetrics& m = UnlearnMetrics::Get();
  m.retrain_depth->Record(depth);
  (depth < random_depth ? m.retrain_random_nodes : m.retrain_greedy_nodes)
      ->Inc();
}

/// The split an internal node currently holds, as a decision to compare
/// a re-evaluated DecideSplit against.
SplitDecision SplitOf(const TreeNode* node) {
  SplitDecision current;
  current.is_leaf = false;
  current.attr = node->attr;
  current.threshold = node->threshold;
  current.is_random = node->is_random;
  return current;
}

}  // namespace

DareTree DareTree::Build(std::shared_ptr<const TrainingStore> store,
                         const std::vector<RowId>& rows, int tree_id,
                         const ForestConfig& config) {
  obs::TraceSpan span("tree.build",
                      {{"tree_id", tree_id},
                       {"rows", static_cast<int64_t>(rows.size())}});
  DareTree tree;
  tree.store_ = std::move(store);
  tree.config_ = config;
  tree.tree_id_ = tree_id;
  std::vector<RowId> sorted = rows;
  DeletionScratch scratch;
  tree.generation_ = arena_internal::NextGeneration();
  tree.root_ = tree.BuildRoot(&sorted, &scratch);
  return tree;
}

std::shared_ptr<TreeNode> DareTree::BuildRoot(std::vector<RowId>* rows,
                                              DeletionScratch* scratch) {
  std::sort(rows->begin(), rows->end());
  return BuildNodeKernel(rows->data(), rows->data() + rows->size(),
                         /*depth=*/0, RootPathKey(config_.seed, tree_id_),
                         scratch);
}

std::shared_ptr<TreeNode> DareTree::BuildNodeKernel(RowId* begin, RowId* end,
                                                    int depth,
                                                    uint64_t path_key,
                                                    DeletionScratch* scratch,
                                                    NodeStats* seed_stats,
                                                    int64_t pos_hint) {
  auto node = std::make_shared<TreeNode>();
  node->generation = generation_;
  const int64_t n = end - begin;
  int64_t pos = 0;
  if (seed_stats != nullptr) {
    FUME_DCHECK_EQ(seed_stats->count, n);
    pos = seed_stats->pos;
  } else if (pos_hint >= 0) {
    pos = pos_hint;
  } else {
    for (RowId* p = begin; p != end; ++p) pos += store_->label(*p);
  }
  node->count = n;
  node->pos = pos;
  // Histogram-free leaf conditions — the same test DecideSplit starts
  // with: a node they force into a leaf never reads its histograms, so
  // skipping the histogram pass cannot change bytes.
  if (IsForcedLeaf(n, pos, depth, config_)) {
    node->rows.assign(begin, end);
    return node;
  }

  NodeStats stats;
  if (seed_stats != nullptr) {
    stats = std::move(*seed_stats);
  } else {
    ChooseCandidateAttrs(path_key, store_->num_attrs(), depth, config_,
                         &stats.cand_attrs);
    stats.Recompute(*store_, begin, n);
  }
  const SplitDecision decision =
      DecideSplit(stats, *store_, depth, path_key, config_);
  if (decision.is_leaf) {
    node->rows.assign(begin, end);
    return node;
  }

  node->attr = decision.attr;
  node->threshold = decision.threshold;
  node->is_random = decision.is_random;
  node->stats = std::move(stats);

  int64_t left_pos = 0;
  RowId* mid = PartitionBySplit(decision.attr, decision.threshold, begin, end,
                                scratch, &left_pos);
  node->left = BuildNodeKernel(begin, mid, depth + 1,
                               ChildPathKey(path_key, 0), scratch,
                               /*seed_stats=*/nullptr, left_pos);
  node->right = BuildNodeKernel(mid, end, depth + 1,
                                ChildPathKey(path_key, 1), scratch,
                                /*seed_stats=*/nullptr, pos - left_pos);
  return node;
}

void DareTree::CollectLeafRows(const TreeNode* node, std::vector<RowId>* out) {
  if (node->is_leaf()) {
    out->insert(out->end(), node->rows.begin(), node->rows.end());
    return;
  }
  CollectLeafRows(node->left.get(), out);
  CollectLeafRows(node->right.get(), out);
}

int64_t DareTree::CollectLeafRowsFiltered(const TreeNode* node,
                                          const DeletionScratch& scratch,
                                          std::vector<RowId>* out) {
  if (node->is_leaf()) {
    int64_t dropped = 0;
    for (RowId r : node->rows) {
      if (scratch.IsDoomed(r)) {
        ++dropped;
      } else {
        out->push_back(r);
      }
    }
    return dropped;
  }
  return CollectLeafRowsFiltered(node->left.get(), scratch, out) +
         CollectLeafRowsFiltered(node->right.get(), scratch, out);
}

TreeNode* DareTree::Mutable(std::shared_ptr<TreeNode>* slot,
                            DeletionStats* stats_out) {
  // use_count() == 1 means this tree holds the only reference: another
  // forest can neither reach the node nor (being confined to its own
  // thread) resurrect a reference to it, so in-place mutation is safe. A
  // concurrent release by a clone being destroyed can at worst leave a
  // stale >1, which only costs a spurious private copy.
  if ((*slot).use_count() > 1) {
    UnlearnMetrics::Get().cow_nodes_copied->Inc();
    ++stats_out->nodes_copied;
    *slot = std::make_shared<TreeNode>(**slot);  // shallow: children shared
  }
  TreeNode* node = slot->get();
  node->generation = generation_;
  return node;
}

void DareTree::BumpGeneration() {
  generation_ = arena_internal::NextGeneration();
  // Drop the stale arena eagerly (the generation check alone would keep it
  // correct) so what-if churn doesn't hold dead arenas alive.
  std::shared_ptr<const TreeArena> stale;
  {
    std::lock_guard<std::mutex> lock(arena_slot_->mu);
    stale = std::move(arena_slot_->arena);
  }
  if (stale != nullptr) {
    static obs::Counter* invalidates =
        obs::GetCounter("forest.arena.invalidate");
    invalidates->Inc();
  }
}

std::shared_ptr<const TreeArena> DareTree::arena() const {
  static obs::Counter* reuses = obs::GetCounter("forest.arena.reuse");
  std::lock_guard<std::mutex> lock(arena_slot_->mu);
  std::shared_ptr<const TreeArena>& cur = arena_slot_->arena;
  if (cur != nullptr && cur->generation() == generation_) {
    reuses->Inc();
    return cur;
  }
  // The last compiled node count is the best size hint available — what-if
  // mutations move it by at most a retrained subtree. The slot remembers it
  // across eager invalidation, so post-mutation recompiles reserve too.
  cur = TreeArena::Compile(
      root_.get(), generation_,
      cur == nullptr ? arena_slot_->size_hint : cur->num_nodes());
  arena_slot_->size_hint = cur->num_nodes();
  return cur;
}

void DareTree::DeleteRows(const std::vector<RowId>& rows,
                          DeletionStats* stats_out, DeletionScratch* scratch) {
  if (rows.empty() || root_ == nullptr) return;
  BumpGeneration();
  DeletionStats local;
  scratch->route.assign(rows.begin(), rows.end());
  scratch->settled = 0;
  RowId* const begin = scratch->route.data();
  RowId* const end = begin + scratch->route.size();
  const uint64_t root_key = RootPathKey(config_.seed, tree_id_);
  DeleteFromNodeKernel(&root_, begin, end, /*depth=*/0, root_key, &local,
                       scratch);
  // Batch-level membership check: every doomed row must have been settled
  // exactly once in this tree, either removed at a leaf or filtered out of
  // a retrain collection.
  FUME_CHECK_EQ(scratch->settled, static_cast<int64_t>(rows.size()));
  RecordBatch(local);
  if (stats_out != nullptr) stats_out->Add(local);
}

RowId* DareTree::PartitionBySplit(int attr, int32_t threshold, RowId* begin,
                                  RowId* end, DeletionScratch* scratch,
                                  int64_t* left_pos_out) const {
  // Branch-free stable partition (see NodeStats::RemoveRowsAndPartition):
  // each row is stored to both cursors and only the matching one advances.
  std::vector<RowId>& spill = scratch->partition_tmp;
  const auto n = static_cast<size_t>(end - begin);
  if (spill.size() < n) spill.resize(n);  // grow only: no re-zeroing
  RowId* write = begin;
  RowId* spilled = spill.data();
  int64_t left_pos = 0;
  for (RowId* p = begin; p != end; ++p) {
    const RowId r = *p;
    const bool left = store_->row_codes(r)[attr] <= threshold;
    // Counted whether or not the caller wants it. Guarding this add with a
    // loop-invariant `left_pos_out != nullptr` test lets GCC's loop
    // unswitching (-funswitch-loops, on at -O3) version the loop, and the
    // versioned code made a 10k-row, 10-tree Train ~40% slower on GCC 12.2
    // (docs/performance.md). One label load per row is cheaper than that.
    left_pos += static_cast<int>(left) & store_->label(r);
    *write = r;
    *spilled = r;
    write += left;
    spilled += !left;
  }
  std::copy(spill.data(), spilled, write);
  if (left_pos_out != nullptr) *left_pos_out = left_pos;
  return write;
}

void DareTree::DeleteFromNodeKernel(std::shared_ptr<TreeNode>* slot,
                                    RowId* begin, RowId* end, int depth,
                                    uint64_t path_key,
                                    DeletionStats* stats_out,
                                    DeletionScratch* scratch) {
  TreeNode* node = Mutable(slot, stats_out);
  ++stats_out->nodes_visited;
  [[maybe_unused]] const int64_t n = end - begin;  // checked in debug builds

  if (node->is_leaf()) {
    // A leaf can never become an internal node under deletion (leaf
    // conditions are monotone in shrinking data; see DESIGN.md §6.1), so
    // only the membership list and label counts change. Doomed membership
    // comes from the batch-wide epoch stamps — no per-leaf set build.
    ++stats_out->leaves_updated;
    int64_t removed_pos = 0;
    size_t kept = 0;
    for (size_t i = 0; i < node->rows.size(); ++i) {
      const RowId r = node->rows[i];
      if (scratch->IsDoomed(r)) {
        removed_pos += store_->label(r);
      } else {
        node->rows[kept++] = r;
      }
    }
    const int64_t removed = static_cast<int64_t>(node->rows.size() - kept);
    // Strict per-leaf form kept in debug builds; release builds rely on the
    // per-tree settled tally in DeleteRows.
    FUME_DCHECK_EQ(removed, n);
    scratch->settled += removed;
    node->rows.resize(kept);
    node->count -= removed;
    node->pos -= removed_pos;
    return;
  }

  // Internal node: one fused pass decrements the cached statistics AND
  // stable-partitions the routed span around the current split (each row's
  // store line is touched exactly once), then the split decision is
  // re-evaluated as usual. On the rare decision flip the partition work is
  // discarded — the retrain rebuilds from the collected remaining rows and
  // never re-reads the (reordered, abandoned) span.
  ++stats_out->nodes_updated;
  RowId* mid = node->stats.RemoveRowsAndPartition(
      *store_, begin, end, node->attr, node->threshold,
      &scratch->partition_tmp);
  node->count = node->stats.count;
  node->pos = node->stats.pos;

  const SplitDecision decision =
      DecideSplit(node->stats, *store_, depth, path_key, config_);
  if (!decision.SameSplit(SplitOf(node))) {
    ++stats_out->subtrees_retrained;
    RecordRetrain(depth, config_.random_depth);
    std::vector<RowId>& remaining = scratch->remaining;
    remaining.clear();
    const int64_t filtered = CollectLeafRowsFiltered(node, *scratch, &remaining);
    FUME_DCHECK_EQ(filtered, n);
    scratch->settled += filtered;
    // Canonical rebuild order (see BuildNodeKernel).
    std::sort(remaining.begin(), remaining.end());
    stats_out->rows_retrained += static_cast<int64_t>(remaining.size());
    std::shared_ptr<TreeNode> rebuilt = BuildNodeKernel(
        remaining.data(), remaining.data() + remaining.size(), depth, path_key,
        scratch, &node->stats);
    *node = std::move(*rebuilt);
    return;
  }

  // Same split: the fused pass above already partitioned the span, so each
  // child gets its doomed rows without a routing allocation.
  if (mid != begin) {
    DeleteFromNodeKernel(&node->left, begin, mid, depth + 1,
                         ChildPathKey(path_key, 0), stats_out, scratch);
  }
  if (mid != end) {
    DeleteFromNodeKernel(&node->right, mid, end, depth + 1,
                         ChildPathKey(path_key, 1), stats_out, scratch);
  }
}

struct DareTree::WhatIfWalk {
  const Dataset& test;
  double* probs;
  std::vector<int64_t>* rescored;
  DeletionStats* stats;
  DeletionScratch* scratch;
};

namespace {

/// Branch-free unstable partition of test-row indices around a split test
/// (the order of test rows carries no meaning); returns the boundary.
int64_t* PartitionTestRows(const Dataset& test, int attr, int32_t threshold,
                           int64_t* begin, int64_t* end) {
  int64_t* mid = begin;
  for (int64_t* p = begin; p != end; ++p) {
    const int64_t r = *p;
    const bool left = test.Code(r, attr) <= threshold;
    *p = *mid;
    *mid = r;
    mid += left;
  }
  return mid;
}

/// Writes a what-if leaf's probability for the test rows reaching it —
/// PredictProb's arithmetic, including the 0.5 for an emptied leaf.
void EmitLeaf(int64_t count, int64_t pos, const int64_t* tbegin,
              const int64_t* tend, double* probs,
              std::vector<int64_t>* rescored) {
  if (tbegin == tend) return;
  const double p = count == 0 ? 0.5
                              : static_cast<double>(pos) /
                                    static_cast<double>(count);
  for (const int64_t* t = tbegin; t != tend; ++t) {
    probs[static_cast<size_t>(*t)] = p;
    rescored->push_back(*t);
  }
}

}  // namespace

void DareTree::ScoreWithout(const std::vector<RowId>& rows,
                            const Dataset& test, int64_t* test_begin,
                            int64_t* test_end, double* probs,
                            std::vector<int64_t>* rescored,
                            DeletionStats* stats_out,
                            DeletionScratch* scratch) const {
  if (rows.empty() || root_ == nullptr) return;
  DeletionStats local;
  scratch->route.assign(rows.begin(), rows.end());
  scratch->settled = 0;
  WhatIfWalk walk{test, probs, rescored, &local, scratch};
  ScoreWithoutNode(root_.get(), scratch->route.data(),
                   scratch->route.data() + scratch->route.size(), test_begin,
                   test_end, /*depth=*/0, RootPathKey(config_.seed, tree_id_),
                   &walk);
  // Same per-tree guard as DeleteRows: every doomed row settled once.
  FUME_CHECK_EQ(scratch->settled, static_cast<int64_t>(rows.size()));
  RecordBatch(local);
  if (stats_out != nullptr) stats_out->Add(local);
}

void DareTree::ScoreWithoutNode(const TreeNode* node, RowId* begin,
                                RowId* end, int64_t* tbegin, int64_t* tend,
                                int depth, uint64_t path_key,
                                WhatIfWalk* walk) const {
  DeletionScratch* scratch = walk->scratch;
  DeletionStats* stats = walk->stats;
  ++stats->nodes_visited;
  [[maybe_unused]] const int64_t n = end - begin;  // checked in debug builds

  if (node->is_leaf()) {
    // DeleteFromNodeKernel's leaf step, counted instead of applied.
    ++stats->leaves_updated;
    int64_t removed = 0;
    int64_t removed_pos = 0;
    for (const RowId r : node->rows) {
      if (scratch->IsDoomed(r)) {
        ++removed;
        removed_pos += store_->label(r);
      }
    }
    FUME_DCHECK_EQ(removed, n);
    scratch->settled += removed;
    EmitLeaf(node->count - removed, node->pos - removed_pos, tbegin, tend,
             walk->probs, walk->rescored);
    return;
  }

  // DeleteFromNodeKernel's internal-node step on a scratch copy of the
  // cached statistics: the same fused decrement + partition, the same
  // re-decision.
  ++stats->nodes_updated;
  NodeStats& after = scratch->stats;
  after = node->stats;
  RowId* mid = after.RemoveRowsAndPartition(*store_, begin, end, node->attr,
                                            node->threshold,
                                            &scratch->partition_tmp);
  const SplitDecision decision =
      DecideSplit(after, *store_, depth, path_key, config_);
  if (!decision.SameSplit(SplitOf(node))) {
    ++stats->subtrees_retrained;
    RecordRetrain(depth, config_.random_depth);
    std::vector<RowId>& remaining = scratch->remaining;
    remaining.clear();
    const int64_t filtered =
        CollectLeafRowsFiltered(node, *scratch, &remaining);
    FUME_DCHECK_EQ(filtered, n);
    scratch->settled += filtered;
    stats->rows_retrained += static_cast<int64_t>(remaining.size());
    // No canonical sort: row order decides only the leaf lists of a built
    // tree, never its counts, splits or probabilities.
    if (tbegin != tend) {
      ScoreRebuilt(remaining.data(), remaining.data() + remaining.size(),
                   after.pos, tbegin, tend, depth, path_key, &decision, walk);
    }
    return;
  }

  // Same split: test rows follow the doomed rows down. A side the batch
  // does not reach keeps its base leaves.
  int64_t* tmid =
      PartitionTestRows(walk->test, node->attr, node->threshold, tbegin, tend);
  if (mid != begin) {
    ScoreWithoutNode(node->left.get(), begin, mid, tbegin, tmid, depth + 1,
                     ChildPathKey(path_key, 0), walk);
  }
  if (mid != end) {
    ScoreWithoutNode(node->right.get(), mid, end, tmid, tend, depth + 1,
                     ChildPathKey(path_key, 1), walk);
  }
}

void DareTree::ScoreRebuilt(RowId* begin, RowId* end, int64_t pos,
                            int64_t* tbegin, int64_t* tend, int depth,
                            uint64_t path_key, const SplitDecision* decided,
                            WhatIfWalk* walk) const {
  // BuildNodeKernel's decisions, node for node, minus the node itself.
  const int64_t n = end - begin;
  if (IsForcedLeaf(n, pos, depth, config_)) {
    EmitLeaf(n, pos, tbegin, tend, walk->probs, walk->rescored);
    return;
  }
  SplitDecision decision;
  if (decided != nullptr) {
    decision = *decided;
  } else {
    NodeStats& stats = walk->scratch->stats;
    ChooseCandidateAttrs(path_key, store_->num_attrs(), depth, config_,
                         &stats.cand_attrs);
    stats.Recompute(*store_, begin, n);
    decision = DecideSplit(stats, *store_, depth, path_key, config_);
  }
  if (decision.is_leaf) {
    EmitLeaf(n, pos, tbegin, tend, walk->probs, walk->rescored);
    return;
  }
  int64_t left_pos = 0;
  RowId* mid = PartitionBySplit(decision.attr, decision.threshold, begin, end,
                                walk->scratch, &left_pos);
  int64_t* tmid = PartitionTestRows(walk->test, decision.attr,
                                    decision.threshold, tbegin, tend);
  if (tmid != tbegin) {
    ScoreRebuilt(begin, mid, left_pos, tbegin, tmid, depth + 1,
                 ChildPathKey(path_key, 0), nullptr, walk);
  }
  if (tmid != tend) {
    ScoreRebuilt(mid, end, pos - left_pos, tmid, tend, depth + 1,
                 ChildPathKey(path_key, 1), nullptr, walk);
  }
}

void DareTree::AddRows(const std::vector<RowId>& rows,
                       DeletionStats* stats_out, DeletionScratch* scratch) {
  if (rows.empty()) return;
  BumpGeneration();
  DeletionStats local;
  if (root_ == nullptr) {
    std::vector<RowId>& sorted = scratch->remaining;
    sorted.assign(rows.begin(), rows.end());
    root_ = BuildRoot(&sorted, scratch);
    ++local.subtrees_retrained;
  } else {
    scratch->route.assign(rows.begin(), rows.end());
    AddToNodeKernel(&root_, scratch->route.data(),
                    scratch->route.data() + scratch->route.size(),
                    /*depth=*/0, RootPathKey(config_.seed, tree_id_), &local,
                    scratch);
  }
  if (stats_out != nullptr) stats_out->Add(local);
}

void DareTree::AddToNodeKernel(std::shared_ptr<TreeNode>* slot, RowId* begin,
                               RowId* end, int depth, uint64_t path_key,
                               DeletionStats* stats_out,
                               DeletionScratch* scratch) {
  TreeNode* node = Mutable(slot, stats_out);
  ++stats_out->nodes_visited;
  const int64_t n = end - begin;

  if (node->is_leaf()) {
    // Unlike deletion, addition can turn a leaf into a split (count grows,
    // purity can break). Rebuilding from the leaf's rows plus the additions
    // recomputes the decision from scratch — cheap, the set is leaf-sized.
    // The merge buffer is reused across leaves and batches.
    ++stats_out->leaves_updated;
    std::vector<RowId>& merged = scratch->remaining;
    merged.clear();
    merged.insert(merged.end(), node->rows.begin(), node->rows.end());
    merged.insert(merged.end(), begin, end);
    // Canonical rebuild order (see BuildNodeKernel).
    std::sort(merged.begin(), merged.end());
    stats_out->rows_retrained += static_cast<int64_t>(merged.size());
    std::shared_ptr<TreeNode> rebuilt = BuildNodeKernel(
        merged.data(), merged.data() + merged.size(), depth, path_key,
        scratch);
    *node = std::move(*rebuilt);
    return;
  }

  // No fused update+partition here, unlike DeleteFromNodeKernel: add
  // retrains are leaf-sized and rare enough that the separate partition
  // after the flip check has never shown up in the bench.
  ++stats_out->nodes_updated;
  node->stats.AddRows(*store_, begin, n);
  node->count = node->stats.count;
  node->pos = node->stats.pos;

  const SplitDecision decision =
      DecideSplit(node->stats, *store_, depth, path_key, config_);
  if (!decision.SameSplit(SplitOf(node))) {
    ++stats_out->subtrees_retrained;
    std::vector<RowId>& remaining = scratch->remaining;
    remaining.clear();
    CollectLeafRows(node, &remaining);
    remaining.insert(remaining.end(), begin, end);
    // Canonical rebuild order (see BuildNodeKernel).
    std::sort(remaining.begin(), remaining.end());
    stats_out->rows_retrained += static_cast<int64_t>(remaining.size());
    std::shared_ptr<TreeNode> rebuilt = BuildNodeKernel(
        remaining.data(), remaining.data() + remaining.size(), depth, path_key,
        scratch, &node->stats);
    *node = std::move(*rebuilt);
    return;
  }

  RowId* mid =
      PartitionBySplit(node->attr, node->threshold, begin, end, scratch);
  if (mid != begin) {
    AddToNodeKernel(&node->left, begin, mid, depth + 1,
                    ChildPathKey(path_key, 0), stats_out, scratch);
  }
  if (mid != end) {
    AddToNodeKernel(&node->right, mid, end, depth + 1,
                    ChildPathKey(path_key, 1), stats_out, scratch);
  }
}

namespace {

bool NodesEqual(const TreeNode* a, const TreeNode* b) {
  if (a == b) return true;  // CoW-shared subtrees are identical by identity
  if (a->count != b->count || a->pos != b->pos) return false;
  if (a->is_leaf() != b->is_leaf()) return false;
  if (a->is_leaf()) {
    std::vector<RowId> ra = a->rows;
    std::vector<RowId> rb = b->rows;
    std::sort(ra.begin(), ra.end());
    std::sort(rb.begin(), rb.end());
    return ra == rb;
  }
  if (a->attr != b->attr || a->threshold != b->threshold ||
      a->is_random != b->is_random) {
    return false;
  }
  if (!a->stats.Equals(b->stats)) return false;
  return NodesEqual(a->left.get(), b->left.get()) &&
         NodesEqual(a->right.get(), b->right.get());
}

// Recounts statistics from leaf membership; returns false on any mismatch.
bool ValidateNode(const TreeNode* node, const TrainingStore& store,
                  std::vector<RowId>* rows_out) {
  std::vector<RowId> rows;
  if (node->is_leaf()) {
    rows = node->rows;
  } else {
    std::vector<RowId> left_rows;
    std::vector<RowId> right_rows;
    if (!ValidateNode(node->left.get(), store, &left_rows)) return false;
    if (!ValidateNode(node->right.get(), store, &right_rows)) return false;
    for (RowId r : left_rows) {
      if (store.code(r, node->attr) > node->threshold) {
        std::fprintf(stderr, "row %d misrouted to left child\n", r);
        return false;
      }
    }
    for (RowId r : right_rows) {
      if (store.code(r, node->attr) <= node->threshold) {
        std::fprintf(stderr, "row %d misrouted to right child\n", r);
        return false;
      }
    }
    rows = left_rows;
    rows.insert(rows.end(), right_rows.begin(), right_rows.end());
    NodeStats expect;
    expect.ComputeFromRows(store, rows, node->stats.cand_attrs);
    if (!expect.Equals(node->stats)) {
      std::fprintf(stderr, "cached stats mismatch at internal node\n");
      return false;
    }
  }
  int64_t pos = 0;
  for (RowId r : rows) pos += store.label(r);
  if (node->count != static_cast<int64_t>(rows.size()) || node->pos != pos) {
    std::fprintf(stderr, "count/pos mismatch: have (%lld,%lld) want (%zu,%lld)\n",
                 static_cast<long long>(node->count),
                 static_cast<long long>(node->pos), rows.size(),
                 static_cast<long long>(pos));
    return false;
  }
  *rows_out = std::move(rows);
  return true;
}

int64_t CountNodes(const TreeNode* node) {
  if (node == nullptr) return 0;
  if (node->is_leaf()) return 1;
  return 1 + CountNodes(node->left.get()) + CountNodes(node->right.get());
}

int Depth(const TreeNode* node) {
  if (node == nullptr || node->is_leaf()) return 0;
  return 1 + std::max(Depth(node->left.get()), Depth(node->right.get()));
}

#ifndef NDEBUG
void CheckCowNode(const TreeNode* node,
                  std::unordered_set<const TreeNode*>* seen) {
  // Within one tree the node graph must be a proper tree: a node reachable
  // through two parents would be double-mutated by one DeleteRows pass.
  FUME_CHECK(seen->insert(node).second);
  FUME_CHECK((node->left == nullptr) == (node->right == nullptr));
  if (node->left != nullptr) {
    FUME_CHECK_GE(node->left.use_count(), 1);
    FUME_CHECK_GE(node->right.use_count(), 1);
    CheckCowNode(node->left.get(), seen);
    CheckCowNode(node->right.get(), seen);
  }
}
#endif

}  // namespace

DareTree DareTree::Clone() const {
  DareTree out;
  out.store_ = store_;
  out.config_ = config_;
  out.tree_id_ = tree_id_;
  out.root_ = root_;  // CoW: share the node graph, refcount keeps it alive
  // Same nodes, same stamp — but a private cache cell, so neither tree's
  // later mutations can evict the other's arena. The seeded snapshot (when
  // one exists) serves both trees until one of them mutates.
  out.generation_ = generation_;
  std::lock_guard<std::mutex> lock(arena_slot_->mu);
  out.arena_slot_->arena = arena_slot_->arena;
  out.arena_slot_->size_hint = arena_slot_->size_hint;
  return out;
}

bool DareTree::StructurallyEquals(const DareTree& other) const {
  if ((root_ == nullptr) != (other.root_ == nullptr)) return false;
  if (root_ == nullptr) return true;
  return NodesEqual(root_.get(), other.root_.get());
}

bool DareTree::ValidateStats() const {
  if (root_ == nullptr) return true;
  std::vector<RowId> rows;
  return ValidateNode(root_.get(), *store_, &rows);
}

void DareTree::DebugCheckCowConsistency() const {
#ifndef NDEBUG
  if (root_ == nullptr) return;
  std::unordered_set<const TreeNode*> seen;
  CheckCowNode(root_.get(), &seen);
#endif
}

DareTree DareTree::FromParts(std::shared_ptr<const TrainingStore> store,
                             const ForestConfig& config, int tree_id,
                             std::shared_ptr<TreeNode> root) {
  DareTree tree;
  tree.store_ = std::move(store);
  tree.config_ = config;
  tree.tree_id_ = tree_id;
  tree.root_ = std::move(root);
  tree.generation_ = arena_internal::NextGeneration();
  return tree;
}

int64_t DareTree::num_nodes() const { return CountNodes(root_.get()); }
int DareTree::depth() const { return Depth(root_.get()); }

}  // namespace fume
