// DareTree: one tree of a DaRE forest. Supports exact unlearning of row
// batches with minimal subtree retraining.
//
// Node storage is copy-on-write: children are held through refcounted
// shared_ptrs, Clone() shares the whole node graph (O(1) per tree), and a
// mutation unshares exactly the nodes on its path — a shared node is
// replaced in the mutating tree by a private shallow copy before being
// touched, so a what-if clone never perturbs the forest it was cloned
// from. A node owned exclusively (refcount 1) is mutated in place.
//
// Every node carries the generation of the last batch that wrote it: a
// batch bumps the tree's generation, then stamps each node it creates
// (BuildNodeKernel) or touches (Mutable, which every delete, insert and
// lazy flush passes through on each ancestor of what it changes). A node
// stamped no later than generation G therefore heads a subtree that no
// batch after G has changed, which is how the stream engine's prediction
// cache finds the test rows an op can have moved.

#ifndef FUME_FOREST_TREE_H_
#define FUME_FOREST_TREE_H_

#include <memory>
#include <vector>

#include "data/dataset.h"
#include "forest/arena.h"
#include "forest/config.h"
#include "forest/deletion_scratch.h"
#include "forest/split_stats.h"
#include "forest/training_store.h"

namespace fume {

namespace cow_debug {

/// Debug bookkeeping member: counts live TreeNodes process-wide so tests
/// can assert that destroying a forest and all its CoW clones releases
/// every refcounted node. Compiles to an empty no-op type under NDEBUG.
struct NodeTally {
#ifndef NDEBUG
  NodeTally();
  NodeTally(const NodeTally&);
  NodeTally& operator=(const NodeTally&) { return *this; }
  ~NodeTally();
#endif
};

/// Number of TreeNode objects currently alive (always 0 under NDEBUG).
int64_t LiveTreeNodes();

/// Samples LiveTreeNodes() into the `forest.live_nodes` gauge. Called by
/// the CLIs and benches right before a metrics export so snapshots carry
/// the live CoW node population alongside proc.rss_peak_kb.
void RefreshLiveNodesGauge();

}  // namespace cow_debug

/// Deferred-retrain marker (ForestConfig::lazy_unlearn). A deletion that
/// flips this node's split decision parks the doomed rows here instead of
/// retraining: `doomed` lists every row logically deleted from the subtree
/// but still physically present in its leaves. The node's own count/pos/
/// stats keep being decremented exactly on later batches, so at flush they
/// are a valid BuildNodeKernel seed; everything *below* the tag is stale
/// and is discarded wholesale by the flush rebuild.
struct LazyTag {
  std::vector<RowId> doomed;
};

/// \brief A decision-tree node. Internal nodes cache NodeStats; leaves hold
/// the ids of the training rows they contain.
///
/// Copying a TreeNode is shallow: scalar fields, stats and leaf rows are
/// copied, children stay shared — that is exactly the CoW "unshare one
/// node" step, never use it to deep-copy a subtree. A pending LazyTag is
/// deep-copied by that step, so after an unshare the clone and its parent
/// flush independent tag state (never aliased).
struct TreeNode {
  int64_t count = 0;
  int64_t pos = 0;
  /// DareTree::generation() of the batch that last created or wrote this
  /// node (0 for a node read from disk). Never serialized or compared.
  uint64_t generation = 0;
  // Internal-node fields.
  int attr = -1;
  int32_t threshold = -1;
  bool is_random = false;
  NodeStats stats;
  std::shared_ptr<TreeNode> left;
  std::shared_ptr<TreeNode> right;
  // Leaf field.
  std::vector<RowId> rows;
  // Null except on a lazily-deferred retrain trigger (see LazyTag).
  std::unique_ptr<LazyTag> lazy;
  [[no_unique_address]] cow_debug::NodeTally tally;

  TreeNode() = default;
  TreeNode(const TreeNode& other);  // CoW unshare copy; deep-copies `lazy`
  TreeNode& operator=(const TreeNode&) = delete;
  TreeNode(TreeNode&&) = default;
  TreeNode& operator=(TreeNode&&) = default;

  bool is_leaf() const { return left == nullptr; }
};

/// \brief One data-removal-enabled decision tree.
///
/// Construction is a pure function of (store contents, seed, tree_id,
/// config); DeleteRows yields the tree that construction would have produced
/// on the reduced data (exact unlearning; asserted structurally in tests).
class DareTree {
 public:
  DareTree() = default;

  /// Builds from the given training rows.
  static DareTree Build(std::shared_ptr<const TrainingStore> store,
                        const std::vector<RowId>& rows, int tree_id,
                        const ForestConfig& config);

  /// Exactly unlearns the given rows (must currently be in the tree).
  /// `scratch` must have the batch's rows marked doomed (BeginBatch +
  /// MarkDoomed once per forest-level call, DareForest::BeginDeletionBatch)
  /// and is shared by the trees of one forest batch: the recursion routes
  /// rows by partitioning scratch->route spans in place and answers
  /// doomed-row membership from the epoch-stamped array — allocation-free
  /// when the scratch is warm. Appends work counters to *stats_out
  /// (nullable). Nodes shared with other trees (CoW clones) are unshared
  /// before being touched; exclusively-owned nodes are updated in place.
  void DeleteRows(const std::vector<RowId>& rows, DeletionStats* stats_out,
                  DeletionScratch* scratch);

  /// Exactly adds rows (already present in the store, not in the tree): the
  /// result equals Build() on the enlarged row set. `scratch` supplies the
  /// routing buffers only — additions need no doomed marks, so any scratch
  /// works regardless of batch state.
  void AddRows(const std::vector<RowId>& rows, DeletionStats* stats_out,
               DeletionScratch* scratch);

  /// Fused what-if scoring: plays DeleteRows(rows) against this tree
  /// without writing to it (const — no CoW unshare, no generation bump, no
  /// arena eviction) and scores test rows against the tree that deletion
  /// would leave, without building it.
  ///  * At every node the doomed rows reach, the split is re-decided on a
  ///    scratch copy of the node's statistics minus those rows — the
  ///    DeleteFromNodeKernel step.
  ///  * Where the decision flips, the surviving leaf rows are collected and
  ///    BuildNodeKernel's decisions are replayed over scratch spans without
  ///    allocating nodes, descending only where test rows go.
  /// `scratch` must have the batch's rows marked doomed, as for the scratch
  /// DeleteRows overload (DareForest::BeginDeletionBatch). [test_begin,
  /// test_end) holds indices of rows of `test`, and is reordered. A test
  /// row whose descent reaches a changed region — a leaf that lost rows or
  /// a rebuilt subtree — gets the what-if leaf probability in probs[row],
  /// bit-identical to PredictProb on the deleted tree, and is appended to
  /// *rescored. Other rows still land in their base leaf and probs is not
  /// written for them. The work is counted as DeleteRows would count it
  /// (stats_out and the forest.unlearn.* metrics), with nodes_copied 0.
  /// Requires a flushed tree. Allocation-free once the scratches are warm.
  void ScoreWithout(const std::vector<RowId>& rows, const Dataset& test,
                    int64_t* test_begin, int64_t* test_end, double* probs,
                    std::vector<int64_t>* rescored, DeletionStats* stats_out,
                    DeletionScratch* scratch) const;

  /// Rebuilds every pending LazyTag subtree, topmost first: marks the tag's
  /// doomed rows in a fresh scratch batch, collects the surviving leaf rows,
  /// and retrains via BuildNodeKernel seeded with the tag node's
  /// exactly-maintained stats. Afterwards the tree is byte-identical to the
  /// eager kernel applied to the same op sequence (DESIGN.md §6 invariant
  /// 9). Retrain work is appended to *stats_out (nullable). No-op without
  /// tags (no generation bump, arenas stay valid).
  void FlushLazy(DeletionStats* stats_out, DeletionScratch* scratch);
  bool has_lazy_tags() const { return lazy_nodes_ > 0; }
  /// Doomed rows (resp. tag nodes) currently deferred in this tree.
  int64_t lazy_rows() const { return lazy_rows_; }
  int64_t lazy_nodes() const { return lazy_nodes_; }
  /// Toggles config_.lazy_unlearn for subsequent DeleteRows calls.
  /// Disabling requires pending tags to have been flushed first
  /// (DareForest::SetLazyUnlearn does).
  void SetLazyUnlearn(bool on);

  /// P(label=1) for an instance supplied via an accessor: codes(attr) must
  /// return the instance's code for `attr`.
  template <typename CodeFn>
  double PredictProb(CodeFn&& codes) const {
    const TreeNode* n = root_.get();
    if (n == nullptr || n->count == 0) return 0.5;
    while (!n->is_leaf()) {
      n = codes(n->attr) <= n->threshold ? n->left.get() : n->right.get();
    }
    if (n->count == 0) return 0.5;
    return static_cast<double>(n->pos) / static_cast<double>(n->count);
  }

  /// Copy-on-write copy: shares the whole refcounted node graph (and the
  /// immutable training store) in O(1); a later mutation of either tree
  /// privately copies just the nodes it touches.
  DareTree Clone() const;

  /// Structural equality: same shape, same splits, same cached statistics,
  /// same leaf membership (order-insensitive). Shared subtrees short-circuit
  /// by node identity.
  bool StructurallyEquals(const DareTree& other) const;

  /// Verifies every cached statistic against a recount of the instances
  /// reaching each node; returns false (and reports via stderr) on mismatch.
  bool ValidateStats() const;

  int64_t num_nodes() const;
  int depth() const;
  const TreeNode* root() const { return root_.get(); }

  /// The flat SoA arena for the tree's current state: compiled lazily on
  /// first use, cached keyed on the generation stamp, shared by every
  /// caller until the next mutation invalidates it. Thread-safe (concurrent
  /// first calls compile once). Never null: a rootless tree compiles to the
  /// 0.5 sentinel. See docs/performance.md "Flat arena layout".
  std::shared_ptr<const TreeArena> arena() const;
  /// Monotonic mutation stamp, drawn from a process-wide counter: bumped
  /// once per DeleteRows/AddRows batch (the granularity at which Mutable()
  /// unshares CoW nodes), assigned fresh by Build/FromParts and
  /// inherited by Clone(). Two trees with equal stamps are byte-identical —
  /// stamps diverge forever at the first mutation after a Clone — which is
  /// what makes the stamp alone a sound arena cache key (DESIGN.md §7).
  uint64_t generation() const { return generation_; }
  int tree_id() const { return tree_id_; }
  int64_t num_training_rows() const {
    return root_ == nullptr ? 0 : root_->count;
  }

  /// Debug-only structural audit of the CoW graph: within this tree every
  /// node is reachable exactly once (sharing happens across trees, never
  /// inside one) and children come in pairs. FUME_CHECKs on violation;
  /// no-op under NDEBUG. Called from ~DareForest.
  void DebugCheckCowConsistency() const;

  /// Reassembles a tree from deserialized parts (forest/serialize.cc).
  static DareTree FromParts(std::shared_ptr<const TrainingStore> store,
                            const ForestConfig& config, int tree_id,
                            std::shared_ptr<TreeNode> root);

 private:
  /// Builds the subtree over the rows [begin, end), partitioning the span
  /// in place (stable, via scratch->partition_tmp) at every split; the one
  /// tree builder, used by Build, the first AddRows of a rootless tree and
  /// every retrain. Nodes that the histogram-free DecideSplit conditions
  /// already force into leaves skip the candidate-histogram pass entirely
  /// (a leaf discards its stats).
  ///
  /// Canonical build order: every caller passes its rows sorted ascending,
  /// and the partition is stable, so leaf lists — and hence serialized
  /// bytes — are a pure function of the row multiset, not of which
  /// intermediate retrains an op sequence took. That is what makes an
  /// unlearned tree byte-identical to Build on the surviving rows
  /// (DESIGN.md §6 invariant 1) and lets a deferred FlushLazy rebuild land
  /// on the eager kernel's exact bytes (invariant 9).
  ///
  /// `seed_stats`, when non-null, must equal ComputeFromRows on [begin, end)
  /// with this node's candidate attributes — the retrain call sites pass the
  /// trigger node's just-updated histograms (that equality is the cached-
  /// stats invariant ValidateStats checks), sparing the rebuild root's full
  /// pass over the remaining rows; it is consumed by move. `pos_hint`, when
  /// >= 0, is the positive count of [begin, end) (the recursion derives the
  /// children's counts during partitioning, so only the rebuild root ever
  /// runs a label pass).
  std::shared_ptr<TreeNode> BuildNodeKernel(RowId* begin, RowId* end,
                                            int depth, uint64_t path_key,
                                            DeletionScratch* scratch,
                                            NodeStats* seed_stats = nullptr,
                                            int64_t pos_hint = -1);
  /// BuildNodeKernel over a whole tree: sorts `rows` (canonical order) and
  /// builds from the root.
  std::shared_ptr<TreeNode> BuildRoot(std::vector<RowId>* rows,
                                      DeletionScratch* scratch);
  /// CoW unshare: returns a privately-owned, mutable view of *slot,
  /// replacing a shared node with a shallow copy first (counted in
  /// stats_out->nodes_copied), stamped with the current generation.
  TreeNode* Mutable(std::shared_ptr<TreeNode>* slot, DeletionStats* stats_out);
  /// Advances generation_ and drops a now-stale cached arena. Called once
  /// per mutating batch, before any node is touched.
  void BumpGeneration();
  // Deletion recursion: operates on a span of scratch->route, partitioned
  // in place at each split (stable, via scratch->partition_tmp). A split
  // decision that flips retrains the subtree from its surviving rows in
  // canonical order (see BuildNodeKernel). With config.lazy_unlearn a flip
  // creates a LazyTag instead, and a batch reaching an existing tag just
  // extends it, decrementing the tag node's stats so they stay a valid
  // rebuild seed.
  void DeleteFromNodeKernel(std::shared_ptr<TreeNode>* slot, RowId* begin,
                            RowId* end, int depth, uint64_t path_key,
                            DeletionStats* stats_out, DeletionScratch* scratch);
  /// Installs a tag on `node` holding [begin, end) and updates the
  /// lazy_rows_/lazy_nodes_ ledgers. Older tags deeper in the subtree stay
  /// in place — the flush at this ancestor gathers their rows and discards
  /// them with the stale subtree.
  void TagNode(TreeNode* node, const RowId* begin, const RowId* end);
  /// True when any node of the subtree carries a tag (prunes below tags —
  /// tags never nest under a live tag).
  static bool SubtreeHasTag(const TreeNode* node);
  /// Flush recursion: unshares only the paths that lead to a tag.
  void FlushNode(std::shared_ptr<TreeNode>* slot, int depth, uint64_t path_key,
                 DeletionStats* stats_out, DeletionScratch* scratch);
  void AddToNodeKernel(std::shared_ptr<TreeNode>* slot, RowId* begin,
                       RowId* end, int depth, uint64_t path_key,
                       DeletionStats* stats_out, DeletionScratch* scratch);
  /// Per-call state of ScoreWithout's recursions (defined in tree.cc).
  struct WhatIfWalk;
  /// ScoreWithout below a node the doomed span [begin, end) reaches; the
  /// test rows [tbegin, tend) descend to the same node.
  void ScoreWithoutNode(const TreeNode* node, RowId* begin, RowId* end,
                        int64_t* tbegin, int64_t* tend, int depth,
                        uint64_t path_key, WhatIfWalk* walk) const;
  /// Replays BuildNodeKernel on the surviving rows [begin, end) (positive
  /// count `pos`) for the test rows [tbegin, tend) only. `decided` is the
  /// rebuild root's split decision, already made on its seed statistics by
  /// the flip check; nullptr below the root.
  void ScoreRebuilt(RowId* begin, RowId* end, int64_t pos, int64_t* tbegin,
                    int64_t* tend, int depth, uint64_t path_key,
                    const SplitDecision* decided, WhatIfWalk* walk) const;
  /// Stable split of [begin, end) around the split test (attr, threshold);
  /// returns the boundary. One branch-free forward pass plus a copy-back
  /// from scratch->partition_tmp — no allocation once the buffer is warm.
  /// When `left_pos_out` is non-null it receives the positive-label count
  /// of the left side (fused with the routing pass; see BuildNodeKernel
  /// pos_hint).
  RowId* PartitionBySplit(int attr, int32_t threshold, RowId* begin,
                          RowId* end, DeletionScratch* scratch,
                          int64_t* left_pos_out = nullptr) const;
  static void CollectLeafRows(const TreeNode* node, std::vector<RowId>* out);
  /// Kernel variant: collects leaf rows left-to-right while dropping doomed
  /// rows in the same pass (same surviving order as CollectLeafRows +
  /// stable remove_if). Returns the number of doomed rows dropped.
  static int64_t CollectLeafRowsFiltered(const TreeNode* node,
                                         const DeletionScratch& scratch,
                                         std::vector<RowId>* out);

  std::shared_ptr<const TrainingStore> store_;
  ForestConfig config_;
  int tree_id_ = 0;
  std::shared_ptr<TreeNode> root_;
  uint64_t generation_ = 0;
  /// Pending lazy-deletion ledger. Clone() copies both (the clone shares
  /// the tagged graph and owes the same flush work); rows absorbed from a
  /// descendant tag into an ancestor's are not recounted, so a flush of the
  /// topmost tags drives both back to exactly zero.
  int64_t lazy_rows_ = 0;
  int64_t lazy_nodes_ = 0;
  /// Arena cache cell, owned from construction. Clone() gets its own (never
  /// shared with the source, so what-if churn can't evict the base forest's
  /// arenas) seeded with the source's current snapshot, which stays valid
  /// until either side mutates.
  std::shared_ptr<arena_internal::ArenaSlot> arena_slot_ =
      std::make_shared<arena_internal::ArenaSlot>();
};

}  // namespace fume

#endif  // FUME_FOREST_TREE_H_
