// TreeArena: compact struct-of-arrays snapshot of one DareTree, compiled on
// demand from the copy-on-write node graph and traversed row-outer /
// node-inner with branch-light index arithmetic instead of pointer chasing.
//
// Layout (all arrays indexed by arena node id, root = 0, children allocated
// as adjacent pairs in depth-first order):
//
//   attr_[i]       split attribute            (0 for leaves)
//   threshold_[i]  split threshold            (INT32_MAX for leaves)
//   child_[i]      left-child id; right = child_[i] + 1; a leaf points at
//                  itself (child_[i] == i), making the descent step
//                  unconditional: idx = child_[idx] + (code > threshold)
//                  parks leaves in place because code > INT32_MAX is false.
//   prob_[i]       leaf positive fraction     (unused for internal nodes)
//
// An arena is an immutable value: mutation goes through the CoW pointer
// graph, which bumps the owning tree's generation stamp; DareTree::arena()
// recompiles lazily when the cached arena's generation no longer matches
// (see docs/performance.md "Flat arena layout" and DESIGN.md).
//
// Exactness: traversal reproduces DareTree::PredictProb byte for byte —
// same routing comparison (code <= threshold goes left), same leaf
// probability arithmetic, same null/empty-root 0.5 sentinel.

#ifndef FUME_FOREST_ARENA_H_
#define FUME_FOREST_ARENA_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace fume {

struct TreeNode;

class TreeArena {
 public:
  ~TreeArena();
  TreeArena(const TreeArena&) = delete;
  TreeArena& operator=(const TreeArena&) = delete;

  /// Compiles the node graph rooted at `root` (nullable). `generation` is
  /// the owning tree's mutation stamp at compile time; `reserve_hint` (a
  /// previous arena's node count) pre-sizes the arrays.
  static std::shared_ptr<const TreeArena> Compile(const TreeNode* root,
                                                  uint64_t generation,
                                                  int64_t reserve_hint = 0);

  /// sums[r] += P(label=1 | row r) for every row of the packed row-major
  /// code matrix (row r at codes + r * num_attrs). Callers accumulate in
  /// tree order so forest means match PredictProb's summation bytes.
  void AccumulateProbs(const int32_t* codes, int num_attrs, int64_t n_rows,
                       double* sums) const;

  /// out[r] = P(label=1 | row r).
  void PredictProbs(const int32_t* codes, int num_attrs, int64_t n_rows,
                    double* out) const;

  uint64_t generation() const { return generation_; }
  /// Root of the node graph this arena was compiled from (debug identity).
  const TreeNode* source_root() const { return source_root_; }
  int64_t num_nodes() const { return static_cast<int64_t>(child_.size()); }
  int depth() const { return depth_; }
  /// Heap footprint of the arrays; mirrored by the forest.arena.bytes gauge.
  int64_t bytes() const { return bytes_; }

 private:
  TreeArena() = default;
  int32_t AddSlot();
  void CompileNode(const TreeNode* n, int32_t slot, int depth);
  template <typename Emit>
  void Walk(const int32_t* codes, int num_attrs, int64_t n_rows,
            Emit&& emit) const;

  std::vector<int32_t> attr_;
  std::vector<int32_t> threshold_;
  std::vector<int32_t> child_;
  std::vector<double> prob_;
  int depth_ = 0;
  uint64_t generation_ = 0;
  const TreeNode* source_root_ = nullptr;
  int64_t bytes_ = 0;
};

namespace arena_internal {

/// Draws the next tree-generation stamp from one process-wide monotonic
/// counter, so stamps of trees that diverged (a mutation after a Clone)
/// can never collide: equal generations imply identical node graphs.
uint64_t NextGeneration();

/// Total bytes held by live arenas (the forest.arena.bytes gauge's source).
int64_t LiveArenaBytes();

/// Per-tree cache cell for the compiled arena. Every access — a lookup, a
/// compile-on-first-use, a Clone's seeding read, an invalidation — holds
/// `mu`, so concurrent predictions build one arena, not one each. Lookups
/// happen once per tree per batch traversal, never per row.
struct ArenaSlot {
  std::mutex mu;
  std::shared_ptr<const TreeArena> arena;
  /// Node count of the last arena stored here. Survives eager invalidation
  /// (which nulls `arena`), so the recompile after every what-if mutation
  /// still reserves its arrays in one shot instead of growing by doubling.
  int64_t size_hint = 0;
};

}  // namespace arena_internal

}  // namespace fume

#endif  // FUME_FOREST_ARENA_H_
