#include "forest/arena.h"

#include <atomic>
#include <limits>

#include "forest/tree.h"
#include "obs/metrics.h"
#include "util/check.h"

namespace fume {

namespace {

// Rows descended per inner-loop block. Lanes advance in lockstep one level
// per pass, so each node array line is touched once per block instead of
// once per row, and the (independent) lane loads pipeline.
constexpr int kLanes = 8;

std::atomic<int64_t> g_arena_bytes{0};

void AddLiveBytes(int64_t delta) {
  static obs::Gauge* gauge = obs::GetGauge("forest.arena.bytes");
  gauge->Set(g_arena_bytes.fetch_add(delta, std::memory_order_relaxed) +
             delta);
}

double LeafProb(const TreeNode* n) {
  return n->count == 0
             ? 0.5
             : static_cast<double>(n->pos) / static_cast<double>(n->count);
}

}  // namespace

namespace arena_internal {

uint64_t NextGeneration() {
  static std::atomic<uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

int64_t LiveArenaBytes() {
  return g_arena_bytes.load(std::memory_order_relaxed);
}

}  // namespace arena_internal

TreeArena::~TreeArena() { AddLiveBytes(-bytes_); }

int32_t TreeArena::AddSlot() {
  const int32_t id = static_cast<int32_t>(child_.size());
  attr_.push_back(0);
  threshold_.push_back(std::numeric_limits<int32_t>::max());
  child_.push_back(id);
  prob_.push_back(0.5);
  return id;
}

void TreeArena::CompileNode(const TreeNode* n, int32_t slot, int depth) {
  if (n->is_leaf()) {
    // AddSlot already parked the slot on itself (child == self, threshold
    // INT32_MAX); only the payload needs filling.
    prob_[static_cast<size_t>(slot)] = LeafProb(n);
    if (depth > depth_) depth_ = depth;
    return;
  }
  attr_[static_cast<size_t>(slot)] = n->attr;
  threshold_[static_cast<size_t>(slot)] = n->threshold;
  const int32_t left = AddSlot();
  AddSlot();
  child_[static_cast<size_t>(slot)] = left;
  CompileNode(n->left.get(), left, depth + 1);
  CompileNode(n->right.get(), left + 1, depth + 1);
}

std::shared_ptr<const TreeArena> TreeArena::Compile(const TreeNode* root,
                                                    uint64_t generation,
                                                    int64_t reserve_hint) {
  static obs::Counter* compiles = obs::GetCounter("forest.arena.compile");
  compiles->Inc();
  std::shared_ptr<TreeArena> arena(new TreeArena());
  arena->generation_ = generation;
  arena->source_root_ = root;
  if (reserve_hint > 0) {
    const size_t hint = static_cast<size_t>(reserve_hint);
    arena->attr_.reserve(hint);
    arena->threshold_.reserve(hint);
    arena->child_.reserve(hint);
    arena->prob_.reserve(hint);
  }
  const int32_t root_slot = arena->AddSlot();
  // PredictProb answers 0.5 before descending an absent or emptied tree; the
  // one self-parked slot AddSlot made reproduces that.
  if (root != nullptr && root->count != 0) {
    arena->CompileNode(root, root_slot, 0);
  }
  arena->bytes_ = static_cast<int64_t>(
      arena->attr_.capacity() * sizeof(int32_t) +
      arena->threshold_.capacity() * sizeof(int32_t) +
      arena->child_.capacity() * sizeof(int32_t) +
      arena->prob_.capacity() * sizeof(double) + sizeof(TreeArena));
  AddLiveBytes(arena->bytes_);
  return arena;
}

template <typename Emit>
void TreeArena::Walk(const int32_t* codes, int num_attrs, int64_t n_rows,
                     Emit&& emit) const {
  FUME_DCHECK(num_attrs > 0);
  const int32_t* const attr = attr_.data();
  const int32_t* const thr = threshold_.data();
  const int32_t* const child = child_.data();
  const int steps = depth_;
  int64_t r = 0;
  for (; r + kLanes <= n_rows; r += kLanes) {
    const int32_t* rows[kLanes];
    int32_t idx[kLanes];
    for (int b = 0; b < kLanes; ++b) {
      rows[b] = codes + (r + b) * num_attrs;
      idx[b] = 0;
    }
    for (int d = 0; d < steps; ++d) {
      for (int b = 0; b < kLanes; ++b) {
        const int32_t i = idx[b];
        idx[b] = child[i] + static_cast<int32_t>(rows[b][attr[i]] > thr[i]);
      }
    }
    for (int b = 0; b < kLanes; ++b) emit(r + b, idx[b]);
  }
  for (; r < n_rows; ++r) {
    const int32_t* row = codes + r * num_attrs;
    int32_t i = 0;
    while (child[i] != i) {
      i = child[i] + static_cast<int32_t>(row[attr[i]] > thr[i]);
    }
    emit(r, i);
  }
}

void TreeArena::AccumulateProbs(const int32_t* codes, int num_attrs,
                                int64_t n_rows, double* sums) const {
  const double* const prob = prob_.data();
  Walk(codes, num_attrs, n_rows,
       [&](int64_t row, int32_t leaf) { sums[row] += prob[leaf]; });
}

void TreeArena::PredictProbs(const int32_t* codes, int num_attrs,
                             int64_t n_rows, double* out) const {
  const double* const prob = prob_.data();
  Walk(codes, num_attrs, n_rows,
       [&](int64_t row, int32_t leaf) { out[row] = prob[leaf]; });
}

}  // namespace fume
