#include "forest/prediction_cache.h"

#include <numeric>

#include "obs/trace.h"
#include "util/check.h"

namespace fume {

namespace {

/// Sets probs[r] for the test rows [begin, end) that reach `node` to the
/// probability of the leaf they reach, descending only through nodes
/// stamped after `since`: a row routed into an older node keeps its value.
/// `codes` is the test set's packed row-major matrix. Returns the number of
/// rows written.
int64_t RefreshStamped(const TreeNode* node, uint64_t since,
                       const int32_t* codes, int num_attrs, int64_t* begin,
                       int64_t* end, double* probs) {
  if (begin == end || node->generation <= since) return 0;
  if (node->is_leaf()) {
    // PredictProb's arithmetic, including the 0.5 of an emptied leaf.
    const double p = node->count == 0 ? 0.5
                                      : static_cast<double>(node->pos) /
                                            static_cast<double>(node->count);
    for (const int64_t* r = begin; r != end; ++r) {
      probs[static_cast<size_t>(*r)] = p;
    }
    return end - begin;
  }
  // Branch-free unstable partition: the order of test rows carries no
  // meaning.
  int64_t* mid = begin;
  for (int64_t* q = begin; q != end; ++q) {
    const int64_t r = *q;
    const bool left = codes[r * num_attrs + node->attr] <= node->threshold;
    *q = *mid;
    *mid = r;
    mid += left;
  }
  return RefreshStamped(node->left.get(), since, codes, num_attrs, begin, mid,
                        probs) +
         RefreshStamped(node->right.get(), since, codes, num_attrs, mid, end,
                        probs);
}

}  // namespace

void TestPredictionCache::Finalize(const DareForest& forest) {
  const size_t n_rows = pred_.size();
  const double num_trees = static_cast<double>(forest.num_trees());
  for (size_t r = 0; r < n_rows; ++r) {
    double sum = 0.0;
    for (int t = 0; t < forest.num_trees(); ++t) {
      sum += prob_[static_cast<size_t>(t)][r];
    }
    mean_prob_[r] = sum / num_trees;
    pred_[r] = mean_prob_[r] >= 0.5 ? 1 : 0;
  }
}

void TestPredictionCache::Rebuild(const DareForest& forest,
                                  const Dataset& test) {
  obs::TraceSpan span("stream.predcache.rebuild",
                      {{"trees", forest.num_trees()},
                       {"rows", test.num_rows()}});
  forest.EnsureFlushed();
  Reset(forest, test.num_rows());
  const std::shared_ptr<const PackedCodes> packed = test.packed_codes();
  for (int t = 0; t < forest.num_trees(); ++t) {
    RebuildTree(forest, t, *packed);
  }
  Finalize(forest);
}

void TestPredictionCache::Reset(const DareForest& forest, int64_t n_rows) {
  const size_t num_trees = static_cast<size_t>(forest.num_trees());
  prob_.assign(num_trees, std::vector<double>(static_cast<size_t>(n_rows)));
  synced_.resize(num_trees);
  mean_prob_.assign(static_cast<size_t>(n_rows), 0.0);
  pred_.assign(static_cast<size_t>(n_rows), 0);
}

void TestPredictionCache::RebuildTree(const DareForest& forest, int t,
                                      const PackedCodes& packed) {
  const DareTree& tree = forest.tree(t);
  tree.arena()->PredictProbs(packed.codes.data(), packed.num_attrs,
                             static_cast<int64_t>(mean_prob_.size()),
                             prob_[static_cast<size_t>(t)].data());
  synced_[static_cast<size_t>(t)] = tree.generation();
}

int64_t TestPredictionCache::UpdateTree(const DareForest& forest, int t,
                                        const PackedCodes& packed,
                                        std::vector<int64_t>* order) {
  const DareTree& tree = forest.tree(t);
  const TreeNode* root = tree.root();
  uint64_t& synced = synced_[static_cast<size_t>(t)];
  int64_t rows = -1;
  if (root != nullptr && root->generation > synced) {
    order->resize(mean_prob_.size());
    std::iota(order->begin(), order->end(), int64_t{0});
    rows = RefreshStamped(root, synced, packed.codes.data(), packed.num_attrs,
                          order->data(), order->data() + order->size(),
                          prob_[static_cast<size_t>(t)].data());
  }
  synced = tree.generation();
  return rows;
}

void TestPredictionCache::DiffWalk(const TreeNode* base,
                                   const TreeNode* changed,
                                   const Dataset& test, int t, size_t begin,
                                   size_t end, WhatIfScratch* s) const {
  // A shared node means the what-if tree reuses the base subtree verbatim:
  // every row routed here keeps its cached probability. This prune is the
  // whole point — a CoW mutation unshares only the path it touched.
  if (base == changed || begin == end) return;
  if (base != nullptr && changed != nullptr && !base->is_leaf() &&
      !changed->is_leaf() && base->attr == changed->attr &&
      base->threshold == changed->threshold) {
    // Same routing decision on both sides: partition the row range in place
    // (order within a side is irrelevant) and recurse into each side.
    size_t mid = begin;
    for (size_t i = begin; i < end; ++i) {
      if (test.Code(s->order[i], changed->attr) <= changed->threshold) {
        std::swap(s->order[i], s->order[mid++]);
      }
    }
    DiffWalk(base->left.get(), changed->left.get(), test, t, begin, mid, s);
    DiffWalk(base->right.get(), changed->right.get(), test, t, mid, end, s);
    return;
  }
  // Structurally changed region: finish each row's descent in the what-if
  // tree. The null/empty checks coincide with PredictProb's at the real
  // root and are vacuous below it (the builder never produces an empty
  // internal node), so the probability matches PredictProb bit for bit.
  auto& probs = s->tree_prob[static_cast<size_t>(t)];
  for (size_t i = begin; i < end; ++i) {
    const int64_t r = s->order[i];
    const TreeNode* n = changed;
    double p = 0.5;
    if (n != nullptr && n->count != 0) {
      while (!n->is_leaf()) {
        n = test.Code(r, n->attr) <= n->threshold ? n->left.get()
                                                  : n->right.get();
      }
      if (n->count != 0) {
        p = static_cast<double>(n->pos) / static_cast<double>(n->count);
      }
    }
    probs[static_cast<size_t>(r)] = p;
    if (s->row_epoch[static_cast<size_t>(r)] != s->epoch) {
      s->row_epoch[static_cast<size_t>(r)] = s->epoch;
      s->touched.push_back(r);
    }
  }
}

void TestPredictionCache::BeginWhatIf(WhatIfScratch* s) const {
  const size_t num_trees = prob_.size();
  const size_t n_rows = mean_prob_.size();
  // Epoch bump takes the place of clearing the per-tree/per-row markers;
  // on (unlikely) wrap-around, reset them for real.
  if (++s->epoch == 0) {
    s->tree_epoch.assign(s->tree_epoch.size(), 0);
    s->row_epoch.assign(s->row_epoch.size(), 0);
    s->epoch = 1;
  }
  s->tree_epoch.resize(num_trees, 0);
  s->row_epoch.resize(n_rows, 0);
  s->tree_prob.resize(num_trees);
  s->touched.clear();
  s->trees_changed = 0;
}

void TestPredictionCache::ResumWhatIf(WhatIfScratch* s, bool all) const {
  // Re-sum each rescored row over every tree in tree order — the same
  // order and arithmetic as Finalize/PredictProb, so the result is
  // byte-identical to what_if.PredictAll(test).
  const size_t num_trees = prob_.size();
  s->preds = pred_;
  if (s->want_probs) s->probs = mean_prob_;
  const double tree_count = static_cast<double>(num_trees);
  auto resum = [&](int64_t r) {
    double sum = 0.0;
    for (size_t t = 0; t < num_trees; ++t) {
      sum += s->tree_epoch[t] == s->epoch
                 ? s->tree_prob[t][static_cast<size_t>(r)]
                 : prob_[t][static_cast<size_t>(r)];
    }
    const double mean = sum / tree_count;
    if (s->want_probs) s->probs[static_cast<size_t>(r)] = mean;
    s->preds[static_cast<size_t>(r)] = mean >= 0.5 ? 1 : 0;
  };
  if (all) {
    const size_t n_rows = mean_prob_.size();
    for (size_t r = 0; r < n_rows; ++r) resum(static_cast<int64_t>(r));
    s->rows_rescored = static_cast<int64_t>(n_rows);
  } else {
    for (int64_t r : s->touched) resum(r);
    s->rows_rescored = static_cast<int64_t>(s->touched.size());
  }
}

Status TestPredictionCache::ScoreWithout(const DareForest& base,
                                         const std::vector<RowId>& rows,
                                         const Dataset& test,
                                         WhatIfScratch* s,
                                         DeletionScratch* deletion) const {
  FUME_RETURN_NOT_OK(BeginScoreWithout(base, rows, test, s, deletion));
  if (!rows.empty()) {
    obs::TraceSpan span("forest.score_without",
                        {{"rows", static_cast<int64_t>(rows.size())},
                         {"trees", base.num_trees()}});
    for (int t = 0; t < base.num_trees(); ++t) {
      ScoreTreeWithout(base, t, rows, test, s, &s->order, deletion);
    }
  }
  FinishScoreWithout(s);
  return Status::OK();
}

Status TestPredictionCache::BeginScoreWithout(
    const DareForest& base, const std::vector<RowId>& rows,
    const Dataset& test, WhatIfScratch* s, DeletionScratch* deletion) const {
  const size_t num_trees = prob_.size();
  FUME_CHECK_EQ(static_cast<size_t>(base.num_trees()), num_trees);
  FUME_CHECK_EQ(static_cast<size_t>(test.num_rows()), mean_prob_.size());
  if (base.HasLazyTags()) {
    return Status::Invalid(
        "what-if scoring needs a flushed base forest (pending lazy "
        "deletions)");
  }
  BeginWhatIf(s);
  s->deletion_stats = DeletionStats{};
  s->tree_rescored.resize(num_trees);
  s->tree_stats.resize(num_trees);
  for (size_t t = 0; t < num_trees; ++t) {
    s->tree_rescored[t].clear();
    s->tree_stats[t] = DeletionStats{};
  }
  if (rows.empty()) return Status::OK();
  return base.BeginDeletionBatch(rows, deletion);
}

void TestPredictionCache::ScoreTreeWithout(const DareForest& base, int t,
                                           const std::vector<RowId>& rows,
                                           const Dataset& test,
                                           WhatIfScratch* s,
                                           std::vector<int64_t>* order,
                                           DeletionScratch* deletion) const {
  const size_t tree = static_cast<size_t>(t);
  const size_t n_rows = mean_prob_.size();
  // Seed with the base probabilities: the walk overwrites only rows that
  // reach a changed region, and the re-sum reads every row of a changed
  // tree.
  s->tree_prob[tree] = prob_[tree];
  order->resize(n_rows);
  std::iota(order->begin(), order->end(), int64_t{0});
  base.tree(t).ScoreWithout(rows, test, order->data(), order->data() + n_rows,
                            s->tree_prob[tree].data(), &s->tree_rescored[tree],
                            &s->tree_stats[tree], deletion);
}

void TestPredictionCache::FinishScoreWithout(WhatIfScratch* s) const {
  for (size_t t = 0; t < prob_.size(); ++t) {
    s->deletion_stats.Add(s->tree_stats[t]);
    const std::vector<int64_t>& rescored = s->tree_rescored[t];
    if (rescored.empty()) continue;
    ++s->trees_changed;
    s->tree_epoch[t] = s->epoch;
    for (const int64_t r : rescored) {
      if (s->row_epoch[static_cast<size_t>(r)] != s->epoch) {
        s->row_epoch[static_cast<size_t>(r)] = s->epoch;
        s->touched.push_back(r);
      }
    }
  }
  ResumWhatIf(s, /*all=*/false);
}

void TestPredictionCache::ScoreWhatIf(const DareForest& base,
                                      const DareForest& what_if,
                                      const Dataset& test, WhatIfScratch* s,
                                      bool arena_full_rescore) const {
  const size_t num_trees = prob_.size();
  FUME_CHECK_EQ(static_cast<size_t>(base.num_trees()), num_trees);
  FUME_CHECK_EQ(static_cast<size_t>(what_if.num_trees()), num_trees);
  // The base graph this cache was walked against is flushed by contract;
  // flush the (caller-private) what-if clone before diffing against it.
  what_if.EnsureFlushed();
  const size_t n_rows = mean_prob_.size();
  FUME_CHECK_EQ(static_cast<size_t>(test.num_rows()), n_rows);
  std::shared_ptr<const PackedCodes> packed;
  if (arena_full_rescore) packed = test.packed_codes();
  bool rescored_all = false;

  BeginWhatIf(s);
  for (size_t t = 0; t < num_trees; ++t) {
    const TreeNode* broot = base.tree(static_cast<int>(t)).root();
    const TreeNode* nroot = what_if.tree(static_cast<int>(t)).root();
    if (broot == nroot) continue;  // whole tree still shared
    ++s->trees_changed;
    s->tree_epoch[t] = s->epoch;
    if (arena_full_rescore) {
      // Broad mutation: stream every row through the changed tree's arena
      // instead of diff-walking the pointer graphs. Same leaf probability
      // bytes as DiffWalk's descent, just computed for all rows at once.
      s->tree_prob[t].resize(n_rows);
      what_if.tree(static_cast<int>(t))
          .arena()
          ->PredictProbs(packed->codes.data(), packed->num_attrs,
                         static_cast<int64_t>(n_rows), s->tree_prob[t].data());
      rescored_all = true;
      continue;
    }
    // Seed with the base probabilities so rows pruned at a shared subtree
    // keep their cached value; DiffWalk overwrites only rescored rows.
    s->tree_prob[t] = prob_[t];
    s->order.resize(n_rows);
    for (size_t i = 0; i < n_rows; ++i) {
      s->order[i] = static_cast<int64_t>(i);
    }
    DiffWalk(broot, nroot, test, static_cast<int>(t), 0, n_rows, s);
  }

  // A full arena rescore invalidates every row's sum, not just the
  // diff-walk's touched list.
  ResumWhatIf(s, rescored_all);
}

}  // namespace fume
