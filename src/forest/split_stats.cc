#include "forest/split_stats.h"

#include <algorithm>
#include <cmath>

#include "util/rng.h"

namespace fume {

namespace {

// Domain-separation tags for keyed hashing.
constexpr uint64_t kTagCandAttrs = 0xca0dda77ULL;
constexpr uint64_t kTagRandomAttr = 0x4a0dda22ULL;
constexpr uint64_t kTagRandomThresh = 0x7a3d1177ULL;
constexpr uint64_t kTagSampledThresh = 0x5a3db3f1ULL;
constexpr uint64_t kTagChild = 0xc411d099ULL;

}  // namespace

int NodeStats::CandIndex(int attr) const {
  auto it = std::lower_bound(cand_attrs.begin(), cand_attrs.end(), attr);
  if (it == cand_attrs.end() || *it != attr) return -1;
  return static_cast<int>(it - cand_attrs.begin());
}

void NodeStats::ComputeFromRows(const TrainingStore& store,
                                const std::vector<RowId>& rows,
                                std::vector<int> cand_attrs_sorted) {
  ComputeFromRows(store, rows.data(), static_cast<int64_t>(rows.size()),
                  std::move(cand_attrs_sorted));
}

void NodeStats::ComputeFromRows(const TrainingStore& store, const RowId* rows,
                                int64_t n,
                                std::vector<int> cand_attrs_sorted) {
  cand_attrs = std::move(cand_attrs_sorted);
  Recompute(store, rows, n);
}

void NodeStats::Recompute(const TrainingStore& store, const RowId* rows,
                          int64_t n) {
  count = n;
  pos = 0;
  const size_t num_attrs = cand_attrs.size();
  hist_offsets.resize(num_attrs + 1);
  int32_t total = 0;
  for (size_t i = 0; i < num_attrs; ++i) {
    hist_offsets[i] = total;
    total += store.cardinality(cand_attrs[i]);
  }
  hist_offsets[num_attrs] = total;
  hist.assign(2 * static_cast<size_t>(total), 0);
  int64_t* const h = hist.data();
  const int32_t* const off = hist_offsets.data();
  const int* const cand = cand_attrs.data();
  for (int64_t k = 0; k < n; ++k) {
    const RowId r = rows[k];
    const int32_t* const codes = store.row_codes(r);
    const int y = store.label(r);
    pos += y;
    for (size_t i = 0; i < num_attrs; ++i) {
      int64_t* const bin =
          h + 2 * (static_cast<size_t>(off[i]) +
                   static_cast<size_t>(codes[cand[i]]));
      ++bin[0];
      bin[1] += y;
    }
  }
}

// Batch update order: rows outer, attributes inner. The store is row-major,
// so each (scattered) row's cache line is touched exactly once, with its
// label loaded once; the histograms are a few dozen entries and live in L1
// across the whole batch. Integer updates commute, so the result does not
// depend on row order.
void NodeStats::AddRows(const TrainingStore& store, const RowId* rows,
                        int64_t n) {
  const size_t num_attrs = cand_attrs.size();
  int64_t* const h = hist.data();
  const int32_t* const off = hist_offsets.data();
  const int* const cand = cand_attrs.data();
  for (int64_t k = 0; k < n; ++k) {
    const RowId r = rows[k];
    const int32_t* const codes = store.row_codes(r);
    const int y = store.label(r);
    pos += y;
    for (size_t i = 0; i < num_attrs; ++i) {
      const auto v = static_cast<size_t>(codes[cand[i]]);
      int64_t* const bin = h + 2 * (static_cast<size_t>(off[i]) + v);
      ++bin[0];
      bin[1] += y;
    }
  }
  count += n;
}

RowId* NodeStats::RemoveRowsAndPartition(const TrainingStore& store,
                                         RowId* begin, RowId* end, int attr,
                                         int32_t threshold,
                                         std::vector<RowId>* spill) {
  const size_t num_attrs = cand_attrs.size();
  // Branch-free stable partition: every row is stored to both the left
  // write cursor and the spill cursor, and only the matching cursor
  // advances. The left cursor never passes the read cursor, so the store
  // only overwrites rows already read.
  const auto n = static_cast<size_t>(end - begin);
  if (spill->size() < n) spill->resize(n);  // grow only: no re-zeroing
  RowId* write = begin;
  RowId* spilled = spill->data();
  int64_t* const h = hist.data();
  const int32_t* const off = hist_offsets.data();
  const int* const cand = cand_attrs.data();
  for (RowId* p = begin; p != end; ++p) {
    const RowId r = *p;
    const int32_t* const codes = store.row_codes(r);
    const int y = store.label(r);
    pos -= y;
    for (size_t i = 0; i < num_attrs; ++i) {
      const auto v = static_cast<size_t>(codes[cand[i]]);
      int64_t* const bin = h + 2 * (static_cast<size_t>(off[i]) + v);
      --bin[0];
      bin[1] -= y;
    }
    const bool left = codes[attr] <= threshold;
    *write = r;
    *spilled = r;
    write += left;
    spilled += !left;
  }
  count -= end - begin;
  std::copy(spill->data(), spilled, write);
  return write;
}

bool NodeStats::Equals(const NodeStats& other) const {
  return count == other.count && pos == other.pos &&
         cand_attrs == other.cand_attrs &&
         hist_offsets == other.hist_offsets && hist == other.hist;
}

void ChooseCandidateAttrs(uint64_t path_key, int num_attrs, int depth,
                          const ForestConfig& config, std::vector<int>* out) {
  int want = config.num_candidate_attrs;
  if (want <= 0) {
    want = static_cast<int>(
        std::ceil(std::sqrt(static_cast<double>(num_attrs))));
  }
  want = std::min(want, num_attrs);
  out->clear();
  out->reserve(static_cast<size_t>(want) + 1);
  // Membership is a scan of the picks so far: there are at most ~sqrt(p)
  // of them, so this beats clearing a per-node p-sized flag array.
  const auto taken = [out](int a) {
    return std::find(out->begin(), out->end(), a) != out->end();
  };
  // Keyed draws until `want` distinct attributes are collected. The sequence
  // depends only on path_key, never on the data.
  uint64_t i = 0;
  while (static_cast<int>(out->size()) < want) {
    const int a = static_cast<int>(Hash64({path_key, kTagCandAttrs, i++}) %
                                   static_cast<uint64_t>(num_attrs));
    if (!taken(a)) out->push_back(a);
  }
  if (depth < config.random_depth) {
    // The random-split attribute must be tracked in the histograms so the
    // validity of the random split stays checkable during unlearning.
    const int a = static_cast<int>(Hash64({path_key, kTagRandomAttr}) %
                                   static_cast<uint64_t>(num_attrs));
    if (!taken(a)) out->push_back(a);
  }
  std::sort(out->begin(), out->end());
}

std::vector<int> ChooseCandidateAttrs(uint64_t path_key, int num_attrs,
                                      int depth, const ForestConfig& config) {
  std::vector<int> attrs;
  ChooseCandidateAttrs(path_key, num_attrs, depth, config, &attrs);
  return attrs;
}

std::vector<int32_t> CandidateThresholds(uint64_t path_key, int attr,
                                         int32_t cardinality,
                                         const ForestConfig& config) {
  const int32_t num_thresholds = cardinality - 1;  // thresholds 0..card-2
  std::vector<int32_t> out;
  if (num_thresholds <= 0) return out;
  if (config.threshold_mode == ThresholdMode::kExact ||
      config.num_sampled_thresholds >= num_thresholds) {
    out.resize(static_cast<size_t>(num_thresholds));
    for (int32_t t = 0; t < num_thresholds; ++t) out[static_cast<size_t>(t)] = t;
    return out;
  }
  // Sampled mode: k' distinct keyed draws from [0, card-1).
  std::vector<uint8_t> taken(static_cast<size_t>(num_thresholds), 0);
  uint64_t i = 0;
  while (static_cast<int>(out.size()) < config.num_sampled_thresholds) {
    const int32_t t = static_cast<int32_t>(
        Hash64({path_key, kTagSampledThresh, static_cast<uint64_t>(attr),
                i++}) %
        static_cast<uint64_t>(num_thresholds));
    if (!taken[static_cast<size_t>(t)]) {
      taken[static_cast<size_t>(t)] = 1;
      out.push_back(t);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

double WeightedGini(int64_t left_count, int64_t left_pos, int64_t right_count,
                    int64_t right_pos) {
  auto gini = [](int64_t c, int64_t p) {
    if (c == 0) return 0.0;
    const double fp = static_cast<double>(p) / static_cast<double>(c);
    const double fn = 1.0 - fp;
    return 1.0 - fp * fp - fn * fn;
  };
  const double total = static_cast<double>(left_count + right_count);
  if (total == 0.0) return 0.0;
  return (static_cast<double>(left_count) * gini(left_count, left_pos) +
          static_cast<double>(right_count) * gini(right_count, right_pos)) /
         total;
}

namespace {

// Left-side (count, pos) of splitting `cand` at threshold t, from histograms.
struct SideCounts {
  int64_t count = 0;
  int64_t pos = 0;
};

// Checks whether the (attr, threshold) split is valid for this node given
// min_samples_leaf, and returns its score through *score.
bool ScoreSplit(const NodeStats& stats, int cand_index, int32_t threshold,
                int min_leaf, double* score) {
  const int64_t* const h = stats.HistRow(static_cast<size_t>(cand_index));
  SideCounts left;
  for (int32_t v = 0; v <= threshold; ++v) {
    left.count += h[2 * static_cast<size_t>(v)];
    left.pos += h[2 * static_cast<size_t>(v) + 1];
  }
  const int64_t right_count = stats.count - left.count;
  const int64_t right_pos = stats.pos - left.pos;
  if (left.count < min_leaf || right_count < min_leaf) return false;
  *score = WeightedGini(left.count, left.pos, right_count, right_pos);
  return true;
}

}  // namespace

SplitDecision DecideSplit(const NodeStats& stats, const TrainingStore& store,
                          int depth, uint64_t path_key,
                          const ForestConfig& config) {
  SplitDecision leaf;  // default: leaf
  if (IsForcedLeaf(stats.count, stats.pos, depth, config)) return leaf;

  const int min_leaf = std::max(1, config.min_samples_leaf);

  if (depth < config.random_depth) {
    // DaRE random node: attribute and threshold are keyed draws over the
    // attribute's *global* bin range, hence never invalidated by deletions
    // as long as both sides remain populated.
    const int attr =
        static_cast<int>(Hash64({path_key, kTagRandomAttr}) %
                         static_cast<uint64_t>(store.num_attrs()));
    const int32_t card = store.cardinality(attr);
    if (card >= 2) {
      const int32_t threshold = static_cast<int32_t>(
          Hash64({path_key, kTagRandomThresh}) %
          static_cast<uint64_t>(card - 1));
      const int ci = stats.CandIndex(attr);
      double unused;
      if (ci >= 0 && ScoreSplit(stats, ci, threshold, min_leaf, &unused)) {
        SplitDecision d;
        d.is_leaf = false;
        d.attr = attr;
        d.threshold = threshold;
        d.is_random = true;
        return d;
      }
    }
    // Degenerate random split: fall through to the greedy choice (still a
    // deterministic function of the node's data).
  }

  // Greedy: Gini argmax over candidate attributes and thresholds, ties
  // broken by ascending (attribute, threshold) via strict-improvement scan.
  // Thresholds are visited ascending, so left-side counts accumulate in a
  // running prefix instead of re-summing bins [0, t] per threshold, and the
  // exact mode (every inter-bin threshold) enumerates candidates directly
  // rather than materializing the CandidateThresholds vector — this is the
  // hot path of every deletion's per-node decision re-check. Scores are
  // computed from the same integer inputs in the same order as the scan it
  // replaces, so decisions are bit-identical. Two skips keep it so:
  //  * a threshold whose left count did not move since the previous
  //    candidate of the same attribute (only empty bins were crossed) has
  //    that candidate's exact score, which was already either taken or
  //    rejected, so it can never be a strict improvement;
  //  * the right side only shrinks as the threshold rises, so once it is
  //    below min_samples_leaf no later threshold of the attribute is valid.
  SplitDecision best = leaf;
  double best_score = 0.0;
  bool have_best = false;
  for (size_t i = 0; i < stats.cand_attrs.size(); ++i) {
    const int attr = stats.cand_attrs[i];
    const int32_t num_thresholds = store.cardinality(attr) - 1;
    if (num_thresholds <= 0) continue;
    const bool exact = config.threshold_mode == ThresholdMode::kExact ||
                       config.num_sampled_thresholds >= num_thresholds;
    std::vector<int32_t> sampled;
    if (!exact) {
      sampled =
          CandidateThresholds(path_key, attr, store.cardinality(attr), config);
    }
    const size_t num_cand =
        exact ? static_cast<size_t>(num_thresholds) : sampled.size();
    const int64_t* const h = stats.HistRow(i);
    SideCounts left;
    int64_t prev_left_count = -1;
    int32_t bin = 0;
    for (size_t k = 0; k < num_cand; ++k) {
      const int32_t t = exact ? static_cast<int32_t>(k) : sampled[k];
      for (; bin <= t; ++bin) {
        left.count += h[2 * static_cast<size_t>(bin)];
        left.pos += h[2 * static_cast<size_t>(bin) + 1];
      }
      if (left.count == prev_left_count) continue;
      prev_left_count = left.count;
      const int64_t right_count = stats.count - left.count;
      const int64_t right_pos = stats.pos - left.pos;
      if (right_count < min_leaf) break;
      if (left.count < min_leaf) continue;
      const double score =
          WeightedGini(left.count, left.pos, right_count, right_pos);
      if (!have_best || score < best_score - 1e-12) {
        have_best = true;
        best_score = score;
        best.is_leaf = false;
        best.attr = attr;
        best.threshold = t;
        best.is_random = false;
      }
    }
  }
  return best;
}

uint64_t ChildPathKey(uint64_t parent_key, int side) {
  return Hash64({parent_key, kTagChild, static_cast<uint64_t>(side)});
}

uint64_t RootPathKey(uint64_t seed, int tree_id) {
  return Hash64({seed, 0x9007ULL, static_cast<uint64_t>(tree_id)});
}

}  // namespace fume
