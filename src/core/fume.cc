#include "core/fume.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace fume {

namespace {

// Global mirrors of the per-run FumeStats, so a whole process's pruning
// behaviour is visible via `fume_cli --metrics-out` and bench artifacts.
// All increments happen on the search's main thread.
struct SearchMetrics {
  obs::Counter* rule2_low = obs::GetCounter("fume.prune.rule2_support_low");
  obs::Counter* rule2_high = obs::GetCounter("fume.prune.rule2_support_high");
  obs::Counter* rule3 = obs::GetCounter("fume.prune.rule3_unexpanded");
  obs::Counter* rule4 = obs::GetCounter("fume.prune.rule4_parent");
  obs::Counter* rule5 = obs::GetCounter("fume.prune.rule5_nonpositive");
  obs::Counter* cache_hit = obs::GetCounter("fume.rowset_cache.hit");
  obs::Counter* cache_miss = obs::GetCounter("fume.rowset_cache.miss");
  obs::Counter* cache_insert = obs::GetCounter("fume.rowset_cache.insert");
  obs::Counter* runs = obs::GetCounter("fume.search.runs");
  obs::Counter* evaluations = obs::GetCounter("fume.search.evaluations");
  obs::Counter* possible = obs::GetCounter("fume.search.possible_subsets");
  obs::Counter* explored = obs::GetCounter("fume.search.explored_subsets");
  obs::Histogram* frontier = obs::GetHistogram("fume.search.frontier_size");

  static SearchMetrics& Get() {
    static SearchMetrics metrics;
    return metrics;
  }
};

// Hash of a sorted row-id vector, for the attribution memo table.
struct RowsKey {
  std::vector<int32_t> rows;
  bool operator==(const RowsKey& other) const { return rows == other.rows; }
};

struct RowsKeyHash {
  size_t operator()(const RowsKey& k) const {
    uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (int32_t r : k.rows) {
      h = Mix64(h ^ static_cast<uint64_t>(static_cast<uint32_t>(r)));
    }
    return static_cast<size_t>(h);
  }
};

Status ValidateConfig(const FumeConfig& config) {
  if (config.top_k < 1) return Status::Invalid("top_k must be >= 1");
  if (config.max_literals < 1) {
    return Status::Invalid("max_literals must be >= 1");
  }
  if (config.support_min < 0.0 || config.support_max > 1.0 ||
      config.support_min >= config.support_max) {
    return Status::Invalid("need 0 <= support_min < support_max <= 1");
  }
  return Status::OK();
}

}  // namespace

Result<FumeResult> ExplainWithRemoval(const ModelEval& original,
                                      const Dataset& train,
                                      const FumeConfig& config,
                                      RemovalMethod* removal) {
  FUME_RETURN_NOT_OK(ValidateConfig(config));
  if (!train.schema().AllCategorical()) {
    return Status::Invalid("training data must be all-categorical");
  }
  Stopwatch total_watch;
  SearchMetrics& metrics = SearchMetrics::Get();
  metrics.runs->Inc();
  obs::TraceSpan run_span("fume.explain", {{"rows", train.num_rows()}});

  FumeResult result;
  result.original_fairness = original.fairness;
  result.original_accuracy = original.accuracy;
  if (std::fabs(result.original_fairness) < config.min_original_bias) {
    return Status::Invalid(
        "model satisfies " +
        std::string(FairnessMetricName(config.metric)) +
        " on the test data (|F| = " +
        std::to_string(std::fabs(result.original_fairness)) +
        "); there is no violation to explain");
  }

  Lattice lattice(train, config.lattice);
  std::unordered_map<RowsKey, ModelEval, RowsKeyHash> memo;

  std::vector<LatticeNode> frontier = lattice.MakeLevel1();
  int64_t possible = lattice.NumPossibleLevel1();
  // Rule 1 pruning that happened while merging the frontier for the next
  // level, attributed to that level's stats row.
  int64_t pending_rule1 = 0;

  // One persistent pool serves every level of the search (a caller-supplied
  // pool additionally serves every search sharing it); per-level thread
  // spawning is gone.
  const int num_threads = std::max(1, config.num_threads);
  std::unique_ptr<util::ThreadPool> owned_pool;
  util::ThreadPool* pool = config.pool;
  if (pool == nullptr && num_threads > 1) {
    owned_pool = std::make_unique<util::ThreadPool>(num_threads);
    pool = owned_pool.get();
  }
  const int num_workers = pool != nullptr ? pool->num_threads() : 1;

  for (int level = 1; level <= config.max_literals; ++level) {
    Stopwatch level_watch;
    obs::TraceSpan level_span(
        "fume.level",
        {{"level", level}, {"frontier", static_cast<int64_t>(frontier.size())}});
    LevelStats level_stats;
    level_stats.level = level;
    level_stats.possible = possible;
    level_stats.rule1_pruned = pending_rule1;
    metrics.possible->Inc(possible);
    metrics.frontier->Record(static_cast<int64_t>(frontier.size()));

    // ---- Phase 1: classify nodes against Rule 2 and collect the distinct
    // row sets that need an attribution evaluation.
    enum class NodeFate : uint8_t { kSkip, kExpandOnly, kEvaluate };
    std::vector<NodeFate> fates(frontier.size(), NodeFate::kSkip);
    std::vector<RowsKey> keys(frontier.size());
    struct EvalJob {
      RowsKey key;
      ModelEval eval;
      Status status;
    };
    std::vector<EvalJob> jobs;
    std::unordered_set<RowsKey, RowsKeyHash> job_keys;
    std::vector<uint8_t> created_job(frontier.size(), 0);
    for (size_t i = 0; i < frontier.size(); ++i) {
      LatticeNode& node = frontier[i];
      // Rule 2 (upper bound): too-large subsets are not reported and not
      // estimated, but stay expandable — their children shrink into range.
      if (config.rule2_support && node.support > config.support_max) {
        fates[i] = NodeFate::kExpandOnly;
        ++level_stats.rule2_expand_only;
        continue;
      }
      // Rule 2 (lower bound): support is anti-monotone along the lattice,
      // so a too-small subset's whole subtree is out of range.
      if (config.rule2_support && node.support < config.support_min) {
        ++level_stats.rule2_pruned_low;
        continue;
      }
      if (node.support_count == 0) continue;
      fates[i] = NodeFate::kEvaluate;
      keys[i].rows = node.rows.ToRows();
      // Each distinct row set is evaluated once per search: the
      // RemovalMethod contract requires the evaluation to be a pure
      // function of the row set, so re-running it could only waste work.
      // The memo serves prior levels; `job_keys` serves this one.
      if (memo.count(keys[i]) > 0) continue;
      if (job_keys.insert(keys[i]).second) {
        jobs.push_back(EvalJob{keys[i], ModelEval{}, Status::OK()});
        created_job[i] = 1;
      }
    }

    // ---- Phase 2: run the evaluations, optionally across threads. Each
    // job is independent (clone + delete + score), so the outcome does not
    // depend on scheduling.
    {
      obs::TraceSpan eval_span("fume.evaluate",
                               {{"level", level},
                                {"jobs", static_cast<int64_t>(jobs.size())},
                                {"threads", num_workers}});
      auto run_job = [&](int worker, EvalJob& job) {
        std::vector<RowId> rows(job.key.rows.begin(), job.key.rows.end());
        auto eval = removal->EvaluateWithoutOn(worker, rows);
        if (eval.ok()) {
          job.eval = *eval;
        } else {
          job.status = eval.status();
        }
      };
      removal->BeginParallel(num_workers);
      if (pool == nullptr || jobs.size() < 2) {
        for (EvalJob& job : jobs) run_job(0, job);
      } else {
        pool->ParallelFor(jobs.size(), [&](int worker, size_t i) {
          run_job(worker, jobs[i]);
        });
      }
      removal->EndParallel();
      metrics.evaluations->Inc(static_cast<int64_t>(jobs.size()));
      for (EvalJob& job : jobs) {
        FUME_RETURN_NOT_OK(job.status);
        ++result.stats.attribution_evaluations;
        memo.emplace(std::move(job.key), job.eval);
        ++result.stats.cache_inserts;
        metrics.cache_insert->Inc();
      }
    }

    // ---- Phase 3: apply Rules 4/5 and assemble candidates, in frontier
    // order (deterministic regardless of thread count).
    std::vector<LatticeNode> expandable;
    for (size_t i = 0; i < frontier.size(); ++i) {
      LatticeNode& node = frontier[i];
      if (fates[i] == NodeFate::kSkip) continue;
      if (fates[i] == NodeFate::kExpandOnly) {
        expandable.push_back(std::move(node));
        continue;
      }
      auto found = memo.find(keys[i]);
      FUME_CHECK(found != memo.end());
      const ModelEval& eval = found->second;
      // A node that did not create its own job shared another node's
      // identical row set this level or reused a prior level's entry;
      // either way the evaluation was saved.
      if (!created_job[i]) {
        ++result.stats.cache_hits;
        metrics.cache_hit->Inc();
      } else {
        metrics.cache_miss->Inc();
      }
      ++level_stats.explored;

      node.attribution = -ComputePhi(result.original_fairness, eval.fairness);

      // Rule 5: only subsets whose removal reduces bias are worth keeping.
      bool selected = true;
      if (config.rule5_positive && !(node.attribution > 0.0)) {
        selected = false;
        ++level_stats.rule5_pruned;
      }
      // Rule 4: a merged subset weaker than its strongest estimated parent
      // is a dead end.
      if (selected && config.rule4_parent &&
          !std::isnan(node.parent_attribution) &&
          node.attribution < node.parent_attribution) {
        selected = false;
        ++level_stats.rule4_pruned;
      }
      if (!selected) continue;

      AttributableSubset subset;
      subset.predicate = node.predicate;
      subset.support = node.support;
      subset.num_rows = node.support_count;
      subset.new_fairness = eval.fairness;
      subset.new_accuracy = eval.accuracy;
      subset.attribution = node.attribution;
      subset.phi = -node.attribution;
      // Output is restricted to the support range even when Rule 2 pruning
      // is disabled for ablation.
      if (subset.support >= config.support_min &&
          subset.support <= config.support_max && subset.attribution > 0.0) {
        result.all_candidates.push_back(subset);
      }
      expandable.push_back(std::move(node));
    }

    level_stats.seconds = level_watch.ElapsedSeconds();
    metrics.explored->Inc(level_stats.explored);
    metrics.rule2_low->Inc(level_stats.rule2_pruned_low);
    metrics.rule2_high->Inc(level_stats.rule2_expand_only);
    metrics.rule4->Inc(level_stats.rule4_pruned);
    metrics.rule5->Inc(level_stats.rule5_pruned);
    result.stats.levels.push_back(level_stats);

    if (level == config.max_literals) {  // Rule 3
      result.stats.rule3_unexpanded = static_cast<int64_t>(expandable.size());
      metrics.rule3->Inc(result.stats.rule3_unexpanded);
      break;
    }
    if (expandable.size() < 2) break;  // nothing left to merge
    LatticeMergeStats merge_stats;
    frontier = lattice.MergeLevel(std::move(expandable), merge_stats);
    possible = merge_stats.pairs_considered;
    pending_rule1 =
        merge_stats.rule1_contradictions + merge_stats.degenerate_merges;
    if (frontier.empty()) break;
  }

  // Rank candidates: attribution descending, predicate order for ties.
  obs::TraceSpan rank_span(
      "fume.rank",
      {{"candidates", static_cast<int64_t>(result.all_candidates.size())}});
  std::sort(result.all_candidates.begin(), result.all_candidates.end(),
            [](const AttributableSubset& a, const AttributableSubset& b) {
              if (a.attribution != b.attribution) {
                return a.attribution > b.attribution;
              }
              return a.predicate < b.predicate;
            });
  if (config.max_row_overlap >= 1.0) {
    const size_t k = std::min<size_t>(static_cast<size_t>(config.top_k),
                                      result.all_candidates.size());
    result.top_k.assign(result.all_candidates.begin(),
                        result.all_candidates.begin() +
                            static_cast<std::ptrdiff_t>(k));
  } else {
    // Greedy diverse selection: walk candidates best-first, skipping any
    // whose matched rows overlap a picked subset beyond the threshold.
    std::vector<Bitmap> picked_rows;
    for (const AttributableSubset& candidate : result.all_candidates) {
      if (static_cast<int>(result.top_k.size()) >= config.top_k) break;
      Bitmap rows = lattice.index().Match(candidate.predicate);
      const int64_t size = rows.Count();
      bool too_close = false;
      for (const Bitmap& prev : picked_rows) {
        // Jaccard needs only counts — never materialize the intersection.
        const int64_t inter = Bitmap::IntersectCount(rows, prev);
        const int64_t uni = size + prev.Count() - inter;
        if (uni > 0 && static_cast<double>(inter) / static_cast<double>(uni) >
                           config.max_row_overlap) {
          too_close = true;
          break;
        }
      }
      if (too_close) continue;
      picked_rows.push_back(std::move(rows));
      result.top_k.push_back(candidate);
    }
  }
  result.stats.total_seconds = total_watch.ElapsedSeconds();
  return result;
}

Result<FumeResult> ExplainWithRemoval(const DareForest& model,
                                      const Dataset& train,
                                      const Dataset& test,
                                      const FumeConfig& config,
                                      RemovalMethod* removal) {
  ModelEval original;
  original.fairness = ComputeFairness(model, test, config.group, config.metric);
  original.accuracy = model.Accuracy(test);
  return ExplainWithRemoval(original, train, config, removal);
}

Result<FumeResult> ExplainFairnessViolation(const DareForest& model,
                                            const Dataset& train,
                                            const Dataset& test,
                                            const FumeConfig& config) {
  UnlearnRemovalMethod removal(&model, &test, config.group, config.metric);
  return ExplainWithRemoval(model, train, test, config, &removal);
}

}  // namespace fume
