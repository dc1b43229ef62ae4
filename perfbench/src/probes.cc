#include "probes.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>

#include "core/removal_method.h"
#include "fairness/metrics.h"
#include "forest/deletion_scratch.h"
#include "forest/prediction_cache.h"
#include "obs/metrics.h"
#include "serve/protocol.h"
#include "stats.h"
#include "stream/engine.h"
#include "subset/lattice.h"

namespace perfbench {

namespace fs = std::filesystem;
using fume::RowId;

const std::vector<std::string> kSearchCounters = {
    "fume.rowset_cache.hit",
    "fume.rowset_cache.miss",
    "forest.unlearn.subtrees_retrained",
    "forest.unlearn.rows_retrained",
    "forest.unlearn.cow_nodes_copied",
    "removal.unlearn.cow_rows_rescored",
};

std::vector<int64_t> ReadCounters(const std::vector<std::string>& names) {
  std::vector<int64_t> values;
  for (const std::string& n : names) {
    values.push_back(fume::obs::GetCounter(n)->Value());
  }
  return values;
}

namespace {

std::vector<int64_t> Delta(const std::vector<int64_t>& after,
                           const std::vector<int64_t>& before) {
  std::vector<int64_t> d(after.size());
  for (size_t i = 0; i < after.size(); ++i) d[i] = after[i] - before[i];
  return d;
}

/// Times every evaluation the search makes, from outside: wraps the
/// removal method FUME calls into and records one span per call.
class TimingRemoval : public fume::RemovalMethod {
 public:
  struct Eval {
    int64_t start_ns;
    int64_t end_ns;
    int64_t rows;
  };

  TimingRemoval(fume::RemovalMethod* inner, SpanRecorder* spans,
                int64_t parent, int64_t request, bool capture)
      : inner_(inner),
        spans_(spans),
        parent_(parent),
        request_(request),
        capture_(capture) {}

  Result<fume::ModelEval> EvaluateWithout(
      const std::vector<RowId>& rows) override {
    return Timed(rows, [&] { return inner_->EvaluateWithout(rows); });
  }
  Result<fume::ModelEval> EvaluateWithoutOn(
      int worker, const std::vector<RowId>& rows) override {
    return Timed(rows,
                 [&] { return inner_->EvaluateWithoutOn(worker, rows); });
  }
  void BeginParallel(int num_workers) override {
    inner_->BeginParallel(num_workers);
    workers_ = std::max(workers_, num_workers);
    bracket_start_ = NowNs();
  }
  void EndParallel() override {
    const int64_t end = NowNs();
    bracket_ns_ += end - bracket_start_;
    if (spans_ != nullptr) {
      spans_->Record(Span{spans_->NewId(), parent_, request_, "util.pool.level",
                          bracket_start_, end});
    }
    inner_->EndParallel();
  }
  const char* name() const override { return inner_->name(); }

  std::vector<Eval> evals;  // guarded by mu_ while the search runs
  std::vector<std::vector<RowId>> row_sets;
  std::vector<double> row_set_fairness;
  int workers_ = 1;
  int64_t bracket_ns_ = 0;

 private:
  template <typename Fn>
  Result<fume::ModelEval> Timed(const std::vector<RowId>& rows, Fn&& fn) {
    const int64_t start = NowNs();
    Result<fume::ModelEval> r = fn();
    const int64_t end = NowNs();
    std::lock_guard<std::mutex> lk(mu_);
    evals.push_back(Eval{start, end, static_cast<int64_t>(rows.size())});
    if (capture_ && r.ok()) {
      row_sets.push_back(rows);
      row_set_fairness.push_back(r->fairness);
    }
    if (spans_ != nullptr) {
      spans_->Record(
          Span{spans_->NewId(), parent_, request_, "core.evaluate", start, end});
    }
    return r;
  }

  fume::RemovalMethod* inner_;
  SpanRecorder* spans_;
  int64_t parent_;
  int64_t request_;
  bool capture_;
  int64_t bracket_start_ = 0;
  std::mutex mu_;
};

}  // namespace

Result<SearchMeasure> RunDecoratedSearch(const fume::DareForest& model,
                                         const Dataset& train,
                                         const Dataset& test,
                                         const fume::FumeConfig& config,
                                         SpanRecorder* spans, int64_t request,
                                         bool capture_row_sets) {
  fume::UnlearnRemovalMethod unlearn(&model, &test, config.group,
                                     config.metric);
  const int64_t audit_id = spans != nullptr ? spans->NewId() : 0;
  TimingRemoval timing(&unlearn, spans, audit_id, request, capture_row_sets);
  const std::vector<int64_t> before = ReadCounters(kSearchCounters);
  const int64_t start = NowNs();
  Result<fume::FumeResult> result =
      fume::ExplainWithRemoval(model, train, test, config, &timing);
  const int64_t end = NowNs();
  const std::vector<int64_t> after = ReadCounters(kSearchCounters);
  if (spans != nullptr) {
    spans->Record(Span{audit_id, 0, request, "core.audit", start, end});
  }
  FUME_RETURN_NOT_OK(result.status());

  SearchMeasure m;
  m.result = std::move(result).ValueOrDie();
  m.wall_ms = NsToMs(end - start);
  m.calls = static_cast<int64_t>(timing.evals.size());
  std::vector<Interval> intervals;
  int64_t busy_ns = 0;
  for (const TimingRemoval::Eval& e : timing.evals) {
    m.rows_total += e.rows;
    busy_ns += e.end_ns - e.start_ns;
    intervals.emplace_back(e.start_ns, e.end_ns);
  }
  m.busy_ms = NsToMs(busy_ns);
  m.self_ms = NsToMs(SelfTime({start, end}, intervals));
  m.bracket_ms = NsToMs(timing.bracket_ns_);
  m.workers = timing.workers_;
  m.counters = Delta(after, before);
  m.row_sets = std::move(timing.row_sets);
  m.row_set_fairness = std::move(timing.row_set_fairness);
  return m;
}

fume::serve::TenantConfig MakeTenantConfig(const GroupSpec& group,
                                           const std::string& state_dir) {
  fume::serve::TenantConfig config;
  config.engine.forest = PaperForestConfig();
  config.engine.fume = PaperFumeConfig(group);
  config.whatif_threads = 2;
  if (!state_dir.empty()) {
    config.engine.checkpoint_path = state_dir + "/german-credit.ckpt";
    config.oplog_path = state_dir + "/german-credit.ops";
    config.engine.drift.abs_threshold = std::numeric_limits<double>::infinity();
    config.engine.drift.rel_threshold = std::numeric_limits<double>::infinity();
  }
  return config;
}

namespace {

ExactCounts SearchExactCounts(const SearchMeasure& m) {
  ExactCounts c;
  c["core.evaluate.calls"] = m.calls;
  c["core.evaluate.rows_total"] = m.rows_total;
  for (size_t i = 0; i < kSearchCounters.size(); ++i) {
    c[kSearchCounters[i]] = m.counters[i];
  }
  return c;
}

// ---- forest / fairness: one search's row sets replayed single-threaded ----

struct ReplayMeasure {
  double clone_us = 0, delete_us = 0, rescore_us = 0, release_us = 0,
         metric_us = 0;
  double total_ms = 0;
};

ReplayMeasure ReplayRowSets(const SearchMeasure& search,
                            const fume::DareForest& model,
                            const Dataset& test, const fume::FumeConfig& fume,
                            SpanRecorder* spans, RunResult* out) {
  fume::TestPredictionCache cache;
  cache.Rebuild(model, test);
  fume::TestPredictionCache::WhatIfScratch scratch;
  fume::DeletionScratch deletion;
  int64_t clone = 0, del = 0, rescore = 0, release = 0, metric = 0;
  const int64_t parent = spans != nullptr ? spans->NewId() : 0;
  const int64_t replay_start = NowNs();
  int64_t mismatches = 0;
  for (size_t i = 0; i < search.row_sets.size(); ++i) {
    const std::vector<RowId>& rows = search.row_sets[i];
    std::optional<fume::DareForest> what_if;
    const int64_t t0 = NowNs();
    what_if.emplace(model.Clone());
    const int64_t t1 = NowNs();
    const Status st = what_if->DeleteRows(rows, nullptr, &deletion);
    const int64_t t2 = NowNs();
    cache.ScoreWhatIf(
        model, *what_if, test, &scratch,
        rows.size() >= fume::UnlearnRemovalMethod::kArenaFullRescoreMinBatch);
    const int64_t t3 = NowNs();
    const double f =
        fume::ComputeFairness(test, scratch.preds, fume.group, fume.metric);
    const int64_t t4 = NowNs();
    what_if.reset();
    const int64_t t5 = NowNs();
    clone += t1 - t0;
    del += t2 - t1;
    rescore += t3 - t2;
    metric += t4 - t3;
    release += t5 - t4;
    // The replay must redo the search's work: same row set, same metric.
    if (!st.ok() || !SameBits(f, search.row_set_fairness[i])) ++mismatches;
  }
  const int64_t replay_end = NowNs();
  if (spans != nullptr) {
    spans->Record(
        Span{parent, 0, 0, "forest.replay", replay_start, replay_end});
  }
  if (mismatches > 0) {
    out->Fail(std::to_string(mismatches) +
              " replayed evaluations differ from the search's");
  }
  const double n = std::max<double>(1.0, search.row_sets.size());
  ReplayMeasure m;
  m.clone_us = NsToUs(clone) / n;
  m.delete_us = NsToUs(del) / n;
  m.rescore_us = NsToUs(rescore) / n;
  m.release_us = NsToUs(release) / n;
  m.metric_us = NsToUs(metric) / n;
  m.total_ms = NsToMs(clone + del + rescore + release + metric);
  return m;
}

// ---- subset: lattice construction and the level-2 join ------------------

void SubsetProbe(const Dataset& train, const fume::FumeConfig& fume,
                 SpanRecorder* spans, RunResult* out) {
  std::vector<double> build, merge;
  for (int rep = 0; rep < 5; ++rep) {
    ScopedSpan span(spans, "subset.lattice", 0, 0);
    const int64_t t0 = NowNs();
    fume::Lattice lattice(train, fume.lattice);
    std::vector<fume::LatticeNode> level1 = lattice.MakeLevel1();
    const int64_t t1 = NowNs();
    fume::LatticeMergeStats stats;
    std::vector<fume::LatticeNode> level2 =
        lattice.MergeLevel(std::move(level1), stats);
    const int64_t t2 = NowNs();
    build.push_back(NsToMs(t1 - t0));
    merge.push_back(NsToMs(t2 - t1));
    if (level2.empty()) out->Fail("lattice level 2 is empty");
  }
  out->Add("subset.build_ms", Median(build), "ms");
  out->Add("subset.merge_ms", Median(merge), "ms");
}

// ---- serve: wire protocol on the run's request lines ---------------------

void ProtocolProbe(const ProbeInputs& in, SpanRecorder* spans,
                   RunResult* out) {
  namespace sv = fume::serve;
  const ServeFixture& fx = *in.fixture;
  // The run's request mix: one whatif per predicate, one predict per
  // batch, an explain, and the write sequence's first stream ops.
  std::vector<std::function<std::string(int64_t)>> encoders;
  for (const Predicate& p : fx.predicates) {
    encoders.push_back([&p](int64_t id) {
      return sv::EncodeWhatIfRequest(id, "german-credit", p);
    });
  }
  for (const auto& batch : fx.predict_batches) {
    encoders.push_back([&batch](int64_t id) {
      return sv::EncodePredictRequest(id, "german-credit", batch);
    });
  }
  encoders.push_back(
      [](int64_t id) { return sv::EncodeExplainRequest(id, "german-credit"); });
  std::vector<fume::stream::StreamOp> ops;
  for (const WriteRequest& w : in.writes->requests) {
    if (w.kind == WriteRequest::Kind::kCheckpoint) continue;
    ops.push_back(ToStreamOp(w, fx.pool));
    if (ops.size() >= 32) break;
  }
  for (const auto& op : ops) {
    encoders.push_back([&op](int64_t id) {
      return sv::EncodeStreamOpRequest(id, "german-credit", op);
    });
  }
  std::vector<double> encode_us, parse_us;
  std::vector<std::string> lines(encoders.size());
  for (int pass = 0; pass < 20; ++pass) {
    ScopedSpan span(spans, "serve.protocol", 0, 0);
    const int64_t t0 = NowNs();
    for (size_t i = 0; i < encoders.size(); ++i) {
      lines[i] = encoders[i](static_cast<int64_t>(i));
    }
    const int64_t t1 = NowNs();
    int64_t bad = 0;
    for (std::string& line : lines) {
      if (!line.empty() && line.back() == '\n') line.pop_back();
      if (!sv::ParseRequest(line).ok()) ++bad;
    }
    const int64_t t2 = NowNs();
    if (bad > 0) out->Fail("an encoded request line failed to parse");
    encode_us.push_back(NsToUs(t1 - t0) / static_cast<double>(lines.size()));
    parse_us.push_back(NsToUs(t2 - t1) / static_cast<double>(lines.size()));
  }
  out->Add("serve.protocol.parse_us", Median(parse_us), "us");
  out->Add("serve.protocol.encode_us", Median(encode_us), "us");
}

// ---- serve: Tenant::WhatIf in process at the workload's concurrency ------

constexpr int kWhatIfsPerThread = 64;

void TenantWhatIfProbe(const ProbeInputs& in, SpanRecorder* spans,
                       RunResult* out) {
  namespace sv = fume::serve;
  const ServeFixture& fx = *in.fixture;
  struct Sample {
    double ms;
    int batch;
    bool deduped;
    int64_t matched;
  };
  std::vector<std::vector<Sample>> per_thread(
      static_cast<size_t>(in.whatif_concurrency));
  std::vector<int64_t> rejected(per_thread.size(), 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < in.whatif_concurrency; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kWhatIfsPerThread; ++i) {
        const size_t k = static_cast<size_t>(t * kWhatIfsPerThread + i) %
                         fx.whatif_order.size();
        sv::BatchJob job;
        job.predicate =
            fx.predicates[static_cast<size_t>(fx.whatif_order[k])];
        const int64_t start = NowNs();
        const sv::AdmitResult admit = in.tenant->WhatIf(&job);
        const int64_t end = NowNs();
        if (spans != nullptr) {
          spans->Record(Span{spans->NewId(), 0, t * 1000000 + i,
                             "serve.tenant.whatif", start, end});
        }
        if (admit != sv::AdmitResult::kOk) {
          ++rejected[static_cast<size_t>(t)];
          continue;
        }
        per_thread[static_cast<size_t>(t)].push_back(
            Sample{NsToMs(end - start), job.batch_size, job.deduped,
                   job.outcome.rows_matched});
      }
    });
  }
  for (std::thread& th : threads) th.join();
  std::vector<double> ms;
  double batch_sum = 0, deduped = 0, arena = 0;
  for (const auto& samples : per_thread) {
    for (const Sample& s : samples) {
      ms.push_back(s.ms);
      batch_sum += s.batch;
      deduped += s.deduped ? 1 : 0;
      arena += s.matched >=
                       static_cast<int64_t>(
                           fume::UnlearnRemovalMethod::kArenaFullRescoreMinBatch)
                   ? 1
                   : 0;
    }
  }
  for (const int64_t r : rejected) {
    if (r > 0) out->Fail("in-process whatif rejected by admission");
  }
  const double n = std::max<double>(1.0, ms.size());
  out->Add("serve.whatif.tenant_ms", Median(ms), "ms");
  out->Add("serve.batch.mean_size", batch_sum / n, "jobs");
  out->Add("serve.whatif.dedup_share", deduped / n, "ratio");
  out->Add("serve.whatif.arena_share", arena / n, "ratio");
  out->Line("serve.tenant whatif (in process, " +
            std::to_string(in.whatif_concurrency) + " threads): " +
            FormatSummary(Summarize(ms), "ms"));
}

// ---- forest: the published snapshot's what-if and predict paths ----------

void SnapshotProbe(const ProbeInputs& in, SpanRecorder* spans,
                   RunResult* out) {
  const ServeFixture& fx = *in.fixture;
  std::shared_ptr<const fume::serve::TenantSnapshot> snap =
      in.tenant->snapshot();
  const Dataset& test = in.tenant->test_data();
  const fume::TrainingStore& store = snap->forest.store();
  fume::DeletionScratch deletion;
  fume::TestPredictionCache::WhatIfScratch scratch;
  std::vector<RowId> matched;
  int64_t del = 0, rescore = 0, evals = 0;
  for (int pass = 0; pass < 3; ++pass) {
    ScopedSpan span(spans, "forest.snapshot_whatif", 0, pass);
    for (const Predicate& p : fx.predicates) {
      matched.clear();
      for (const RowId id : snap->live_ids) {
        bool all = true;
        for (const fume::Literal& lit : p.literals()) {
          if (!lit.Matches(store.code(id, lit.attr))) {
            all = false;
            break;
          }
        }
        if (all) matched.push_back(id);
      }
      if (matched.empty()) continue;
      fume::DareForest clone = snap->forest.Clone();
      const int64_t t0 = NowNs();
      const Status st = clone.DeleteRows(matched, nullptr, &deletion);
      const int64_t t1 = NowNs();
      snap->cache->ScoreWhatIf(
          snap->forest, clone, test, &scratch,
          matched.size() >=
              fume::UnlearnRemovalMethod::kArenaFullRescoreMinBatch);
      const int64_t t2 = NowNs();
      if (!st.ok()) out->Fail("snapshot what-if DeleteRows failed");
      del += t1 - t0;
      rescore += t2 - t1;
      ++evals;
    }
  }
  const double n = std::max<double>(1.0, static_cast<double>(evals));
  out->Add("forest.whatif_delete_us", NsToUs(del) / n, "us");
  out->Add("forest.whatif_rescore_us", NsToUs(rescore) / n, "us");

  std::vector<Dataset> batches;
  for (const auto& rows : fx.predict_batches) {
    Dataset d(in.tenant->schema());
    for (const auto& codes : rows) {
      if (!d.AppendRow(codes, 0).ok()) out->Fail("predict row rejected");
    }
    batches.push_back(std::move(d));
  }
  std::vector<double> predict_us;
  for (int pass = 0; pass < 8; ++pass) {
    ScopedSpan span(spans, "forest.snapshot_predict", 0, pass);
    const int64_t t0 = NowNs();
    size_t rows = 0;
    for (const Dataset& d : batches) rows += snap->forest.PredictProbAll(d).size();
    const int64_t t1 = NowNs();
    if (rows == 0) out->Fail("snapshot predict returned nothing");
    predict_us.push_back(NsToUs(t1 - t0) / static_cast<double>(batches.size()));
  }
  out->Add("forest.predict_us", Median(predict_us), "us");
}

// ---- stream: the write sequence on a standalone engine and a tenant ------

constexpr size_t kMaxProbeWrites = 2000;

const std::vector<std::string> kWriteCounters = {
    "stream.predcache.trees_rewalked",
    "forest.unlearn.subtrees_retrained",
    "stream.search.triggered",
    "serve.snapshot.published",
};

Status StreamProbes(const ProbeInputs& in, SpanRecorder* spans,
                    RunResult* out, ExactCounts* exact) {
  const ServeFixture& fx = *in.fixture;
  const std::string engine_dir = in.state_dir + "/probe-engine";
  const std::string tenant_dir = in.state_dir + "/probe-tenant";
  fs::create_directories(engine_dir);
  fs::create_directories(tenant_dir);
  const fume::serve::TenantConfig config =
      MakeTenantConfig(fx.group, tenant_dir);

  FUME_ASSIGN_OR_RETURN(
      fume::stream::StreamEngine engine,
      fume::stream::StreamEngine::Create(fx.initial_train, fx.test,
                                         config.engine));
  std::vector<double> insert_us, delete_us, checkpoint_ms;
  std::vector<int64_t> engine_before = ReadCounters(kWriteCounters);
  // A prefix of the writer's sequence (it ends on a checkpoint) keeps the
  // two replays short when the workload's own sequence is long.
  const std::vector<WriteRequest> sequence(
      in.writes->requests.begin(),
      in.writes->requests.begin() +
          std::min<size_t>(in.writes->requests.size(), kMaxProbeWrites));
  int64_t writes = 0;
  for (const WriteRequest& w : sequence) {
    ScopedSpan span(spans, "stream.engine.apply", 0, w.seq);
    if (w.kind == WriteRequest::Kind::kCheckpoint) {
      const int64_t t0 = NowNs();
      FUME_RETURN_NOT_OK(engine.SaveCheckpointToFile(engine_dir + "/e.ckpt"));
      checkpoint_ms.push_back(NsToMs(NowNs() - t0));
      continue;
    }
    const fume::stream::StreamOp op = ToStreamOp(w, fx.pool);
    const int64_t t0 = NowNs();
    FUME_ASSIGN_OR_RETURN(fume::stream::OpOutcome o, engine.Apply(op));
    const double us = NsToUs(NowNs() - t0);
    (w.kind == WriteRequest::Kind::kInsert ? insert_us : delete_us)
        .push_back(us);
    if (o.rows_live != w.live_after || o.searched) {
      out->Fail("standalone engine op outcome differs from the sequence");
    }
    ++writes;
  }
  const std::vector<int64_t> engine_delta =
      Delta(ReadCounters(kWriteCounters), engine_before);

  FUME_ASSIGN_OR_RETURN(
      std::unique_ptr<fume::serve::Tenant> tenant,
      fume::serve::Tenant::Make("probe", fx.initial_train, fx.test, config));
  std::vector<double> write_us, tenant_ckpt_ms;
  const std::vector<int64_t> tenant_before = ReadCounters(kWriteCounters);
  for (const WriteRequest& w : sequence) {
    ScopedSpan span(spans, "serve.tenant.write", 0, w.seq);
    if (w.kind == WriteRequest::Kind::kCheckpoint) {
      const int64_t t0 = NowNs();
      FUME_RETURN_NOT_OK(tenant->Checkpoint().status());
      tenant_ckpt_ms.push_back(NsToMs(NowNs() - t0));
      continue;
    }
    const fume::stream::StreamOp op = ToStreamOp(w, fx.pool);
    const int64_t t0 = NowNs();
    FUME_ASSIGN_OR_RETURN(fume::stream::OpOutcome o,
                          tenant->ApplyStreamOp(op));
    write_us.push_back(NsToUs(NowNs() - t0));
    if (o.rows_live != w.live_after || o.searched) {
      out->Fail("tenant op outcome differs from the sequence");
    }
  }
  const std::vector<int64_t> tenant_delta =
      Delta(ReadCounters(kWriteCounters), tenant_before);
  tenant->Shutdown();
  // Retrain decisions depend on node statistics only, so the engine under a
  // tenant (whose snapshots force CoW copies) retrains exactly the subtrees
  // the standalone engine does.
  if (tenant_delta[1] != engine_delta[1]) {
    out->Fail("tenant and standalone engine retrained different subtrees");
  }
  if (engine_delta[2] != 0 || tenant_delta[2] != 0) {
    out->Fail("a write re-ran the search with drift pinned");
  }

  const double nw = std::max<double>(1.0, static_cast<double>(writes));
  out->Add("stream.insert_us", Median(insert_us), "us");
  out->Add("stream.delete_us", Median(delete_us), "us");
  out->Add("stream.checkpoint_ms", Median(checkpoint_ms), "ms");
  out->Add("serve.write.tenant_us", Median(write_us), "us");
  out->Add("serve.checkpoint.tenant_ms", Median(tenant_ckpt_ms), "ms");
  out->Add("stream.predcache.trees_rewalked",
           static_cast<double>(tenant_delta[0]) / nw, "count");
  out->Add("stream.unlearn.subtrees_retrained",
           static_cast<double>(tenant_delta[1]) / nw, "count");
  out->Add("serve.snapshot.published",
           static_cast<double>(tenant_delta[3]) / nw, "count");
  out->Add("stream.search.triggered",
           static_cast<double>(engine_delta[2] + tenant_delta[2]), "count");
  (*exact)["stream.writes"] = writes;
  (*exact)["stream.engine.trees_rewalked"] = engine_delta[0];
  (*exact)["stream.tenant.trees_rewalked"] = tenant_delta[0];
  (*exact)["stream.subtrees_retrained"] = tenant_delta[1];
  (*exact)["stream.search.triggered"] = engine_delta[2] + tenant_delta[2];
  (*exact)["serve.snapshot.published"] = tenant_delta[3];
  out->Line("stream probe: " + std::to_string(writes) + " writes, " +
            std::to_string(checkpoint_ms.size()) + " checkpoints; engine " +
            "insert p50 " + Fmt(Median(insert_us), 1) + " us, delete p50 " +
            Fmt(Median(delete_us), 1) + " us; tenant write p50 " +
            Fmt(Median(write_us), 1) + " us");
  return Status::OK();
}

}  // namespace

Status RunLayerProbes(const ProbeInputs& in, SpanRecorder* spans,
                      RunResult* out, ExactCounts* exact) {
  // ---- core / util: the measured searches ----
  const SearchMeasure& first = in.searches.front();
  std::vector<double> busy, self, idle;
  for (const SearchMeasure& s : in.searches) {
    busy.push_back(s.busy_ms);
    self.push_back(s.self_ms);
    const double capacity = s.workers * s.bracket_ms;
    idle.push_back(capacity > 0 ? 1.0 - s.busy_ms / capacity : 0.0);
    if (SearchExactCounts(s) != SearchExactCounts(first)) {
      out->Fail("search counts differ between searches of identical inputs");
    }
  }
  const double calls = static_cast<double>(std::max<int64_t>(1, first.calls));
  const int64_t hits = first.counters[0];
  const int64_t misses = first.counters[1];
  out->Add("core.evaluate.calls", static_cast<double>(first.calls), "count");
  out->Add("core.evaluate.rows_mean",
           static_cast<double>(first.rows_total) / calls, "rows");
  out->Add("core.evaluate.busy_ms", Median(busy), "ms");
  out->Add("core.memo.hit_ratio",
           hits + misses > 0 ? static_cast<double>(hits) /
                                   static_cast<double>(hits + misses)
                             : 0.0,
           "ratio");
  out->Add("core.search.self_ms", Median(self), "ms");
  out->Add("util.pool.idle_share", Median(idle), "ratio");
  out->Add("forest.unlearn.subtrees_retrained",
           static_cast<double>(first.counters[2]), "count");
  out->Add("forest.unlearn.rows_retrained",
           static_cast<double>(first.counters[3]), "count");
  out->Add("forest.unlearn.cow_nodes_copied",
           static_cast<double>(first.counters[4]), "count");
  out->Add("removal.unlearn.cow_rows_rescored",
           static_cast<double>(first.counters[5]), "count");
  for (const auto& [name, value] : SearchExactCounts(first)) {
    (*exact)["search." + name] = value;
  }

  // ---- forest / fairness: replay of one search's row sets ----
  const SearchMeasure* captured = nullptr;
  for (const SearchMeasure& s : in.searches) {
    if (!s.row_sets.empty()) captured = &s;
  }
  if (captured == nullptr) return Status::Invalid("no search captured row sets");
  const ReplayMeasure replay = ReplayRowSets(*captured, *in.model, *in.test,
                                             in.fume, spans, out);
  out->Add("forest.clone_us", replay.clone_us, "us");
  out->Add("forest.delete_us", replay.delete_us, "us");
  out->Add("forest.rescore_us", replay.rescore_us, "us");
  out->Add("forest.release_us", replay.release_us, "us");
  out->Add("fairness.metric_us", replay.metric_us, "us");
  // Every search did the same evaluations; their median busy time is
  // steadier than the captured search's alone.
  const double busy_ms = Median(busy);
  const double coverage = busy_ms > 0 ? replay.total_ms / busy_ms : 0.0;
  out->Add("trace.replay_coverage", coverage, "ratio");
  out->Line("replay: " + std::to_string(captured->row_sets.size()) +
            " evaluations, " + Fmt(replay.total_ms, 1) +
            " ms replayed vs " + Fmt(busy_ms, 1) +
            " ms evaluate busy (coverage " + Fmt(100 * coverage, 1) + "%)");

  SubsetProbe(*in.search_train, in.fume, spans, out);
  ProtocolProbe(in, spans, out);
  TenantWhatIfProbe(in, spans, out);
  SnapshotProbe(in, spans, out);
  return StreamProbes(in, spans, out, exact);
}

bool CheckExactCountsAcrossRuns(const Options& opts, const ExactCounts& counts,
                                std::string* detail) {
  std::error_code ec;
  const auto size = fs::file_size("/proc/self/exe", ec);
  const auto mtime = fs::last_write_time("/proc/self/exe", ec)
                         .time_since_epoch()
                         .count();
  const std::string dir = opts.out_dir + "/exact";
  fs::create_directories(dir, ec);
  const std::string path = dir + "/" + opts.workload + "-seed" +
                           std::to_string(opts.seed) + "-s" +
                           std::to_string(opts.seconds) + "-bin" +
                           std::to_string(size) + "-" + std::to_string(mtime) +
                           ".txt";
  std::ostringstream now;
  for (const auto& [name, value] : counts) now << name << " " << value << "\n";
  std::ifstream in(path);
  if (!in) {
    std::ofstream(path) << now.str();
    *detail = "first run of this seed: exact counts recorded";
    return true;
  }
  std::ostringstream before;
  before << in.rdbuf();
  if (before.str() == now.str()) {
    *detail = "exact counts repeat the earlier run of this seed";
    return true;
  }
  *detail = "exact counts differ from the earlier run of this seed (" + path +
            ")";
  return false;
}

}  // namespace perfbench
