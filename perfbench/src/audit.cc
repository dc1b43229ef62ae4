// audit-german: the paper's unit of work. One caller runs
// ExplainFairnessViolation back to back on German Credit at paper size,
// after one untimed warm-up audit.

#include <cmath>

#include "fairness/metrics.h"
#include "probes.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {

namespace {

/// Sizes the fixed work from --seconds: audits per run = seconds / this.
/// Never read from a clock, so every run of a seed does the same audits.
constexpr double kNominalAuditSeconds = 0.6;
constexpr int64_t kGermanRows = 1000;

/// German Credit datasets one untraced run audits in rotation.
constexpr int kPanel = 4;

struct AuditSetup {
  GermanData data;
  fume::DareForest model;
  fume::FumeResult warm;
};

Result<AuditSetup> SetUp(uint64_t data_seed) {
  AuditSetup s;
  FUME_ASSIGN_OR_RETURN(s.data, MakeGerman(kGermanRows, data_seed));
  FUME_ASSIGN_OR_RETURN(s.model,
                        fume::DareForest::Train(s.data.train, PaperForestConfig()));
  FUME_ASSIGN_OR_RETURN(
      s.warm, fume::ExplainFairnessViolation(s.model, s.data.train, s.data.test,
                                             PaperFumeConfig(s.data.group)));
  return s;
}

/// Top-k predicates and attribution bits equal.
bool SameTopK(const fume::FumeResult& a, const fume::FumeResult& b) {
  if (a.top_k.size() != b.top_k.size()) return false;
  for (size_t i = 0; i < a.top_k.size(); ++i) {
    const fume::AttributableSubset& x = a.top_k[i];
    const fume::AttributableSubset& y = b.top_k[i];
    if (!(x.predicate == y.predicate) || !SameBits(x.attribution, y.attribution) ||
        !SameBits(x.new_fairness, y.new_fairness)) {
      return false;
    }
  }
  return true;
}

/// DESIGN.md §6 oracle: each reported subset's new_fairness equals the
/// fairness of a forest trained cold on train without the subset's rows.
void CheckAgainstRetrain(const AuditSetup& s, RunResult* out) {
  const fume::FumeConfig config = PaperFumeConfig(s.data.group);
  for (const fume::AttributableSubset& subset : s.warm.top_k) {
    ++out->attempted;
    std::vector<int64_t> rows;
    for (const fume::RowId id : MatchingIds(subset.predicate, s.data.train)) {
      rows.push_back(id);
    }
    auto cold = fume::DareForest::Train(s.data.train.DropRows(rows),
                                        PaperForestConfig());
    if (!cold.ok()) {
      out->Fail("cold retrain failed: " + cold.status().ToString());
      continue;
    }
    const double f = fume::ComputeFairness(*cold, s.data.test, config.group,
                                           config.metric);
    if (!SameBits(f, subset.new_fairness)) {
      out->Fail("top-k subset " + subset.predicate.ToString(s.data.train.schema()) +
                ": new_fairness differs from a cold retrain");
    }
  }
}

}  // namespace

Result<RunResult> RunAuditGerman(const Options& opts) {
  RunResult out;
  // The untimed set-up builds a panel of kPanel German Credit datasets from
  // the seed, and the audits rotate through it: how much search work one
  // dataset needs varies with its draw (582-796 evaluations per audit over
  // the panel datasets of seeds 1-10),
  // and a panel averages that out of the per-run figures. A traced run
  // audits the first dataset only.
  const int panel = opts.trace ? 1 : kPanel;
  int audits =
      std::max(2 * panel, static_cast<int>(std::lround(opts.seconds / kNominalAuditSeconds)));
  audits -= audits % panel;

  std::vector<double> setup_s;
  std::vector<AuditSetup> sets;
  for (int rep = 0; rep < (opts.trace ? 1 : kSetupRepeats); ++rep) {
    sets.clear();
    const int64_t t0 = NowNs();
    for (int d = 0; d < panel; ++d) {
      FUME_ASSIGN_OR_RETURN(AuditSetup fresh,
                            SetUp(DeriveSeed(DeriveSeed(opts.seed, 1), d)));
      sets.push_back(std::move(fresh));
    }
    setup_s.push_back(NsToMs(NowNs() - t0) / 1e3);
  }

  if (!opts.trace) {
    std::vector<double> audit_ms;
    std::vector<std::vector<int64_t>> first_counts(sets.size());
    const double cpu0 = ProcessCpuMs();
    const int64_t wall0 = NowNs();
    for (int i = 0; i < audits; ++i) {
      ++out.attempted;
      const AuditSetup& s = sets[static_cast<size_t>(i % panel)];
      const fume::FumeConfig config = PaperFumeConfig(s.data.group);
      const std::vector<int64_t> before = ReadCounters(kSearchCounters);
      const int64_t t0 = NowNs();
      auto r = fume::ExplainFairnessViolation(s.model, s.data.train, s.data.test,
                                              config);
      const int64_t t1 = NowNs();
      std::vector<int64_t> counts = ReadCounters(kSearchCounters);
      for (size_t k = 0; k < counts.size(); ++k) counts[k] -= before[k];
      if (!r.ok()) {
        out.Fail("audit failed: " + r.status().ToString());
        continue;
      }
      audit_ms.push_back(NsToMs(t1 - t0));
      if (!SameTopK(*r, s.warm)) out.Fail("audit top-k differs from warm-up");
      std::vector<int64_t>& first = first_counts[static_cast<size_t>(i % panel)];
      if (first.empty()) first = counts;
      if (counts != first) out.Fail("audit registry counts differ");
    }
    const double wall_s = NsToMs(NowNs() - wall0) / 1e3;
    const double cpu_ms = ProcessCpuMs() - cpu0;
    for (const AuditSetup& s : sets) CheckAgainstRetrain(s, &out);

    const LatencySummary audit = Summarize(audit_ms);
    const double n = std::max<double>(1.0, audit_ms.size());
    out.Line("audit_p50_ms: " + FormatSummary(audit, "ms"));
    out.Line("audits_per_s: " + Fmt(n / wall_s) + " 1/s (" +
             std::to_string(audit_ms.size()) + " audits in " + Fmt(wall_s, 2) +
             " s)");
    out.Line("cpu_ms_per_audit: " + Fmt(cpu_ms / n, 2) + " ms");
    std::string evals;
    for (const std::vector<int64_t>& c : first_counts) {
      if (!c.empty()) evals += " " + std::to_string(c[1]);
    }
    out.Line("evaluations per audit, per panel dataset (exact):" + evals);
    out.Line("setup_s: median of " + std::to_string(setup_s.size()) +
             " set-ups (synthesis, split, training, warm-up audit of " +
             std::to_string(panel) + " datasets)");
    out.Add("setup_s", Median(setup_s), "s");
    out.Add("latency_p50_ms", audit.p50, "ms");
    out.Add("throughput_per_s", n / wall_s, "1/s");
    out.Add("cpu_ms_per_op", cpu_ms / n, "ms");
    out.Add("peak_rss_mb", PeakRssMb(), "MB");
    return out;
  }

  const AuditSetup* s = &sets.front();
  const fume::FumeConfig config = PaperFumeConfig(s->data.group);
  const Dataset& train = s->data.train;
  const Dataset& test = s->data.test;
  // Traced run: even audits plain, odd audits through the timing
  // decorator, so the difference of their medians is the trace overhead.
  // The last traced audit keeps its row sets for the replay, which then runs
  // right after it, under the same host conditions.
  const int last_traced = audits % 2 == 0 ? audits - 1 : audits - 2;
  SpanRecorder spans;
  std::vector<SearchMeasure> searches;
  std::vector<double> plain_ms;
  for (int i = 0; i < audits; ++i) {
    ++out.attempted;
    if (i % 2 == 0) {
      const int64_t t0 = NowNs();
      auto r = fume::ExplainFairnessViolation(s->model, train, test, config);
      plain_ms.push_back(NsToMs(NowNs() - t0));
      if (!r.ok() || !SameTopK(*r, s->warm)) out.Fail("plain audit differs");
      continue;
    }
    auto m = RunDecoratedSearch(s->model, train, test, config, &spans, i,
                                /*capture_row_sets=*/i == last_traced);
    if (!m.ok() || !SameTopK(m->result, s->warm)) {
      out.Fail("traced audit differs from warm-up");
      continue;
    }
    searches.push_back(std::move(m).ValueOrDie());
  }
  if (searches.empty()) return Status::Invalid("no traced audit succeeded");
  std::vector<double> traced_ms;
  for (const SearchMeasure& m : searches) traced_ms.push_back(m.wall_ms);

  const ServeFixture fx = MakeServeFixture(s->data, DeriveSeed(opts.seed, 2));
  const WriteSequence writes =
      MakeWriteSequence(DeriveSeed(opts.seed, 3), fx.initial_train.num_rows(),
                        fx.pool.num_rows(), kProbeWrites);
  FUME_ASSIGN_OR_RETURN(
      std::unique_ptr<fume::serve::Tenant> tenant,
      fume::serve::Tenant::Make("german-credit", fx.initial_train, fx.test,
                                MakeTenantConfig(fx.group, "")));
  StateDir state(opts);
  ProbeInputs in;
  in.searches = std::move(searches);
  in.model = &s->model;
  in.search_train = &train;
  in.test = &test;
  in.fume = config;
  in.fixture = &fx;
  in.tenant = tenant.get();
  in.whatif_concurrency = 3;
  in.writes = &writes;
  in.state_dir = state.path();
  ExactCounts exact;
  FUME_RETURN_NOT_OK(RunLayerProbes(in, &spans, &out, &exact));
  tenant->Shutdown();
  out.Add("obs.trace_overhead", Median(traced_ms) - Median(plain_ms), "ms");

  std::string detail;
  if (!CheckExactCountsAcrossRuns(opts, exact, &detail)) out.Fail(detail);
  out.Line(detail);
  const std::string path = opts.out_dir + "/spans-audit-german-seed" +
                           std::to_string(opts.seed) + ".json";
  out.Line(spans.WriteJson(path) ? "spans written to " + path
                                 : "could not write " + path);
  return out;
}

}  // namespace perfbench
