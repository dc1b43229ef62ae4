// serve-read and serve-write: fume_serve's serve::Server driven over
// loopback TCP by client threads in this process, closed loop.

#include <atomic>
#include <cmath>
#include <map>
#include <thread>

#include "core/removal_method.h"
#include "fairness/metrics.h"
#include "probes.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "stats.h"
#include "stream/engine.h"
#include "util/json.h"
#include "util/socket.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace sv = fume::serve;
using fume::util::JsonValue;

constexpr int64_t kServeRows = 2000;
constexpr const char* kTenant = "german-credit";
/// Size the fixed work from --seconds (never from a clock).
constexpr double kNominalRotationsPerSecond = 100.0;  // per read connection
constexpr double kNominalWritesPerSecond = 600.0;
constexpr int kReplyTimeoutMs = 60000;

/// One request/response exchange as the client sees it.
struct Exchange {
  bool ok = false;
  std::string error;
  std::string raw;
  JsonValue json;
  double ms = 0.0;
};

Exchange Call(fume::util::Socket& sock, const std::string& line) {
  Exchange ex;
  const int64_t t0 = NowNs();
  const Status sent = sock.SendAll(line);
  if (!sent.ok()) {
    ex.error = "transport: " + sent.ToString();
    return ex;
  }
  auto read = sock.ReadLine(&ex.raw, kReplyTimeoutMs);
  ex.ms = NsToMs(NowNs() - t0);
  if (!read.ok()) {
    ex.error = "transport: " + read.status().ToString();
    return ex;
  }
  if (*read != fume::util::Socket::ReadResult::kLine) {
    ex.error = *read == fume::util::Socket::ReadResult::kTimeout ? "timeout"
                                                                 : "eof";
    return ex;
  }
  auto parsed = fume::util::ParseJson(ex.raw);
  if (!parsed.ok()) {
    ex.error = "unparseable response";
    return ex;
  }
  ex.json = std::move(parsed).ValueOrDie();
  if (!ex.json.BoolOr("ok", false)) {
    ex.error = "not ok: " + ex.json.StringOr("code", "?");
    return ex;
  }
  ex.ok = true;
  return ex;
}

/// The response with its leading {"id":N, stripped, for byte comparison of
/// answers that should not depend on the request id.
std::string WithoutId(const std::string& raw) {
  const size_t comma = raw.find(',');
  return comma == std::string::npos ? raw : raw.substr(comma);
}

struct ServeSetup {
  GermanData data;
  ServeFixture fx;
  std::unique_ptr<StateDir> state;
  sv::TenantConfig config;
  std::unique_ptr<sv::Server> server;
  std::vector<fume::util::Socket> conns;
  std::string explain_reference;

  ~ServeSetup() {
    conns.clear();
    if (server != nullptr) server->Shutdown();
  }
};

/// Synthesis, split, carve-out, server start with tenant creation (which
/// runs the tenant's first search), connections, and one warm-up exchange
/// of every request kind the workload sends.
Result<std::unique_ptr<ServeSetup>> SetUpServe(const Options& opts,
                                               int connections,
                                               bool writable) {
  auto s = std::make_unique<ServeSetup>();
  FUME_ASSIGN_OR_RETURN(s->data, MakeGerman(kServeRows, DeriveSeed(opts.seed, 1)));
  s->fx = MakeServeFixture(s->data, DeriveSeed(opts.seed, 2));
  if (writable) s->state = std::make_unique<StateDir>(opts);
  s->config = MakeTenantConfig(s->fx.group, writable ? s->state->path() : "");
  sv::ServerConfig server_config;
  server_config.port = 0;
  s->server = std::make_unique<sv::Server>(server_config);
  FUME_RETURN_NOT_OK(s->server->RegisterTenant(kTenant, s->fx.initial_train,
                                               s->fx.test, s->config));
  FUME_RETURN_NOT_OK(s->server->Start());
  for (int c = 0; c < connections; ++c) {
    FUME_ASSIGN_OR_RETURN(fume::util::Socket sock,
                          fume::util::Socket::Connect("127.0.0.1",
                                                      s->server->port()));
    s->conns.push_back(std::move(sock));
  }
  for (int c = 0; c < connections; ++c) {
    fume::util::Socket& sock = s->conns[static_cast<size_t>(c)];
    const bool writer = writable && c == 0;
    std::vector<std::string> lines;
    if (writer) {
      lines.push_back(sv::EncodeHealthRequest(-1));
    } else {
      lines.push_back(sv::EncodeWhatIfRequest(-1, kTenant, s->fx.predicates[0]));
      if (!writable) {
        lines.push_back(
            sv::EncodePredictRequest(-1, kTenant, s->fx.predict_batches[0]));
        lines.push_back(sv::EncodeExplainRequest(-1, kTenant));
      }
    }
    for (const std::string& line : lines) {
      const Exchange ex = Call(sock, line);
      if (!ex.ok) return Status::IOError("warm-up request failed: " + ex.error);
      if (line.find("\"explain\"") != std::string::npos) {
        s->explain_reference = WithoutId(ex.raw);
      }
    }
  }
  return s;
}

Result<std::unique_ptr<ServeSetup>> SetUpRepeated(const Options& opts,
                                                  int connections,
                                                  bool writable,
                                                  std::vector<double>* setup_s) {
  std::unique_ptr<ServeSetup> s;
  for (int rep = 0; rep < (opts.trace ? 1 : kSetupRepeats); ++rep) {
    s.reset();
    const int64_t t0 = NowNs();
    FUME_ASSIGN_OR_RETURN(s, SetUpServe(opts, connections, writable));
    setup_s->push_back(NsToMs(NowNs() - t0) / 1e3);
  }
  return s;
}

/// What the offline engine answers for the tenant's initial model.
struct Oracle {
  fume::DareForest model;
  double metric = 0.0;
  struct WhatIf {
    int64_t matched;
    double fairness;
    double accuracy;
  };
  std::vector<WhatIf> whatif;  // per predicate
  std::vector<std::vector<int>> predict;  // per batch
  std::vector<std::vector<double>> probs;
};

Result<Oracle> MakeOracle(const ServeSetup& s) {
  Oracle o;
  FUME_ASSIGN_OR_RETURN(o.model, fume::DareForest::Train(s.fx.initial_train,
                                                         s.config.engine.forest));
  const fume::FumeConfig& fume = s.config.engine.fume;
  o.metric = fume::ComputeFairness(o.model, s.fx.test, fume.group, fume.metric);
  fume::UnlearnRemovalMethod removal(&o.model, &s.fx.test, fume.group,
                                     fume.metric);
  for (const Predicate& p : s.fx.predicates) {
    const std::vector<fume::RowId> ids = MatchingIds(p, s.fx.initial_train);
    FUME_ASSIGN_OR_RETURN(fume::ModelEval eval, removal.EvaluateWithout(ids));
    o.whatif.push_back(Oracle::WhatIf{static_cast<int64_t>(ids.size()),
                                      eval.fairness, eval.accuracy});
  }
  for (const auto& rows : s.fx.predict_batches) {
    Dataset d(s.fx.test.schema());
    for (const auto& codes : rows) FUME_RETURN_NOT_OK(d.AppendRow(codes, 0));
    o.predict.push_back(o.model.PredictAll(d));
    o.probs.push_back(o.model.PredictProbAll(d));
  }
  return o;
}

bool ArrayMatches(const JsonValue* array, const std::vector<double>& want) {
  if (array == nullptr || !array->is_array() || array->array.size() != want.size()) {
    return false;
  }
  for (size_t i = 0; i < want.size(); ++i) {
    const JsonValue& v = array->array[i];
    if (!v.is_number() || !SameBits(v.number_value, want[i])) {
      return false;
    }
  }
  return true;
}

/// Per-thread client tallies, merged after the join.
struct ClientLog {
  std::map<std::string, std::vector<double>> ms;  // by request kind
  std::vector<double> traced_whatif_ms;
  std::vector<double> plain_whatif_ms;
  std::vector<std::string> failures;
  int64_t attempted = 0;
  std::vector<int64_t> whatif_matched;
  std::vector<std::pair<int64_t, double>> whatif_seq_before;  // serve-write

  void Record(const std::string& kind, const Exchange& ex, bool checked,
              const std::string& what) {
    ++attempted;
    if (!ex.ok) {
      failures.push_back(kind + ": " + ex.error);
    } else if (!checked) {
      failures.push_back(kind + ": " + what);
    } else {
      ms[kind].push_back(ex.ms);
    }
  }
};

void Merge(std::vector<ClientLog>& logs, ClientLog* all) {
  for (ClientLog& l : logs) {
    for (auto& [kind, v] : l.ms) {
      all->ms[kind].insert(all->ms[kind].end(), v.begin(), v.end());
    }
    all->traced_whatif_ms.insert(all->traced_whatif_ms.end(),
                                 l.traced_whatif_ms.begin(),
                                 l.traced_whatif_ms.end());
    all->plain_whatif_ms.insert(all->plain_whatif_ms.end(),
                                l.plain_whatif_ms.begin(),
                                l.plain_whatif_ms.end());
    all->failures.insert(all->failures.end(), l.failures.begin(),
                         l.failures.end());
    all->attempted += l.attempted;
    all->whatif_matched.insert(all->whatif_matched.end(),
                               l.whatif_matched.begin(), l.whatif_matched.end());
    all->whatif_seq_before.insert(all->whatif_seq_before.end(),
                                  l.whatif_seq_before.begin(),
                                  l.whatif_seq_before.end());
  }
}

void Report(RunResult* out, const ClientLog& all, const std::string& kind,
            const std::string& label) {
  auto it = all.ms.find(kind);
  const std::vector<double> none;
  out->Line(label + ": " + FormatSummary(Summarize(it == all.ms.end() ? none : it->second), "ms"));
}

/// Runs the probes every traced run shares, with the serve tenant as the
/// probed tenant and the tenant-creation search as the measured search.
Status TracedServeTail(const Options& opts, ServeSetup& s, const Oracle& oracle,
                       const WriteSequence& writes, int concurrency,
                       const ClientLog& all, SpanRecorder* spans,
                       RunResult* out) {
  ProbeInputs in;
  const fume::FumeConfig& fume = s.config.engine.fume;
  for (int rep = 0; rep < 2; ++rep) {
    FUME_ASSIGN_OR_RETURN(
        SearchMeasure m,
        RunDecoratedSearch(oracle.model, s.fx.initial_train, s.fx.test, fume,
                           spans, -1 - rep, /*capture_row_sets=*/rep == 0));
    in.searches.push_back(std::move(m));
  }
  StateDir state(opts);
  in.model = &oracle.model;
  in.search_train = &s.fx.initial_train;
  in.test = &s.fx.test;
  in.fume = fume;
  in.fixture = &s.fx;
  in.tenant = s.server->FindTenant(kTenant);
  in.whatif_concurrency = concurrency;
  in.writes = &writes;
  in.state_dir = state.path();
  ExactCounts exact;
  FUME_RETURN_NOT_OK(RunLayerProbes(in, spans, out, &exact));
  out->Add("obs.trace_overhead",
           Median(all.traced_whatif_ms) - Median(all.plain_whatif_ms), "ms");
  std::string detail;
  if (!CheckExactCountsAcrossRuns(opts, exact, &detail)) out->Fail(detail);
  out->Line(detail);
  const std::string path = opts.out_dir + "/spans-" + opts.workload + "-seed" +
                           std::to_string(opts.seed) + ".json";
  out->Line(spans->WriteJson(path) ? "spans written to " + path
                                   : "could not write " + path);
  return Status::OK();
}

void FinishClientCounts(const ClientLog& all, RunResult* out) {
  out->attempted += all.attempted;
  for (const std::string& f : all.failures) out->Fail(f);
}

}  // namespace

Result<RunResult> RunServeRead(const Options& opts) {
  constexpr int kConnections = 3;
  RunResult out;
  std::vector<double> setup_s;
  FUME_ASSIGN_OR_RETURN(std::unique_ptr<ServeSetup> s,
                        SetUpRepeated(opts, kConnections, false, &setup_s));
  FUME_ASSIGN_OR_RETURN(const Oracle oracle, MakeOracle(*s));
  const int rotations = std::max(
      8, static_cast<int>(std::lround(opts.seconds * kNominalRotationsPerSecond)));
  SpanRecorder spans;
  SpanRecorder* recorder = opts.trace ? &spans : nullptr;

  std::vector<ClientLog> logs(kConnections);
  std::atomic<int> ready{0};
  const double cpu0 = ProcessCpuMs();
  const int64_t wall0 = NowNs();
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      ClientLog& log = logs[static_cast<size_t>(c)];
      fume::util::Socket& sock = s->conns[static_cast<size_t>(c)];
      ready.fetch_add(1);
      while (ready.load() < kConnections) std::this_thread::yield();
      int64_t next_id = static_cast<int64_t>(c) << 32;
      for (int r = 0; r < rotations; ++r) {
        for (int slot = 0; slot < 4; ++slot) {
          const int64_t id = next_id++;
          // Spans on every other rotation: the traced and untraced halves
          // give the trace overhead.
          const bool traced = recorder != nullptr && r % 2 == 1;
          ScopedSpan span(traced ? recorder : nullptr,
                          slot == 1 ? "client.predict"
                          : slot == 3 ? "client.explain"
                                      : "client.whatif",
                          0, id);
          if (slot == 0 || slot == 2) {
            const size_t k = static_cast<size_t>(c * 2 * rotations + 2 * r + slot / 2) %
                             s->fx.whatif_order.size();
            const int p = s->fx.whatif_order[k];
            const Exchange ex = Call(
                sock, sv::EncodeWhatIfRequest(id, kTenant,
                                              s->fx.predicates[static_cast<size_t>(p)]));
            const Oracle::WhatIf& want = oracle.whatif[static_cast<size_t>(p)];
            const bool match =
                ex.ok &&
                static_cast<int64_t>(ex.json.NumberOr("rows_matched", -1)) == want.matched &&
                SameBits(ex.json.NumberOr("after_fairness", 0), want.fairness) &&
                SameBits(ex.json.NumberOr("after_accuracy", 0), want.accuracy) &&
                SameBits(ex.json.NumberOr("before_fairness", 0), oracle.metric);
            log.Record("whatif", ex, match, "answer differs from offline unlearning");
            if (ex.ok) {
              log.whatif_matched.push_back(want.matched);
              (traced ? log.traced_whatif_ms : log.plain_whatif_ms).push_back(ex.ms);
            }
          } else if (slot == 1) {
            const int b = s->fx.predict_order[static_cast<size_t>(c * rotations + r) %
                                              s->fx.predict_order.size()];
            const Exchange ex = Call(
                sock, sv::EncodePredictRequest(
                          id, kTenant, s->fx.predict_batches[static_cast<size_t>(b)]));
            std::vector<double> want_preds;
            for (const int v : oracle.predict[static_cast<size_t>(b)]) {
              want_preds.push_back(v);
            }
            const bool match =
                ex.ok && ArrayMatches(ex.json.Find("predictions"), want_preds) &&
                ArrayMatches(ex.json.Find("probs"), oracle.probs[static_cast<size_t>(b)]);
            log.Record("predict", ex, match, "predictions differ from PredictAll");
          } else {
            const Exchange ex = Call(sock, sv::EncodeExplainRequest(id, kTenant));
            const bool match = ex.ok && WithoutId(ex.raw) == s->explain_reference &&
                               !ex.json.BoolOr("fair", true);
            log.Record("explain", ex, match, "explanation changed");
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double wall_s = NsToMs(NowNs() - wall0) / 1e3;
  const double cpu_ms = ProcessCpuMs() - cpu0;
  ClientLog all;
  Merge(logs, &all);
  FinishClientCounts(all, &out);

  const double requests = std::max<double>(1.0, static_cast<double>(all.attempted));
  int64_t arena = 0;
  for (const int64_t m : all.whatif_matched) {
    arena += m >= static_cast<int64_t>(
                      fume::UnlearnRemovalMethod::kArenaFullRescoreMinBatch);
  }
  Report(&out, all, "whatif", "whatif_p50_ms");
  Report(&out, all, "predict", "predict_p50_ms");
  Report(&out, all, "explain", "explain_p50_ms");
  out.Line("reqs_per_s: " + Fmt(requests / wall_s, 2) + " 1/s (" +
           std::to_string(all.attempted) + " requests in " + Fmt(wall_s, 2) + " s, " +
           std::to_string(kConnections) + " connections closed loop)");
  out.Line("cpu_ms_per_req: " + Fmt(cpu_ms / requests, 3) + " ms");
  out.Line("whatif rows matched >= 16: " + std::to_string(arena) + " of " +
           std::to_string(all.whatif_matched.size()));

  if (opts.trace) {
    const WriteSequence writes = MakeWriteSequence(
        DeriveSeed(opts.seed, 3), s->fx.initial_train.num_rows(),
        s->fx.pool.num_rows(), kProbeWrites);
    FUME_RETURN_NOT_OK(
        TracedServeTail(opts, *s, oracle, writes, kConnections, all, &spans, &out));
    return out;
  }
  const auto whatif = all.ms.find("whatif");
  out.Add("setup_s", Median(setup_s), "s");
  out.Add("latency_p50_ms",
          whatif == all.ms.end() ? 0.0 : Median(whatif->second), "ms");
  out.Add("throughput_per_s", requests / wall_s, "1/s");
  out.Add("cpu_ms_per_op", cpu_ms / requests, "ms");
  out.Add("peak_rss_mb", PeakRssMb(), "MB");
  return out;
}

Result<RunResult> RunServeWrite(const Options& opts) {
  RunResult out;
  std::vector<double> setup_s;
  FUME_ASSIGN_OR_RETURN(std::unique_ptr<ServeSetup> s,
                        SetUpRepeated(opts, 2, true, &setup_s));
  FUME_ASSIGN_OR_RETURN(const Oracle oracle, MakeOracle(*s));
  const int num_writes =
      100 * std::max(2, static_cast<int>(std::lround(
                            opts.seconds * kNominalWritesPerSecond / 100.0)));
  const WriteSequence writes =
      MakeWriteSequence(DeriveSeed(opts.seed, 3), s->fx.initial_train.num_rows(),
                        s->fx.pool.num_rows(), num_writes);
  SpanRecorder spans;
  SpanRecorder* recorder = opts.trace ? &spans : nullptr;

  const std::vector<std::string> kWriterCounters = {"serve.snapshot.published",
                                                    "stream.search.triggered"};
  const std::vector<int64_t> counters_before = ReadCounters(kWriterCounters);
  std::vector<ClientLog> logs(2);
  std::map<int64_t, double> metric_at_seq;  // written by the writer only
  std::atomic<bool> writer_done{false};
  std::atomic<int> ready{0};
  double writer_wall_s = 0.0;
  double last_write_metric = oracle.metric;
  const double cpu0 = ProcessCpuMs();
  std::thread writer([&] {
    ClientLog& log = logs[0];
    fume::util::Socket& sock = s->conns[0];
    ready.fetch_add(1);
    while (ready.load() < 2) std::this_thread::yield();
    const int64_t w0 = NowNs();
    int64_t id = 0;
    for (const WriteRequest& w : writes.requests) {
      ++id;
      ScopedSpan span(recorder, "client.write", 0, id);
      if (w.kind == WriteRequest::Kind::kCheckpoint) {
        const Exchange ex = Call(sock, sv::EncodeCheckpointRequest(id, kTenant));
        log.Record("checkpoint", ex, true, "");
        continue;
      }
      const Exchange ex = Call(
          sock, sv::EncodeStreamOpRequest(id, kTenant, ToStreamOp(w, s->fx.pool)));
      const bool match =
          ex.ok && static_cast<int64_t>(ex.json.NumberOr("seq", -2)) == w.seq &&
          static_cast<int64_t>(ex.json.NumberOr("rows_live", -1)) == w.live_after &&
          !ex.json.BoolOr("searched", true);
      log.Record("stream_op", ex, match, "op outcome differs from the sequence");
      if (ex.ok) {
        last_write_metric = ex.json.NumberOr("metric", 0);
        metric_at_seq[w.seq] = last_write_metric;
      }
    }
    writer_wall_s = NsToMs(NowNs() - w0) / 1e3;
    writer_done.store(true);
  });
  std::thread reader([&] {
    ClientLog& log = logs[1];
    fume::util::Socket& sock = s->conns[1];
    ready.fetch_add(1);
    while (ready.load() < 2) std::this_thread::yield();
    int64_t id = int64_t{1} << 32;
    for (size_t k = 0; !writer_done.load(); ++k) {
      ++id;
      const bool traced = recorder != nullptr && id % 2 == 1;
      ScopedSpan span(traced ? recorder : nullptr, "client.whatif", 0, id);
      const int p = s->fx.whatif_order[k % s->fx.whatif_order.size()];
      const Exchange ex = Call(
          sock, sv::EncodeWhatIfRequest(id, kTenant,
                                        s->fx.predicates[static_cast<size_t>(p)]));
      log.Record("whatif", ex, true, "");
      if (ex.ok) {
        (traced ? log.traced_whatif_ms : log.plain_whatif_ms).push_back(ex.ms);
        log.whatif_seq_before.emplace_back(
            static_cast<int64_t>(ex.json.NumberOr("seq", -2)),
            ex.json.NumberOr("before_fairness", 0));
      }
    }
  });
  writer.join();
  reader.join();
  const double cpu_ms = ProcessCpuMs() - cpu0;
  const std::vector<int64_t> counters_after = ReadCounters(kWriterCounters);
  ClientLog all;
  Merge(logs, &all);
  FinishClientCounts(all, &out);

  // Reads run off published snapshots: each whatif's "before" fairness is
  // the metric the writer saw at the snapshot's sequence number.
  int64_t stale = 0;
  for (const auto& [seq, before] : all.whatif_seq_before) {
    const auto it = metric_at_seq.find(seq);
    const double want = seq < 0 ? oracle.metric
                                : (it == metric_at_seq.end() ? NAN : it->second);
    if (!SameBits(before, want)) ++stale;
  }
  if (stale > 0) {
    out.Fail(std::to_string(stale) +
             " whatifs answered from a snapshot the writer never saw");
  }
  if (counters_after[0] - counters_before[0] !=
      static_cast<int64_t>(writes.requests.size())) {
    out.Fail("snapshot publications differ from write requests");
  }
  if (counters_after[1] != counters_before[1]) {
    out.Fail("a write re-ran the search with drift pinned");
  }

  // After the last op: the served metric equals a cold retrain on the
  // surviving rows, and the final checkpoint restores to that metric.
  const fume::FumeConfig& fume = s->config.engine.fume;
  out.attempted += 2;
  FUME_ASSIGN_OR_RETURN(
      fume::DareForest cold,
      fume::DareForest::Train(SurvivingRows(writes, s->fx.initial_train, s->fx.pool),
                              s->config.engine.forest));
  const double cold_metric =
      fume::ComputeFairness(cold, s->fx.test, fume.group, fume.metric);
  sv::Tenant* tenant = s->server->FindTenant(kTenant);
  if (!SameBits(tenant->snapshot()->metric, cold_metric) ||
      !SameBits(last_write_metric, cold_metric)) {
    out.Fail("served metric differs from a cold retrain on the surviving rows");
  }
  auto restored = fume::stream::StreamEngine::RestoreFromFile(
      s->config.engine.checkpoint_path, tenant->schema(), s->fx.test,
      s->config.engine);
  if (!restored.ok() || !SameBits(restored->current_metric(), cold_metric)) {
    out.Fail("final checkpoint does not restore to the cold-retrain metric");
  }

  const double writes_n = static_cast<double>(writes.requests.size());
  const double requests = std::max<double>(1.0, static_cast<double>(all.attempted));
  Report(&out, all, "stream_op", "write_p50_ms");
  Report(&out, all, "checkpoint", "checkpoint_p50_ms");
  Report(&out, all, "whatif", "whatif_p50_ms");
  out.Line("writes_per_s: " + Fmt(writes_n / writer_wall_s, 2) + " 1/s (" +
           std::to_string(writes.requests.size()) + " write requests in " +
           Fmt(writer_wall_s, 2) + " s)");
  out.Line("reader whatifs: " + std::to_string(all.ms["whatif"].size()) +
           " (varies run to run: the reader loops until the writer ends)");
  out.Line("cpu_ms_per_req: " + Fmt(cpu_ms / requests, 3) + " ms");

  if (opts.trace) {
    FUME_RETURN_NOT_OK(TracedServeTail(opts, *s, oracle, writes, 1, all, &spans, &out));
    return out;
  }
  out.Add("setup_s", Median(setup_s), "s");
  out.Add("latency_p50_ms", Median(all.ms["whatif"]), "ms");
  out.Add("throughput_per_s", writes_n / writer_wall_s, "1/s");
  out.Add("cpu_ms_per_op", cpu_ms / requests, "ms");
  out.Add("peak_rss_mb", PeakRssMb(), "MB");
  return out;
}

}  // namespace perfbench
