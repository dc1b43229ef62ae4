// Serving throughput/latency: closed-loop clients over loopback TCP against
// an in-process fume_serve Server, comparing batch-1 whatif serving (window
// 0, max_batch 1 — every request is its own fused ScoreWithout pass) against
// grouped serving (the WhatIfBatcher coalesces concurrent requests into one
// snapshot + scratch pass, deduplicates identical predicates, and scores
// the group across the tenant's whatif threads). The acceptance bar for the
// serve subsystem is grouped throughput strictly above batch-1 at >= 8
// concurrent clients; both modes serve the same tenant state, so every
// whatif answer must be identical across modes (the whatif_identical
// attestation) — batching may never change an answer.
//
// Artifacts: bench_artifacts/serve_latency.csv (per-cell latency summary),
// bench_artifacts/serve_latency.metrics.json (counter snapshot, incl. the
// serve.batch.* grouping behaviour) and bench_artifacts/BENCH_serve.json
// (per-endpoint throughput cells with p50/p99 latency plus the
// serve.batch.size histogram, consumed by bench_check). --smoke shrinks
// the substrate and client counts to a crash tripwire and drops the
// speedup gate (shared-CI timing is noise).

#include <algorithm>
#include <atomic>
#include <cmath>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "obs/metrics.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "stream/engine.h"
#include "util/json.h"
#include "util/socket.h"

namespace {

using namespace fume;
using namespace fume::bench;
using serve::Server;
using serve::ServerConfig;
using serve::TenantConfig;
using util::Socket;

constexpr const char* kTenant = "credit";

/// Sends one request line, reads one response line. Aborts the bench on
/// transport failure (a dead server invalidates every measurement).
std::string Exchange(Socket& sock, const std::string& request) {
  FUME_ABORT_NOT_OK(sock.SendAll(request));
  std::string line;
  auto rr = sock.ReadLine(&line, 60000);
  FUME_ABORT_NOT_OK(rr.status());
  if (rr.ValueOrDie() != Socket::ReadResult::kLine) {
    std::cerr << "server closed mid-exchange\n";
    std::abort();
  }
  return line;
}

/// Canonical view of one whatif answer, for cross-mode identity checks.
std::string WhatIfFingerprint(const util::JsonValue& response) {
  std::string fp;
  for (const char* key : {"rows_matched", "before_fairness", "after_fairness",
                          "before_accuracy", "after_accuracy",
                          "parity_reduction"}) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g;", response.NumberOr(key, -1.0));
    fp += buf;
  }
  return fp;
}

struct LatencyStats {
  double per_sec = 0.0;
  int64_t p50_us = 0;
  int64_t p99_us = 0;
  int64_t requests = 0;
};

LatencyStats Summarize(std::vector<int64_t> latencies_us, double seconds) {
  LatencyStats s;
  s.requests = static_cast<int64_t>(latencies_us.size());
  if (latencies_us.empty() || seconds <= 0.0) return s;
  std::sort(latencies_us.begin(), latencies_us.end());
  s.per_sec = static_cast<double>(s.requests) / seconds;
  s.p50_us = latencies_us[latencies_us.size() / 2];
  s.p99_us = latencies_us[(latencies_us.size() * 99) / 100];
  return s;
}

/// One closed-loop run: `clients` threads, each issuing `per_client`
/// whatif requests round-robin over `predicates`, against a fresh server
/// in the given batch mode. Returns client-observed latency stats and
/// fills `answers` (predicate index -> fingerprint) for the identity check.
LatencyStats RunWhatIfCell(const Dataset& train, const Dataset& test,
                           const TenantConfig& tenant_config, int clients,
                           int per_client,
                           const std::vector<Predicate>& predicates,
                           std::map<size_t, std::string>* answers) {
  Server server{ServerConfig{}};
  FUME_ABORT_NOT_OK(
      server.RegisterTenant(kTenant, train, test, tenant_config));
  FUME_ABORT_NOT_OK(server.Start());

  std::vector<std::vector<int64_t>> latencies(
      static_cast<size_t>(clients));
  std::atomic<bool> identical{true};
  std::mutex answers_mu;
  Stopwatch wall;
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      auto sock = Socket::Connect("127.0.0.1", server.port());
      FUME_ABORT_NOT_OK(sock.status());
      for (int r = 0; r < per_client; ++r) {
        const size_t p =
            (static_cast<size_t>(c) + static_cast<size_t>(r)) %
            predicates.size();
        const std::string request = serve::EncodeWhatIfRequest(
            c * per_client + r, kTenant, predicates[p]);
        Stopwatch watch;
        const std::string response = Exchange(*sock, request);
        latencies[static_cast<size_t>(c)].push_back(
            static_cast<int64_t>(watch.ElapsedSeconds() * 1e6));
        auto parsed = util::ParseJson(response);
        FUME_ABORT_NOT_OK(parsed.status());
        if (!parsed->BoolOr("ok", false)) {
          std::cerr << "whatif failed: " << response;
          std::abort();
        }
        const std::string fp = WhatIfFingerprint(*parsed);
        std::lock_guard<std::mutex> lk(answers_mu);
        auto it = answers->find(p);
        if (it == answers->end()) {
          answers->emplace(p, fp);
        } else if (it->second != fp) {
          identical.store(false);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double seconds = wall.ElapsedSeconds();
  server.Shutdown();
  if (!identical.load()) {
    // Cross-mode (or cross-request) divergence: the attestation in the
    // artifact will be false and bench_check --smoke fails the run.
    std::cerr << "whatif answers diverged across batching modes\n";
  }
  std::vector<int64_t> merged;
  for (const auto& v : latencies) {
    merged.insert(merged.end(), v.begin(), v.end());
  }
  LatencyStats stats = Summarize(std::move(merged), seconds);
  if (!identical.load()) stats.requests = -1;  // poison for the caller
  return stats;
}

/// Single-client latency profile of one read endpoint.
LatencyStats RunReadCell(Server& server, const std::string& endpoint,
                         const Dataset& test, int requests) {
  auto sock = Socket::Connect("127.0.0.1", server.port());
  FUME_ABORT_NOT_OK(sock.status());
  // One mid-sized predict batch reused for every request.
  std::vector<std::vector<int32_t>> rows;
  for (int64_t r = 0; r < std::min<int64_t>(32, test.num_rows()); ++r) {
    std::vector<int32_t> codes;
    for (int a = 0; a < test.schema().num_attributes(); ++a) {
      codes.push_back(test.Code(r, a));
    }
    rows.push_back(std::move(codes));
  }
  std::vector<int64_t> latencies;
  Stopwatch wall;
  for (int r = 0; r < requests; ++r) {
    const std::string request =
        endpoint == "predict"
            ? serve::EncodePredictRequest(r, kTenant, rows)
            : serve::EncodeExplainRequest(r, kTenant);
    Stopwatch watch;
    const std::string response = Exchange(*sock, request);
    latencies.push_back(static_cast<int64_t>(watch.ElapsedSeconds() * 1e6));
    if (response.find("\"ok\":true") == std::string::npos) {
      std::cerr << endpoint << " failed: " << response;
      std::abort();
    }
  }
  return Summarize(std::move(latencies), wall.ElapsedSeconds());
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = SmokeMode(argc, argv);
  const bool full = !smoke && FullMode(argc, argv);
  PrintBanner("Serving throughput: grouped whatif batching vs batch-1",
              "serve subsystem; see docs/serving.md");

  synth::SynthOptions opts;
  opts.num_rows = smoke ? 500 : full ? 4000 : 2000;
  opts.seed = 4;
  auto bundle = synth::MakeGermanCredit(opts);
  FUME_ABORT_NOT_OK(bundle.status());
  SplitOptions split_opts;
  split_opts.test_fraction = 0.3;
  split_opts.seed = 2;
  auto split = SplitTrainTest(bundle->data, split_opts);
  FUME_ABORT_NOT_OK(split.status());

  TenantConfig tenant;
  tenant.engine.forest = BenchForestConfig(bundle->name);
  tenant.engine.fume = BenchFumeConfig(bundle->group);
  tenant.engine.fume.max_literals = 1;
  tenant.whatif_threads = 4;

  // Distinct single-literal candidates; concurrent clients also collide on
  // them, exercising the dedup path the batcher is built around.
  std::vector<Predicate> predicates;
  for (int attr = 0; attr < 3; ++attr) {
    for (int32_t value = 0; value < 2; ++value) {
      predicates.push_back(
          Predicate::Of(Literal{attr, LiteralOp::kEq, value}));
    }
  }

  const std::vector<int> client_counts =
      smoke ? std::vector<int>{1, 2} : std::vector<int>{1, 8};
  const int per_client = smoke ? 6 : full ? 60 : 30;
  const int read_requests = smoke ? 10 : full ? 200 : 100;

  // mode name -> batch knobs. batch-1 is the same code path degenerated.
  serve::BatchConfig batch1;
  batch1.window_us = 0;
  batch1.max_batch = 1;
  serve::BatchConfig grouped;
  grouped.window_us = 500;
  grouped.max_batch = 16;

  struct Cell {
    std::string endpoint;
    std::string mode;
    int clients = 0;
    LatencyStats stats;
  };
  std::vector<Cell> cells;
  std::map<size_t, std::string> answers;  // shared across every whatif cell
  bool whatif_identical = true;

  TablePrinter table(
      {"Endpoint", "Mode", "Clients", "Req/s", "p50 (us)", "p99 (us)"});
  for (const auto& [mode_name, batch] :
       std::vector<std::pair<std::string, serve::BatchConfig>>{
           {"batch1", batch1}, {"batched", grouped}}) {
    for (const int clients : client_counts) {
      TenantConfig config = tenant;
      config.batch = batch;
      LatencyStats stats =
          RunWhatIfCell(split->train, split->test, config, clients,
                        per_client, predicates, &answers);
      if (stats.requests < 0) {
        whatif_identical = false;
        stats.requests = static_cast<int64_t>(clients) * per_client;
      }
      cells.push_back({"whatif", mode_name, clients, stats});
      table.AddRow({"whatif", mode_name, std::to_string(clients),
                    FormatDouble(stats.per_sec, 1),
                    std::to_string(stats.p50_us),
                    std::to_string(stats.p99_us)});
    }
  }

  // Read-endpoint latency profile off one long-lived server.
  {
    Server server{ServerConfig{}};
    TenantConfig config = tenant;
    config.batch = grouped;
    FUME_ABORT_NOT_OK(
        server.RegisterTenant(kTenant, split->train, split->test, config));
    FUME_ABORT_NOT_OK(server.Start());
    for (const char* endpoint : {"predict", "explain"}) {
      LatencyStats stats =
          RunReadCell(server, endpoint, split->test, read_requests);
      cells.push_back({endpoint, "single", 1, stats});
      table.AddRow({endpoint, "single", "1", FormatDouble(stats.per_sec, 1),
                    std::to_string(stats.p50_us),
                    std::to_string(stats.p99_us)});
    }
    server.Shutdown();
  }
  table.Print(std::cout);

  // The gate: grouped whatif throughput strictly above batch-1 at the
  // highest client count.
  const int max_clients = client_counts.back();
  double batch1_rate = 0.0;
  double grouped_rate = 0.0;
  for (const Cell& c : cells) {
    if (c.endpoint != "whatif" || c.clients != max_clients) continue;
    (c.mode == "batch1" ? batch1_rate : grouped_rate) = c.stats.per_sec;
  }
  std::cout << "\nwhatif @" << max_clients << " clients: batch-1 "
            << FormatDouble(batch1_rate, 1) << "/s vs grouped "
            << FormatDouble(grouped_rate, 1) << "/s ("
            << FormatDouble(batch1_rate > 0.0 ? grouped_rate / batch1_rate
                                              : 0.0,
                            2)
            << "x; target > 1x)\n";

  const auto metrics = obs::MetricsRegistry::Global().Snapshot();
  obs::HistogramSnapshot batch_size;
  for (const auto& [name, hist] : metrics.histograms) {
    if (name == "serve.batch.size") batch_size = hist;
  }
  std::cout << "serve.batch.size: " << batch_size.count << " batches, mean "
            << FormatDouble(batch_size.Mean(), 2) << ", p99 <= "
            << batch_size.QuantileUpperBound(0.99) << "\n";

  std::vector<std::vector<std::string>> csv_rows;
  for (const Cell& c : cells) {
    csv_rows.push_back({c.endpoint, c.mode, std::to_string(c.clients),
                        FormatDouble(c.stats.per_sec, 2),
                        std::to_string(c.stats.p50_us),
                        std::to_string(c.stats.p99_us)});
  }
  WriteArtifact("serve_latency",
                {"endpoint", "mode", "clients", "per_sec", "p50_us", "p99_us"},
                csv_rows);

  bool finite = true;
  for (const Cell& c : cells) {
    if (!std::isfinite(c.stats.per_sec) || c.stats.per_sec <= 0.0) {
      finite = false;
    }
  }

  std::ofstream json("bench_artifacts/BENCH_serve.json");
  if (json) {
    json.precision(6);
    json << "{\n  \"bench\": \"serve\",\n"
         << "  \"machine\": \"" << MachineDescription() << "\",\n"
         << "  \"substrate\": \"" << bundle->name << " (" << opts.num_rows
         << " rows)\",\n"
         << "  \"whatif_identical\": "
         << (whatif_identical ? "true" : "false") << ",\n"
         << "  \"timings_finite\": " << (finite ? "true" : "false") << ",\n"
         << "  \"batch_size_histogram\": {\"count\": " << batch_size.count
         << ", \"mean\": " << batch_size.Mean()
         << ", \"p50_le\": " << batch_size.QuantileUpperBound(0.5)
         << ", \"p99_le\": " << batch_size.QuantileUpperBound(0.99)
         << "},\n"
         << "  \"cells\": [\n";
    for (size_t i = 0; i < cells.size(); ++i) {
      const Cell& c = cells[i];
      json << "    {\"endpoint\": \"" << c.endpoint << "\", \"mode\": \""
           << c.mode << "\", \"clients\": \"" << c.clients
           << "\", \"requests\": " << c.stats.requests
           << ", \"requests_per_sec\": " << c.stats.per_sec
           << ", \"p50_us\": " << c.stats.p50_us
           << ", \"p99_us\": " << c.stats.p99_us << "}"
           << (i + 1 < cells.size() ? ",\n" : "\n");
    }
    json << "  ]\n}\n";
    std::cout << "wrote bench_artifacts/BENCH_serve.json\n";
  } else {
    std::cout << "could not write bench_artifacts/BENCH_serve.json\n";
  }

  if (!whatif_identical || !finite) return 1;
  // Smoke asserts survival, identity and finiteness only; the batching
  // speedup is a perf measurement that needs real concurrency.
  if (smoke) return 0;
  return grouped_rate > batch1_rate ? 0 : 1;
}
