// fume_client: request / replay client for fume_serve (docs/serving.md).
//
//   # one-off requests
//   fume_client --port 7733 --op health
//   fume_client --port 7733 --tenant default --whatif "0:eq:1"
//   fume_client --port 7733 --tenant default --predict "0,1,2,0,1,0,1"
//   fume_client --port 7733 --tenant default --stream "C 101"
//
//   # replay a JSONL request file (one request per line) at 50 req/s
//   fume_client --port-file /tmp/port --replay requests.jsonl --rate 50
//
//   # wrap an op-log file as stream_op requests
//   fume_client --port 7733 --tenant default --oplog /tmp/log.ops
//
//   # canned end-to-end smoke: health, metrics, explain, predict, whatif,
//   # stream checkpoint — exits non-zero unless every response is ok
//   fume_client --port-file /tmp/port --smoke
//
// Exit status: 0 when every response had "ok":true, 1 otherwise.

#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cli_common.h"
#include "serve/protocol.h"
#include "stream/op_log.h"
#include "util/json.h"
#include "util/socket.h"
#include "util/string_util.h"

namespace {

using namespace fume;

struct CliOptions {
  std::string host = "127.0.0.1";
  int port = 0;
  std::string port_file;
  std::string tenant = "default";
  std::string op;        // health | metrics | explain | checkpoint
  std::string predict;   // "c,c,c;c,c,c" rows
  std::string whatif;    // "attr:cmp:value,attr:cmp:value"
  std::string stream;    // raw op-log line
  std::string replay;    // JSONL request file
  std::string oplog;     // op-log file to wrap as stream_op requests
  double rate = 0.0;     // replay/oplog requests per second (0 = max)
  int64_t deadline_ms = 0;
  bool smoke = false;
  bool quiet = false;
};

void PrintUsage() {
  std::cout << R"(fume_client — request/replay client for fume_serve

Connection:
  --host H              server host (default 127.0.0.1)
  --port N              server port
  --port-file FILE      read the port from FILE (fume_serve --port-file)

Single requests (pick one):
  --op NAME             health | metrics | explain | checkpoint
  --predict ROWS        rows "c,c,..;c,c,.." through the tenant's model
  --whatif PRED         score predicate "attr:cmp:value,..." (cmp: eq ne
                        lt le ge gt)
  --stream LINE         apply one op-log line (e.g. "D 7 12 40", "C 9")

Replay:
  --replay FILE         send raw JSONL request lines from FILE
  --oplog FILE          wrap op-log lines from FILE as stream_op requests
  --rate R              pace replay at R requests/second (default: max)

Common:
  --tenant NAME         tenant for predict/whatif/stream/explain/checkpoint
                        (default "default")
  --deadline-ms N       attach a deadline to whatif requests
  --smoke               canned health/metrics/explain/predict/whatif/
                        stream-checkpoint sequence; non-zero exit on any
                        failure
  --quiet               suppress per-response output (summary only)
  --help, -h            this text
)";
}

/// Sends one request line, reads one response line, prints it. Returns
/// false on transport failure or a response without "ok":true.
bool Exchange(util::Socket& sock, const std::string& request,
              std::string* response, bool quiet) {
  if (!sock.SendAll(request).ok()) {
    std::cerr << "send failed\n";
    return false;
  }
  auto rr = sock.ReadLine(response, 30000);
  if (!rr.ok() || *rr != util::Socket::ReadResult::kLine) {
    std::cerr << "no response (connection closed or timeout)\n";
    return false;
  }
  if (!quiet) std::cout << *response << "\n";
  return response->find("\"ok\":true") != std::string::npos;
}

// Both parsers split with Split, which keeps empty fields, so a stray
// delimiter or a fourth literal field is malformed rather than dropped.
bool ParsePredictRows(const std::string& spec,
                      std::vector<std::vector<int32_t>>* rows) {
  for (const std::string& row : Split(spec, ';')) {
    std::vector<int32_t> codes;
    for (const std::string& code : Split(row, ',')) {
      int value = 0;
      if (!ParseInt(code, &value)) return false;
      codes.push_back(value);
    }
    rows->push_back(std::move(codes));
  }
  return true;
}

bool ParseWhatIfPredicate(const std::string& spec, Predicate* predicate) {
  std::vector<Literal> literals;
  for (const std::string& lit : Split(spec, ',')) {
    const std::vector<std::string> parts = Split(lit, ':');
    Literal l;
    if (parts.size() != 3 || !ParseInt(parts[0], &l.attr) || l.attr < 0 ||
        !ParseInt(parts[2], &l.value)) {
      return false;
    }
    auto op = serve::LiteralOpFromWireName(parts[1]);
    if (!op.ok()) return false;
    l.op = *op;
    literals.push_back(l);
  }
  *predicate = Predicate(std::move(literals));
  return true;
}

/// The canned smoke sequence; exercises every read endpoint plus one
/// checkpoint stream op, deriving row width and next seq from health.
int RunSmoke(util::Socket& sock, const CliOptions& opts) {
  std::string response;
  int64_t id = 1;
  if (!Exchange(sock, serve::EncodeHealthRequest(id++), &response,
                opts.quiet)) {
    return 1;
  }
  auto health = util::ParseJson(response);
  if (!health.ok()) return 1;
  const util::JsonValue* tenants = health->Find("tenants");
  if (tenants == nullptr || !tenants->is_array() || tenants->array.empty()) {
    std::cerr << "smoke: no tenants\n";
    return 1;
  }
  // Target the requested tenant when present, else the first registered.
  const util::JsonValue* tenant = &tenants->array[0];
  for (const util::JsonValue& t : tenants->array) {
    if (t.StringOr("name", "") == opts.tenant) tenant = &t;
  }
  const std::string name = tenant->StringOr("name", "");
  const int attrs = static_cast<int>(tenant->NumberOr("attrs", 0));
  const auto seq = static_cast<int64_t>(tenant->NumberOr("seq", -1));
  if (name.empty() || attrs <= 0) {
    std::cerr << "smoke: malformed health response\n";
    return 1;
  }
  bool ok = Exchange(sock, serve::EncodeMetricsRequest(id++), &response,
                     opts.quiet);
  ok = Exchange(sock, serve::EncodeExplainRequest(id++, name), &response,
                opts.quiet) &&
       ok;
  // Code 0 is valid for every categorical attribute.
  const std::vector<std::vector<int32_t>> rows(
      1, std::vector<int32_t>(static_cast<size_t>(attrs), 0));
  ok = Exchange(sock, serve::EncodePredictRequest(id++, name, rows),
                &response, opts.quiet) &&
       ok;
  Predicate predicate({Literal{0, LiteralOp::kEq, 0}});
  ok = Exchange(sock, serve::EncodeWhatIfRequest(id++, name, predicate),
                &response, opts.quiet) &&
       ok;
  stream::StreamOp checkpoint;
  checkpoint.seq = seq + 1;
  checkpoint.kind = stream::OpKind::kCheckpoint;
  ok = Exchange(sock, serve::EncodeStreamOpRequest(id++, name, checkpoint),
                &response, opts.quiet) &&
       ok;
  std::cout << (ok ? "smoke OK" : "smoke FAILED") << "\n";
  return ok ? 0 : 1;
}

/// Replays request lines at the target rate; returns failures.
int Replay(util::Socket& sock, const std::vector<std::string>& requests,
           const CliOptions& opts) {
  using Clock = std::chrono::steady_clock;
  const auto start = Clock::now();
  int failures = 0;
  std::string response;
  for (size_t i = 0; i < requests.size(); ++i) {
    if (opts.rate > 0.0) {
      const auto due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(i / opts.rate));
      std::this_thread::sleep_until(due);
    }
    if (!Exchange(sock, requests[i] + "\n", &response, opts.quiet)) {
      ++failures;
    }
  }
  const double seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  std::cout << "replayed " << requests.size() << " requests in "
            << seconds << "s (" << failures << " failed)\n";
  return failures == 0 ? 0 : 1;
}

int Run(const CliOptions& opts) {
  int port = opts.port;
  if (!opts.port_file.empty()) {
    std::ifstream pf(opts.port_file);
    if (!(pf >> port)) {
      std::cerr << "cannot read port from " << opts.port_file << "\n";
      return 1;
    }
  }
  if (port <= 0) {
    std::cerr << "need --port or --port-file\n";
    return 1;
  }
  auto connected = util::Socket::Connect(opts.host, port);
  if (!connected.ok()) return cli::Fail(connected.status());
  util::Socket sock = std::move(connected).ValueOrDie();

  if (opts.smoke) return RunSmoke(sock, opts);

  if (!opts.replay.empty()) {
    std::ifstream in(opts.replay);
    if (!in) {
      std::cerr << "cannot open " << opts.replay << "\n";
      return 1;
    }
    std::vector<std::string> requests;
    std::string line;
    while (std::getline(in, line)) {
      if (!line.empty()) requests.push_back(line);
    }
    return Replay(sock, requests, opts);
  }

  if (!opts.oplog.empty()) {
    auto ops = stream::ReadOpLogFile(opts.oplog);
    if (!ops.ok()) return cli::Fail(ops.status());
    std::vector<std::string> requests;
    int64_t id = 1;
    for (const stream::StreamOp& op : *ops) {
      std::string line = serve::EncodeStreamOpRequest(id++, opts.tenant, op);
      line.pop_back();  // Replay adds the newline
      requests.push_back(std::move(line));
    }
    return Replay(sock, requests, opts);
  }

  std::string request;
  if (!opts.predict.empty()) {
    std::vector<std::vector<int32_t>> rows;
    if (!ParsePredictRows(opts.predict, &rows)) {
      std::cerr << "malformed --predict rows\n";
      return 1;
    }
    request = serve::EncodePredictRequest(1, opts.tenant, rows);
  } else if (!opts.whatif.empty()) {
    Predicate predicate;
    if (!ParseWhatIfPredicate(opts.whatif, &predicate)) {
      std::cerr << "malformed --whatif predicate\n";
      return 1;
    }
    request = serve::EncodeWhatIfRequest(1, opts.tenant, predicate,
                                         opts.deadline_ms);
  } else if (!opts.stream.empty()) {
    auto op = stream::ParseOp(opts.stream);
    if (!op.ok()) return cli::Fail(op.status());
    request = serve::EncodeStreamOpRequest(1, opts.tenant, *op);
  } else if (opts.op == "health") {
    request = serve::EncodeHealthRequest(1);
  } else if (opts.op == "metrics") {
    request = serve::EncodeMetricsRequest(1);
  } else if (opts.op == "explain") {
    request = serve::EncodeExplainRequest(1, opts.tenant);
  } else if (opts.op == "checkpoint") {
    request = serve::EncodeCheckpointRequest(1, opts.tenant);
  } else {
    std::cerr << "nothing to do (see --help)\n";
    return 2;
  }
  std::string response;
  return Exchange(sock, request, &response, opts.quiet) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions opts;
  cli::FlagSet flags;
  flags.String("--host", &opts.host);
  flags.Int("--port", &opts.port);
  flags.String("--port-file", &opts.port_file);
  flags.String("--tenant", &opts.tenant);
  flags.String("--op", &opts.op);
  flags.String("--predict", &opts.predict);
  flags.String("--whatif", &opts.whatif);
  flags.String("--stream", &opts.stream);
  flags.String("--replay", &opts.replay);
  flags.String("--oplog", &opts.oplog);
  flags.Double("--rate", &opts.rate);
  flags.Int64("--deadline-ms", &opts.deadline_ms);
  flags.Bool("--smoke", &opts.smoke);
  flags.Bool("--quiet", &opts.quiet);
  if (auto exit_code = flags.Parse(argc, argv, PrintUsage)) return *exit_code;
  return Run(opts);
}
