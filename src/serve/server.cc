#include "serve/server.h"

#include <chrono>
#include <utility>

#include "obs/metrics.h"
#include "obs/query_scope.h"
#include "serve/protocol.h"
#include "util/check.h"

namespace fume::serve {

namespace {

using Clock = std::chrono::steady_clock;

/// Poll granularity for accept/read loops, so shutdown is observed quickly
/// without busy-waiting.
constexpr int kPollMs = 50;

struct EndpointMetrics {
  obs::Counter* requests;
  obs::Histogram* latency_us;
};

EndpointMetrics Endpoint(RequestOp op) {
  static EndpointMetrics health{obs::GetCounter("serve.health.requests"),
                                obs::GetHistogram("serve.health.latency_us")};
  static EndpointMetrics metrics{obs::GetCounter("serve.metrics.requests"),
                                 obs::GetHistogram("serve.metrics.latency_us")};
  static EndpointMetrics predict{obs::GetCounter("serve.predict.requests"),
                                 obs::GetHistogram("serve.predict.latency_us")};
  static EndpointMetrics explain{obs::GetCounter("serve.explain.requests"),
                                 obs::GetHistogram("serve.explain.latency_us")};
  static EndpointMetrics whatif{obs::GetCounter("serve.whatif.requests"),
                                obs::GetHistogram("serve.whatif.latency_us")};
  static EndpointMetrics stream{
      obs::GetCounter("serve.stream_op.requests"),
      obs::GetHistogram("serve.stream_op.latency_us")};
  static EndpointMetrics checkpoint{
      obs::GetCounter("serve.checkpoint.requests"),
      obs::GetHistogram("serve.checkpoint.latency_us")};
  switch (op) {
    case RequestOp::kHealth: return health;
    case RequestOp::kMetrics: return metrics;
    case RequestOp::kPredict: return predict;
    case RequestOp::kExplain: return explain;
    case RequestOp::kWhatIf: return whatif;
    case RequestOp::kStreamOp: return stream;
    case RequestOp::kCheckpoint: return checkpoint;
  }
  return health;
}

void AppendField(std::string* out, const char* key, int64_t v) {
  out->push_back(',');
  out->push_back('"');
  out->append(key);
  out->append("\":");
  out->append(std::to_string(v));
}

void AppendField(std::string* out, const char* key, double v) {
  out->push_back(',');
  out->push_back('"');
  out->append(key);
  out->append("\":");
  AppendJsonDouble(out, v);
}

void AppendField(std::string* out, const char* key, bool v) {
  out->push_back(',');
  out->push_back('"');
  out->append(key);
  out->append("\":");
  out->append(v ? "true" : "false");
}

void AppendField(std::string* out, const char* key, const std::string& v) {
  out->push_back(',');
  out->push_back('"');
  out->append(key);
  out->append("\":");
  AppendJsonString(out, v);
}

std::string OkHead(int64_t id) {
  std::string out = "{\"id\":";
  out.append(std::to_string(id));
  out.append(",\"ok\":true");
  return out;
}

std::string StatusError(int64_t id, const Status& status) {
  const char* code = "internal";
  switch (status.code()) {
    case StatusCode::kInvalidArgument: code = "bad_request"; break;
    case StatusCode::kKeyError: code = "unknown_tenant"; break;
    case StatusCode::kIOError: code = "io_error"; break;
    default: break;
  }
  return ErrorResponse(id, code, status.message());
}

}  // namespace

Server::Server(ServerConfig config) : config_(std::move(config)) {}

Server::~Server() { Shutdown(); }

Status Server::RegisterTenant(std::string name, const Dataset& initial_train,
                              Dataset test, TenantConfig config) {
  if (started_.load()) {
    return Status::Invalid("tenants must be registered before Start()");
  }
  FUME_ASSIGN_OR_RETURN(auto tenant,
                        Tenant::Make(std::move(name), initial_train,
                                     std::move(test), std::move(config)));
  return registry_.Add(std::move(tenant));
}

Status Server::Start() {
  if (started_.exchange(true)) return Status::Invalid("already started");
  FUME_ASSIGN_OR_RETURN(listener_, util::ListenSocket::Listen(config_.port));
  port_ = listener_.port();
  acceptor_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void Server::Shutdown() {
  if (!started_.load() || shut_down_.exchange(true)) return;
  static obs::Counter* drains = obs::GetCounter("serve.shutdown.drains");
  stop_.store(true);
  if (acceptor_.joinable()) acceptor_.join();
  listener_.Close();
  // Connection threads observe stop_ at their next poll tick, finish the
  // request in flight, and exit; joining them IS the drain barrier.
  std::vector<std::thread> conns;
  {
    std::lock_guard<std::mutex> lk(conn_mu_);
    conns.swap(connections_);
  }
  for (std::thread& t : conns) t.join();
  // All request traffic has ceased: flush tenant state.
  registry_.ShutdownAll();
  drains->Inc();
}

void Server::AcceptLoop() {
  static obs::Counter* accepted = obs::GetCounter("serve.conn.accepted");
  static obs::Counter* rejected = obs::GetCounter("serve.conn.rejected");
  static obs::Gauge* active = obs::GetGauge("serve.conn.active");
  while (!stop_.load()) {
    Result<util::Socket> sock = listener_.Accept(kPollMs);
    if (!sock.ok()) break;  // listener closed or failed
    if (!sock.ValueOrDie().valid()) continue;  // poll timeout
    util::Socket conn = std::move(sock).ValueOrDie();
    if (active_connections_.load() >= config_.max_connections) {
      rejected->Inc();
      const Status sent =
          conn.SendAll(ErrorResponse(0, "overloaded", "connection limit"));
      (void)sent;
      continue;  // conn closes on scope exit
    }
    accepted->Inc();
    active_connections_.fetch_add(1);
    active->Set(active_connections_.load());
    std::lock_guard<std::mutex> lk(conn_mu_);
    connections_.emplace_back(
        [this, c = std::move(conn)]() mutable { ConnectionLoop(std::move(c)); });
  }
}

void Server::ConnectionLoop(util::Socket sock) {
  static obs::Counter* received = obs::GetCounter("serve.requests.received");
  static obs::Counter* errors = obs::GetCounter("serve.requests.errors");
  static obs::Gauge* active = obs::GetGauge("serve.conn.active");
  std::string line;
  while (!stop_.load()) {
    Result<util::Socket::ReadResult> rr = sock.ReadLine(&line, kPollMs);
    if (!rr.ok() || rr.ValueOrDie() == util::Socket::ReadResult::kEof) break;
    if (rr.ValueOrDie() == util::Socket::ReadResult::kTimeout) continue;
    if (line.empty()) continue;
    received->Inc();
    std::string response;
    int64_t id = 0;
    Result<Request> req = ParseRequest(line, &id);
    if (!req.ok()) {
      response = ErrorResponse(id, "bad_request", req.status().message());
    } else {
      const EndpointMetrics ep = Endpoint(req.ValueOrDie().op);
      ep.requests->Inc();
      const auto start = Clock::now();
      response = Dispatch(req.ValueOrDie());
      ep.latency_us->Record(std::chrono::duration_cast<std::chrono::microseconds>(
                                Clock::now() - start)
                                .count());
    }
    if (response.find("\"ok\":false") != std::string::npos) errors->Inc();
    if (config_.event_log != nullptr) {
      config_.event_log->Event("serve_request")
          .Field("op", req.ok() ? RequestOpName(req.ValueOrDie().op) : "parse")
          .Field("tenant", req.ok() ? req.ValueOrDie().tenant : "")
          .Field("ok", response.find("\"ok\":true") != std::string::npos)
          .Write();
    }
    if (!sock.SendAll(response).ok()) break;
  }
  active_connections_.fetch_sub(1);
  active->Set(active_connections_.load());
}

std::string Server::Dispatch(const Request& req) {
  if (req.op == RequestOp::kHealth) return HandleHealth(req);
  if (req.op == RequestOp::kMetrics) return HandleMetrics(req);
  Tenant* tenant = registry_.Find(req.tenant);
  if (tenant == nullptr) {
    return ErrorResponse(req.id, "unknown_tenant",
                         "no tenant \"" + req.tenant + "\"");
  }
  switch (req.op) {
    case RequestOp::kPredict: return HandlePredict(req, *tenant);
    case RequestOp::kExplain: return HandleExplain(req, *tenant);
    case RequestOp::kWhatIf: return HandleWhatIf(req, *tenant);
    case RequestOp::kStreamOp: return HandleStreamOp(req, *tenant);
    case RequestOp::kCheckpoint: return HandleCheckpoint(req, *tenant);
    default:
      return ErrorResponse(req.id, "bad_request", "unroutable op");
  }
}

std::string Server::HandleHealth(const Request& req) {
  std::string out = OkHead(req.id);
  AppendField(&out, "status", std::string("serving"));
  out.append(",\"tenants\":[");
  const std::vector<std::string> names = registry_.Names();
  for (size_t i = 0; i < names.size(); ++i) {
    if (i > 0) out.push_back(',');
    Tenant* tenant = registry_.Find(names[i]);
    const std::shared_ptr<const TenantSnapshot> snap = tenant->snapshot();
    out.append("{\"name\":");
    AppendJsonString(&out, names[i]);
    AppendField(&out, "attrs",
                static_cast<int64_t>(tenant->schema().num_attributes()));
    AppendField(&out, "seq", snap->seq);
    AppendField(&out, "rows_live", snap->rows_live);
    out.push_back('}');
  }
  out.append("]}\n");
  return out;
}

std::string Server::HandleMetrics(const Request& req) {
  std::string out = OkHead(req.id);
  out.append(",\"metrics\":");
  out.append(obs::MetricsRegistry::Global().Snapshot().ToJson());
  out.append("}\n");
  return out;
}

std::string Server::HandlePredict(const Request& req, Tenant& tenant) {
  obs::QueryScope scope("serve.predict");
  const std::shared_ptr<const TenantSnapshot> snap = tenant.snapshot();
  Dataset rows(tenant.schema());
  for (const std::vector<int32_t>& codes : req.rows) {
    // Labels are irrelevant to prediction; 0 keeps AppendRow's validation.
    const Status st = rows.AppendRow(codes, 0);
    if (!st.ok()) {
      return ErrorResponse(req.id, "bad_request", st.message());
    }
  }
  // Ensemble vote (soft or majority per the tenant's shard config).
  std::vector<double> probs;
  std::vector<int> preds;
  snap->model.Predict(rows, &probs, &preds);
  std::string out = OkHead(req.id);
  AppendField(&out, "seq", snap->seq);
  out.append(",\"predictions\":[");
  for (size_t i = 0; i < preds.size(); ++i) {
    if (i > 0) out.push_back(',');
    out.push_back(preds[i] != 0 ? '1' : '0');
  }
  out.append("],\"probs\":[");
  for (size_t i = 0; i < probs.size(); ++i) {
    if (i > 0) out.push_back(',');
    AppendJsonDouble(&out, probs[i]);
  }
  out.append("]}\n");
  scope.Finish();
  return out;
}

std::string Server::HandleExplain(const Request& req, Tenant& tenant) {
  obs::QueryScope scope("serve.explain");
  const std::shared_ptr<const TenantSnapshot> snap = tenant.snapshot();
  std::string out = OkHead(req.id);
  AppendField(&out, "seq", snap->seq);
  AppendField(&out, "metric", snap->metric);
  AppendField(&out, "accuracy", snap->accuracy);
  AppendField(&out, "staleness", snap->staleness);
  AppendField(&out, "rows_live", snap->rows_live);
  AppendField(&out, "fair", snap->explanation == nullptr);
  out.append(",\"top_k\":[");
  if (snap->explanation != nullptr) {
    const Schema& schema = tenant.schema();
    for (size_t i = 0; i < snap->explanation->top_k.size(); ++i) {
      const AttributableSubset& s = snap->explanation->top_k[i];
      if (i > 0) out.push_back(',');
      out.append("{\"predicate\":");
      AppendJsonString(&out, s.predicate.ToString(schema));
      AppendField(&out, "support", s.support);
      AppendField(&out, "rows", s.num_rows);
      AppendField(&out, "phi", s.phi);
      AppendField(&out, "attribution", s.attribution);
      AppendField(&out, "new_fairness", s.new_fairness);
      AppendField(&out, "new_accuracy", s.new_accuracy);
      out.push_back('}');
    }
  }
  out.append("]}\n");
  scope.Finish();
  return out;
}

std::string Server::HandleWhatIf(const Request& req, Tenant& tenant) {
  obs::QueryScope scope("serve.whatif");
  const Schema& schema = tenant.schema();
  for (const Literal& lit : req.predicate.literals()) {
    if (lit.attr >= schema.num_attributes()) {
      return ErrorResponse(req.id, "bad_request",
                           "literal attr out of range");
    }
  }
  BatchJob job;
  job.predicate = req.predicate;
  const int64_t deadline_ms =
      req.deadline_ms > 0 ? req.deadline_ms : config_.default_deadline_ms;
  if (deadline_ms > 0) {
    job.has_deadline = true;
    job.deadline = Clock::now() + std::chrono::milliseconds(deadline_ms);
  }
  const AdmitResult admit = tenant.WhatIf(&job);
  if (admit != AdmitResult::kOk) {
    return ErrorResponse(req.id, AdmitResultName(admit),
                         admit == AdmitResult::kOverloaded
                             ? "whatif queue is full"
                             : "request not started in time");
  }
  std::string out = OkHead(req.id);
  AppendField(&out, "seq", job.outcome.snapshot_seq);
  AppendField(&out, "rows_matched", job.outcome.rows_matched);
  AppendField(&out, "batch_size", static_cast<int64_t>(job.batch_size));
  AppendField(&out, "deduped", job.deduped);
  AppendField(&out, "before_fairness", job.outcome.before_fairness);
  AppendField(&out, "before_accuracy", job.outcome.before_accuracy);
  AppendField(&out, "after_fairness", job.outcome.after_fairness);
  AppendField(&out, "after_accuracy", job.outcome.after_accuracy);
  AppendField(&out, "parity_reduction", job.outcome.parity_reduction);
  out.append("}\n");
  scope.Finish();
  return out;
}

std::string Server::HandleStreamOp(const Request& req, Tenant& tenant) {
  obs::QueryScope scope("serve.stream_op");
  Result<stream::OpOutcome> outcome = tenant.ApplyStreamOp(req.stream_op);
  if (!outcome.ok()) return StatusError(req.id, outcome.status());
  const stream::OpOutcome& o = outcome.ValueOrDie();
  std::string out = OkHead(req.id);
  AppendField(&out, "seq", o.seq);
  AppendField(&out, "kind", std::string(stream::OpKindName(o.kind)));
  AppendField(&out, "metric", o.metric);
  AppendField(&out, "accuracy", o.accuracy);
  AppendField(&out, "rows_live", o.rows_live);
  AppendField(&out, "searched", o.searched);
  AppendField(&out, "staleness", o.staleness_ops);
  out.append("}\n");
  scope.Finish();
  return out;
}

std::string Server::HandleCheckpoint(const Request& req, Tenant& tenant) {
  obs::QueryScope scope("serve.checkpoint");
  Result<std::string> path = tenant.Checkpoint();
  if (!path.ok()) return StatusError(req.id, path.status());
  std::string out = OkHead(req.id);
  AppendField(&out, "path", path.ValueOrDie());
  out.append("}\n");
  scope.Finish();
  return out;
}

}  // namespace fume::serve
