// Serve subsystem suite (ISSUE: fume_serve multi-tenant audit server).
//
// Three layers, matching the subsystem's own layering:
//  - protocol: request encode -> parse round trips, error reporting, and
//    the %.17g double round-trip the byte-identity anchor relies on;
//  - batcher: deterministic grouping / admission / deadline / dedup /
//    shutdown semantics driven through a gated fake executor;
//  - server: a real TCP server on an ephemeral loopback port, checked for
//    byte-identity against the offline engine on the same op-log prefix
//    (predict, explain, whatif, stream_op), batched-vs-batch-1 result
//    equality, graceful drain with restorable checkpoints, and — under
//    TSan — snapshot consistency while readers race a mutating writer.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/fume.h"
#include "fairness/metrics.h"
#include "forest/deletion_scratch.h"
#include "obs/metrics.h"
#include "serve/batcher.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/tenant.h"
#include "stream/engine.h"
#include "stream/op_log.h"
#include "stream/workload.h"
#include "synth/datasets.h"
#include "util/json.h"
#include "util/socket.h"

namespace fume {
namespace serve {
namespace {

using stream::OpOutcome;
using stream::StreamEngine;
using stream::StreamEngineConfig;
using stream::StreamOp;
using stream::StreamRow;
using util::JsonValue;
using util::ParseJson;
using util::Socket;

// ---------------------------------------------------------------------------
// Shared pipeline: the stream fixture tools/fume_serve.cc serves (initial
// training data, an insert pool carved off the back, and a test set).

struct ServePipeline : stream::StreamFixture {
  TenantConfig tenant;
};

ServePipeline BuildPipeline(uint64_t seed) {
  synth::SynthOptions opts;
  opts.num_rows = 500;
  opts.seed = seed;
  auto bundle = synth::MakeGermanCredit(opts);
  EXPECT_TRUE(bundle.ok());
  auto fixture = stream::MakeStreamFixture(*bundle, /*test_fraction=*/0.3);
  EXPECT_TRUE(fixture.ok());
  ServePipeline p{std::move(*fixture), {}};
  StreamEngineConfig& e = p.tenant.engine;
  e.forest.num_trees = 8;
  e.forest.max_depth = 5;
  e.forest.random_depth = 2;
  e.forest.seed = 31;
  e.fume.top_k = 3;
  e.fume.support_min = 0.05;
  e.fume.support_max = 0.30;
  e.fume.max_literals = 1;
  e.fume.group = p.group;
  p.tenant.whatif_threads = 2;
  return p;
}

/// The first `n` pool rows as one StreamRow batch.
std::vector<StreamRow> PoolRows(const ServePipeline& p, int64_t start,
                                int64_t n) {
  std::vector<StreamRow> rows;
  for (int64_t r = start; r < start + n && r < p.pool.num_rows(); ++r) {
    StreamRow row;
    row.label = p.pool.Label(r);
    for (int a = 0; a < p.pool.schema().num_attributes(); ++a) {
      row.codes.push_back(p.pool.Code(r, a));
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

/// A short, deterministic mixed op-log: deletes, an insert batch, and a
/// checkpoint op (which forces a search, so the served top-k is fresh).
std::vector<StreamOp> MakeOps(const ServePipeline& p) {
  std::vector<StreamOp> ops;
  ops.push_back(StreamOp::Delete(1, {3, 11, 19, 27}));
  ops.push_back(StreamOp::Insert(2, PoolRows(p, 0, 20)));
  ops.push_back(StreamOp::Delete(3, {40, 41, 42, 55, 68}));
  ops.push_back(StreamOp::Checkpoint(4));
  return ops;
}

/// One request/response exchange over an open socket.
JsonValue Exchange(Socket& sock, const std::string& request) {
  EXPECT_TRUE(sock.SendAll(request).ok());
  std::string line;
  auto rr = sock.ReadLine(&line, 30000);
  EXPECT_TRUE(rr.ok());
  EXPECT_TRUE(rr.ok() && rr.ValueOrDie() == Socket::ReadResult::kLine)
      << "no response line for: " << request;
  auto parsed = ParseJson(line);
  EXPECT_TRUE(parsed.ok()) << line;
  return parsed.ok() ? parsed.ValueOrDie() : JsonValue{};
}

Socket ConnectTo(const Server& server) {
  auto sock = Socket::Connect("127.0.0.1", server.port());
  EXPECT_TRUE(sock.ok()) << sock.status().ToString();
  return std::move(sock).ValueOrDie();
}

// ---------------------------------------------------------------------------
// Protocol

TEST(ServeProtocol, PredictRoundTrip) {
  const std::vector<std::vector<int32_t>> rows = {{0, 1, 2}, {3, 4, 5}};
  auto req = ParseRequest(EncodePredictRequest(7, "bank", rows, 250));
  ASSERT_TRUE(req.ok()) << req.status().ToString();
  EXPECT_EQ(req->id, 7);
  EXPECT_EQ(req->op, RequestOp::kPredict);
  EXPECT_EQ(req->tenant, "bank");
  EXPECT_EQ(req->rows, rows);
  EXPECT_EQ(req->deadline_ms, 250);
}

TEST(ServeProtocol, WhatIfRoundTrip) {
  const Predicate pred(
      {Literal{2, LiteralOp::kEq, 1}, Literal{5, LiteralOp::kGe, 3}});
  auto req = ParseRequest(EncodeWhatIfRequest(9, "t", pred));
  ASSERT_TRUE(req.ok()) << req.status().ToString();
  EXPECT_EQ(req->op, RequestOp::kWhatIf);
  EXPECT_TRUE(req->predicate == pred);
  EXPECT_EQ(req->deadline_ms, 0);
}

TEST(ServeProtocol, StreamOpRoundTrip) {
  StreamOp op = StreamOp::Insert(12, {StreamRow{{1, 0, 2}, 1}});
  auto req = ParseRequest(EncodeStreamOpRequest(3, "t", op));
  ASSERT_TRUE(req.ok()) << req.status().ToString();
  EXPECT_EQ(req->op, RequestOp::kStreamOp);
  EXPECT_TRUE(req->stream_op == op);

  StreamOp del = StreamOp::Delete(13, {5, 9});
  auto req2 = ParseRequest(EncodeStreamOpRequest(4, "t", del));
  ASSERT_TRUE(req2.ok());
  EXPECT_TRUE(req2->stream_op == del);
}

TEST(ServeProtocol, SimpleOpsRoundTrip) {
  EXPECT_EQ(ParseRequest(EncodeHealthRequest(1))->op, RequestOp::kHealth);
  EXPECT_EQ(ParseRequest(EncodeMetricsRequest(2))->op, RequestOp::kMetrics);
  auto expl = ParseRequest(EncodeExplainRequest(3, "a"));
  ASSERT_TRUE(expl.ok());
  EXPECT_EQ(expl->op, RequestOp::kExplain);
  EXPECT_EQ(expl->tenant, "a");
  EXPECT_EQ(ParseRequest(EncodeCheckpointRequest(4, "a"))->op,
            RequestOp::kCheckpoint);
}

TEST(ServeProtocol, MalformedRequestsRejected) {
  EXPECT_FALSE(ParseRequest("not json").ok());
  EXPECT_FALSE(ParseRequest("{}").ok());                       // no op
  EXPECT_FALSE(ParseRequest(R"({"id":1,"op":"nope"})").ok());  // unknown op
  // Tenant required for tenant-scoped ops.
  EXPECT_FALSE(ParseRequest(R"({"id":1,"op":"explain"})").ok());
  // predict needs rows; whatif needs a predicate; stream_op needs a line.
  EXPECT_FALSE(ParseRequest(R"({"id":1,"op":"predict","tenant":"t"})").ok());
  EXPECT_FALSE(ParseRequest(R"({"id":1,"op":"whatif","tenant":"t"})").ok());
  EXPECT_FALSE(ParseRequest(R"({"id":1,"op":"stream_op","tenant":"t"})").ok());
  // Bad cmp name and non-integer codes.
  EXPECT_FALSE(
      ParseRequest(
          R"({"id":1,"op":"whatif","tenant":"t","predicate":[{"attr":0,"cmp":"~","value":1}]})")
          .ok());
  EXPECT_FALSE(
      ParseRequest(R"({"id":1,"op":"predict","tenant":"t","rows":[[1.5]]})")
          .ok());
}

// Numbers are never truncated or wrapped into a different literal, code or
// row id: 1e20 would otherwise match every row, and 1.5 would read as 1.
TEST(ServeProtocol, OutOfRangeOrFractionalNumbersRejected) {
  for (const char* literal :
       {R"({"attr":0,"cmp":"ge","value":1e20})",
        R"({"attr":0,"cmp":"eq","value":1.5})",
        R"({"attr":1.5,"cmp":"eq","value":1})",
        R"({"attr":4294967296,"cmp":"eq","value":1})",
        R"({"attr":-1,"cmp":"eq","value":1})"}) {
    const auto req = ParseRequest(
        std::string(R"({"id":1,"op":"whatif","tenant":"t","predicate":[)") +
        literal + "]}");
    EXPECT_TRUE(req.status().IsInvalid()) << literal;
  }
  EXPECT_TRUE(
      ParseRequest(
          R"({"id":1,"op":"predict","tenant":"t","rows":[[4294967296]]})")
          .status()
          .IsInvalid());
  EXPECT_TRUE(ParseRequest(R"({"id":1e30,"op":"health"})").status().IsInvalid());
  // A raw stream_op line is parsed by the op-log reader, with its checks.
  EXPECT_TRUE(
      ParseRequest(
          R"({"id":1,"op":"stream_op","tenant":"t","line":"D 99 4294967297"})")
          .status()
          .IsInvalid());
}

// A line that fails validation after its JSON parsed reports its id, so
// the bad_request response can echo it to a pipelining client.
TEST(ServeProtocol, FailedParseReportsTheRequestId) {
  int64_t id = 0;
  EXPECT_TRUE(
      ParseRequest(
          R"({"id":1,"op":"stream_op","tenant":"default","line":"D 99 4294967297"})",
          &id)
          .status()
          .IsInvalid());
  EXPECT_EQ(id, 1);
  EXPECT_FALSE(
      ParseRequest(R"({"id":7,"op":"whatif","tenant":"t","predicate":[]})", &id)
          .ok());
  EXPECT_EQ(id, 7);
  id = 0;
  EXPECT_FALSE(ParseRequest("not json", &id).ok());
  EXPECT_FALSE(ParseRequest(R"({"id":1.5,"op":"health"})", &id).ok());
  EXPECT_EQ(id, 0);  // no valid id to echo
}

TEST(ServeProtocol, DoubleSerializationRoundTripsExactly) {
  const double values[] = {0.1, 1.0 / 3.0, -0.034090909090909061,
                           1e-300, 12345.678901234567};
  for (const double v : values) {
    std::string out;
    AppendJsonDouble(&out, v);
    auto parsed = ParseJson(out);
    ASSERT_TRUE(parsed.ok()) << out;
    EXPECT_EQ(parsed->number_value, v) << out;
  }
}

TEST(ServeProtocol, ErrorResponseShape) {
  auto parsed = ParseJson(ErrorResponse(5, "bad_request", "broken \"quote\""));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->NumberOr("id", -1), 5);
  EXPECT_FALSE(parsed->BoolOr("ok", true));
  EXPECT_EQ(parsed->StringOr("code", ""), "bad_request");
  EXPECT_EQ(parsed->StringOr("error", ""), "broken \"quote\"");
}

// ---------------------------------------------------------------------------
// Batcher (deterministic, via a gated fake executor)

/// Executor that blocks inside the batch call until released, recording
/// every batch it sees. Lets tests hold the batcher "busy" while they
/// shape the queue behind it.
struct GatedExecutor {
  std::mutex mu;
  std::condition_variable cv;
  bool gate_open = false;
  std::vector<std::vector<Predicate>> batches;

  WhatIfBatcher::Executor AsExecutor() {
    return [this](const std::vector<BatchJob*>& batch) {
      std::unique_lock<std::mutex> lk(mu);
      std::vector<Predicate> preds;
      for (BatchJob* job : batch) {
        preds.push_back(job->predicate);
        job->outcome.rows_matched = job->predicate.num_literals();
      }
      batches.push_back(std::move(preds));
      cv.notify_all();  // wake AwaitBatches before wedging on the gate
      cv.wait(lk, [this] { return gate_open; });
    };
  }

  void Open() {
    std::lock_guard<std::mutex> lk(mu);
    gate_open = true;
    cv.notify_all();
  }

  /// Blocks until `n` batches have entered the executor.
  void AwaitBatches(size_t n) {
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return batches.size() >= n; });
  }
};

Predicate PredOf(int attr, int32_t value) {
  return Predicate::Of(Literal{attr, LiteralOp::kEq, value});
}

TEST(ServeBatcher, GroupsConcurrentSubmissions) {
  BatchConfig config;
  config.window_us = 200000;  // generous: the whole group must fit
  config.max_batch = 4;
  GatedExecutor exec;
  exec.gate_open = true;  // no gating needed here
  WhatIfBatcher batcher(config, exec.AsExecutor());

  std::vector<std::thread> threads;
  std::vector<BatchJob> jobs(4);
  for (int i = 0; i < 4; ++i) {
    jobs[static_cast<size_t>(i)].predicate = PredOf(i, 0);
  }
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&batcher, &jobs, i] {
      EXPECT_EQ(batcher.Submit(&jobs[static_cast<size_t>(i)]),
                AdmitResult::kOk);
    });
  }
  for (std::thread& t : threads) t.join();
  // All four ran; the leader grouped at least two (four distinct threads
  // racing a 200ms window; a full window with max_batch=4 groups them all
  // unless the scheduler starves a thread entirely).
  size_t grouped = 0;
  for (const auto& b : exec.batches) grouped = std::max(grouped, b.size());
  EXPECT_GE(grouped, 2u);
  size_t total = 0;
  for (const auto& b : exec.batches) total += b.size();
  EXPECT_EQ(total, 4u);
  for (const BatchJob& job : jobs) {
    EXPECT_EQ(job.outcome.rows_matched, 1);
    EXPECT_GE(job.batch_size, 1);
  }
}

TEST(ServeBatcher, DedupsIdenticalPredicates) {
  BatchConfig config;
  config.window_us = 200000;
  config.max_batch = 4;
  GatedExecutor exec;
  exec.gate_open = true;
  WhatIfBatcher batcher(config, exec.AsExecutor());

  // Same predicate from several threads: the executor must see each unique
  // predicate at most once per batch, and followers get copied results.
  std::vector<BatchJob> jobs(4);
  for (auto& job : jobs) job.predicate = PredOf(1, 2);
  std::vector<std::thread> threads;
  for (auto& job : jobs) {
    threads.emplace_back(
        [&batcher, &job] { EXPECT_EQ(batcher.Submit(&job), AdmitResult::kOk); });
  }
  for (std::thread& t : threads) t.join();
  for (const auto& batch : exec.batches) {
    for (size_t i = 0; i < batch.size(); ++i) {
      for (size_t j = i + 1; j < batch.size(); ++j) {
        EXPECT_FALSE(batch[i] == batch[j]) << "duplicate reached executor";
      }
    }
  }
  int deduped = 0;
  for (const BatchJob& job : jobs) {
    EXPECT_EQ(job.outcome.rows_matched, 1);  // copied from the representative
    if (job.deduped) ++deduped;
  }
  // At least one batch had >= 2 jobs (four threads, 200ms window), so at
  // least one follower was deduplicated.
  size_t grouped = 0;
  for (const auto& b : exec.batches) grouped = std::max(grouped, b.size());
  if (grouped >= 1 && exec.batches.size() < jobs.size()) {
    EXPECT_GE(deduped, 1);
  }
}

/// Polls the serve.whatif.queue_depth gauge until it reports `depth`.
/// (The executor is wedged while this runs, so the depth only grows.)
void AwaitQueueDepth(int64_t depth) {
  obs::Gauge* gauge = obs::GetGauge("serve.whatif.queue_depth");
  while (gauge->Value() < depth) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

TEST(ServeBatcher, DefaultConfigGroupsTheQueueAndNeverWaitsAlone) {
  const BatchConfig config;
  GatedExecutor exec;  // gate closed: the first job wedges the executor
  WhatIfBatcher batcher(config, exec.AsExecutor());

  // Jobs that queue while a batch runs form the next batch, all of them.
  BatchJob wedged;
  wedged.predicate = PredOf(0, 0);
  std::thread leader([&] { batcher.Submit(&wedged); });
  exec.AwaitBatches(1);
  std::vector<BatchJob> queued(3);
  std::vector<std::thread> waiters;
  for (int i = 0; i < 3; ++i) {
    queued[static_cast<size_t>(i)].predicate = PredOf(i + 1, 0);
    waiters.emplace_back([&batcher, &queued, i] {
      EXPECT_EQ(batcher.Submit(&queued[static_cast<size_t>(i)]),
                AdmitResult::kOk);
    });
  }
  AwaitQueueDepth(3);
  exec.Open();
  leader.join();
  for (std::thread& t : waiters) t.join();
  ASSERT_EQ(exec.batches.size(), 2u);
  EXPECT_EQ(exec.batches[1].size(), 3u);
  for (const BatchJob& job : queued) EXPECT_EQ(job.batch_size, 3);

  // A lone job runs at once, inline on its own thread: 100 of them finish
  // in well under the 20 ms that holding even a 200 us window open for
  // each would take.
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 100; ++i) {
    BatchJob lone;
    lone.predicate = PredOf(i, 1);
    ASSERT_EQ(batcher.Submit(&lone), AdmitResult::kOk);
    EXPECT_EQ(lone.batch_size, 1);
  }
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(20));
}

TEST(ServeBatcher, OverloadRejectsBeyondQueueCap) {
  BatchConfig config;
  config.window_us = 0;
  config.max_batch = 1;
  config.queue_cap = 2;
  GatedExecutor exec;  // gate closed: first job wedges the executor
  WhatIfBatcher batcher(config, exec.AsExecutor());

  BatchJob wedged;
  wedged.predicate = PredOf(0, 0);
  std::thread leader([&] { batcher.Submit(&wedged); });
  exec.AwaitBatches(1);  // executor now holds the leader

  // Fill the queue to cap behind the wedged leader.
  std::vector<BatchJob> queued(2);
  std::vector<std::thread> waiters;
  for (int i = 0; i < 2; ++i) {
    queued[static_cast<size_t>(i)].predicate = PredOf(i + 1, 0);
    waiters.emplace_back([&batcher, &queued, i] {
      EXPECT_EQ(batcher.Submit(&queued[static_cast<size_t>(i)]),
                AdmitResult::kOk);
    });
  }
  // Once both waiters are provably queued the cap is reached and the next
  // submission must be rejected immediately (Submit would otherwise block
  // behind the wedged executor — a kOk here would deadlock the test).
  AwaitQueueDepth(2);
  BatchJob overflow;
  overflow.predicate = PredOf(8, 8);
  EXPECT_EQ(batcher.Submit(&overflow), AdmitResult::kOverloaded);

  exec.Open();
  leader.join();
  for (std::thread& t : waiters) t.join();
  EXPECT_EQ(queued[0].outcome.rows_matched, 1);
  EXPECT_EQ(queued[1].outcome.rows_matched, 1);
}

TEST(ServeBatcher, DeadlineExpiresQueuedJobs) {
  BatchConfig config;
  config.window_us = 0;
  config.max_batch = 1;
  GatedExecutor exec;  // gate closed
  WhatIfBatcher batcher(config, exec.AsExecutor());

  BatchJob wedged;
  wedged.predicate = PredOf(0, 0);
  std::thread leader([&] { batcher.Submit(&wedged); });
  exec.AwaitBatches(1);

  // This job's deadline passes while the executor is wedged; the next
  // leader pass must expire it without executing it.
  BatchJob stale;
  stale.predicate = PredOf(1, 0);
  stale.has_deadline = true;
  stale.deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(20);
  std::thread waiter([&] {
    EXPECT_EQ(batcher.Submit(&stale), AdmitResult::kTimeout);
  });
  AwaitQueueDepth(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  exec.Open();
  leader.join();
  waiter.join();
  // The stale predicate never reached the executor.
  std::lock_guard<std::mutex> lk(exec.mu);
  for (const auto& batch : exec.batches) {
    for (const Predicate& p : batch) EXPECT_FALSE(p == stale.predicate);
  }
}

TEST(ServeBatcher, ShutdownRejectsNewAndDrainsQueued) {
  BatchConfig config;
  config.window_us = 0;
  config.max_batch = 1;
  GatedExecutor exec;
  WhatIfBatcher batcher(config, exec.AsExecutor());

  BatchJob wedged;
  wedged.predicate = PredOf(0, 0);
  std::thread leader([&] { EXPECT_EQ(batcher.Submit(&wedged), AdmitResult::kOk); });
  exec.AwaitBatches(1);

  BatchJob queued;
  queued.predicate = PredOf(1, 0);
  std::thread waiter([&] {
    // Admitted before shutdown: still drains through the executor.
    EXPECT_EQ(batcher.Submit(&queued), AdmitResult::kOk);
  });
  AwaitQueueDepth(1);
  batcher.Shutdown();
  BatchJob late;
  late.predicate = PredOf(2, 0);
  EXPECT_EQ(batcher.Submit(&late), AdmitResult::kShutdown);
  exec.Open();
  leader.join();
  waiter.join();
  EXPECT_EQ(queued.outcome.rows_matched, 1);
}

// ---------------------------------------------------------------------------
// Served-vs-offline byte identity

class ServeExactnessTest : public ::testing::Test {
 protected:
  void SetUp() override {
    pipeline_ = BuildPipeline(17);
    server_.emplace(ServerConfig{});
    ASSERT_TRUE(server_
                    ->RegisterTenant("credit", pipeline_.initial_train,
                                     pipeline_.test, pipeline_.tenant)
                    .ok());
    ASSERT_TRUE(server_->Start().ok());
  }

  void TearDown() override { server_->Shutdown(); }

  ServePipeline pipeline_;
  std::optional<Server> server_;
};

TEST_F(ServeExactnessTest, ServedRepliesMatchOfflineEngineAfterReplay) {
  // Offline reference: an in-process engine fed the same ops.
  auto offline = StreamEngine::Create(pipeline_.initial_train, pipeline_.test,
                                      pipeline_.tenant.engine);
  ASSERT_TRUE(offline.ok()) << offline.status().ToString();

  Socket sock = ConnectTo(*server_);
  int64_t id = 0;

  // Every stream_op response must match the offline Apply outcome exactly.
  for (const StreamOp& op : MakeOps(pipeline_)) {
    auto offline_out = offline->Apply(op);
    ASSERT_TRUE(offline_out.ok());
    JsonValue served =
        Exchange(sock, EncodeStreamOpRequest(++id, "credit", op));
    ASSERT_TRUE(served.BoolOr("ok", false)) << served.StringOr("error", "");
    EXPECT_EQ(served.NumberOr("seq", -1), offline_out->seq);
    EXPECT_EQ(served.NumberOr("metric", -2), offline_out->metric);
    EXPECT_EQ(served.NumberOr("accuracy", -2), offline_out->accuracy);
    EXPECT_EQ(served.NumberOr("rows_live", -1), offline_out->rows_live);
    EXPECT_EQ(served.BoolOr("searched", !offline_out->searched),
              offline_out->searched);
  }

  // predict: served probabilities must equal the offline forest's,
  // bit-for-bit (the %.17g round trip).
  std::vector<std::vector<int32_t>> rows;
  for (int64_t r = 0; r < std::min<int64_t>(20, pipeline_.test.num_rows());
       ++r) {
    std::vector<int32_t> codes;
    for (int a = 0; a < pipeline_.test.schema().num_attributes(); ++a) {
      codes.push_back(pipeline_.test.Code(r, a));
    }
    rows.push_back(std::move(codes));
  }
  Dataset probe(pipeline_.test.schema());
  for (const auto& codes : rows) ASSERT_TRUE(probe.AppendRow(codes, 0).ok());
  const std::vector<double> want = offline->model().shard(0).PredictProbAll(probe);
  JsonValue served = Exchange(sock, EncodePredictRequest(++id, "credit", rows));
  ASSERT_TRUE(served.BoolOr("ok", false)) << served.StringOr("error", "");
  const JsonValue* probs = served.Find("probs");
  ASSERT_NE(probs, nullptr);
  ASSERT_EQ(probs->array.size(), want.size());
  const JsonValue* preds = served.Find("predictions");
  ASSERT_NE(preds, nullptr);
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(probs->array[i].number_value, want[i]) << "row " << i;
    EXPECT_EQ(preds->array[i].number_value, want[i] >= 0.5 ? 1 : 0);
  }

  // explain: metric/accuracy/staleness and the whole top-k match.
  JsonValue expl = Exchange(sock, EncodeExplainRequest(++id, "credit"));
  ASSERT_TRUE(expl.BoolOr("ok", false)) << expl.StringOr("error", "");
  EXPECT_EQ(expl.NumberOr("seq", -1), offline->last_seq());
  EXPECT_EQ(expl.NumberOr("metric", -2), offline->current_metric());
  EXPECT_EQ(expl.NumberOr("accuracy", -2), offline->current_accuracy());
  EXPECT_EQ(expl.NumberOr("staleness", -1), offline->staleness());
  EXPECT_EQ(expl.NumberOr("rows_live", -1), offline->rows_live());
  const FumeResult* offline_expl = offline->explanation();
  EXPECT_EQ(expl.BoolOr("fair", true), offline_expl == nullptr);
  const JsonValue* top_k = expl.Find("top_k");
  ASSERT_NE(top_k, nullptr);
  if (offline_expl != nullptr) {
    ASSERT_EQ(top_k->array.size(), offline_expl->top_k.size());
    const Schema& schema = pipeline_.test.schema();
    for (size_t i = 0; i < top_k->array.size(); ++i) {
      const JsonValue& s = top_k->array[i];
      const AttributableSubset& want_s = offline_expl->top_k[i];
      EXPECT_EQ(s.StringOr("predicate", ""),
                want_s.predicate.ToString(schema));
      EXPECT_EQ(s.NumberOr("support", -1), want_s.support);
      EXPECT_EQ(s.NumberOr("rows", -1), want_s.num_rows);
      EXPECT_EQ(s.NumberOr("phi", -2), want_s.phi);
      EXPECT_EQ(s.NumberOr("attribution", -2), want_s.attribution);
      EXPECT_EQ(s.NumberOr("new_fairness", -2), want_s.new_fairness);
      EXPECT_EQ(s.NumberOr("new_accuracy", -2), want_s.new_accuracy);
    }
  }
}

TEST_F(ServeExactnessTest, ServedWhatIfMatchesOfflineComputation) {
  // Offline reference for one candidate predicate, computed exactly the
  // way repair/what_if.cc does: clone, delete matching rows, rescore.
  auto offline = StreamEngine::Create(pipeline_.initial_train, pipeline_.test,
                                      pipeline_.tenant.engine);
  ASSERT_TRUE(offline.ok());
  const Predicate pred = PredOf(0, 1);

  std::vector<RowId> matched;
  const TrainingStore& store = offline->model().shard(0).store();
  for (const RowId rid : offline->live_ids()) {
    if (pred.literals()[0].Matches(store.code(rid, 0))) matched.push_back(rid);
  }
  ASSERT_GT(matched.size(), 0u) << "pick a predicate that matches rows";
  DareForest clone = offline->model().shard(0).Clone();
  DeletionScratch scratch;
  ASSERT_TRUE(clone.DeleteRows(matched, nullptr, &scratch).ok());
  TestPredictionCache::WhatIfScratch what_if_scratch;
  offline->prediction_cache().shard(0).ScoreWhatIf(
      offline->model().shard(0), clone, pipeline_.test, &what_if_scratch,
      matched.size() >= UnlearnRemovalMethod::kArenaFullRescoreMinBatch);
  const double after_fairness =
      ComputeFairness(pipeline_.test, what_if_scratch.preds, pipeline_.group,
                      pipeline_.tenant.engine.fume.metric);

  Socket sock = ConnectTo(*server_);
  JsonValue served = Exchange(sock, EncodeWhatIfRequest(1, "credit", pred));
  ASSERT_TRUE(served.BoolOr("ok", false)) << served.StringOr("error", "");
  EXPECT_EQ(served.NumberOr("rows_matched", -1),
            static_cast<double>(matched.size()));
  EXPECT_EQ(served.NumberOr("before_fairness", -2),
            offline->current_metric());
  EXPECT_EQ(served.NumberOr("after_fairness", -2), after_fairness);
  const double original = std::fabs(offline->current_metric());
  const double want_reduction =
      original == 0.0 ? 0.0
                      : (original - std::fabs(after_fairness)) / original;
  EXPECT_EQ(served.NumberOr("parity_reduction", -2), want_reduction);
}

TEST_F(ServeExactnessTest, BatchedWhatIfEqualsSequentialWhatIf) {
  // Several distinct predicates, first sequentially (each its own batch),
  // then concurrently (grouped); the outcomes must be identical — batching
  // may never change an answer.
  std::vector<Predicate> preds;
  for (int attr = 0; attr < 4; ++attr) {
    preds.push_back(PredOf(attr, 0));
    preds.push_back(PredOf(attr, 1));
  }

  std::map<std::string, JsonValue> sequential;
  {
    Socket sock = ConnectTo(*server_);
    int64_t id = 0;
    for (const Predicate& p : preds) {
      JsonValue r = Exchange(sock, EncodeWhatIfRequest(++id, "credit", p));
      ASSERT_TRUE(r.BoolOr("ok", false));
      sequential[p.ToString(pipeline_.test.schema())] = std::move(r);
    }
  }

  std::vector<JsonValue> concurrent(preds.size());
  std::vector<std::thread> threads;
  for (size_t i = 0; i < preds.size(); ++i) {
    threads.emplace_back([&, i] {
      Socket sock = ConnectTo(*server_);
      concurrent[i] = Exchange(
          sock, EncodeWhatIfRequest(static_cast<int64_t>(i), "credit",
                                    preds[i]));
    });
  }
  for (std::thread& t : threads) t.join();

  for (size_t i = 0; i < preds.size(); ++i) {
    const JsonValue& got = concurrent[i];
    ASSERT_TRUE(got.BoolOr("ok", false)) << got.StringOr("error", "");
    const JsonValue& want =
        sequential.at(preds[i].ToString(pipeline_.test.schema()));
    for (const char* key :
         {"rows_matched", "before_fairness", "before_accuracy",
          "after_fairness", "after_accuracy", "parity_reduction"}) {
      EXPECT_EQ(got.NumberOr(key, -3), want.NumberOr(key, -4))
          << preds[i].ToString(pipeline_.test.schema()) << " " << key;
    }
  }
}

TEST_F(ServeExactnessTest, WireErrorsCarryMachineCodes) {
  Socket sock = ConnectTo(*server_);
  JsonValue unknown = Exchange(sock, EncodeExplainRequest(1, "nope"));
  EXPECT_FALSE(unknown.BoolOr("ok", true));
  EXPECT_EQ(unknown.StringOr("code", ""), "unknown_tenant");

  JsonValue bad = Exchange(sock, "this is not json\n");
  EXPECT_FALSE(bad.BoolOr("ok", true));
  EXPECT_EQ(bad.StringOr("code", ""), "bad_request");

  // Out-of-range literal attr.
  const int attrs = pipeline_.test.schema().num_attributes();
  JsonValue range =
      Exchange(sock, EncodeWhatIfRequest(2, "credit", PredOf(attrs, 0)));
  EXPECT_FALSE(range.BoolOr("ok", true));
  EXPECT_EQ(range.StringOr("code", ""), "bad_request");

  // Wrong row width.
  JsonValue width = Exchange(
      sock, EncodePredictRequest(3, "credit", {{0}}));
  EXPECT_FALSE(width.BoolOr("ok", true));
  EXPECT_EQ(width.StringOr("code", ""), "bad_request");

  // Stale sequence number is rejected by the engine.
  JsonValue stale = Exchange(
      sock, EncodeStreamOpRequest(4, "credit", StreamOp::Delete(-5, {0})));
  EXPECT_FALSE(stale.BoolOr("ok", true));
  EXPECT_EQ(stale.StringOr("code", ""), "bad_request");
}

TEST_F(ServeExactnessTest, BadRequestsEchoTheirId) {
  Socket sock = ConnectTo(*server_);
  JsonValue wrapped = Exchange(
      sock,
      R"({"id":1,"op":"stream_op","tenant":"credit","line":"D 99 4294967297"})"
      "\n");
  EXPECT_EQ(wrapped.NumberOr("id", -1), 1);
  EXPECT_EQ(wrapped.StringOr("code", ""), "bad_request");
  JsonValue garbled = Exchange(sock, "{\"id\":2,\n");
  EXPECT_EQ(garbled.NumberOr("id", -1), 0);  // the JSON never parsed
  EXPECT_EQ(garbled.StringOr("code", ""), "bad_request");
}

// ---------------------------------------------------------------------------
// Shutdown, checkpoint, op-log

TEST(ServeLifecycle, ShutdownWritesRestorableCheckpointAndOpLog) {
  ServePipeline p = BuildPipeline(23);
  const std::string ckpt_path = ::testing::TempDir() + "/serve_test.ckpt";
  const std::string oplog_path = ::testing::TempDir() + "/serve_test.ops";
  std::remove(ckpt_path.c_str());
  std::remove(oplog_path.c_str());
  p.tenant.engine.checkpoint_path = ckpt_path;
  p.tenant.oplog_path = oplog_path;

  const std::vector<StreamOp> ops = MakeOps(p);
  double final_metric = 0.0;
  int64_t final_seq = 0;
  {
    Server server{ServerConfig{}};
    ASSERT_TRUE(
        server.RegisterTenant("credit", p.initial_train, p.test, p.tenant)
            .ok());
    ASSERT_TRUE(server.Start().ok());
    Socket sock = ConnectTo(server);
    int64_t id = 0;
    for (const StreamOp& op : ops) {
      JsonValue r = Exchange(sock, EncodeStreamOpRequest(++id, "credit", op));
      ASSERT_TRUE(r.BoolOr("ok", false)) << r.StringOr("error", "");
      final_metric = r.NumberOr("metric", -2);
      final_seq = static_cast<int64_t>(r.NumberOr("seq", -1));
    }
    server.Shutdown();  // drains and writes the final checkpoint
  }

  // The op-log replays: every applied op survived, in order.
  auto logged = stream::ReadOpLogFile(oplog_path);
  ASSERT_TRUE(logged.ok()) << logged.status().ToString();
  ASSERT_EQ(logged->size(), ops.size());
  for (size_t i = 0; i < ops.size(); ++i) {
    EXPECT_TRUE((*logged)[i] == ops[i]) << "op " << i;
  }

  // The final checkpoint restores to the served state.
  auto restored = StreamEngine::RestoreFromFile(
      ckpt_path, p.initial_train.schema(), p.test, p.tenant.engine);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->last_seq(), final_seq);
  EXPECT_EQ(restored->current_metric(), final_metric);
  std::remove(ckpt_path.c_str());
  std::remove(oplog_path.c_str());
}

TEST(ServeLifecycle, HealthMetricsAndDoubleShutdown) {
  ServePipeline p = BuildPipeline(29);
  Server server{ServerConfig{}};
  ASSERT_TRUE(
      server.RegisterTenant("credit", p.initial_train, p.test, p.tenant).ok());
  ASSERT_TRUE(server.Start().ok());
  {
    Socket sock = ConnectTo(server);
    JsonValue health = Exchange(sock, EncodeHealthRequest(1));
    ASSERT_TRUE(health.BoolOr("ok", false));
    EXPECT_EQ(health.StringOr("status", ""), "serving");
    const JsonValue* tenants = health.Find("tenants");
    ASSERT_NE(tenants, nullptr);
    ASSERT_EQ(tenants->array.size(), 1u);
    EXPECT_EQ(tenants->array[0].StringOr("name", ""), "credit");
    EXPECT_EQ(tenants->array[0].NumberOr("attrs", -1),
              p.test.schema().num_attributes());

    JsonValue metrics = Exchange(sock, EncodeMetricsRequest(2));
    ASSERT_TRUE(metrics.BoolOr("ok", false));
    const JsonValue* m = metrics.Find("metrics");
    ASSERT_NE(m, nullptr);
    EXPECT_NE(m->Find("counters"), nullptr);
  }
  server.Shutdown();
  server.Shutdown();  // idempotent
}

// ---------------------------------------------------------------------------
// Concurrency: readers race a mutating writer (the TSan test)

TEST(ServeConcurrency, SnapshotsStayConsistentUnderConcurrentMutation) {
  ServePipeline p = BuildPipeline(41);
  p.tenant.whatif_threads = 2;
  Server server{ServerConfig{}};
  ASSERT_TRUE(
      server.RegisterTenant("credit", p.initial_train, p.test, p.tenant).ok());
  ASSERT_TRUE(server.Start().ok());
  Tenant* tenant = server.FindTenant("credit");
  ASSERT_NE(tenant, nullptr);

  // Authoritative seq -> (metric, rows_live) history, built as the writer
  // publishes. seq -1 is the initial snapshot.
  std::mutex history_mu;
  std::map<int64_t, std::pair<double, int64_t>> history;
  {
    const auto snap = tenant->snapshot();
    history[snap->seq] = {snap->metric, snap->rows_live};
  }

  // Writer: interleaves deletes and inserts through the server socket.
  std::atomic<bool> writer_done{false};
  std::thread writer([&] {
    Socket sock = ConnectTo(server);
    int64_t seq = 0;
    int64_t id = 0;
    // Delete scattered singletons, insert small batches in between.
    for (int round = 0; round < 10; ++round) {
      StreamOp op =
          (round % 3 == 2)
              ? StreamOp::Insert(++seq, PoolRows(p, round * 4, 4))
              : StreamOp::Delete(++seq, {static_cast<RowId>(round * 7),
                                         static_cast<RowId>(round * 7 + 3)});
      JsonValue r = Exchange(sock, EncodeStreamOpRequest(++id, "credit", op));
      ASSERT_TRUE(r.BoolOr("ok", false)) << r.StringOr("error", "");
      std::lock_guard<std::mutex> lk(history_mu);
      history[static_cast<int64_t>(r.NumberOr("seq", -9))] = {
          r.NumberOr("metric", -9), static_cast<int64_t>(r.NumberOr(
                                        "rows_live", -9))};
    }
    writer_done.store(true);
  });

  // Readers: whatif + predict + explain against whatever snapshot is
  // published. Every response must be internally consistent with SOME
  // published snapshot — (seq, before_fairness/metric) must appear in the
  // authoritative history once the writer has recorded that seq.
  std::vector<std::thread> readers;
  std::atomic<int> whatifs_checked{0};
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      Socket sock = ConnectTo(server);
      int64_t id = 1000 * (t + 1);
      while (!writer_done.load()) {
        JsonValue w = Exchange(
            sock, EncodeWhatIfRequest(++id, "credit", PredOf(t % 3, 1)));
        ASSERT_TRUE(w.BoolOr("ok", false)) << w.StringOr("error", "");
        const int64_t seq = static_cast<int64_t>(w.NumberOr("seq", -9));
        const double before = w.NumberOr("before_fairness", -9);
        {
          // The writer inserts into history before its stream_op response
          // is even sent, but a reader may see a snapshot published
          // between the engine apply and the history insert; retry briefly.
          bool found = false;
          for (int spin = 0; spin < 200 && !found; ++spin) {
            {
              std::lock_guard<std::mutex> lk(history_mu);
              auto it = history.find(seq);
              if (it != history.end()) {
                EXPECT_EQ(it->second.first, before) << "seq " << seq;
                found = true;
              }
            }
            if (!found) {
              std::this_thread::sleep_for(std::chrono::milliseconds(1));
            }
          }
          EXPECT_TRUE(found) << "whatif served unknown seq " << seq;
        }
        whatifs_checked.fetch_add(1);

        JsonValue e = Exchange(sock, EncodeExplainRequest(++id, "credit"));
        ASSERT_TRUE(e.BoolOr("ok", false));
        const int64_t eseq = static_cast<int64_t>(e.NumberOr("seq", -9));
        const double emetric = e.NumberOr("metric", -9);
        const int64_t erows = static_cast<int64_t>(e.NumberOr("rows_live", -9));
        bool found = false;
        for (int spin = 0; spin < 200 && !found; ++spin) {
          {
            std::lock_guard<std::mutex> lk(history_mu);
            auto it = history.find(eseq);
            if (it != history.end()) {
              EXPECT_EQ(it->second.first, emetric) << "seq " << eseq;
              EXPECT_EQ(it->second.second, erows) << "seq " << eseq;
              found = true;
            }
          }
          if (!found) std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        EXPECT_TRUE(found) << "explain served unknown seq " << eseq;
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();
  EXPECT_GT(whatifs_checked.load(), 0);
  server.Shutdown();

  // The batcher actually formed batches during the run (whatif volume from
  // four readers makes grouping overwhelmingly likely, but don't flake on
  // scheduling: only assert the counters moved coherently).
  const auto snap = obs::MetricsRegistry::Global().Snapshot();
  EXPECT_GE(snap.CounterValue("serve.batch.formed"), 1);
}

}  // namespace
}  // namespace serve
}  // namespace fume
