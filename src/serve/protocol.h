// Wire protocol for fume_serve: newline-delimited JSON, one request per
// line, one response line per request, over a plain TCP stream.
//
// Request shape: {"id": <int>, "op": "<name>", "tenant": "<name>", ...}
//   predict    rows=[[code,...],...]          -> predictions + probs
//   explain    (no extra fields)              -> cached top-k + staleness
//   whatif     predicate=[{attr,cmp,value}..] -> before/after fairness
//   stream_op  line="I <seq> ..."             -> op outcome (op-log format)
//   checkpoint (no extra fields)              -> checkpoint path written
//   metrics / health                          -> process-wide, no tenant
// Optional on any request: "deadline_ms" (reject with code "timeout" if not
// started in time). Responses: {"id":..,"ok":true,...} or
// {"id":..,"ok":false,"code":"<machine code>","error":"<message>"}.
//
// Doubles are serialized with %.17g on both the server and the offline
// tools, so a served number round-trips bit-exact — the byte-identity
// anchor the serve tests rely on.

#ifndef FUME_SERVE_PROTOCOL_H_
#define FUME_SERVE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "stream/op_log.h"
#include "subset/predicate.h"
#include "util/json.h"
#include "util/result.h"

namespace fume::serve {

enum class RequestOp : uint8_t {
  kHealth,
  kMetrics,
  kPredict,
  kExplain,
  kWhatIf,
  kStreamOp,
  kCheckpoint,
};

const char* RequestOpName(RequestOp op);

/// One parsed request line.
struct Request {
  int64_t id = 0;
  RequestOp op = RequestOp::kHealth;
  std::string tenant;  // empty for health/metrics
  /// predict: one row of codes per entry.
  std::vector<std::vector<int32_t>> rows;
  /// whatif: candidate deletion predicate (literal conjunction).
  Predicate predicate;
  /// stream_op: parsed from the request's "line" field (op-log line text).
  stream::StreamOp stream_op;
  /// 0 = no deadline.
  int64_t deadline_ms = 0;
};

/// Parses one request line; malformed input yields a Status whose message
/// is safe to echo back in a "bad_request" response. When `id` is non-null
/// and the line's JSON carries a valid id, *id receives it before any later
/// field is checked, so that response can echo the id.
Result<Request> ParseRequest(const std::string& line, int64_t* id = nullptr);

// ---- request encoders (client / tests / bench) ----

std::string EncodeHealthRequest(int64_t id);
std::string EncodeMetricsRequest(int64_t id);
std::string EncodePredictRequest(int64_t id, const std::string& tenant,
                                 const std::vector<std::vector<int32_t>>& rows,
                                 int64_t deadline_ms = 0);
std::string EncodeExplainRequest(int64_t id, const std::string& tenant);
std::string EncodeWhatIfRequest(int64_t id, const std::string& tenant,
                                const Predicate& predicate,
                                int64_t deadline_ms = 0);
std::string EncodeStreamOpRequest(int64_t id, const std::string& tenant,
                                  const stream::StreamOp& op);
std::string EncodeCheckpointRequest(int64_t id, const std::string& tenant);

// ---- JSON writing helpers shared by server responses and encoders ----

/// Appends a quoted, escaped JSON string.
using util::AppendJsonString;
/// Appends a double with %.17g (bit-exact round trip through ParseJson).
void AppendJsonDouble(std::string* out, double v);

/// {"id":..,"ok":false,"code":..,"error":..}\n
std::string ErrorResponse(int64_t id, const std::string& code,
                          const std::string& message);

/// Maps LiteralOp <-> the wire's "cmp" names ("eq","ne","lt","le","ge","gt").
const char* LiteralOpWireName(LiteralOp op);
Result<LiteralOp> LiteralOpFromWireName(const std::string& name);

}  // namespace fume::serve

#endif  // FUME_SERVE_PROTOCOL_H_
