#include "serve/protocol.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <limits>

#include "util/json.h"

namespace fume::serve {

namespace {

using util::JsonValue;

Result<RequestOp> OpFromName(const std::string& name) {
  if (name == "health") return RequestOp::kHealth;
  if (name == "metrics") return RequestOp::kMetrics;
  if (name == "predict") return RequestOp::kPredict;
  if (name == "explain") return RequestOp::kExplain;
  if (name == "whatif") return RequestOp::kWhatIf;
  if (name == "stream_op") return RequestOp::kStreamOp;
  if (name == "checkpoint") return RequestOp::kCheckpoint;
  return Status::Invalid("unknown op \"" + name + "\"");
}

bool NeedsTenant(RequestOp op) {
  return op != RequestOp::kHealth && op != RequestOp::kMetrics;
}

// A JSON number read as a T no smaller than `lo`: a fraction or a value
// outside T is a bad request, never truncated or wrapped. max + 1.0 rounds
// to 2^63 for int64_t, so `<` admits exactly the values whose cast is
// defined.
template <typename T>
Result<T> WholeNumber(const JsonValue& v, const std::string& what,
                      T lo = std::numeric_limits<T>::min()) {
  const T hi = std::numeric_limits<T>::max();
  const double d = v.number_value;
  if (!v.is_number() || d != std::floor(d) || d < static_cast<double>(lo) ||
      !(d < static_cast<double>(hi) + 1.0)) {
    return Status::Invalid(what + " must be an integer in [" +
                           std::to_string(lo) + ", " + std::to_string(hi) +
                           "]");
  }
  return static_cast<T>(d);
}

Result<int64_t> IntField(const JsonValue& obj, const std::string& key,
                         int64_t fallback) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr) return fallback;
  return WholeNumber<int64_t>(*v, "\"" + key + "\"");
}

Result<Predicate> ParsePredicateField(const JsonValue& req) {
  const JsonValue* arr = req.Find("predicate");
  if (arr == nullptr || !arr->is_array() || arr->array.empty()) {
    return Status::Invalid("whatif requires a non-empty \"predicate\" array");
  }
  std::vector<Literal> literals;
  literals.reserve(arr->array.size());
  for (const JsonValue& lit : arr->array) {
    if (!lit.is_object()) {
      return Status::Invalid("predicate entries must be objects");
    }
    const JsonValue* attr = lit.Find("attr");
    const JsonValue* value = lit.Find("value");
    const JsonValue* cmp = lit.Find("cmp");
    if (attr == nullptr || !attr->is_number() || value == nullptr ||
        !value->is_number() || cmp == nullptr || !cmp->is_string()) {
      return Status::Invalid(
          "predicate entries need numeric \"attr\"/\"value\" and string "
          "\"cmp\"");
    }
    Literal l;
    FUME_ASSIGN_OR_RETURN(l.attr, WholeNumber<int>(*attr, "literal attr", 0));
    FUME_ASSIGN_OR_RETURN(l.value,
                          WholeNumber<int32_t>(*value, "literal value"));
    FUME_ASSIGN_OR_RETURN(l.op, LiteralOpFromWireName(cmp->string_value));
    literals.push_back(l);
  }
  return Predicate(std::move(literals));
}

Result<std::vector<std::vector<int32_t>>> ParseRowsField(
    const JsonValue& req) {
  const JsonValue* arr = req.Find("rows");
  if (arr == nullptr || !arr->is_array() || arr->array.empty()) {
    return Status::Invalid("predict requires a non-empty \"rows\" array");
  }
  std::vector<std::vector<int32_t>> rows;
  rows.reserve(arr->array.size());
  for (const JsonValue& row : arr->array) {
    if (!row.is_array() || row.array.empty()) {
      return Status::Invalid("predict rows must be non-empty arrays of codes");
    }
    std::vector<int32_t> codes;
    codes.reserve(row.array.size());
    for (const JsonValue& code : row.array) {
      FUME_ASSIGN_OR_RETURN(const int32_t value,
                            WholeNumber<int32_t>(code, "row code"));
      codes.push_back(value);
    }
    rows.push_back(std::move(codes));
  }
  return rows;
}

void AppendRequestHead(std::string* out, int64_t id, const char* op) {
  out->append("{\"id\":");
  out->append(std::to_string(id));
  out->append(",\"op\":\"");
  out->append(op);
  out->append("\"");
}

void AppendTenant(std::string* out, const std::string& tenant) {
  out->append(",\"tenant\":");
  AppendJsonString(out, tenant);
}

void AppendDeadline(std::string* out, int64_t deadline_ms) {
  if (deadline_ms > 0) {
    out->append(",\"deadline_ms\":");
    out->append(std::to_string(deadline_ms));
  }
}

}  // namespace

const char* RequestOpName(RequestOp op) {
  switch (op) {
    case RequestOp::kHealth: return "health";
    case RequestOp::kMetrics: return "metrics";
    case RequestOp::kPredict: return "predict";
    case RequestOp::kExplain: return "explain";
    case RequestOp::kWhatIf: return "whatif";
    case RequestOp::kStreamOp: return "stream_op";
    case RequestOp::kCheckpoint: return "checkpoint";
  }
  return "unknown";
}

const char* LiteralOpWireName(LiteralOp op) {
  switch (op) {
    case LiteralOp::kEq: return "eq";
    case LiteralOp::kNe: return "ne";
    case LiteralOp::kLt: return "lt";
    case LiteralOp::kLe: return "le";
    case LiteralOp::kGe: return "ge";
    case LiteralOp::kGt: return "gt";
  }
  return "eq";
}

Result<LiteralOp> LiteralOpFromWireName(const std::string& name) {
  if (name == "eq") return LiteralOp::kEq;
  if (name == "ne") return LiteralOp::kNe;
  if (name == "lt") return LiteralOp::kLt;
  if (name == "le") return LiteralOp::kLe;
  if (name == "ge") return LiteralOp::kGe;
  if (name == "gt") return LiteralOp::kGt;
  return Status::Invalid("unknown literal cmp \"" + name + "\"");
}

Result<Request> ParseRequest(const std::string& line, int64_t* id) {
  FUME_ASSIGN_OR_RETURN(JsonValue doc, util::ParseJson(line));
  if (!doc.is_object()) return Status::Invalid("request must be an object");
  Request req;
  FUME_ASSIGN_OR_RETURN(req.id, IntField(doc, "id", 0));
  if (id != nullptr) *id = req.id;
  const JsonValue* op = doc.Find("op");
  if (op == nullptr || !op->is_string()) {
    return Status::Invalid("request needs a string \"op\"");
  }
  FUME_ASSIGN_OR_RETURN(req.op, OpFromName(op->string_value));
  req.tenant = doc.StringOr("tenant", "");
  if (NeedsTenant(req.op) && req.tenant.empty()) {
    return Status::Invalid(std::string(RequestOpName(req.op)) +
                           " requires a \"tenant\"");
  }
  FUME_ASSIGN_OR_RETURN(req.deadline_ms, IntField(doc, "deadline_ms", 0));
  if (req.deadline_ms < 0) {
    return Status::Invalid("deadline_ms must be >= 0");
  }
  if (req.op == RequestOp::kPredict) {
    FUME_ASSIGN_OR_RETURN(req.rows, ParseRowsField(doc));
  } else if (req.op == RequestOp::kWhatIf) {
    FUME_ASSIGN_OR_RETURN(req.predicate, ParsePredicateField(doc));
  } else if (req.op == RequestOp::kStreamOp) {
    const JsonValue* text = doc.Find("line");
    if (text == nullptr || !text->is_string()) {
      return Status::Invalid("stream_op requires a string \"line\"");
    }
    FUME_ASSIGN_OR_RETURN(req.stream_op, stream::ParseOp(text->string_value));
  }
  return req;
}

void AppendJsonString(std::string* out, const std::string& s) {
  out->push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out->append("\\\""); break;
      case '\\': out->append("\\\\"); break;
      case '\n': out->append("\\n"); break;
      case '\r': out->append("\\r"); break;
      case '\t': out->append("\\t"); break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out->append(buf);
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void AppendJsonDouble(std::string* out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out->append(buf);
}

std::string ErrorResponse(int64_t id, const std::string& code,
                          const std::string& message) {
  std::string out = "{\"id\":";
  out.append(std::to_string(id));
  out.append(",\"ok\":false,\"code\":");
  AppendJsonString(&out, code);
  out.append(",\"error\":");
  AppendJsonString(&out, message);
  out.append("}\n");
  return out;
}

std::string EncodeHealthRequest(int64_t id) {
  std::string out;
  AppendRequestHead(&out, id, "health");
  out.append("}\n");
  return out;
}

std::string EncodeMetricsRequest(int64_t id) {
  std::string out;
  AppendRequestHead(&out, id, "metrics");
  out.append("}\n");
  return out;
}

std::string EncodePredictRequest(int64_t id, const std::string& tenant,
                                 const std::vector<std::vector<int32_t>>& rows,
                                 int64_t deadline_ms) {
  std::string out;
  AppendRequestHead(&out, id, "predict");
  AppendTenant(&out, tenant);
  AppendDeadline(&out, deadline_ms);
  out.append(",\"rows\":[");
  for (size_t r = 0; r < rows.size(); ++r) {
    if (r > 0) out.push_back(',');
    out.push_back('[');
    for (size_t j = 0; j < rows[r].size(); ++j) {
      if (j > 0) out.push_back(',');
      out.append(std::to_string(rows[r][j]));
    }
    out.push_back(']');
  }
  out.append("]}\n");
  return out;
}

std::string EncodeExplainRequest(int64_t id, const std::string& tenant) {
  std::string out;
  AppendRequestHead(&out, id, "explain");
  AppendTenant(&out, tenant);
  out.append("}\n");
  return out;
}

std::string EncodeWhatIfRequest(int64_t id, const std::string& tenant,
                                const Predicate& predicate,
                                int64_t deadline_ms) {
  std::string out;
  AppendRequestHead(&out, id, "whatif");
  AppendTenant(&out, tenant);
  AppendDeadline(&out, deadline_ms);
  out.append(",\"predicate\":[");
  const auto& literals = predicate.literals();
  for (size_t i = 0; i < literals.size(); ++i) {
    if (i > 0) out.push_back(',');
    out.append("{\"attr\":");
    out.append(std::to_string(literals[i].attr));
    out.append(",\"cmp\":\"");
    out.append(LiteralOpWireName(literals[i].op));
    out.append("\",\"value\":");
    out.append(std::to_string(literals[i].value));
    out.push_back('}');
  }
  out.append("]}\n");
  return out;
}

std::string EncodeStreamOpRequest(int64_t id, const std::string& tenant,
                                  const stream::StreamOp& op) {
  std::string out;
  AppendRequestHead(&out, id, "stream_op");
  AppendTenant(&out, tenant);
  out.append(",\"line\":");
  AppendJsonString(&out, stream::FormatOp(op));
  out.append("}\n");
  return out;
}

std::string EncodeCheckpointRequest(int64_t id, const std::string& tenant) {
  std::string out;
  AppendRequestHead(&out, id, "checkpoint");
  AppendTenant(&out, tenant);
  out.append("}\n");
  return out;
}

}  // namespace fume::serve
