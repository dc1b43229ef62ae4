#include "stream/op_log.h"

#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "util/string_util.h"

namespace fume {
namespace stream {

namespace {

constexpr const char* kHeader = "# fume-oplog v1";

Status Malformed(const std::string& line, const std::string& why) {
  return Status::Invalid("op-log line '" + line + "': " + why);
}

}  // namespace

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kInsert:
      return "insert";
    case OpKind::kDelete:
      return "delete";
    case OpKind::kCheckpoint:
      return "checkpoint";
  }
  return "unknown";
}

StreamOp StreamOp::Insert(int64_t seq, std::vector<StreamRow> rows) {
  StreamOp op;
  op.seq = seq;
  op.kind = OpKind::kInsert;
  op.rows = std::move(rows);
  return op;
}

StreamOp StreamOp::Delete(int64_t seq, std::vector<RowId> row_ids) {
  StreamOp op;
  op.seq = seq;
  op.kind = OpKind::kDelete;
  op.row_ids = std::move(row_ids);
  return op;
}

StreamOp StreamOp::Checkpoint(int64_t seq) {
  StreamOp op;
  op.seq = seq;
  op.kind = OpKind::kCheckpoint;
  return op;
}

std::string FormatOp(const StreamOp& op) {
  std::ostringstream out;
  switch (op.kind) {
    case OpKind::kInsert: {
      out << "I " << op.seq;
      for (const StreamRow& row : op.rows) {
        out << ' ' << row.label << ':';
        for (size_t j = 0; j < row.codes.size(); ++j) {
          if (j > 0) out << ',';
          out << row.codes[j];
        }
      }
      break;
    }
    case OpKind::kDelete: {
      out << "D " << op.seq;
      for (RowId id : op.row_ids) out << ' ' << id;
      break;
    }
    case OpKind::kCheckpoint:
      out << "C " << op.seq;
      break;
  }
  return out.str();
}

Result<StreamOp> ParseOp(const std::string& line) {
  std::vector<std::string> fields;
  for (std::string_view piece : Split(Trim(line), ' ')) {
    if (!piece.empty()) fields.emplace_back(piece);
  }
  if (fields.size() < 2 || fields[0].size() != 1) {
    return Malformed(line, "expected '<I|D|C> <seq> ...'");
  }
  int64_t seq = 0;
  if (!ParseInt64(fields[1], &seq) || seq < 0) {
    return Malformed(line, "bad sequence number '" + fields[1] + "'");
  }
  switch (fields[0][0]) {
    case 'C': {
      if (fields.size() != 2) return Malformed(line, "checkpoint takes no payload");
      return StreamOp::Checkpoint(seq);
    }
    case 'D': {
      if (fields.size() < 3) return Malformed(line, "delete needs row ids");
      std::vector<RowId> ids;
      ids.reserve(fields.size() - 2);
      for (size_t i = 2; i < fields.size(); ++i) {
        int id = 0;
        if (!ParseInt(fields[i], &id) || id < 0) {
          return Malformed(line, "bad row id '" + fields[i] + "'");
        }
        ids.push_back(static_cast<RowId>(id));
      }
      return StreamOp::Delete(seq, std::move(ids));
    }
    case 'I': {
      if (fields.size() < 3) return Malformed(line, "insert needs rows");
      std::vector<StreamRow> rows;
      rows.reserve(fields.size() - 2);
      size_t expected_codes = 0;
      for (size_t i = 2; i < fields.size(); ++i) {
        const std::vector<std::string> halves = Split(fields[i], ':');
        if (halves.size() != 2) {
          return Malformed(line, "row '" + fields[i] +
                                     "' is not <label>:<codes>");
        }
        StreamRow row;
        if (!ParseInt(halves[0], &row.label) ||
            (row.label != 0 && row.label != 1)) {
          return Malformed(line, "label must be 0 or 1 in '" + fields[i] + "'");
        }
        for (const std::string& code_str : Split(halves[1], ',')) {
          int code = 0;
          if (!ParseInt(code_str, &code) || code < 0) {
            return Malformed(line, "bad code '" + code_str + "'");
          }
          row.codes.push_back(code);
        }
        if (row.codes.empty()) return Malformed(line, "row has no codes");
        if (expected_codes == 0) {
          expected_codes = row.codes.size();
        } else if (row.codes.size() != expected_codes) {
          return Malformed(line, "rows disagree on attribute count");
        }
        rows.push_back(std::move(row));
      }
      return StreamOp::Insert(seq, std::move(rows));
    }
    default:
      return Malformed(line, "unknown op kind '" + fields[0] + "'");
  }
}

Status WriteOpLog(const std::vector<StreamOp>& ops, std::ostream& out) {
  out << kHeader << "\n";
  for (const StreamOp& op : ops) out << FormatOp(op) << "\n";
  if (!out) return Status::IOError("op-log write failed");
  return Status::OK();
}

Status WriteOpLogFile(const std::vector<StreamOp>& ops,
                      const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open '" + path + "' for writing");
  return WriteOpLog(ops, out);
}

Result<std::vector<StreamOp>> ReadOpLog(std::istream& in, int64_t after_seq) {
  std::vector<StreamOp> ops;
  std::string line;
  int64_t last_seq = -1;
  while (std::getline(in, line)) {
    const std::string_view trimmed = Trim(line);
    if (trimmed.empty() || trimmed[0] == '#') continue;
    FUME_ASSIGN_OR_RETURN(StreamOp op, ParseOp(line));
    if (op.seq <= last_seq) {
      return Status::Invalid("op-log sequence numbers must strictly "
                             "increase (saw " +
                             std::to_string(op.seq) + " after " +
                             std::to_string(last_seq) + ")");
    }
    last_seq = op.seq;
    if (op.seq <= after_seq) continue;
    ops.push_back(std::move(op));
  }
  if (in.bad()) return Status::IOError("op-log read failed");
  return ops;
}

Result<std::vector<StreamOp>> ReadOpLogFile(const std::string& path,
                                            int64_t after_seq) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open '" + path + "' for reading");
  return ReadOpLog(in, after_seq);
}

}  // namespace stream
}  // namespace fume
