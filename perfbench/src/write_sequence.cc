#include "write_sequence.h"

#include <algorithm>
#include <random>

#include "util/check.h"

namespace perfbench {

WriteSequence MakeWriteSequence(uint64_t seed, int64_t initial_rows,
                                int64_t pool_rows, int num_requests) {
  FUME_CHECK(pool_rows > 0 && initial_rows >= kWriteBatchRows);
  std::mt19937_64 rng(seed);
  WriteSequence out;
  std::vector<fume::RowId> live;
  for (int64_t id = 0; id < initial_rows; ++id) {
    live.push_back(static_cast<fume::RowId>(id));
  }
  fume::RowId next_id = static_cast<fume::RowId>(initial_rows);
  int64_t pool_cursor = 0;
  int64_t seq = 0;
  for (int i = 1; i <= num_requests; ++i) {
    WriteRequest req;
    if (i % kCheckpointEvery == 0) {
      req.kind = WriteRequest::Kind::kCheckpoint;
    } else if (seq % 2 == 0) {
      req.kind = WriteRequest::Kind::kInsert;
      req.seq = seq++;
      for (int k = 0; k < kWriteBatchRows; ++k) {
        req.pool_rows.push_back(pool_cursor);
        out.inserted_pool_rows.push_back(pool_cursor);
        pool_cursor = (pool_cursor + 1) % pool_rows;
        live.push_back(next_id++);
      }
    } else {
      req.kind = WriteRequest::Kind::kDelete;
      req.seq = seq++;
      for (int k = 0; k < kWriteBatchRows; ++k) {
        std::uniform_int_distribution<size_t> pick(0, live.size() - 1);
        const size_t j = pick(rng);
        req.ids.push_back(live[j]);
        live[j] = live.back();
        live.pop_back();
      }
    }
    req.live_after = static_cast<int64_t>(live.size());
    out.requests.push_back(std::move(req));
  }
  std::sort(live.begin(), live.end());
  out.final_live = std::move(live);
  return out;
}

fume::stream::StreamOp ToStreamOp(const WriteRequest& request,
                                  const fume::Dataset& pool) {
  if (request.kind == WriteRequest::Kind::kDelete) {
    return fume::stream::StreamOp::Delete(request.seq, request.ids);
  }
  FUME_CHECK(request.kind == WriteRequest::Kind::kInsert);
  std::vector<fume::stream::StreamRow> rows;
  for (const int64_t r : request.pool_rows) {
    fume::stream::StreamRow row;
    row.label = pool.Label(r);
    for (int a = 0; a < pool.num_attributes(); ++a) {
      row.codes.push_back(pool.Code(r, a));
    }
    rows.push_back(std::move(row));
  }
  return fume::stream::StreamOp::Insert(request.seq, std::move(rows));
}

fume::Dataset SurvivingRows(const WriteSequence& sequence,
                            const fume::Dataset& initial_train,
                            const fume::Dataset& pool) {
  fume::Dataset out(initial_train.schema());
  const int64_t n0 = initial_train.num_rows();
  std::vector<int32_t> codes(static_cast<size_t>(pool.num_attributes()));
  for (const fume::RowId id : sequence.final_live) {
    const bool initial = static_cast<int64_t>(id) < n0;
    const fume::Dataset& src = initial ? initial_train : pool;
    const int64_t row =
        initial ? static_cast<int64_t>(id)
                : sequence.inserted_pool_rows[static_cast<size_t>(id) -
                                              static_cast<size_t>(n0)];
    for (int a = 0; a < src.num_attributes(); ++a) {
      codes[static_cast<size_t>(a)] = src.Code(row, a);
    }
    FUME_CHECK(out.AppendRow(codes, src.Label(row)).ok());
  }
  return out;
}

}  // namespace perfbench
