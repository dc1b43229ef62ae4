// The serve-write workload's writer: a fixed seeded sequence of write
// requests that alternates "insert 5 rows recycled from the pool" with
// "delete 5 uniformly chosen live ids", with every 100th request a
// checkpoint. The live-row count returns to its initial value after every
// delete, so every run of one seed walks the model down the same path.

#ifndef PERFBENCH_WRITE_SEQUENCE_H_
#define PERFBENCH_WRITE_SEQUENCE_H_

#include <cstdint>
#include <vector>

#include "data/dataset.h"
#include "stream/op_log.h"

namespace perfbench {

struct WriteRequest {
  enum class Kind { kInsert, kDelete, kCheckpoint };
  Kind kind = Kind::kCheckpoint;
  /// Stream op sequence number (inserts and deletes only).
  int64_t seq = -1;
  /// kInsert: pool rows inserted, in order; they receive the next ids.
  std::vector<int64_t> pool_rows;
  /// kDelete: engine row ids deleted.
  std::vector<fume::RowId> ids;
  /// Live rows after the request.
  int64_t live_after = 0;
};

struct WriteSequence {
  std::vector<WriteRequest> requests;
  /// Pool row behind engine id initial_rows + k, for every inserted row k.
  std::vector<int64_t> inserted_pool_rows;
  /// Ids alive after the last request, ascending (arrival order).
  std::vector<fume::RowId> final_live;
};

constexpr int kWriteBatchRows = 5;
constexpr int kCheckpointEvery = 100;

/// Live ids start as [0, initial_rows); inserted rows take the next ids, as
/// the stream engine assigns them. Deterministic in its arguments.
WriteSequence MakeWriteSequence(uint64_t seed, int64_t initial_rows,
                                int64_t pool_rows, int num_requests);

/// The stream op for an insert or delete request.
fume::stream::StreamOp ToStreamOp(const WriteRequest& request,
                                  const fume::Dataset& pool);

/// Training rows alive after the sequence, in arrival order: what a cold
/// retrain of the final model trains on.
fume::Dataset SurvivingRows(const WriteSequence& sequence,
                            const fume::Dataset& initial_train,
                            const fume::Dataset& pool);

}  // namespace perfbench

#endif  // PERFBENCH_WRITE_SEQUENCE_H_
