#include "stream/workload.h"

#include <algorithm>

#include "data/split.h"
#include "util/rng.h"

namespace fume {
namespace stream {

Result<StreamFixture> MakeStreamFixture(const synth::DatasetBundle& bundle,
                                        double test_fraction) {
  SplitOptions split_opts;
  split_opts.test_fraction = test_fraction;
  split_opts.seed = 2;
  FUME_ASSIGN_OR_RETURN(TrainTestSplit split,
                        SplitTrainTest(bundle.data, split_opts));
  const int64_t n = split.train.num_rows();
  std::vector<int64_t> head, tail;
  for (int64_t r = 0; r < n; ++r) (r < n - n / 3 ? head : tail).push_back(r);
  StreamFixture fixture;
  fixture.initial_train = split.train.DropRows(tail);
  fixture.pool = split.train.DropRows(head);
  fixture.test = std::move(split.test);
  fixture.group = bundle.group;
  return fixture;
}

Result<std::vector<StreamOp>> SynthesizeOpLog(const Dataset& pool,
                                              int64_t initial_rows,
                                              const WorkloadOptions& options) {
  if (options.num_ops < 1) return Status::Invalid("num_ops must be >= 1");
  if (options.insert_batch < 1 || options.delete_batch < 1) {
    return Status::Invalid("batch sizes must be >= 1");
  }
  if (!pool.schema().AllCategorical()) {
    return Status::Invalid("op-log pool must be all-categorical");
  }
  Rng rng(options.seed);
  std::vector<StreamOp> ops;
  ops.reserve(static_cast<size_t>(options.num_ops));

  // Live ids, in engine id space: initial rows then inserted rows.
  std::vector<RowId> live(static_cast<size_t>(initial_rows));
  for (int64_t r = 0; r < initial_rows; ++r) live[static_cast<size_t>(r)] = static_cast<RowId>(r);
  RowId next_id = static_cast<RowId>(initial_rows);
  int64_t pool_cursor = 0;

  int64_t seq = 0;
  for (int i = 0; i < options.num_ops; ++i) {
    ++seq;
    const bool last = i == options.num_ops - 1;
    if (last || (options.checkpoint_every > 0 &&
                 (i + 1) % options.checkpoint_every == 0)) {
      ops.push_back(StreamOp::Checkpoint(seq));
      continue;
    }
    const bool pool_dry = pool_cursor >= pool.num_rows();
    const bool can_delete =
        static_cast<int>(live.size()) > options.delete_batch;
    bool do_delete = can_delete && rng.NextBernoulli(options.delete_fraction);
    if (pool_dry && !can_delete) {
      return Status::Invalid("op-log pool exhausted with nothing left to "
                             "delete; supply more pool rows or fewer ops");
    }
    if (pool_dry) do_delete = true;
    if (do_delete) {
      // Sample delete_batch distinct live ids (swap-to-back so the draw is
      // uniform without replacement).
      std::vector<RowId> doomed;
      doomed.reserve(static_cast<size_t>(options.delete_batch));
      for (int d = 0; d < options.delete_batch && !live.empty(); ++d) {
        const size_t pick = static_cast<size_t>(
            rng.NextBounded(static_cast<uint64_t>(live.size())));
        doomed.push_back(live[pick]);
        live[pick] = live.back();
        live.pop_back();
      }
      std::sort(doomed.begin(), doomed.end());
      ops.push_back(StreamOp::Delete(seq, std::move(doomed)));
    } else {
      std::vector<StreamRow> rows;
      const int64_t take = std::min<int64_t>(options.insert_batch,
                                             pool.num_rows() - pool_cursor);
      rows.reserve(static_cast<size_t>(take));
      for (int64_t r = 0; r < take; ++r, ++pool_cursor) {
        StreamRow row;
        row.label = pool.Label(pool_cursor);
        row.codes.resize(static_cast<size_t>(pool.num_attributes()));
        for (int j = 0; j < pool.num_attributes(); ++j) {
          row.codes[static_cast<size_t>(j)] = pool.Code(pool_cursor, j);
        }
        rows.push_back(std::move(row));
        live.push_back(next_id++);
      }
      ops.push_back(StreamOp::Insert(seq, std::move(rows)));
    }
  }
  return ops;
}

}  // namespace stream
}  // namespace fume
