// Deterministic op-log synthesis for tests, the fume_stream CLI and the
// streaming bench: interleaves insert batches drawn from a held-out row
// pool with deletes of currently-live rows, dropping a checkpoint every
// few ops. MakeStreamFixture carves the initial training set, that pool
// and the test set out of one dataset.

#ifndef FUME_STREAM_WORKLOAD_H_
#define FUME_STREAM_WORKLOAD_H_

#include <cstdint>

#include "data/dataset.h"
#include "stream/op_log.h"
#include "synth/common.h"

namespace fume {
namespace stream {

/// The data one stream runs over: the engine starts from initial_train,
/// inserts draw from pool, and metrics are read on test.
struct StreamFixture {
  Dataset initial_train;
  Dataset pool;
  Dataset test;
  GroupSpec group;
};

/// Stratified train/test split of bundle.data (seed 2) whose training half
/// loses its last third to the insert pool. fume_stream, fume_serve, the
/// streaming bench and the stream tests all start here, so a server fed the
/// op-log fume_stream synthesized starts from the identical model: the
/// exactness anchor between served and offline answers.
Result<StreamFixture> MakeStreamFixture(const synth::DatasetBundle& bundle,
                                        double test_fraction);

struct WorkloadOptions {
  /// Total operations to emit (checkpoints count toward this).
  int num_ops = 100;
  /// Rows per insert op.
  int insert_batch = 5;
  /// Rows per delete op.
  int delete_batch = 3;
  /// Probability that a non-checkpoint op is a delete rather than an
  /// insert (inserts also take over whenever the pool runs dry).
  double delete_fraction = 0.4;
  /// Emit a Checkpoint op every this many ops (0 = only the final one).
  int checkpoint_every = 25;
  uint64_t seed = 17;
};

/// Builds an op-log against an engine whose live rows are currently
/// [0, initial_rows). Insert ops consume `pool` rows in order; delete ops
/// remove uniformly chosen live rows (initial or previously inserted). The
/// log always ends with a Checkpoint. Deterministic in (pool, options).
Result<std::vector<StreamOp>> SynthesizeOpLog(const Dataset& pool,
                                              int64_t initial_rows,
                                              const WorkloadOptions& options);

}  // namespace stream
}  // namespace fume

#endif  // FUME_STREAM_WORKLOAD_H_
