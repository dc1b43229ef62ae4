// The benchmark's workloads (README.md explains why each exists).

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "common.h"

namespace perfbench {

/// Set-ups per run; setup_s reports their median.
constexpr int kSetupRepeats = 3;

/// audit-german: back-to-back ExplainFairnessViolation calls.
Result<RunResult> RunAuditGerman(const Options& opts);
/// serve-read: 3 connections rotating whatif/predict/whatif/explain.
Result<RunResult> RunServeRead(const Options& opts);
/// serve-write: one writer's fixed stream_op sequence beside one reader.
Result<RunResult> RunServeWrite(const Options& opts);

/// Self-tests of the benchmark's own code; returns the number of failures.
int RunSelfTests();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
