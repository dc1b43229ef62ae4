// Machine record printed with every run: context for reading the numbers,
// never an adjustment to them.

#ifndef PERFBENCH_MACHINE_H_
#define PERFBENCH_MACHINE_H_

#include <string>

namespace perfbench {

/// Wall milliseconds of a fixed integer ALU loop: a probe of how fast the
/// host ran a known amount of work at that moment.
double CalibrationLoopMs();

/// One-line JSON: nproc, CPU model, compiler, build type and flags, commit
/// (from the PERFBENCH_COMMIT environment variable), and the calibration
/// loop's time at the start and end of the workload.
std::string MachineRecordJson(double calibration_start_ms,
                              double calibration_end_ms);

}  // namespace perfbench

#endif  // PERFBENCH_MACHINE_H_
