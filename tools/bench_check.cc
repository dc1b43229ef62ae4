// bench_check: bench regression guard over the BENCH_*.json artifacts.
//
//   # CI smoke: structural validation of freshly produced artifacts
//   bench_check --smoke --fresh-dir build-bench-smoke/bench-smoke/bench_artifacts
//
//   # full compare: fresh full-run artifacts vs the committed baseline
//   bench_check --baseline-dir bench_artifacts --fresh-dir /tmp/bench_artifacts
//               --tolerance 0.30
//
// Exits 0 when every artifact passes, 1 on any regression or structural
// problem, 2 on usage errors. See tools/bench_compare.h for the artifact
// model and docs/observability.md for how this slots into CI.

#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "bench_compare.h"
#include "cli_common.h"
#include "util/string_util.h"

namespace {

using namespace fume;

constexpr const char* kDefaultArtifacts[] = {
    "BENCH_eval.json",
    "BENCH_unlearn.json",
    "BENCH_incremental.json",
    "BENCH_serve.json",
    "BENCH_shard.json",
};

struct CheckOptions {
  bool smoke = false;
  double tolerance = 0.30;
  std::string baseline_dir = "bench_artifacts";
  std::string fresh_dir = "bench_artifacts";
  std::vector<std::string> artifacts;  // file names, not paths
};

void PrintUsage() {
  std::cout << R"(bench_check — compare bench artifacts against the committed baseline

  --smoke               structural validation of the fresh artifacts only:
                        parseable, non-empty cells, finite-positive
                        throughput, *_identical attestations true. No
                        baseline comparison (smoke cells don't match
                        full-run cells, and CI throughput is noise).
  --tolerance F         full mode: fail a cell when fresh throughput is
                        below baseline * (1 - F) (default 0.30)
  --baseline-dir DIR    committed artifacts (default bench_artifacts)
  --fresh-dir DIR       freshly produced artifacts (default bench_artifacts)
  ARTIFACT...           file names to check (default BENCH_eval.json
                        BENCH_unlearn.json BENCH_incremental.json
                        BENCH_serve.json BENCH_shard.json)
  --help, -h            this text
)";
}

int Run(const CheckOptions& opts) {
  std::vector<std::string> names = opts.artifacts;
  if (names.empty()) {
    names.assign(std::begin(kDefaultArtifacts), std::end(kDefaultArtifacts));
  }

  int status = 0;
  for (const std::string& name : names) {
    const std::string fresh_path = opts.fresh_dir + "/" + name;
    auto fresh = util::ParseJsonFile(fresh_path);
    if (!fresh.ok()) {
      std::cerr << "FAIL " << name << ": " << fresh.status().ToString()
                << "\n";
      status = 1;
      continue;
    }

    if (opts.smoke) {
      std::vector<std::string> problems;
      bench_check::CheckArtifactStructure(*fresh, name, &problems);
      if (problems.empty()) {
        // The checked path in the log line makes "which artifact passed"
        // unambiguous when CI runs several fresh dirs in one job.
        std::cout << "OK   " << fresh_path << " (structural)\n";
      } else {
        for (const std::string& p : problems) std::cerr << "FAIL " << p << "\n";
        status = 1;
      }
      continue;
    }

    const std::string baseline_path = opts.baseline_dir + "/" + name;
    auto baseline = util::ParseJsonFile(baseline_path);
    if (!baseline.ok()) {
      std::cerr << "FAIL " << name << ": " << baseline.status().ToString()
                << "\n";
      status = 1;
      continue;
    }
    bench_check::CompareOptions compare;
    compare.tolerance = opts.tolerance;
    auto result =
        bench_check::CompareArtifacts(name, *baseline, *fresh, compare);
    if (!result.ok()) {
      std::cerr << "FAIL " << name << ": " << result.status().ToString()
                << "\n";
      status = 1;
      continue;
    }
    for (const bench_check::CellComparison& cell : result->cells) {
      if (!cell.regression) continue;
      if (cell.missing_in_fresh) {
        std::cerr << "FAIL " << name << " [" << cell.key
                  << "]: cell missing from fresh artifact\n";
      } else {
        // Both throughputs plus the computed ratio, so a CI log line is
        // enough to judge how far below the floor the cell landed.
        const double ratio =
            cell.baseline > 0.0 ? cell.fresh / cell.baseline : 0.0;
        std::cerr << "FAIL " << name << " [" << cell.key << "]: "
                  << cell.field << " fresh " << FormatDouble(cell.fresh, 2)
                  << " vs baseline " << FormatDouble(cell.baseline, 2)
                  << " (ratio " << FormatDouble(ratio, 2) << " < floor "
                  << FormatDouble(1.0 - opts.tolerance, 2) << ")\n";
      }
    }
    for (const bench_check::CellComparison& cell :
         result->baseline_extending) {
      std::cout << "INFO " << name << " [" << cell.key << "]: new cell ("
                << cell.field << " " << FormatDouble(cell.fresh, 2)
                << "), extends the baseline — refresh " << opts.baseline_dir
                << "/" << name << " to start guarding it\n";
    }
    if (result->ok()) {
      std::cout << "OK   " << name << " (" << result->cells.size()
                << " cells within " << FormatDouble(opts.tolerance * 100, 0)
                << "% of baseline " << baseline_path;
      if (!result->baseline_extending.empty()) {
        std::cout << ", " << result->baseline_extending.size()
                  << " baseline-extending";
      }
      std::cout << ")\n";
    } else {
      std::cerr << "FAIL " << name << ": regressions vs baseline "
                << baseline_path << "\n";
      status = 1;
    }
  }

  if (status == 0) {
    std::cout << "bench_check: all artifacts OK\n";
  } else {
    std::cerr << "bench_check: FAILED\n";
  }
  return status;
}

}  // namespace

int main(int argc, char** argv) {
  CheckOptions opts;
  cli::FlagSet flags;
  flags.Bool("--smoke", &opts.smoke);
  flags.Custom("--tolerance", [&opts](const std::string& value) {
    double tolerance = 0.0;
    if (!ParseDouble(value, &tolerance) || tolerance < 0.0 ||
        tolerance >= 1.0) {
      return Status::Invalid("--tolerance needs a value in [0, 1)");
    }
    opts.tolerance = tolerance;
    return Status::OK();
  });
  flags.String("--baseline-dir", &opts.baseline_dir);
  flags.String("--fresh-dir", &opts.fresh_dir);
  flags.Positional(&opts.artifacts);
  if (auto exit_code = flags.Parse(argc, argv, PrintUsage)) return *exit_code;
  return Run(opts);
}
