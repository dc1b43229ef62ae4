#include "common.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <random>

#include "data/split.h"
#include "synth/registry.h"

namespace perfbench {

uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  // SplitMix64 over (seed, stream): well-mixed, independent sub-streams.
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream * 0xD1B54A32D192ED03ULL +
               0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

Result<GermanData> MakeGerman(int64_t rows, uint64_t data_seed) {
  FUME_ASSIGN_OR_RETURN(fume::synth::RegisteredDataset dataset,
                        fume::synth::FindDataset("german-credit"));
  fume::synth::SynthOptions synth;
  synth.num_rows = rows;
  synth.seed = data_seed;
  FUME_ASSIGN_OR_RETURN(fume::synth::DatasetBundle bundle,
                        dataset.make(synth));
  fume::SplitOptions split_options;
  split_options.test_fraction = 0.3;
  split_options.seed = 2;
  FUME_ASSIGN_OR_RETURN(fume::TrainTestSplit split,
                        fume::SplitTrainTest(bundle.data, split_options));
  GermanData data;
  data.train = std::move(split.train);
  data.test = std::move(split.test);
  data.group = bundle.group;
  return data;
}

fume::ForestConfig PaperForestConfig() {
  fume::ForestConfig config;
  config.num_trees = 10;
  config.max_depth = 8;
  config.random_depth = 2;
  config.seed = 31;
  return config;
}

fume::FumeConfig PaperFumeConfig(const GroupSpec& group) {
  fume::FumeConfig config;
  config.top_k = 5;
  config.support_min = 0.05;
  config.support_max = 0.15;
  config.max_literals = 2;
  config.metric = fume::FairnessMetric::kStatisticalParity;
  config.group = group;
  config.num_threads = 2;
  return config;
}

std::vector<fume::RowId> MatchingIds(const Predicate& p, const Dataset& data) {
  std::vector<fume::RowId> ids;
  for (int64_t r = 0; r < data.num_rows(); ++r) {
    if (p.MatchesRow(data, r)) ids.push_back(static_cast<fume::RowId>(r));
  }
  return ids;
}

ServeFixture MakeServeFixture(const GermanData& data, uint64_t request_seed) {
  ServeFixture f;
  const int64_t n = data.train.num_rows();
  const int64_t pool_rows = n / 3;
  std::vector<int64_t> head, tail;
  for (int64_t r = 0; r < n; ++r) {
    (r < n - pool_rows ? head : tail).push_back(r);
  }
  f.initial_train = data.train.DropRows(tail);
  f.pool = data.train.DropRows(head);
  f.test = data.test;
  f.group = data.group;

  std::mt19937_64 rng(request_seed);
  // Every equality literal with a non-empty match, in schema order.
  const Dataset& train = f.initial_train;
  std::vector<fume::Literal> literals;
  for (int a = 0; a < train.num_attributes(); ++a) {
    const int card = train.schema().attribute(a).cardinality();
    for (int32_t v = 0; v < card; ++v) {
      fume::Literal lit;
      lit.attr = a;
      lit.op = fume::LiteralOp::kEq;
      lit.value = v;
      if (!MatchingIds(Predicate::Of(lit), train).empty()) {
        literals.push_back(lit);
      }
    }
  }
  constexpr int kPerArity = 24;
  std::vector<Predicate> singles;
  for (const fume::Literal& lit : literals) singles.push_back(Predicate::Of(lit));
  std::shuffle(singles.begin(), singles.end(), rng);
  singles.resize(std::min<size_t>(singles.size(), kPerArity));
  std::vector<Predicate> pairs;
  std::uniform_int_distribution<size_t> pick(0, literals.size() - 1);
  for (int tries = 0; pairs.size() < kPerArity && tries < 100000; ++tries) {
    const fume::Literal a = literals[pick(rng)];
    const fume::Literal b = literals[pick(rng)];
    if (a.attr == b.attr) continue;
    Predicate p({a, b});
    if (MatchingIds(p, train).empty()) continue;
    if (std::find(pairs.begin(), pairs.end(), p) != pairs.end()) continue;
    pairs.push_back(p);
  }
  f.predicates = singles;
  f.predicates.insert(f.predicates.end(), pairs.begin(), pairs.end());

  constexpr int kPredictBatches = 16;
  constexpr int kPredictRows = 64;
  std::uniform_int_distribution<int64_t> test_row(0, f.test.num_rows() - 1);
  for (int b = 0; b < kPredictBatches; ++b) {
    std::vector<std::vector<int32_t>> rows;
    for (int i = 0; i < kPredictRows; ++i) {
      const int64_t r = test_row(rng);
      std::vector<int32_t> codes(static_cast<size_t>(f.test.num_attributes()));
      for (int a = 0; a < f.test.num_attributes(); ++a) {
        codes[static_cast<size_t>(a)] = f.test.Code(r, a);
      }
      rows.push_back(std::move(codes));
    }
    f.predict_batches.push_back(std::move(rows));
  }
  constexpr int kOrderLength = 4096;
  std::uniform_int_distribution<int> which_pred(
      0, static_cast<int>(f.predicates.size()) - 1);
  std::uniform_int_distribution<int> which_batch(0, kPredictBatches - 1);
  for (int i = 0; i < kOrderLength; ++i) {
    f.whatif_order.push_back(which_pred(rng));
    f.predict_order.push_back(which_batch(rng));
  }
  return f;
}

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

void RunResult::Fail(const std::string& what) {
  ++failed;
  correct = false;
  // Keep the report readable when a systematic mismatch repeats per op.
  if (failed <= 10) Line("FAILED: " + what);
}

StateDir::StateDir(const Options& opts) {
  static int counter = 0;
  path_ = opts.out_dir + "/state-" + std::to_string(getpid()) + "-" +
          std::to_string(counter++);
  std::filesystem::remove_all(path_);
  std::filesystem::create_directories(path_);
}

StateDir::~StateDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

std::string Fmt(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

}  // namespace perfbench
