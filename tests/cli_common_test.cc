// The tools' shared front end (tools/cli_common.h): both value forms,
// errors, --help, switch values, repeated and positional arguments, and the
// rule that an integer must fit its field.

#include "cli_common.h"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

namespace fume {
namespace cli {
namespace {

int g_usage_calls = 0;
void CountUsage() { ++g_usage_calls; }

struct Tool {
  bool verbose = false;
  int count = 1;
  int64_t rows = 0;
  uint64_t seed = 4;
  double fraction = 0.3;
  std::string name;
  std::vector<std::string> tags;
  std::vector<std::string> positional;
  FlagSet flags;
  std::string err;  // stderr of the last Parse

  explicit Tool(bool with_positional = false) {
    flags.Bool("--verbose", &verbose);
    flags.Int("--count", &count);
    flags.Int64("--rows", &rows);
    flags.Uint64("--seed", &seed);
    flags.Double("--fraction", &fraction);
    flags.String("--name", &name);
    flags.Custom("--tag", [this](const std::string& value) {
      if (value.empty()) return Status::Invalid("--tag needs a value");
      tags.push_back(value);
      return Status::OK();
    });
    if (with_positional) flags.Positional(&positional);
  }

  std::optional<int> Parse(std::vector<const char*> args) {
    args.insert(args.begin(), "tool");
    testing::internal::CaptureStderr();
    const auto code = flags.Parse(static_cast<int>(args.size()), args.data(),
                                  CountUsage);
    err = testing::internal::GetCapturedStderr();
    return code;
  }
};

TEST(CliFlagSetTest, BothValueFormsParse) {
  Tool t;
  EXPECT_EQ(t.Parse({"--count", "7", "--rows=9000000000", "--seed",
                     "18446744073709551615", "--fraction=0.5", "--name",
                     "a", "--name=c=d", "--verbose"}),
            std::nullopt);
  EXPECT_EQ(t.count, 7);
  EXPECT_EQ(t.rows, 9000000000);
  EXPECT_EQ(t.seed, UINT64_MAX);
  EXPECT_EQ(t.fraction, 0.5);
  EXPECT_EQ(t.name, "c=d");  // the last occurrence wins; '=' splits once
  EXPECT_TRUE(t.verbose);
  Tool u;
  EXPECT_EQ(u.Parse({"--verbose=0"}), std::nullopt);  // =0 switches off
  EXPECT_FALSE(u.verbose);
}

TEST(CliFlagSetTest, SwitchesTakeOnlyBooleanValues) {
  Tool t;
  EXPECT_EQ(t.Parse({"--verbose=true"}), std::nullopt);
  EXPECT_TRUE(t.verbose);
  EXPECT_EQ(t.Parse({"--verbose=false"}), std::nullopt);
  EXPECT_FALSE(t.verbose);
  EXPECT_EQ(t.Parse({"--verbose=1"}), std::nullopt);
  EXPECT_TRUE(t.verbose);
  EXPECT_EQ(t.Parse({"--verbose", "--verbose=0"}), std::nullopt);
  EXPECT_FALSE(t.verbose);  // the last occurrence wins
  EXPECT_EQ(t.Parse({"--verbose=yes"}), 2);
  EXPECT_EQ(t.err,
            "malformed value for --verbose: yes (a switch takes 0, 1, false "
            "or true)\n");
  EXPECT_EQ(t.Parse({"--verbose="}), 2);
  EXPECT_EQ(t.Parse({"--verbose=2"}), 2);
  EXPECT_FALSE(t.verbose);
}

TEST(CliFlagSetTest, MissingValueAndUnknownFlagExitTwo) {
  Tool t;
  EXPECT_EQ(t.Parse({"--verbose", "--count"}), 2);
  EXPECT_EQ(t.err, "missing value for --count\n");
  EXPECT_EQ(t.Parse({"--count", "2", "--bogus=1"}), 2);
  EXPECT_EQ(t.err, "unknown flag: --bogus (see --help)\n");
  EXPECT_EQ(t.Parse({"stray"}), 2);  // no positional sink
  EXPECT_EQ(t.err, "unknown flag: stray (see --help)\n");
}

TEST(CliFlagSetTest, HelpStopsParsingMidLine) {
  g_usage_calls = 0;
  Tool t;
  EXPECT_EQ(t.Parse({"--count", "3", "--help", "--bogus", "--count"}), 0);
  EXPECT_EQ(t.count, 3);  // applied before --help; nothing after is read
  EXPECT_EQ(t.Parse({"-h"}), 0);
  EXPECT_EQ(t.Parse({"--help=yes"}), 0);
  EXPECT_EQ(g_usage_calls, 3);
  EXPECT_EQ(t.Parse({"--bogus", "--help"}), 2);  // an earlier error wins
  EXPECT_EQ(g_usage_calls, 3);
}

TEST(CliFlagSetTest, CustomFlagSeesEveryOccurrence) {
  Tool t;
  EXPECT_EQ(t.Parse({"--tag", "a", "--tag=b", "--tag", "c"}), std::nullopt);
  EXPECT_EQ(t.tags, (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(t.Parse({"--tag="}), 2);
  EXPECT_EQ(t.err, "--tag needs a value\n");
}

TEST(CliFlagSetTest, PositionalArgumentsAreCollected) {
  Tool t(/*with_positional=*/true);
  EXPECT_EQ(t.Parse({"a.json", "--count", "2", "-b.json", "c.json"}),
            std::nullopt);
  EXPECT_EQ(t.positional,
            (std::vector<std::string>{"a.json", "-b.json", "c.json"}));
  EXPECT_EQ(t.count, 2);
  EXPECT_EQ(t.Parse({"--nope"}), 2);
}

TEST(CliFlagSetTest, IntegersMustFitTheirField) {
  Tool t;
  EXPECT_EQ(t.Parse({"--count", "2147483648"}), 2);  // INT_MAX + 1
  EXPECT_EQ(t.err,
            "malformed or out-of-range value for --count: 2147483648\n");
  EXPECT_EQ(t.Parse({"--rows=9223372036854775808"}), 2);  // INT64_MAX + 1
  EXPECT_EQ(t.Parse({"--seed", "-1"}), 2);  // would wrap to UINT64_MAX
  EXPECT_EQ(t.err, "malformed or out-of-range value for --seed: -1\n");
  EXPECT_EQ(t.Parse({"--seed", "18446744073709551616"}), 2);
  EXPECT_EQ(t.Parse({"--fraction", "x"}), 2);
  EXPECT_EQ(t.count, 1);
  EXPECT_EQ(t.rows, 0);
  EXPECT_EQ(t.seed, 4u);
}

TEST(CliGroupsTest, GroupsRegisterTheirFlagsAndBuildConfigs) {
  DataFlags data;
  ModelFlags model;
  SearchFlags search;
  ObsFlags obs;
  FlagSet flags;
  data.Register(&flags);
  model.Register(&flags);
  search.Register(&flags, /*with_metric=*/true);
  obs.Register(&flags, /*with_query_cost=*/false);
  const char* argv[] = {"tool", "--trees", "3", "--model-seed=9",
                        "--metric", "equalized-odds", "--k", "2",
                        "--metrics", "--shards=4"};
  EXPECT_EQ(flags.Parse(10, argv, CountUsage), std::nullopt);
  testing::internal::CaptureStderr();
  const char* query_cost[] = {"tool", "--query-cost"};
  EXPECT_EQ(flags.Parse(2, query_cost, CountUsage), 2);
  const char* bad_metric[] = {"tool", "--metric", "statistical parity"};
  EXPECT_EQ(flags.Parse(3, bad_metric, CountUsage), 2);
  // Shards slice one cohort; there is no placement to choose.
  const char* placement[] = {"tool", "--placement", "slice"};
  EXPECT_EQ(flags.Parse(3, placement, CountUsage), 2);
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "unknown flag: --query-cost (see --help)\n"
            "unknown metric 'statistical parity'\n"
            "unknown flag: --placement (see --help)\n");
  EXPECT_TRUE(obs.print_metrics);
  const ForestConfig forest = model.Forest();
  EXPECT_EQ(forest.num_trees, 3);
  EXPECT_EQ(forest.max_depth, 8);
  EXPECT_EQ(forest.seed, 9u);
  const ShardConfig shard = model.Shard(GroupSpec{1, 0});
  EXPECT_EQ(shard.num_shards, 4);
  EXPECT_EQ(shard.slice_attr, 1);
  EXPECT_EQ(shard.slice_value, 0);
  const FumeConfig fume = search.Fume(GroupSpec{1, 0});
  EXPECT_EQ(fume.top_k, 2);
  EXPECT_EQ(fume.metric, FairnessMetric::kEqualizedOdds);
  EXPECT_EQ(fume.group.sensitive_attr, 1);
}

}  // namespace
}  // namespace cli
}  // namespace fume
