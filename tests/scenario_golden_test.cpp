// Single-machine scenario goldens.
//
// The shipped single-machine scenario files (the `machine X` branch of
// run_scenario, which runs the paper's Section V-A setups) and the kv +
// open-loop serving fixture each reduce to one bit-exact hash of their
// RunMetrics: every double by its bit pattern, every counter, and the
// latency histogram's digest with its exact min/max/sum.  The hashes are
// compared against tests/golden/scenarios.txt, so any change to what a
// single-machine scenario reports shows up as a one-line diff.  Re-bless a
// deliberate change with
//
//   VPROBE_UPDATE_GOLDEN=1 ctest -L golden
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "metrics_golden.hpp"
#include "runner/scenario_file.hpp"
#include "scenario_helpers.hpp"

namespace vprobe::test {
namespace {

std::string golden_path() {
  return std::string(VPROBE_GOLDEN_DIR) + "/scenarios.txt";
}

constexpr const char* kHeader =
    "# Single-machine scenario goldens: <key> <fnv1a-64 hex of RunMetrics>\n"
    "# churn_mix, four_node_mix, paper_soplex: examples/scenarios/<key>.scn;\n"
    "# single_serving: the kv + openloop fixture in tests/scenario_helpers.hpp.\n"
    "# Doubles are hashed by bit pattern, the latency histogram by digest.\n"
    "# Regenerate: VPROBE_UPDATE_GOLDEN=1 ctest -L golden\n";

std::string scenario_text(const std::string& key) {
  if (key == "single_serving") return kSingleServing;
  const std::string path = std::string(VPROBE_SCENARIO_DIR) + "/" + key + ".scn";
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << "missing " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::string key_name(const ::testing::TestParamInfo<const char*>& info) {
  return info.param;
}

class ScenarioGolden : public ::testing::TestWithParam<const char*> {};

TEST_P(ScenarioGolden, MetricsMatchCheckedInDigest) {
  const std::string key = GetParam();
  const runner::ScenarioSpec spec = runner::parse_scenario(scenario_text(key));
  ASSERT_FALSE(spec.cluster_mode()) << key << " must take the single-machine path";
  const stats::RunMetrics m = runner::run_scenario(spec);
  ASSERT_TRUE(m.completed) << key;
  const std::string actual = trace::digest_hex(metrics_hash(m));

  auto goldens = load_goldens(golden_path());
  if (update_mode()) {
    goldens[key] = actual;
    save_goldens(golden_path(), kHeader, goldens);
    GTEST_SKIP() << "golden updated: " << key << " = " << actual;
  }
  ASSERT_TRUE(goldens.count(key))
      << "no golden for '" << key << "' in " << golden_path()
      << " — run VPROBE_UPDATE_GOLDEN=1 ctest -L golden";
  EXPECT_EQ(goldens[key], actual)
      << key << ": run metrics changed. If intentional, regenerate with "
      << "VPROBE_UPDATE_GOLDEN=1 ctest -L golden";
}

INSTANTIATE_TEST_SUITE_P(SingleMachine, ScenarioGolden,
                         ::testing::Values("churn_mix", "four_node_mix",
                                           "paper_soplex", "single_serving"),
                         key_name);

}  // namespace
}  // namespace vprobe::test
