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

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "runner/scenario_file.hpp"
#include "scenario_helpers.hpp"
#include "stats/metrics.hpp"
#include "trace/digest.hpp"

namespace vprobe::test {
namespace {

std::string golden_path() {
  return std::string(VPROBE_GOLDEN_DIR) + "/scenarios.txt";
}

std::map<std::string, std::string> load_goldens() {
  std::map<std::string, std::string> goldens;
  std::ifstream in(golden_path());
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string key;
    std::string digest;
    if (fields >> key >> digest) goldens[key] = digest;
  }
  return goldens;
}

void save_goldens(const std::map<std::string, std::string>& goldens) {
  std::ofstream out(golden_path());
  out << "# Single-machine scenario goldens: <key> <fnv1a-64 hex of RunMetrics>\n"
      << "# churn_mix, four_node_mix, paper_soplex: examples/scenarios/<key>.scn;\n"
      << "# single_serving: the kv + openloop fixture in tests/scenario_helpers.hpp.\n"
      << "# Doubles are hashed by bit pattern, the latency histogram by digest.\n"
      << "# Regenerate: VPROBE_UPDATE_GOLDEN=1 ctest -L golden\n";
  for (const auto& [key, digest] : goldens) out << key << ' ' << digest << '\n';
}

bool update_mode() { return std::getenv("VPROBE_UPDATE_GOLDEN") != nullptr; }

struct Hash {
  std::uint64_t h = trace::fnv1a_basis();
  void add(std::uint64_t v) { h = trace::fnv1a_mix(h, v); }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  void add(const std::string& s) {
    add(static_cast<std::uint64_t>(s.size()));
    for (const char c : s) add(static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
  }
};

std::uint64_t metrics_hash(const stats::RunMetrics& m) {
  Hash h;
  h.add(m.scheduler);
  h.add(m.workload);
  h.add(static_cast<std::uint64_t>(m.app_runtime_s.size()));
  for (const auto& [name, runtime] : m.app_runtime_s) {
    h.add(name);
    h.add(runtime);
  }
  h.add(m.avg_runtime_s);
  h.add(m.total_mem_accesses);
  h.add(m.remote_mem_accesses);
  h.add(m.throughput_rps);
  h.add(m.latency.digest());
  h.add(m.latency.count());
  h.add(m.latency.min_s());
  h.add(m.latency.max_s());
  h.add(m.latency.sum_s());
  h.add(m.slo_threshold_s);
  h.add(m.slo_violations);
  h.add(m.arrival_events);
  h.add(m.arrivals_coalesced);
  h.add(m.overhead_fraction);
  h.add(m.migrations);
  h.add(m.cross_node_migrations);
  h.add(m.sim_seconds);
  h.add(static_cast<std::uint64_t>(m.completed));
  h.add(static_cast<std::uint64_t>(m.hosts.size()));
  return h.h;
}

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

  auto goldens = load_goldens();
  if (update_mode()) {
    goldens[key] = actual;
    save_goldens(goldens);
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
