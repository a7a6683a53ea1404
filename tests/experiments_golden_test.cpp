// Section V experiment goldens.
//
// Every experiment family the runner ships (SPEC, NPB, memcached, redis,
// the Table III overhead setup), plus the Figure 1 memory layout and one
// run under the invariant checker, each at a small scale with two seeds
// folded, under Credit and vProbe.  Each run reduces to one bit-exact
// RunMetrics hash pinned in tests/golden/experiments.txt, so a refactor of
// the experiment setup that moves any construction or event order shows up
// as a one-line diff.  Re-bless a deliberate change with
//
//   VPROBE_UPDATE_GOLDEN=1 ctest -L golden
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "metrics_golden.hpp"
#include "runner/run_plan.hpp"

namespace vprobe::test {
namespace {

using runner::RunConfig;
using runner::RunSpec;
using runner::SchedKind;

std::string golden_path() {
  return std::string(VPROBE_GOLDEN_DIR) + "/experiments.txt";
}

constexpr const char* kHeader =
    "# Section V experiment goldens: <case>_<sched> <fnv1a-64 hex of RunMetrics>\n"
    "# Cases and scale: tests/experiments_golden_test.cpp (repeats 2).\n"
    "# Doubles are hashed by bit pattern, the latency histogram by digest.\n"
    "# Regenerate: VPROBE_UPDATE_GOLDEN=1 ctest -L golden\n";

struct Case {
  const char* name;
  RunSpec (*make)(RunConfig cfg);
};

const std::vector<Case>& cases() {
  static const std::vector<Case> all = {
      {"spec_soplex", [](RunConfig c) { return RunSpec::spec(c, "soplex"); }},
      {"spec_mix", [](RunConfig c) { return RunSpec::spec(c, "mix"); }},
      {"npb_lu", [](RunConfig c) { return RunSpec::npb(c, "lu"); }},
      {"memcached_c64",
       [](RunConfig c) { return RunSpec::memcached(c, 64, 60'000); }},
      {"redis_p2000",
       [](RunConfig c) { return RunSpec::redis(c, 2000, 60'000); }},
      {"overhead_2vms", [](RunConfig c) { return RunSpec::overhead(c, 2); }},
      {"spec_mcf_fig1",
       [](RunConfig c) {
         c.fig1_memory_config = true;
         return RunSpec::spec(c, "mcf");
       }},
      {"spec_milc_checks",
       [](RunConfig c) {
         c.checks = true;
         return RunSpec::spec(c, "milc");
       }},
  };
  return all;
}

struct Param {
  std::size_t index;
  SchedKind sched;
};

std::string key_of(const Param& p) {
  return std::string(cases()[p.index].name) + "_" +
         (p.sched == SchedKind::kCredit ? "credit" : "vprobe");
}

std::vector<Param> all_params() {
  std::vector<Param> params;
  for (std::size_t i = 0; i < cases().size(); ++i) {
    for (SchedKind kind : {SchedKind::kCredit, SchedKind::kVprobe}) {
      params.push_back({i, kind});
    }
  }
  return params;
}

class ExperimentGolden : public ::testing::TestWithParam<Param> {};

TEST_P(ExperimentGolden, MetricsMatchCheckedInDigest) {
  const std::string key = key_of(GetParam());
  RunConfig cfg;
  cfg.sched = GetParam().sched;
  cfg.seed = 1;
  cfg.repeats = 2;
  cfg.instr_scale = 0.1;
  cfg.horizon = sim::Time::sec(600);

  runner::RunPlan plan;
  plan.add(cases()[GetParam().index].make(cfg));
  const stats::RunMetrics m = runner::execute_plan(plan).front();
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

INSTANTIATE_TEST_SUITE_P(
    SectionV, ExperimentGolden, ::testing::ValuesIn(all_params()),
    [](const ::testing::TestParamInfo<Param>& p) { return key_of(p.param); });

}  // namespace
}  // namespace vprobe::test
