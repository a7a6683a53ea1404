// End-to-end integration tests over the experiment runner: each test runs a
// miniature version of a paper experiment and checks the qualitative result
// the paper reports (who wins, which direction a metric moves).
#include <gtest/gtest.h>

#include "runner/run_plan.hpp"

namespace vprobe::runner {
namespace {

RunConfig quick(SchedKind sched) {
  RunConfig cfg;
  cfg.sched = sched;
  // Long enough for several 1 s sampling periods to elapse mid-run (the
  // partitioner must get a chance to act), averaged over two seeds.
  cfg.instr_scale = 0.15;
  cfg.repeats = 2;
  cfg.horizon = sim::Time::sec(1200);
  return cfg;
}

TEST(Integration, SpecRunCompletesUnderAllSchedulers) {
  for (SchedKind kind : paper_schedulers()) {
    const auto m = run_one(RunSpec::spec(quick(kind), "milc"));
    EXPECT_TRUE(m.completed) << to_string(kind);
    EXPECT_GT(m.avg_runtime_s, 0.0) << to_string(kind);
    EXPECT_GT(m.total_mem_accesses, 0.0) << to_string(kind);
    EXPECT_EQ(m.scheduler, to_string(kind));
  }
}

TEST(Integration, VprobeBeatsCreditOnSpec) {
  const auto credit = run_one(RunSpec::spec(quick(SchedKind::kCredit), "soplex"));
  const auto vprobe = run_one(RunSpec::spec(quick(SchedKind::kVprobe), "soplex"));
  ASSERT_TRUE(credit.completed);
  ASSERT_TRUE(vprobe.completed);
  EXPECT_LT(vprobe.avg_runtime_s, credit.avg_runtime_s)
      << "vProbe must outperform Credit on memory-intensive SPEC workloads";
  EXPECT_LT(vprobe.remote_mem_accesses, credit.remote_mem_accesses)
      << "vProbe must reduce remote memory accesses";
}

TEST(Integration, VprobeBeatsCreditOnNpb) {
  RunConfig cfg = quick(SchedKind::kCredit);
  cfg.instr_scale = 0.015;
  const auto credit = run_one(RunSpec::npb(cfg, "sp"));
  cfg.sched = SchedKind::kVprobe;
  const auto vprobe = run_one(RunSpec::npb(cfg, "sp"));
  ASSERT_TRUE(credit.completed);
  ASSERT_TRUE(vprobe.completed);
  EXPECT_LT(vprobe.avg_runtime_s, credit.avg_runtime_s);
}

TEST(Integration, CreditHasHighRemoteRatio) {
  const auto m = run_one(RunSpec::spec(quick(SchedKind::kCredit), "milc"));
  ASSERT_TRUE(m.completed);
  EXPECT_GT(m.remote_access_ratio(), 0.3)
      << "NUMA-oblivious Credit should leave a large remote-access share";
}

TEST(Integration, VprobeReducesRemoteRatio) {
  const auto credit = run_one(RunSpec::spec(quick(SchedKind::kCredit), "libquantum"));
  const auto vprobe = run_one(RunSpec::spec(quick(SchedKind::kVprobe), "libquantum"));
  ASSERT_TRUE(credit.completed && vprobe.completed);
  EXPECT_LT(vprobe.remote_access_ratio(), credit.remote_access_ratio());
}

TEST(Integration, MemcachedCompletesAndVprobeWins) {
  RunConfig cfg = quick(SchedKind::kCredit);
  const auto credit = run_one(RunSpec::memcached(cfg, 64, 60'000));
  cfg.sched = SchedKind::kVprobe;
  const auto vprobe = run_one(RunSpec::memcached(cfg, 64, 60'000));
  ASSERT_TRUE(credit.completed && vprobe.completed);
  EXPECT_GT(credit.throughput_rps, 0.0);
  EXPECT_LT(vprobe.avg_runtime_s, credit.avg_runtime_s);
}

TEST(Integration, RedisCompletesAndVprobeWins) {
  RunConfig cfg = quick(SchedKind::kCredit);
  const auto credit = run_one(RunSpec::redis(cfg, 2000, 60'000));
  cfg.sched = SchedKind::kVprobe;
  const auto vprobe = run_one(RunSpec::redis(cfg, 2000, 60'000));
  ASSERT_TRUE(credit.completed && vprobe.completed);
  EXPECT_GT(vprobe.throughput_rps, credit.throughput_rps);
}

TEST(Integration, SoloRunsReproduceFigure3Rpti) {
  RunConfig cfg = quick(SchedKind::kCredit);
  cfg.instr_scale = 0.01;
  const auto povray = run_solo(cfg, "povray");
  const auto libq = run_solo(cfg, "libquantum");
  EXPECT_NEAR(povray.rpti, 0.48, 0.05);
  EXPECT_NEAR(libq.rpti, 22.41, 0.5);
  EXPECT_LT(povray.llc_miss_rate, 0.1);
  EXPECT_GT(libq.llc_miss_rate, 0.5);
}

TEST(Integration, OverheadIsNegligible) {
  RunConfig cfg = quick(SchedKind::kVprobe);
  cfg.instr_scale = 0.05;
  const auto m = run_one(RunSpec::overhead(cfg, 2));
  ASSERT_TRUE(m.completed);
  EXPECT_LT(m.overhead_fraction, 0.001)
      << "paper: overhead time is far below 0.1% of execution time";
  EXPECT_GT(m.overhead_fraction, 0.0);
}

TEST(Integration, DeterministicAcrossRuns) {
  const auto a = run_one(RunSpec::spec(quick(SchedKind::kVprobe), "milc"));
  const auto b = run_one(RunSpec::spec(quick(SchedKind::kVprobe), "milc"));
  EXPECT_DOUBLE_EQ(a.avg_runtime_s, b.avg_runtime_s);
  EXPECT_DOUBLE_EQ(a.total_mem_accesses, b.total_mem_accesses);
  EXPECT_EQ(a.migrations, b.migrations);
}

TEST(Integration, SeedChangesScheduleButNotOutcomeDirection) {
  RunConfig cfg = quick(SchedKind::kCredit);
  cfg.seed = 99;
  const auto credit = run_one(RunSpec::spec(cfg, "soplex"));
  cfg.sched = SchedKind::kVprobe;
  const auto vprobe = run_one(RunSpec::spec(cfg, "soplex"));
  ASSERT_TRUE(credit.completed && vprobe.completed);
  EXPECT_LT(vprobe.avg_runtime_s, credit.avg_runtime_s);
}

}  // namespace
}  // namespace vprobe::runner
