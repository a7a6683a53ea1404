// Property-style tests (parameterized gtest): invariants that must hold
// across parameter sweeps — conservation of counters, fairness envelopes,
// partitioner balance for arbitrary populations, cost-model monotonicity.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "core/partitioner.hpp"
#include "numa/rate_tracker.hpp"
#include "perf/warmth.hpp"
#include "perf/cost_model.hpp"
#include "runner/run_plan.hpp"
#include "test_helpers.hpp"

namespace vprobe {
namespace {

using test::FakeWork;
using test::kTestGB;

// -------------------------------------- Cost model monotonicity sweeps ----

class CostMonotonicity : public ::testing::TestWithParam<double> {};

TEST_P(CostMonotonicity, MoreRemoteDataNeverFaster) {
  const numa::MachineConfig cfg = numa::MachineConfig::xeon_e5620();
  perf::MachineState state(cfg);
  perf::CostModel model(cfg, state);
  const double rpti = GetParam();

  double prev = 0.0;
  for (double remote = 0.0; remote <= 1.0; remote += 0.25) {
    const std::array<double, 2> frac = {1.0 - remote, remote};
    perf::SliceProfile p;
    p.rpti = rpti;
    p.solo_miss = 0.5;
    p.node_fractions = frac;
    const double nspi = model.ns_per_instr(p, 0, 0.0, sim::Time::zero());
    EXPECT_GE(nspi, prev) << "remote fraction " << remote;
    prev = nspi;
  }
}

TEST_P(CostMonotonicity, ColderCacheNeverFaster) {
  const numa::MachineConfig cfg = numa::MachineConfig::xeon_e5620();
  perf::MachineState state(cfg);
  perf::CostModel model(cfg, state);
  perf::SliceProfile p;
  p.rpti = GetParam();
  p.solo_miss = 0.2;
  double prev = 0.0;
  for (double cold = 0.0; cold <= 0.3; cold += 0.1) {
    const double nspi = model.ns_per_instr(p, 0, cold, sim::Time::zero());
    EXPECT_GE(nspi, prev);
    prev = nspi;
  }
}

INSTANTIATE_TEST_SUITE_P(RptiSweep, CostMonotonicity,
                         ::testing::Values(0.5, 2.0, 10.0, 17.0, 22.0, 30.0));

// ------------------------------------------- Partitioner balance sweep ----

struct PartitionCase {
  int llc_t;
  int llc_fi;
  int llc_fr;
};

class PartitionerBalance : public ::testing::TestWithParam<PartitionCase> {};

TEST_P(PartitionerBalance, ReassignedLoadDiffersByAtMostOne) {
  const auto param = GetParam();
  const int total = param.llc_t + param.llc_fi + param.llc_fr;

  hv::Hypervisor::Config cfg;
  auto hv = std::make_unique<hv::Hypervisor>(
      cfg, std::make_unique<hv::CreditScheduler>());
  hv::Domain& dom = hv->create_domain("VM", 8 * kTestGB, total,
                                      numa::PlacementPolicy::kFillFirst, 0);
  std::vector<std::unique_ptr<FakeWork>> works;
  sim::Rng rng(static_cast<std::uint64_t>(total) * 7919);
  for (int i = 0; i < total; ++i) {
    works.push_back(std::make_unique<FakeWork>());
    hv->bind_work(dom.vcpu(static_cast<std::size_t>(i)), *works.back());
    hv::Vcpu& v = dom.vcpu(static_cast<std::size_t>(i));
    if (i < param.llc_t) {
      v.vcpu_type = hv::VcpuType::kLlcThrashing;
    } else if (i < param.llc_t + param.llc_fi) {
      v.vcpu_type = hv::VcpuType::kLlcFitting;
    } else {
      v.vcpu_type = hv::VcpuType::kLlcFriendly;
    }
    v.node_affinity = static_cast<numa::NodeId>(rng.uniform_int(0, 1));
  }
  hv->start();

  core::PeriodicalPartitioner partitioner;
  const auto result = partitioner.partition(*hv);
  EXPECT_EQ(result.considered, param.llc_t + param.llc_fi);

  // Process pending migrations, then census memory-intensive VCPUs per node.
  hv->engine().run_until(sim::Time::ms(1));
  std::array<int, 2> census{0, 0};
  for (int i = 0; i < param.llc_t + param.llc_fi; ++i) {
    const auto node =
        hv->topology().node_of(dom.vcpu(static_cast<std::size_t>(i)).pcpu);
    ++census[static_cast<std::size_t>(node)];
  }
  EXPECT_LE(std::abs(census[0] - census[1]), 1)
      << "memory-intensive VCPUs must be spread evenly";
}

INSTANTIATE_TEST_SUITE_P(
    Populations, PartitionerBalance,
    ::testing::Values(PartitionCase{4, 0, 0}, PartitionCase{0, 4, 0},
                      PartitionCase{3, 3, 2}, PartitionCase{5, 2, 1},
                      PartitionCase{1, 1, 6}, PartitionCase{7, 0, 1},
                      PartitionCase{2, 5, 9}, PartitionCase{0, 0, 8}));

// ------------------------------------------------ Execution conservation ----

class ConservationTest : public ::testing::TestWithParam<int> {};

TEST_P(ConservationTest, InstructionsNeitherLostNorInvented) {
  const int vcpus = GetParam();
  auto hv = test::make_credit_hv(static_cast<std::uint64_t>(vcpus));
  hv::Domain& dom = hv->create_domain("VM", 8 * kTestGB, vcpus,
                                      numa::PlacementPolicy::kFillFirst, 0);
  std::vector<std::unique_ptr<FakeWork>> works;
  const double budget = 20e6;
  for (int i = 0; i < vcpus; ++i) {
    works.push_back(std::make_unique<FakeWork>());
    works.back()->total_instructions = budget;
    works.back()->rpti = 5.0 + i;  // varied memory behaviour
    works.back()->solo_miss = 0.2;
    hv->bind_work(dom.vcpu(static_cast<std::size_t>(i)), *works.back());
  }
  hv->start();
  for (int i = 0; i < vcpus; ++i) hv->wake(dom.vcpu(static_cast<std::size_t>(i)));
  hv->engine().run_until(sim::Time::sec(20));

  for (int i = 0; i < vcpus; ++i) {
    const auto& w = *works[static_cast<std::size_t>(i)];
    EXPECT_TRUE(w.finished) << "vcpu " << i;
    // The PMU must agree with the workload's own progress accounting.
    const auto& c = dom.vcpu(static_cast<std::size_t>(i)).pmu.cumulative();
    EXPECT_NEAR(c.instr_retired, budget, budget * 1e-6);
    // Access split across nodes must add up to total misses.
    EXPECT_NEAR(c.mem_accesses[0] + c.mem_accesses[1], c.llc_misses,
                std::max(1.0, c.llc_misses * 1e-9));
    // Remote accesses can never exceed the total.
    EXPECT_LE(c.remote_accesses, c.total_mem_accesses() + 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(VcpuCounts, ConservationTest,
                         ::testing::Values(1, 2, 4, 8, 12, 16, 24));

// ------------------------------------------------- Scheduler invariants ----

class SchedulerInvariants
    : public ::testing::TestWithParam<runner::SchedKind> {};

TEST_P(SchedulerInvariants, NoVcpuIsStarvedOrDuplicated) {
  auto hv = runner::make_hypervisor(GetParam(), 5);
  hv::Domain& dom = hv->create_domain("VM", 8 * kTestGB, 12,
                                      numa::PlacementPolicy::kFillFirst, 0);
  std::vector<std::unique_ptr<FakeWork>> works;
  for (int i = 0; i < 12; ++i) {
    works.push_back(std::make_unique<FakeWork>());
    works.back()->rpti = (i % 2) ? 22.0 : 1.0;
    works.back()->solo_miss = 0.4;
    works.back()->working_set = 16e6;
    hv->bind_work(dom.vcpu(static_cast<std::size_t>(i)), *works.back());
  }
  hv->start();
  for (int i = 0; i < 12; ++i) hv->wake(dom.vcpu(static_cast<std::size_t>(i)));
  hv->engine().run_until(sim::Time::sec(5));

  // (1) No starvation: every spinner made progress.
  for (auto& w : works) EXPECT_GT(w->executed, 1e6);

  // (2) No duplication: a VCPU is either running on exactly one PCPU or
  //     queued on exactly one queue, never both/neither while runnable.
  int running = 0;
  for (auto& p : hv->pcpus()) {
    if (p.busy()) {
      ++running;
      EXPECT_EQ(p.current->state, hv::VcpuState::kRunning);
      EXPECT_FALSE(p.current->in_runqueue);
    }
    for (hv::Vcpu* v : p.queue.items()) {
      EXPECT_EQ(v->state, hv::VcpuState::kRunnable);
      EXPECT_EQ(v->pcpu, p.id);
    }
  }
  EXPECT_EQ(running, 8) << "12 spinners on 8 PCPUs: all PCPUs busy";

  // (3) Busy time is bounded by wall time x PCPUs.
  EXPECT_LE(hv->total_busy_time().to_seconds(),
            hv->now().to_seconds() * 8 * 1.001);
}

INSTANTIATE_TEST_SUITE_P(AllSchedulers, SchedulerInvariants,
                         ::testing::Values(runner::SchedKind::kCredit,
                                           runner::SchedKind::kVprobe,
                                           runner::SchedKind::kVcpuP,
                                           runner::SchedKind::kLb,
                                           runner::SchedKind::kBrm));

// ----------------------------------------- Sampling-period sensitivity ----

class SamplingPeriods : public ::testing::TestWithParam<int> {};

TEST_P(SamplingPeriods, VprobeCompletesForAnyPeriod) {
  runner::RunConfig cfg;
  cfg.sched = runner::SchedKind::kVprobe;
  cfg.instr_scale = 0.01;
  cfg.sampling_period = sim::Time::ms(GetParam());
  cfg.horizon = sim::Time::sec(1200);
  const auto m = runner::run_one(runner::RunSpec::spec(cfg, "milc"));
  EXPECT_TRUE(m.completed) << "period " << GetParam() << " ms";
  EXPECT_GT(m.avg_runtime_s, 0.0);
}

INSTANTIATE_TEST_SUITE_P(PeriodsMs, SamplingPeriods,
                         ::testing::Values(100, 500, 1000, 5000, 10000));

// --------------------------------------------------- LLC model invariants ----

class LlcInvariants : public ::testing::TestWithParam<int> {};

TEST_P(LlcInvariants, OvercommitAndMissRateStayInRange) {
  sim::Rng rng(static_cast<std::uint64_t>(GetParam()));
  numa::LlcModel llc(12.0 * 1024 * 1024);
  // Random add/update/remove churn.
  for (int step = 0; step < 500; ++step) {
    const auto id = static_cast<std::uint64_t>(rng.uniform_int(0, 15));
    if (rng.chance(0.3)) {
      llc.remove(id);
    } else {
      llc.set_demand(id, rng.uniform(0.0, 40.0) * 1024 * 1024);
    }
    const double oc = llc.overcommit();
    EXPECT_GE(oc, 0.0);
    EXPECT_LT(oc, 1.0);
    const double solo = rng.uniform(0.0, 1.0);
    const double sens = rng.uniform(0.0, 2.0);
    const double miss = llc.miss_rate(solo, sens);
    EXPECT_GE(miss, solo - 1e-12) << "contention can only add misses";
    EXPECT_LE(miss, 1.0);
  }
  // Removing every occupant restores the empty state exactly.
  for (std::uint64_t id = 0; id < 16; ++id) llc.remove(id);
  EXPECT_DOUBLE_EQ(llc.overcommit(), 0.0);
  EXPECT_EQ(llc.occupants(), 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LlcInvariants, ::testing::Values(1, 2, 3, 4));

// ------------------------------------------------------ Warmth recovery ----

class WarmthRecovery : public ::testing::TestWithParam<double> {};

TEST_P(WarmthRecovery, MonotoneAndBounded) {
  perf::CacheWarmth w;
  w.on_migration(/*cross_node=*/true);
  double prev = w.value();
  for (int i = 0; i < 50; ++i) {
    w.on_executed(GetParam());
    EXPECT_GE(w.value(), prev);
    EXPECT_LE(w.value(), 1.0);
    EXPECT_GE(w.extra_miss_rate(), 0.0);
    prev = w.value();
  }
  EXPECT_GT(w.value(), 0.5) << "warmth must recover with execution";
}

INSTANTIATE_TEST_SUITE_P(InstructionChunks, WarmthRecovery,
                         ::testing::Values(1e6, 5e6, 2e7, 1e8));

// -------------------------------------------------- RateTracker property ----

class RateConvergence : public ::testing::TestWithParam<double> {};

TEST_P(RateConvergence, EwmaConvergesToTrueRate) {
  const double rate = GetParam();  // units per second
  numa::RateTracker tracker(sim::Time::ms(10));
  sim::Time now = sim::Time::zero();
  const sim::Time step = sim::Time::us(500);
  for (int i = 0; i < 2000; ++i) {
    now += step;
    tracker.record(rate * step.to_seconds(), now);
  }
  EXPECT_NEAR(tracker.rate(now), rate, rate * 0.15);
}

INSTANTIATE_TEST_SUITE_P(Rates, RateConvergence,
                         ::testing::Values(1e3, 1e6, 25.6e9));

// -------------------------------------------------- RunQueue order prop ----

class RunQueueOrder : public ::testing::TestWithParam<int> {};

TEST_P(RunQueueOrder, PopsNeverRaiseInPriorityWithinSnapshot) {
  sim::Rng rng(static_cast<std::uint64_t>(GetParam()) * 31);
  hv::Domain dom(1, "d", nullptr);
  hv::RunQueue queue;
  std::vector<hv::Vcpu*> vcpus;
  for (int i = 0; i < 32; ++i) {
    hv::Vcpu& v = dom.add_vcpu(i);
    v.state = hv::VcpuState::kRunnable;
    v.priority = static_cast<hv::CreditPrio>(rng.uniform_int(0, 2));
    queue.insert(v);
    vcpus.push_back(&v);
  }
  int prev = -1;
  while (hv::Vcpu* v = queue.pop_front()) {
    EXPECT_GE(static_cast<int>(v->priority), prev)
        << "queue must drain strongest priority class first";
    prev = static_cast<int>(v->priority);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RunQueueOrder, ::testing::Values(1, 7, 13));

// ------------------------------------------------------- Engine ordering ----

class EngineOrdering : public ::testing::TestWithParam<int> {};

TEST_P(EngineOrdering, RandomEventsFireInNondecreasingTime) {
  sim::Rng rng(static_cast<std::uint64_t>(GetParam()) * 101);
  sim::Engine engine;
  std::vector<std::int64_t> fired;
  for (int i = 0; i < 1000; ++i) {
    const sim::Time when = sim::Time::us(rng.uniform_int(0, 100'000));
    engine.schedule_at(when, [&fired, when] { fired.push_back(when.nanos()); });
  }
  engine.run();
  ASSERT_EQ(fired.size(), 1000u);
  EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineOrdering, ::testing::Values(2, 5, 8));

// ----------------------------------------- Memory conservation property ----

class MemoryConservation : public ::testing::TestWithParam<int> {};

TEST_P(MemoryConservation, ReserveReleaseNeverLeaksOrDoubleFrees) {
  sim::Rng rng(static_cast<std::uint64_t>(GetParam()) * 977);
  const numa::MachineConfig cfg = numa::MachineConfig::xeon_e5620();
  numa::MemoryManager mm(cfg);
  const auto total =
      mm.free_chunks(0) + mm.free_chunks(1);
  std::vector<numa::NodeId> held;
  for (int step = 0; step < 5000; ++step) {
    if (!held.empty() && rng.chance(0.45)) {
      mm.release_chunk(held.back());
      held.pop_back();
    } else {
      held.push_back(mm.reserve_chunk(static_cast<numa::NodeId>(rng.uniform_int(0, 1))));
    }
    EXPECT_EQ(mm.free_chunks(0) + mm.free_chunks(1) +
                  static_cast<std::int64_t>(held.size()),
              total);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MemoryConservation, ::testing::Values(3, 9));

/// Domain-lifecycle conservation: after ANY random create/destroy sequence
/// has fully unwound, every node's free-chunk count is exactly what it was
/// before the sequence began — freed memory returns to the node it came
/// from, across all placement policies.
TEST_P(MemoryConservation, DomainLifecycleRoundTripsNodeFreeCounts) {
  sim::Rng rng(static_cast<std::uint64_t>(GetParam()) * 1543);
  auto hv = test::make_credit_hv(static_cast<std::uint64_t>(GetParam()));
  numa::MemoryManager& mm = hv->memory_manager();
  std::vector<std::int64_t> baseline;
  for (int n = 0; n < mm.num_nodes(); ++n) baseline.push_back(mm.free_chunks(n));

  const numa::PlacementPolicy policies[] = {
      numa::PlacementPolicy::kFillFirst, numa::PlacementPolicy::kStriped,
      numa::PlacementPolicy::kOnNode, numa::PlacementPolicy::kFirstTouch};
  std::vector<int> live_ids;
  int made = 0;
  for (int step = 0; step < 200; ++step) {
    if (!live_ids.empty() && rng.chance(0.45)) {
      const std::size_t pick = rng.pick_index(live_ids.size());
      hv->destroy_domain(live_ids[pick]);
      live_ids.erase(live_ids.begin() + static_cast<std::ptrdiff_t>(pick));
    } else {
      const std::int64_t chunk = hv->config().machine.chunk_bytes;
      const std::int64_t mem = rng.uniform_int(1, 128) * chunk;
      std::int64_t free_total = 0;
      for (int n = 0; n < mm.num_nodes(); ++n) free_total += mm.free_chunks(n);
      if (mem / chunk > free_total) continue;
      hv::Domain& dom = hv->create_domain(
          "d" + std::to_string(made++), mem,
          static_cast<int>(rng.uniform_int(1, 4)),
          policies[rng.pick_index(4)],
          static_cast<numa::NodeId>(rng.uniform_int(0, mm.num_nodes() - 1)));
      live_ids.push_back(dom.id());
    }
  }
  for (int id : live_ids) hv->destroy_domain(id);
  for (int n = 0; n < mm.num_nodes(); ++n) {
    EXPECT_EQ(mm.free_chunks(n), baseline[static_cast<std::size_t>(n)])
        << "node " << n << " free count did not round-trip";
    EXPECT_EQ(mm.used_chunks(n), 0);
  }
}

}  // namespace
}  // namespace vprobe
