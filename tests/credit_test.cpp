// Credit scheduler behaviour tests: credits/priorities, boost, fairness,
// and NUMA-oblivious stealing.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "test_helpers.hpp"

namespace vprobe::hv {
namespace {

using test::FakeWork;
using test::kTestGB;
using test::make_credit_hv;

class CreditTest : public ::testing::Test {
 protected:
  void SetUp() override { hv_ = make_credit_hv(); }

  Domain& make_domain(int vcpus, numa::NodeId node = 0) {
    return hv_->create_domain("VM" + std::to_string(++doms_), 2 * kTestGB,
                              vcpus, numa::PlacementPolicy::kFillFirst, node);
  }

  FakeWork& spin_forever(Vcpu& v) {
    works_.push_back(std::make_unique<FakeWork>());
    hv_->bind_work(v, *works_.back());
    return *works_.back();
  }

  std::unique_ptr<Hypervisor> hv_;
  std::vector<std::unique_ptr<FakeWork>> works_;
  int doms_ = 0;
};

TEST_F(CreditTest, NewVcpuStartsUnderWithZeroCredits) {
  Domain& dom = make_domain(1);
  EXPECT_EQ(dom.vcpu(0).priority, CreditPrio::kUnder);
  EXPECT_DOUBLE_EQ(dom.vcpu(0).credits, 0.0);
}

TEST_F(CreditTest, AccountingGrantsCredits) {
  Domain& dom = make_domain(2);
  spin_forever(dom.vcpu(0));
  spin_forever(dom.vcpu(1));
  hv_->start();
  hv_->wake(dom.vcpu(0));
  hv_->wake(dom.vcpu(1));
  hv_->engine().run_until(sim::Time::ms(35));
  // 2 active VCPUs share 8 PCPUs' worth of credit: they pile up fast and
  // stay clamped at the cap.
  EXPECT_GT(dom.vcpu(0).credits, 0.0);
}

TEST_F(CreditTest, RunningBurnsCredits) {
  Domain& dom = make_domain(1);
  spin_forever(dom.vcpu(0));
  hv_->start();
  hv_->wake(dom.vcpu(0));
  const double before = dom.vcpu(0).credits;
  hv_->engine().run_until(sim::Time::ms(15));  // one tick, no accounting yet
  EXPECT_LT(dom.vcpu(0).credits, before);
}

TEST_F(CreditTest, OversubscribedVcpusGoOverAndShareFairly) {
  // 24 spinners on 8 PCPUs: per-VCPU share is 1/3 of a PCPU, so everyone's
  // credits trend negative (OVER) but CPU time stays even.
  Domain& dom1 = make_domain(8, 0);
  Domain& dom2 = make_domain(8, 1);
  Domain& dom3 = make_domain(8, 1);
  for (auto* d : {&dom1, &dom2, &dom3}) {
    for (std::size_t i = 0; i < 8; ++i) spin_forever(d->vcpu(i));
  }
  hv_->start();
  for (auto* d : {&dom1, &dom2, &dom3}) {
    for (std::size_t i = 0; i < 8; ++i) hv_->wake(d->vcpu(i));
  }
  hv_->engine().run_until(sim::Time::sec(3));

  double min_exec = 1e300, max_exec = 0.0;
  for (auto& w : works_) {
    min_exec = std::min(min_exec, w->executed);
    max_exec = std::max(max_exec, w->executed);
  }
  EXPECT_GT(min_exec, 0.0);
  EXPECT_LT(max_exec / min_exec, 1.6) << "Credit fairness drifted";
}

TEST_F(CreditTest, WakeBoostsUnderVcpu) {
  Domain& dom = make_domain(2);
  FakeWork& sleeper = spin_forever(dom.vcpu(0));
  sleeper.burst = 1e6;  // blocks quickly
  spin_forever(dom.vcpu(1));
  hv_->start();
  hv_->wake(dom.vcpu(0));
  hv_->engine().run_until(sim::Time::ms(10));
  ASSERT_EQ(dom.vcpu(0).state, VcpuState::kBlocked);
  hv_->wake(dom.vcpu(0));
  EXPECT_EQ(dom.vcpu(0).priority, CreditPrio::kBoost);
}

TEST_F(CreditTest, IdlePcpuStealsQueuedWork) {
  // Two spinners booted onto node 0; node 1 is idle and must pull one over.
  Domain& dom = make_domain(2, 0);
  spin_forever(dom.vcpu(0));
  spin_forever(dom.vcpu(1));
  // Force both onto the same PCPU queue.
  dom.vcpu(0).pcpu = 0;
  dom.vcpu(1).pcpu = 0;
  hv_->start();
  hv_->wake(dom.vcpu(0));
  hv_->wake(dom.vcpu(1));
  hv_->engine().run_until(sim::Time::ms(200));
  // Both should be running on *different* PCPUs now.
  EXPECT_EQ(dom.vcpu(0).state, VcpuState::kRunning);
  EXPECT_EQ(dom.vcpu(1).state, VcpuState::kRunning);
  EXPECT_NE(dom.vcpu(0).pcpu, dom.vcpu(1).pcpu);
}

TEST_F(CreditTest, CreditStealIsNumaOblivious) {
  // 16 spinners across the machine under Credit: with churn from blocking
  // workloads, cross-node migrations happen freely.
  Domain& dom = make_domain(8, 0);
  Domain& dom2 = make_domain(8, 0);
  for (std::size_t i = 0; i < 8; ++i) {
    FakeWork& w = spin_forever(dom.vcpu(i));
    w.burst = 4e6;
    w.block_for = sim::Time::ms(1);
    spin_forever(dom2.vcpu(i));
  }
  hv_->start();
  for (std::size_t i = 0; i < 8; ++i) {
    hv_->wake(dom.vcpu(i));
    hv_->wake(dom2.vcpu(i));
  }
  hv_->engine().run_until(sim::Time::sec(2));
  EXPECT_GT(hv_->total_cross_node_migrations(), 0u)
      << "plain Credit should migrate across nodes without hesitation";
}

TEST_F(CreditTest, TickFlipsUnderToOverExactlyAtZero) {
  // The UNDER/OVER boundary: a tick burns credits_per_tick; the sign of the
  // result decides the priority class, with credits == 0 still UNDER.
  Domain& dom = make_domain(1);
  Vcpu& v = dom.vcpu(0);
  auto& sched = static_cast<CreditScheduler&>(hv_->scheduler());
  const auto& p = sched.params();

  hv_->pcpu(0).current = &v;
  v.state = VcpuState::kRunning;
  v.pcpu = 0;

  v.credits = p.credits_per_tick / 2;  // burns through zero
  v.priority = CreditPrio::kUnder;
  sched.tick(hv_->pcpu(0));
  EXPECT_DOUBLE_EQ(v.credits, -p.credits_per_tick / 2);
  EXPECT_EQ(v.priority, CreditPrio::kOver);

  v.credits = p.credits_per_tick;  // lands exactly on zero: still UNDER
  v.priority = CreditPrio::kUnder;
  sched.tick(hv_->pcpu(0));
  EXPECT_DOUBLE_EQ(v.credits, 0.0);
  EXPECT_EQ(v.priority, CreditPrio::kUnder);

  hv_->pcpu(0).current = nullptr;  // restore before teardown
  v.state = VcpuState::kBlocked;
}

TEST_F(CreditTest, TickClampsDebtAtFloor) {
  Domain& dom = make_domain(1);
  Vcpu& v = dom.vcpu(0);
  auto& sched = static_cast<CreditScheduler&>(hv_->scheduler());
  const auto& p = sched.params();

  hv_->pcpu(0).current = &v;
  v.state = VcpuState::kRunning;
  v.pcpu = 0;
  v.credits = p.credit_floor + 1.0;  // one more tick would overshoot
  sched.tick(hv_->pcpu(0));
  EXPECT_DOUBLE_EQ(v.credits, p.credit_floor);
  EXPECT_EQ(v.priority, CreditPrio::kOver);

  hv_->pcpu(0).current = nullptr;
  v.state = VcpuState::kBlocked;
}

TEST_F(CreditTest, AccountingClampsGrantsAtCap) {
  // One active VCPU receives the whole machine's credit budget (8 PCPUs ×
  // 3 ticks × 100 credits = 2400 per pass) but may never exceed the cap.
  Domain& dom = make_domain(1);
  Vcpu& v = dom.vcpu(0);
  auto& sched = static_cast<CreditScheduler&>(hv_->scheduler());
  const auto& p = sched.params();

  v.credit_active = true;
  v.credits = p.credit_cap - 10.0;
  sched.accounting();
  EXPECT_DOUBLE_EQ(v.credits, p.credit_cap);
  EXPECT_EQ(v.priority, CreditPrio::kUnder);
  EXPECT_FALSE(v.credit_active) << "accounting must reset the activity flag";
}

TEST_F(CreditTest, AccountingRestoresOverVcpuToUnder) {
  // A deep-in-debt VCPU that is the only active one gets more than enough
  // share to climb back over the boundary; its priority must follow.
  Domain& dom = make_domain(1);
  Vcpu& v = dom.vcpu(0);
  auto& sched = static_cast<CreditScheduler&>(hv_->scheduler());
  const auto& p = sched.params();

  v.credits = p.credit_floor;
  v.priority = CreditPrio::kOver;
  v.credit_active = true;
  sched.accounting();
  EXPECT_GT(v.credits, 0.0);
  EXPECT_EQ(v.priority, CreditPrio::kUnder);
}

TEST_F(CreditTest, WorkStealingFillsPcpuThatIdlesMidTick) {
  // 9 runnable VCPUs on 8 PCPUs: one short-lived VCPU finishes ~2 ms in,
  // leaving its PCPU idle mid-tick (first tick is at 10 ms).  The freed
  // PCPU must immediately steal the queued ninth VCPU — by 5 ms every PCPU
  // is busy again and all eight spinners run simultaneously.
  Domain& dom = make_domain(8, 0);
  Domain& dom2 = make_domain(1, 1);
  for (std::size_t i = 0; i < 8; ++i) spin_forever(dom.vcpu(i));
  FakeWork& finisher = spin_forever(dom2.vcpu(0));
  finisher.total_instructions = 4e6;  // ≈2 ms at the calibrated rate

  hv_->start();
  hv_->wake(dom2.vcpu(0));  // first in line: gets a PCPU, not a queue slot
  for (std::size_t i = 0; i < 8; ++i) hv_->wake(dom.vcpu(i));
  hv_->engine().run_until(sim::Time::ms(5));

  ASSERT_TRUE(finisher.finished) << "executed " << finisher.executed;
  EXPECT_EQ(dom2.vcpu(0).state, VcpuState::kDone);
  for (auto& p : hv_->pcpus()) {
    EXPECT_TRUE(p.busy()) << "pcpu " << p.id
                          << " idle despite queued work after mid-tick finish";
  }
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(dom.vcpu(i).state, VcpuState::kRunning) << i;
  }
}

TEST_F(CreditTest, AccountingRenormalizesAfterDomainDestroy) {
  // 12 spinners on 8 PCPUs: everyone's share is 2/3 of a PCPU and credits
  // hover near zero.  When the 8-VCPU domain leaves mid-run, the accounting
  // pass must re-split the whole machine's budget over the 4 survivors —
  // no share may stay reserved for the dead VM's VCPUs.
  Domain& stay = make_domain(4, 0);
  Domain& leave = make_domain(8, 1);
  for (std::size_t i = 0; i < 4; ++i) spin_forever(stay.vcpu(i));
  for (std::size_t i = 0; i < 8; ++i) spin_forever(leave.vcpu(i));
  hv_->start();
  for (std::size_t i = 0; i < 4; ++i) hv_->wake(stay.vcpu(i));
  for (std::size_t i = 0; i < 8; ++i) hv_->wake(leave.vcpu(i));
  hv_->engine().run_until(sim::Time::sec(1));

  const auto& p = static_cast<CreditScheduler&>(hv_->scheduler()).params();
  double min_credits = 1e300;
  for (std::size_t i = 0; i < 4; ++i) {
    min_credits = std::min(min_credits, stay.vcpu(i).credits);
  }
  EXPECT_LT(min_credits, p.credit_cap / 2)
      << "oversubscribed VCPUs should sit far below the credit cap";

  hv_->destroy_domain(leave);
  ASSERT_EQ(hv_->all_vcpus().size(), 4u);
  hv_->engine().run_until(sim::Time::sec(2));

  // 4 active VCPUs on 8 PCPUs: each survivor's grant (2400/4 per pass)
  // exceeds its burn (≤300 per pass), so credits recover into [0, cap] and
  // priority returns to UNDER.
  for (std::size_t i = 0; i < 4; ++i) {
    Vcpu& v = stay.vcpu(i);
    EXPECT_EQ(v.state, VcpuState::kRunning) << i;
    EXPECT_GE(v.credits, 0.0) << i;
    EXPECT_LE(v.credits, p.credit_cap) << i;
    EXPECT_NE(v.priority, CreditPrio::kOver) << i;
  }
}

// -- steal: one draw per call, early exit when no peer holds work -----------

// do_schedule on a PCPU calls steal() once (the local queue is empty, or its
// head is OVER); these tests drive that directly, without starting timers.
class CreditStealTest : public CreditTest {
 protected:
  /// Make `v` Runnable on `pcpu`'s queue with the given priority.
  void queue_on(Vcpu& v, numa::PcpuId pcpu, CreditPrio prio) {
    v.state = VcpuState::kRunnable;
    v.priority = prio;
    v.pcpu = pcpu;
    hv_->pcpu(pcpu).queue.insert(v);
  }

  /// The host RNG as it should be after exactly one steal: one draw of the
  /// random start PCPU.
  sim::Rng after_one_draw() {
    sim::Rng rng = hv_->rng();
    rng.uniform_int(0, static_cast<std::int64_t>(hv_->pcpus().size()) - 1);
    return rng;
  }

  Vcpu* schedule(numa::PcpuId pcpu) {
    return hv_->scheduler().do_schedule(hv_->pcpu(pcpu)).vcpu;
  }
};

TEST_F(CreditStealTest, DrawsOnceOnBothTheExitAndTheScanPath) {
  Domain& dom = make_domain(1);
  Vcpu& v = dom.vcpu(0);

  // Exit path: nothing is queued anywhere.
  sim::Rng expect = after_one_draw();
  EXPECT_EQ(schedule(0), nullptr);
  EXPECT_EQ(hv_->rng().next(), expect.next());

  // Scan path: one VCPU queued on a peer is taken.
  queue_on(v, 5, CreditPrio::kUnder);
  expect = after_one_draw();
  EXPECT_EQ(schedule(0), &v);
  EXPECT_EQ(hv_->rng().next(), expect.next());
  EXPECT_EQ(hv_->queued_vcpus(), 0u);
  v.state = VcpuState::kBlocked;
}

TEST_F(CreditStealTest, FairnessStealWithNoPeerWorkTakesTheExit) {
  // The only queued VCPU is the thief's own OVER head: the machine-wide
  // count is 1, but nothing is queued outside the thief, so the fairness
  // steal exits after its draw and the head runs.
  Domain& dom = make_domain(1);
  Vcpu& head = dom.vcpu(0);
  queue_on(head, 2, CreditPrio::kOver);
  ASSERT_EQ(hv_->queued_vcpus(), 1u);
  ASSERT_EQ(hv_->queued_outside(hv_->pcpu(2)), 0u);

  sim::Rng expect = after_one_draw();
  EXPECT_EQ(schedule(2), &head);
  EXPECT_EQ(hv_->rng().next(), expect.next());
  head.state = VcpuState::kBlocked;
}

TEST_F(CreditStealTest, SingleVcpuOnAFarPcpuIsFoundFromEveryStart) {
  // Thief PCPU 0 (node 0) has an OVER head; one UNDER VCPU waits on PCPU 7
  // (node 1).  Whatever start PCPU the draw picks, the fairness steal must
  // reach it; 200 steals draw every start (checked at the end).
  Domain& dom = make_domain(2);
  Vcpu& head = dom.vcpu(0);
  Vcpu& far = dom.vcpu(1);
  queue_on(head, 0, CreditPrio::kOver);
  ASSERT_NE(hv_->pcpu(7).node, hv_->pcpu(0).node);
  const auto n = static_cast<std::int64_t>(hv_->pcpus().size());
  std::vector<bool> drawn(static_cast<std::size_t>(n), false);
  for (int round = 0; round < 200; ++round) {
    sim::Rng peek = hv_->rng();
    const std::int64_t start = peek.uniform_int(0, n - 1);
    queue_on(far, 7, CreditPrio::kUnder);
    ASSERT_EQ(hv_->queued_outside(hv_->pcpu(0)), 1u);
    ASSERT_EQ(schedule(0), &far) << "start " << start;
    drawn[static_cast<std::size_t>(start)] = true;
  }
  EXPECT_EQ(std::count(drawn.begin(), drawn.end(), false), 0);
  EXPECT_EQ(hv_->pcpu(0).queue.front(), &head);
  hv_->pcpu(0).queue.remove(head);
  head.state = VcpuState::kBlocked;
  far.state = VcpuState::kBlocked;
}

TEST_F(CreditTest, BlockedVcpusDoNotEatCpu) {
  Domain& dom = make_domain(2);
  FakeWork& active = spin_forever(dom.vcpu(0));
  spin_forever(dom.vcpu(1));  // never woken
  hv_->start();
  hv_->wake(dom.vcpu(0));
  hv_->engine().run_until(sim::Time::sec(1));
  EXPECT_GT(active.executed, 0.0);
  EXPECT_DOUBLE_EQ(works_[1]->executed, 0.0);
  EXPECT_EQ(dom.vcpu(1).state, VcpuState::kBlocked);
}

}  // namespace
}  // namespace vprobe::hv
