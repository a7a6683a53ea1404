// Idle-PCPU poke batching (docs/ENGINE.md, "Idle pokes and steals").
//
// Pokes issued back to back share one zero-delay engine event; a poke
// opens a new batch whenever anything was armed since the open one.  These
// tests pin the batching rules through Engine::arm_count() deltas and the
// order in which do_schedule() sees the PCPUs.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "test_helpers.hpp"

namespace vprobe {
namespace {

using test::FakeWork;
using test::FifoScheduler;

/// FIFO scheduler that logs every do_schedule() and requeue, and can run a
/// hook from inside do_schedule() (i.e. from inside a firing poke batch).
class RecordingScheduler : public FifoScheduler {
 public:
  std::vector<std::string>* log = nullptr;
  std::function<void(hv::Pcpu&)> on_schedule;

  hv::Decision do_schedule(hv::Pcpu& p) override {
    log->push_back("sched " + std::to_string(p.id));
    if (on_schedule) on_schedule(p);
    return FifoScheduler::do_schedule(p);
  }
  void requeue_preempted(hv::Vcpu& v) override {
    log->push_back("requeue");
    FifoScheduler::requeue_preempted(v);
  }
};

class PokeBatchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto sched = std::make_unique<RecordingScheduler>();
    sched_ = sched.get();
    sched_->log = &log_;
    hv_ = std::make_unique<hv::Hypervisor>(hv::Hypervisor::Config{},
                                           std::move(sched));
    dom_ = &hv_->create_domain("VM", 1LL << 30, 1,
                               numa::PlacementPolicy::kFillFirst, 0);
    hv_->bind_work(dom_->vcpu(0), work_);
  }

  sim::Engine& engine() { return hv_->engine(); }
  hv::Pcpu& pcpu(numa::PcpuId id) { return hv_->pcpu(id); }

  FakeWork work_;
  std::vector<std::string> log_;
  RecordingScheduler* sched_ = nullptr;
  std::unique_ptr<hv::Hypervisor> hv_;
  hv::Domain* dom_ = nullptr;
};

TEST_F(PokeBatchTest, WakeWithIdlePeersArmsOnePokeEvent) {
  const std::size_t n = hv_->pcpus().size();
  ASSERT_GT(n, 2u);
  hv::Vcpu& v = dom_->vcpu(0);
  const std::uint64_t arms = engine().arm_count();
  hv_->wake(v);
  EXPECT_EQ(engine().arm_count() - arms, 1u)
      << "the target and every idle peer share one poke event";
  for (const hv::Pcpu& p : hv_->pcpus()) EXPECT_TRUE(p.poke_pending);

  engine().run_until(sim::Time::zero());
  EXPECT_EQ(engine().executed(), 1u);
  EXPECT_EQ(log_.size(), n) << "one do_schedule per poked PCPU";
  for (const hv::Pcpu& p : hv_->pcpus()) EXPECT_FALSE(p.poke_pending);
  EXPECT_EQ(v.state, hv::VcpuState::kRunning);
  EXPECT_EQ(pcpu(v.pcpu).current, &v);
}

TEST_F(PokeBatchTest, PokeAfterAnotherArmOpensANewBatch) {
  hv::Vcpu& v = dom_->vcpu(0);
  hv_->wake(v);
  engine().run_until(sim::Time::zero());
  const numa::PcpuId host = v.pcpu;
  const auto n = static_cast<numa::PcpuId>(hv_->pcpus().size());
  const numa::PcpuId a = (host + 1) % n;
  const numa::PcpuId b = (host + 2) % n;
  log_.clear();

  const std::uint64_t arms = engine().arm_count();
  hv_->poke(pcpu(a));
  hv_->request_preempt(pcpu(host));
  hv_->poke(pcpu(b));
  EXPECT_EQ(engine().arm_count() - arms, 3u)
      << "the preempt sits between the two pokes, so they cannot share";

  engine().run_until(sim::Time::zero());
  const std::vector<std::string> want = {
      "sched " + std::to_string(a), "requeue",
      "sched " + std::to_string(host), "sched " + std::to_string(b)};
  EXPECT_EQ(log_, want) << "the second poke fires after the preempt";
}

TEST_F(PokeBatchTest, PokeFromInsideAFiringBatchJoinsIt) {
  sched_->on_schedule = [this](hv::Pcpu& p) {
    if (p.id == 1) hv_->poke(pcpu(5));  // nothing armed since the batch
  };
  const std::uint64_t arms = engine().arm_count();
  hv_->poke(pcpu(1));
  hv_->poke(pcpu(2));
  engine().run_until(sim::Time::zero());
  EXPECT_EQ(engine().arm_count() - arms, 1u);
  EXPECT_EQ(engine().executed(), 1u) << "served by the batch being fired";
  EXPECT_EQ(log_, (std::vector<std::string>{"sched 1", "sched 2", "sched 5"}));
}

TEST_F(PokeBatchTest, PokeFromInsideAFiringBatchAfterAnArmWaitsForIt) {
  sched_->on_schedule = [this](hv::Pcpu& p) {
    if (p.id != 1) return;
    engine().schedule(sim::Time::zero(), [this] { log_.push_back("event"); });
    hv_->poke(pcpu(5));
  };
  hv_->poke(pcpu(1));
  hv_->poke(pcpu(2));
  engine().run_until(sim::Time::zero());
  EXPECT_EQ(engine().executed(), 3u);
  EXPECT_EQ(log_, (std::vector<std::string>{"sched 1", "sched 2", "event",
                                            "sched 5"}));
}

TEST_F(PokeBatchTest, RepokeAfterTheBatchFiredArmsAgain) {
  hv_->poke(pcpu(3));
  engine().run_until(sim::Time::zero());
  const std::uint64_t arms = engine().arm_count();
  hv_->poke(pcpu(3));
  EXPECT_EQ(engine().arm_count() - arms, 1u)
      << "a finished batch takes no more pokes";
  engine().run_until(sim::Time::zero());
  EXPECT_EQ(log_, (std::vector<std::string>{"sched 3", "sched 3"}));
}

TEST_F(PokeBatchTest, DestroyWithABatchPendingIsClean) {
  hv_->wake(dom_->vcpu(0));
  ASSERT_GT(engine().queued(), 0u);
  hv_.reset();  // the owned engine drops the pending batch first
  EXPECT_TRUE(log_.empty());
}

TEST(PokeBatch, WakeTicklesLocalIdlersThenTheRestInIdOrder) {
  // 3 nodes x 30 PCPUs: the idle set spans two 64-bit words, and node 2
  // (PCPUs 60-89) straddles the boundary.  A wake pokes its target, then
  // the idle PCPUs of the target's node in ascending id, then every other
  // idle PCPU in ascending id; the expected log is built by that rule.
  // (Any PCPU can run a VCPU, 64 and up included: HighPcpus in hv_test
  // covers that, so the busy PCPUs here just sit near the word boundary.)
  std::vector<std::string> log;
  auto sched = std::make_unique<RecordingScheduler>();
  sched->log = &log;
  hv::Hypervisor::Config cfg;
  cfg.machine.num_nodes = 3;
  cfg.machine.cores_per_node = 30;
  hv::Hypervisor hv(cfg, std::move(sched));
  const std::vector<numa::PcpuId> busy = {5, 40, 62, 63};
  hv::Domain& dom =
      hv.create_domain("VM", 1LL << 30, static_cast<int>(busy.size()) + 1,
                       numa::PlacementPolicy::kFillFirst, 0);
  std::vector<FakeWork> works(busy.size() + 1);
  for (std::size_t i = 0; i < works.size(); ++i) {
    hv.bind_work(dom.vcpu(i), works[i]);
  }
  for (std::size_t i = 0; i < busy.size(); ++i) {
    dom.vcpu(i).pcpu = busy[i];
    hv.wake(dom.vcpu(i));
    hv.engine().run_until(sim::Time::zero());
    ASSERT_EQ(hv.pcpu(busy[i]).current, &dom.vcpu(i));
  }

  const numa::PcpuId target = 61;
  const numa::NodeId node = hv.pcpu(target).node;
  ASSERT_EQ(hv.pcpu(60).node, node);
  ASSERT_EQ(hv.pcpu(89).node, node);
  std::vector<std::string> want = {"sched " + std::to_string(target)};
  for (const bool same_node : {true, false}) {
    for (const hv::Pcpu& p : hv.pcpus()) {
      if (p.idle() && p.id != target && (p.node == node) == same_node) {
        want.push_back("sched " + std::to_string(p.id));
      }
    }
  }
  ASSERT_EQ(want.size(), hv.pcpus().size() - busy.size());

  log.clear();
  hv::Vcpu& v = dom.vcpu(busy.size());
  v.pcpu = target;
  hv.wake(v);
  hv.engine().run_until(sim::Time::zero());
  EXPECT_EQ(log, want);
  EXPECT_EQ(hv.pcpu(target).current, &v);
}

TEST(PokeBatch, SharedEngineOwnerClearsBeforeDestroy) {
  sim::Engine engine;
  FakeWork work;
  auto hv = std::make_unique<hv::Hypervisor>(
      hv::Hypervisor::Config{}, std::make_unique<FifoScheduler>(), engine);
  hv::Domain& dom = hv->create_domain("VM", 1LL << 30, 1,
                                      numa::PlacementPolicy::kFillFirst, 0);
  hv->bind_work(dom.vcpu(0), work);
  hv->wake(dom.vcpu(0));
  ASSERT_EQ(engine.queued(), 1u);
  engine.clear();
  hv.reset();
  EXPECT_EQ(engine.run(), 0u);
}

}  // namespace
}  // namespace vprobe
