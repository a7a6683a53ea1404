#include "runner/experiment.hpp"

#include "runner/run_plan.hpp"

#include <algorithm>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/invariants.hpp"
#include "workload/hungry.hpp"
#include "workload/memcached.hpp"
#include "workload/npb.hpp"
#include "workload/os_ticker.hpp"
#include "workload/redis.hpp"
#include "workload/spec.hpp"

namespace vprobe::runner {
namespace {

constexpr std::int64_t kGB = 1024ll * 1024 * 1024;

SchedulerOptions scheduler_options(const RunConfig& config) {
  SchedulerOptions opts;
  opts.sampling_period = config.sampling_period;
  opts.dynamic_bounds = config.dynamic_bounds;
  opts.rate_cache = config.rate_cache;
  return opts;
}

/// Fill in the metrics every experiment reports the same way.
void collect_common(stats::RunMetrics& m, hv::Hypervisor& hv,
                    hv::Domain& measured) {
  const pmu::CounterSet totals = measured.total_counters();
  m.total_mem_accesses = totals.total_mem_accesses();
  m.remote_mem_accesses = totals.remote_accesses;
  m.migrations = hv.total_migrations();
  m.cross_node_migrations = hv.total_cross_node_migrations();
  const double busy_s = hv.total_busy_time().to_seconds();
  m.overhead_fraction =
      busy_s > 0 ? hv.overhead().paper_overhead().to_seconds() / busy_s : 0.0;
  m.sim_seconds = hv.now().to_seconds();
}

/// Instance counts per VM for a SPEC app.  Section V-B1 runs four identical
/// instances each, except mcf whose 1.7 GB footprint only fits 6 in the
/// 15 GB VM1 and 2 in the 5 GB VM2.  The Figure 1 setup (8 GB VMs) runs
/// four everywhere.
std::pair<int, int> spec_instance_counts(std::string_view app, bool fig1) {
  if (app == "mcf" && !fig1) return {6, 2};
  return {4, 4};
}

std::vector<std::string_view> spec_mix_apps() {
  return {"soplex", "libquantum", "mcf", "milc"};
}

VmSizes vm_sizes(const RunConfig& config) {
  if (config.fig1_memory_config) return VmSizes{8, 8, 2};
  return VmSizes{};
}

/// Guest-kernel housekeeping on the domain's VCPUs that carry no app
/// thread (a real guest's online VCPUs are never completely silent).
std::unique_ptr<wl::GuestOsTicks> guest_ticks(hv::Hypervisor& hv,
                                              hv::Domain& dom,
                                              std::size_t first_unused) {
  std::vector<hv::Vcpu*> spare;
  for (std::size_t i = first_unused; i < dom.num_vcpus(); ++i) {
    spare.push_back(&dom.vcpu(i));
  }
  if (spare.empty()) return nullptr;
  auto ticks = std::make_unique<wl::GuestOsTicks>(hv, dom, spare);
  ticks->start();
  return ticks;
}

/// The Section V-A1 run every standard-VM-set family shares: Dom0 plus
/// VM1, VM2 and VM3 on a fresh hypervisor, hungry loops in VM3.  A family
/// builds its apps on vm1()/vm2() between construction and run(), and
/// supplies only how many leading VCPUs of each VM carry app threads, what
/// to start, when it is done, and its extra metrics.
class StandardRun {
 public:
  explicit StandardRun(const RunConfig& config)
      : config_(config),
        hv_(make_hypervisor(config.sched, config.seed,
                            scheduler_options(config))),
        check_(*hv_, config.checks),
        vms_(create_standard_vms(*hv_, vm_sizes(config))) {}

  hv::Hypervisor& hv() { return *hv_; }
  hv::Domain& vm1() { return *vms_.vm1; }
  hv::Domain& vm2() { return *vms_.vm2; }

  struct Family {
    std::string workload;  ///< RunMetrics::workload, e.g. "npb:lu"
    /// Leading VCPUs of VM1/VM2 that carry app threads; guest ticks run
    /// on the rest.
    std::size_t vm1_busy = 0;
    std::size_t vm2_busy = 0;
    /// Started 10 ms apart from t = 10 ms: nothing in a real cluster execs
    /// at the same nanosecond.
    std::vector<std::function<void()>> starts;
    std::function<bool()> done;
    /// App runtimes plus any family metric (throughput, latency).
    std::function<void(stats::RunMetrics&)> report;
  };

  stats::RunMetrics run(const Family& family) {
    wl::HungryLoops hungry(*hv_, *vms_.vm3, domain_vcpus(*vms_.vm3));
    // Interference first, then the staggered app launches (the paper starts
    // the hungry loops before the measured workloads).
    hv_->start();
    hungry.start();
    auto ticks1 = guest_ticks(*hv_, *vms_.vm1, family.vm1_busy);
    auto ticks2 = guest_ticks(*hv_, *vms_.vm2, family.vm2_busy);
    int launch = 0;
    for (const auto& start : family.starts) {
      hv_->engine().schedule(sim::Time::ms(10 * ++launch), start);
    }

    const bool done = run_until(*hv_, family.done, config_.horizon);
    check_.expect_ok();

    stats::RunMetrics m;
    m.scheduler = to_string(config_.sched);
    m.workload = family.workload;
    m.completed = done;
    family.report(m);
    m.finalize();
    collect_common(m, *hv_, *vms_.vm1);
    return m;
  }

 private:
  const RunConfig& config_;
  std::unique_ptr<hv::Hypervisor> hv_;
  check::ScopedCheck check_;
  StandardVms vms_;
};

double runtime_s(const auto& app) {
  return app.finished() ? app.runtime().to_seconds() : 0.0;
}

stats::RunMetrics run_spec_once(const RunConfig& config, std::string_view app) {
  StandardRun run(config);
  auto make_instances = [&](hv::Domain& dom, int count,
                            std::vector<std::string_view> apps) {
    std::vector<std::unique_ptr<wl::SpecApp>> result;
    auto vcpus = domain_vcpus(dom);
    for (int i = 0; i < count; ++i) {
      const std::string_view prof = apps[static_cast<std::size_t>(i) % apps.size()];
      result.push_back(std::make_unique<wl::SpecApp>(
          run.hv(), dom, *vcpus[static_cast<std::size_t>(i) % vcpus.size()], prof,
          config.instr_scale,
          std::string(prof) + "#" + std::to_string(i)));
    }
    return result;
  };

  std::vector<std::unique_ptr<wl::SpecApp>> vm1_apps;
  std::vector<std::unique_ptr<wl::SpecApp>> vm2_apps;
  if (app == "mix") {
    vm1_apps = make_instances(run.vm1(), 4, spec_mix_apps());
    vm2_apps = make_instances(run.vm2(), 4, spec_mix_apps());
  } else {
    const auto [n1, n2] = spec_instance_counts(app, config.fig1_memory_config);
    vm1_apps = make_instances(run.vm1(), n1, {app});
    vm2_apps = make_instances(run.vm2(), n2, {app});
  }

  StandardRun::Family family;
  family.workload = "spec:" + std::string(app);
  family.vm1_busy = vm1_apps.size();
  family.vm2_busy = vm2_apps.size();
  for (const auto* apps : {&vm1_apps, &vm2_apps}) {
    for (const auto& a : *apps) {
      family.starts.push_back([p = a.get()] { p->start(); });
    }
  }
  family.done = [&] {
    return std::all_of(vm1_apps.begin(), vm1_apps.end(),
                       [](const auto& a) { return a->finished(); });
  };
  family.report = [&](stats::RunMetrics& m) {
    for (const auto& a : vm1_apps) m.app_runtime_s[a->name()] = runtime_s(*a);
  };
  return run.run(family);
}

stats::RunMetrics run_npb_once(const RunConfig& config, std::string_view app) {
  StandardRun run(config);
  wl::NpbApp::Config ncfg;
  ncfg.profile = std::string(app);
  ncfg.instr_scale = config.instr_scale;
  wl::NpbApp app1(run.hv(), run.vm1(), ncfg, domain_vcpus(run.vm1()));
  wl::NpbApp app2(run.hv(), run.vm2(), ncfg, domain_vcpus(run.vm2()));

  StandardRun::Family family;
  family.workload = "npb:" + std::string(app);
  family.vm1_busy = family.vm2_busy = static_cast<std::size_t>(ncfg.threads);
  family.starts = {[&app1] { app1.start(); }, [&app2] { app2.start(); }};
  family.done = [&app1] { return app1.finished(); };
  family.report = [&app1](stats::RunMetrics& m) {
    m.app_runtime_s[app1.name()] = runtime_s(app1);
  };
  return run.run(family);
}

stats::RunMetrics run_memcached_once(const RunConfig& config, int concurrency,
                                     std::uint64_t total_ops) {
  StandardRun run(config);
  wl::RequestServer server1(run.hv(), run.vm1(),
                            wl::memcached_server_config("memcached1"),
                            domain_vcpus(run.vm1()));
  wl::RequestServer server2(run.hv(), run.vm2(),
                            wl::memcached_server_config("memcached2"),
                            domain_vcpus(run.vm2()));
  wl::MemslapClient::Config ccfg;
  ccfg.concurrency = concurrency;
  ccfg.total_ops = total_ops;
  wl::MemslapClient client1(run.hv(), ccfg, {&server1});
  wl::MemslapClient client2(run.hv(), ccfg, {&server2});

  StandardRun::Family family;
  family.workload = "memcached:c" + std::to_string(concurrency);
  family.vm1_busy = static_cast<std::size_t>(server1.workers());
  family.vm2_busy = static_cast<std::size_t>(server2.workers());
  family.starts = {[&client1] { client1.start(); },
                   [&client2] { client2.start(); }};
  family.done = [&client1] { return client1.finished(); };
  family.report = [&](stats::RunMetrics& m) {
    m.app_runtime_s["memcached"] = runtime_s(client1);
    m.throughput_rps = client1.throughput_ops_per_s();
    m.latency = server1.latency_hist();
  };
  return run.run(family);
}

stats::RunMetrics run_redis_once(const RunConfig& config, int connections,
                                 std::uint64_t total_requests) {
  StandardRun run(config);
  wl::RedisWorkload::Config rcfg;
  rcfg.connections = connections;
  rcfg.total_requests = total_requests;
  wl::RedisWorkload redis(run.hv(), run.vm1(), run.vm2(), rcfg,
                          domain_vcpus(run.vm1()), domain_vcpus(run.vm2()));

  StandardRun::Family family;
  family.workload = "redis:p" + std::to_string(connections);
  family.vm1_busy = family.vm2_busy = static_cast<std::size_t>(rcfg.pairs);
  family.starts = {[&redis] { redis.start(); }};
  family.done = [&redis] { return redis.finished(); };
  family.report = [&redis](stats::RunMetrics& m) {
    m.app_runtime_s["redis"] = runtime_s(redis);
    m.throughput_rps = redis.throughput_rps();
    m.latency = redis.server().latency_hist();
  };
  return run.run(family);
}

stats::RunMetrics run_overhead_once(const RunConfig& config, int num_vms) {
  RunConfig cfg = config;
  cfg.sched = SchedKind::kVprobe;
  auto hv = make_hypervisor(cfg.sched, cfg.seed, scheduler_options(cfg));
  check::ScopedCheck check(*hv, cfg.checks);

  std::vector<hv::Domain*> doms;
  std::vector<std::unique_ptr<wl::SpecApp>> apps;
  for (int d = 0; d < num_vms; ++d) {
    hv::Domain& dom = hv->create_domain("VM" + std::to_string(d + 1), 4 * kGB, 2,
                                        numa::PlacementPolicy::kFillFirst, 0);
    doms.push_back(&dom);
    for (int i = 0; i < 2; ++i) {
      apps.push_back(std::make_unique<wl::SpecApp>(
          *hv, dom, dom.vcpu(static_cast<std::size_t>(i)), "soplex",
          cfg.instr_scale,
          "soplex@vm" + std::to_string(d + 1) + "#" + std::to_string(i)));
    }
  }

  hv->start();
  for (auto& a : apps) a->start();

  const bool done = run_until(
      *hv,
      [&] {
        return std::all_of(apps.begin(), apps.end(),
                           [](const auto& a) { return a->finished(); });
      },
      cfg.horizon);
  check.expect_ok();

  stats::RunMetrics m;
  m.scheduler = to_string(cfg.sched);
  m.workload = "overhead:" + std::to_string(num_vms) + "vms";
  m.completed = done;
  for (auto& a : apps) m.app_runtime_s[a->name()] = runtime_s(*a);
  m.finalize();
  collect_common(m, *hv, *doms.front());
  return m;
}

}  // namespace

// -- The Section V experiments as RunSpec factories ---------------------------

RunSpec RunSpec::spec(const RunConfig& config, std::string_view app) {
  return custom_job(config, "spec:" + std::string(app),
                    [app = std::string(app)](const RunConfig& cfg) {
                      return run_spec_once(cfg, app);
                    });
}

RunSpec RunSpec::npb(const RunConfig& config, std::string_view app) {
  return custom_job(config, "npb:" + std::string(app),
                    [app = std::string(app)](const RunConfig& cfg) {
                      return run_npb_once(cfg, app);
                    });
}

RunSpec RunSpec::memcached(const RunConfig& config, int concurrency,
                           std::uint64_t total_ops) {
  return custom_job(config, "memcached:c" + std::to_string(concurrency),
                    [=](const RunConfig& cfg) {
                      return run_memcached_once(cfg, concurrency, total_ops);
                    });
}

RunSpec RunSpec::redis(const RunConfig& config, int connections,
                       std::uint64_t total_requests) {
  return custom_job(config, "redis:p" + std::to_string(connections),
                    [=](const RunConfig& cfg) {
                      return run_redis_once(cfg, connections, total_requests);
                    });
}

RunSpec RunSpec::overhead(const RunConfig& config, int num_vms) {
  return custom_job(config, "overhead:" + std::to_string(num_vms) + "vms",
                    [=](const RunConfig& cfg) {
                      return run_overhead_once(cfg, num_vms);
                    });
}

SoloMetrics run_solo(const RunConfig& config, std::string_view app) {
  // Figure 3 setup: one VM, 4 GB, a single VCPU *pinned* to its memory's
  // node (the paper pins it to the local node).
  auto hv = make_hypervisor(SchedKind::kCredit, config.seed,
                            scheduler_options(config));
  check::ScopedCheck check(*hv, config.checks);
  hv::Domain& dom = hv->create_domain("VM1", 4 * kGB, 1,
                                      numa::PlacementPolicy::kOnNode, 0);
  dom.vcpu(0).pin_to(0);
  wl::SpecApp instance(*hv, dom, dom.vcpu(0), app, config.instr_scale);

  hv->start();
  instance.start();
  const bool done =
      run_until(*hv, [&] { return instance.finished(); }, config.horizon);
  check.expect_ok();
  if (!done) throw std::runtime_error("run_solo: app did not finish");

  const pmu::CounterSet c = dom.vcpu(0).pmu.cumulative();
  SoloMetrics sm;
  sm.llc_miss_rate = c.llc_refs > 0 ? c.llc_misses / c.llc_refs : 0.0;
  sm.rpti = c.instr_retired > 0 ? c.llc_refs / c.instr_retired * 1000.0 : 0.0;
  sm.runtime_s = instance.runtime().to_seconds();
  return sm;
}

}  // namespace vprobe::runner
