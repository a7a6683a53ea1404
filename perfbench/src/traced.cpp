#include "traced.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <numeric>
#include <stdexcept>

#include "hv/hypervisor.hpp"
#include "hv/scheduler.hpp"
#include "runner/churn.hpp"
#include "runner/fleet.hpp"
#include "runner/scenario.hpp"
#include "runner/scenario_file.hpp"
#include "stats/aggregate.hpp"
#include "trace/tracer.hpp"
#include "workload/hungry.hpp"
#include "workload/kv_server.hpp"
#include "workload/open_loop.hpp"
#include "workload/os_ticker.hpp"
#include "workload/spec.hpp"

namespace perfbench {

namespace hv = vprobe::hv;
namespace runner = vprobe::runner;
namespace sim = vprobe::sim;
namespace stats = vprobe::stats;
namespace wl = vprobe::wl;
using Clock = std::chrono::steady_clock;

namespace {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Forwarding Scheduler decorator that times every hook.  One instance per
/// host, so sharded runs touch each instance from one shard thread only.
class TimedScheduler final : public hv::Scheduler {
 public:
  explicit TimedScheduler(std::unique_ptr<hv::Scheduler> inner)
      : inner_(std::move(inner)) {}

  const CoreTimes& times() const { return times_; }

  const char* name() const override { return inner_->name(); }
  void attach(hv::Hypervisor& hv) override {
    Scheduler::attach(hv);
    inner_->attach(hv);
  }
  void vcpu_created(hv::Vcpu& vcpu) override { inner_->vcpu_created(vcpu); }
  void vcpu_wake(hv::Vcpu& vcpu) override {
    Span span(*this, times_.wake_s);
    inner_->vcpu_wake(vcpu);
  }
  void vcpu_sleep(hv::Vcpu& vcpu) override { inner_->vcpu_sleep(vcpu); }
  void vcpu_retired(hv::Vcpu& vcpu) override { inner_->vcpu_retired(vcpu); }
  void requeue_preempted(hv::Vcpu& vcpu) override {
    Span span(*this, times_.requeue_s);
    inner_->requeue_preempted(vcpu);
  }
  hv::Decision do_schedule(hv::Pcpu& pcpu) override {
    ++times_.schedule_calls;
    Span span(*this, times_.schedule_s);
    return inner_->do_schedule(pcpu);
  }
  void tick(hv::Pcpu& pcpu) override {
    Span span(*this, times_.tick_s);
    inner_->tick(pcpu);
  }
  void accounting() override {
    Span span(*this, times_.accounting_s);
    inner_->accounting();
  }

 private:
  /// Adds its lifetime to one hook's total, and to the core total when it
  /// is the outermost hook on the stack (a hook may re-enter another).
  class Span {
   public:
    Span(TimedScheduler& owner, double& slot) : owner_(owner), slot_(slot) {
      ++owner_.depth_;
    }
    ~Span() {
      const double s = seconds_since(t0_);
      slot_ += s;
      if (--owner_.depth_ == 0) owner_.times_.total_s += s;
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    TimedScheduler& owner_;
    double& slot_;
    Clock::time_point t0_ = Clock::now();
  };

  std::unique_ptr<hv::Scheduler> inner_;
  CoreTimes times_;
  int depth_ = 0;
};

/// Fold one host's counters into the run totals.
void add_host(Traced& out, hv::Hypervisor& host, const vprobe::trace::Tracer& tracer,
              const TimedScheduler& sched) {
  const auto& cache = host.cost_model().cache_stats();
  out.rate_hits += cache.hits;
  out.rate_misses += cache.misses;
  out.records += tracer.total_recorded();
  for (std::size_t k = 0; k < out.kinds.size(); ++k) {
    out.kinds[k] += tracer.count(static_cast<vprobe::trace::EventKind>(k));
  }
  for (std::size_t b = 0; b < out.overhead.size(); ++b) {
    out.overhead[b] += host.overhead().count(static_cast<hv::OverheadBucket>(b));
  }
  out.core += sched.times();
}

/// The standard-VM-set SPEC run of runner::run_spec_single, one seed.
stats::RunMetrics paper_single(Traced& out, const runner::RunConfig& config,
                               const std::string& app, std::uint64_t& records) {
  auto t0 = Clock::now();
  runner::SchedulerOptions opts;
  opts.sampling_period = config.sampling_period;
  opts.dynamic_bounds = config.dynamic_bounds;
  opts.rate_cache = config.rate_cache;
  hv::Hypervisor::Config hcfg;
  hcfg.seed = config.seed;
  hcfg.rate_cache = opts.rate_cache;
  auto timed = std::make_unique<TimedScheduler>(runner::make_scheduler(config.sched, opts));
  TimedScheduler* sched = timed.get();
  vprobe::trace::Tracer tracer(8192);  // outlives the hypervisor
  auto host = std::make_unique<hv::Hypervisor>(hcfg, std::move(timed));
  host->set_tracer(&tracer);
  out.build_s += seconds_since(t0);

  t0 = Clock::now();
  runner::StandardVms vms = runner::create_standard_vms(*host);
  auto make_instances = [&](hv::Domain& dom, int count,
                            const std::vector<std::string>& apps) {
    std::vector<std::unique_ptr<wl::SpecApp>> result;
    auto vcpus = runner::domain_vcpus(dom);
    for (int i = 0; i < count; ++i) {
      const std::string& prof = apps[static_cast<std::size_t>(i) % apps.size()];
      result.push_back(std::make_unique<wl::SpecApp>(
          *host, dom, *vcpus[static_cast<std::size_t>(i) % vcpus.size()], prof,
          config.instr_scale, prof + "#" + std::to_string(i)));
    }
    return result;
  };
  const std::vector<std::string> mix = {"soplex", "libquantum", "mcf", "milc"};
  const bool is_mix = app == "mix";
  const int n1 = is_mix ? 4 : (app == "mcf" ? 6 : 4);
  const int n2 = is_mix ? 4 : (app == "mcf" ? 2 : 4);
  auto vm1_apps = make_instances(*vms.vm1, n1, is_mix ? mix : std::vector{app});
  auto vm2_apps = make_instances(*vms.vm2, n2, is_mix ? mix : std::vector{app});
  wl::HungryLoops hungry(*host, *vms.vm3, runner::domain_vcpus(*vms.vm3));
  out.admit_s += seconds_since(t0);

  t0 = Clock::now();
  auto guest_ticks = [&](hv::Domain& dom, std::size_t first_unused) {
    std::vector<hv::Vcpu*> spare;
    for (std::size_t i = first_unused; i < dom.num_vcpus(); ++i) spare.push_back(&dom.vcpu(i));
    std::unique_ptr<wl::GuestOsTicks> ticks;
    if (!spare.empty()) {
      ticks = std::make_unique<wl::GuestOsTicks>(*host, dom, spare);
      ticks->start();
    }
    return ticks;
  };
  host->start();
  hungry.start();
  auto ticks1 = guest_ticks(*vms.vm1, vm1_apps.size());
  auto ticks2 = guest_ticks(*vms.vm2, vm2_apps.size());
  int launch = 0;
  for (auto* apps : {&vm1_apps, &vm2_apps}) {
    for (auto& a : *apps) {
      host->engine().schedule(sim::Time::ms(10 * ++launch), [p = a.get()] { p->start(); });
    }
  }
  out.start_s += seconds_since(t0);

  // runner::run_until's loop: poll done() between fixed 100 ms windows.
  auto done = [&] {
    return std::all_of(vm1_apps.begin(), vm1_apps.end(),
                       [](const auto& a) { return a->finished(); });
  };
  sim::Engine& engine = host->engine();
  bool finished = false;
  while (engine.now() < config.horizon) {
    if (done()) {
      finished = true;
      break;
    }
    const auto w0 = Clock::now();
    engine.run_until(std::min(engine.now() + sim::Time::ms(100), config.horizon));
    out.window_ms.push_back(1e3 * seconds_since(w0));
    out.queue_peak = std::max<std::uint64_t>(out.queue_peak, engine.queued());
  }
  if (!finished) finished = done();

  stats::RunMetrics m;
  m.scheduler = runner::to_string(config.sched);
  m.workload = "spec:" + app;
  m.completed = finished;
  for (auto& a : vm1_apps) {
    m.app_runtime_s[a->name()] = a->finished() ? a->runtime().to_seconds() : 0.0;
  }
  m.finalize();
  const auto totals = vms.vm1->total_counters();
  m.total_mem_accesses = totals.total_mem_accesses();
  m.remote_mem_accesses = totals.remote_accesses;
  m.migrations = host->total_migrations();
  m.cross_node_migrations = host->total_cross_node_migrations();
  const double busy_s = host->total_busy_time().to_seconds();
  m.overhead_fraction =
      busy_s > 0 ? host->overhead().paper_overhead().to_seconds() / busy_s : 0.0;
  m.sim_seconds = host->now().to_seconds();

  out.events += engine.executed();
  records += tracer.total_recorded();
  add_host(out, *host, tracer, *sched);
  return m;
}

void run_paper(Traced& out, const Inputs& in) {
  for (const PaperJob& job : paper_jobs()) {
    const runner::RunConfig cfg = paper_config(in, job.sched);
    stats::MetricsAccumulator acc;
    std::uint64_t records = 0;
    for (int r = 0; r < cfg.repeats; ++r) {
      runner::RunConfig one = cfg;
      one.seed = cfg.seed + static_cast<std::uint64_t>(r);
      one.repeats = 1;
      acc.add(paper_single(out, one, job.app, records));
    }
    out.result.metrics.push_back(acc.mean());
    out.result.items.push_back(
        {paper_item_name(job), records, metrics_hash(out.result.metrics.back())});
  }
}

/// The cluster path of runner::run_scenario, for scenarios whose apps are
/// kv servers or whole-VM hungry/ticks background guests.
void run_cluster(Traced& out, const Inputs& in, int sim_threads) {
  auto t0 = Clock::now();
  runner::ScenarioSpec spec = runner::parse_scenario(scenario_text(in));
  spec.sim_threads = sim_threads;
  out.parse_s += seconds_since(t0);

  t0 = Clock::now();
  runner::SchedulerOptions opts;
  opts.sampling_period = sim::Time::seconds(spec.sampling_s);
  std::vector<vprobe::cluster::HostSpec> host_specs;
  for (const auto& m : spec.machines) {
    for (int i = 0; i < m.count; ++i) {
      vprobe::cluster::HostSpec host;
      host.machine = m.kind == "four_node"
                         ? vprobe::numa::MachineConfig::four_node_server()
                         : vprobe::numa::MachineConfig::xeon_e5620();
      host_specs.push_back(std::move(host));
    }
  }
  vprobe::cluster::Config ccfg;
  ccfg.seed = spec.seed;
  ccfg.sim_threads = spec.sim_threads;
  ccfg.window_batch = spec.window_batch;
  ccfg.host_template.rate_cache = opts.rate_cache;
  if (spec.balance_enabled) {
    ccfg.balance_period = sim::Time::seconds(spec.balance_period_s);
    ccfg.balance_threshold = spec.balance_threshold;
  }
  std::vector<TimedScheduler*> scheds(host_specs.size(), nullptr);
  vprobe::cluster::Cluster fleet(
      ccfg, host_specs, [&scheds, kind = spec.sched, opts](int host_id) {
        auto timed = std::make_unique<TimedScheduler>(runner::make_scheduler(kind, opts));
        scheds.at(static_cast<std::size_t>(host_id)) = timed.get();
        return timed;
      });
  out.build_s += seconds_since(t0);

  t0 = Clock::now();
  std::map<std::string, std::vector<runner::ScenarioSpec::AppSpec>> apps_by_vm;
  for (const auto& app : spec.apps) apps_by_vm[app.vm].push_back(app);
  std::map<std::string, int> vm_ids;
  std::map<std::string, bool> movable;
  for (const auto& vm : spec.vms) {
    const auto& apps = apps_by_vm[vm.name];
    vprobe::cluster::VmSpec cvm;
    cvm.name = vm.name;
    cvm.mem_bytes = vm.mem_bytes;
    cvm.vcpus = vm.vcpus;
    cvm.policy = vm.policy;
    cvm.preferred = static_cast<vprobe::numa::NodeId>(vm.preferred);
    cvm.alternate = vm.alternate;
    cvm.host = vm.host;
    const bool background =
        apps.size() == 1 && (apps[0].kind == "hungry" || apps[0].kind == "ticks");
    if (background) {
      if (apps[0].from != 0) throw std::invalid_argument("traced rebuild: from != 0");
      const bool hungry = apps[0].kind == "hungry";
      cvm.workload = hungry ? runner::hungry_workload() : runner::ticker_workload();
      cvm.dirty_bytes_per_s = hungry ? runner::hungry_dirty_rate(vm.mem_bytes)
                                     : runner::ticker_dirty_rate(vm.mem_bytes);
      cvm.autostart = false;
    } else if (!std::all_of(apps.begin(), apps.end(),
                            [](const auto& a) { return a.kind == "kv"; })) {
      throw std::invalid_argument("traced rebuild: unsupported apps on " + vm.name);
    }
    const int id = fleet.admit(std::move(cvm));
    if (id < 0) throw std::invalid_argument("vm '" + vm.name + "' does not fit");
    vm_ids[vm.name] = id;
    movable[vm.name] = background;
  }

  struct Starter {
    int host = 0;
    int vm_id = 0;
  };
  std::vector<Starter> starters;
  std::vector<std::unique_ptr<wl::RequestServer>> kv_servers;
  std::vector<int> kv_server_hosts;
  for (const auto& app : spec.apps) {
    const int vm_id = vm_ids.at(app.vm);
    const int host_id = fleet.host_of(vm_id);
    if (movable.at(app.vm)) {
      starters.push_back({host_id, vm_id});
      continue;
    }
    hv::Domain& dom = *fleet.domain_of(vm_id);
    const auto vcpus = runner::domain_vcpus(dom);
    wl::RequestServer::Config kcfg;
    kcfg.profile = app.profile;
    kcfg.workers = app.threads;
    kcfg.instr_per_request = app.instr;
    kcfg.max_batch = app.batch;
    kcfg.name = app.vm + ":kv";
    const std::vector<hv::Vcpu*> subset(vcpus.begin() + app.from, vcpus.end());
    kv_servers.push_back(
        std::make_unique<wl::RequestServer>(fleet.host(host_id), dom, kcfg, subset));
    kv_server_hosts.push_back(host_id);
    if (spec.slo_ms > 0) kv_servers.back()->set_slo_threshold(spec.slo_ms / 1e3);
  }
  out.admit_s += seconds_since(t0);

  t0 = Clock::now();
  fleet.start();
  int launch = 0;
  for (const Starter& s : starters) {
    fleet.host_engine(s.host).schedule(sim::Time::ms(10 * launch++),
                                       [&fleet, id = s.vm_id] { fleet.start_vm(id); });
  }
  for (const auto& mig : spec.migrations) {
    fleet.engine().schedule_at(sim::Time::seconds(mig.at_s),
                               [&fleet, name = mig.vm, to = mig.to_host] {
                                 const int id = fleet.find_vm_by_name(name);
                                 if (id >= 0) fleet.migrate(id, to);
                               });
  }
  std::unique_ptr<runner::ChurnDriver> churn;
  if (spec.churn_enabled) {
    runner::ChurnOptions copts = spec.churn;
    if (copts.seed == 0) copts.seed = spec.seed;
    churn = std::make_unique<runner::ChurnDriver>(fleet, copts);
    churn->start();
  }
  std::unique_ptr<wl::OpenLoopClient> open_loop;
  if (spec.openloop_enabled) {
    wl::OpenLoopClient::Config ocfg;
    ocfg.rps = spec.openloop.rps;
    ocfg.start_s = spec.openloop.start_s;
    ocfg.seed = spec.openloop.seed != 0 ? spec.openloop.seed : spec.seed;
    ocfg.max_requests = spec.openloop.max_requests;
    ocfg.spike_at_s = spec.openloop.spike_at_s;
    ocfg.spike_until_s = spec.openloop.spike_until_s;
    ocfg.spike_x = spec.openloop.spike_x;
    ocfg.diurnal_period_s = spec.openloop.diurnal_period_s;
    ocfg.diurnal_amp = spec.openloop.diurnal_amp;
    ocfg.lazy = spec.lazy_arrivals;
    if (spec.openloop.balance != "rr") throw std::invalid_argument("traced rebuild: p2c");
    std::vector<wl::RequestServer*> targets;
    for (const auto& s : kv_servers) targets.push_back(s.get());
    open_loop = std::make_unique<wl::OpenLoopClient>(fleet.engine(), ocfg, std::move(targets));
    open_loop->start();
  }
  out.start_s += seconds_since(t0);

  // runner::run_cluster_until's loop (no done(): horizon-bounded).
  auto engines_queued = [&] {
    std::uint64_t q = fleet.engine().queued();
    for (int h = 0; fleet.sharded() && h < fleet.num_hosts(); ++h) {
      q += fleet.host_engine(h).queued();
    }
    return q;
  };
  const sim::Time horizon = sim::Time::seconds(spec.horizon_s);
  while (fleet.now() < horizon) {
    const auto w0 = Clock::now();
    fleet.run_until(std::min(fleet.now() + sim::Time::ms(100), horizon));
    out.window_ms.push_back(1e3 * seconds_since(w0));
    out.queue_peak = std::max(out.queue_peak, engines_queued());
  }

  out.events += fleet.engine().executed();
  for (int h = 0; h < fleet.num_hosts(); ++h) {
    if (fleet.sharded()) out.events += fleet.host_engine(h).executed();
    add_host(out, fleet.host(h), fleet.tracer(h), *scheds.at(static_cast<std::size_t>(h)));
    out.result.items.push_back({fleet.host_name(h), fleet.tracer(h).total_recorded(),
                                fleet.tracer(h).digest()});
  }
  if (!kv_servers.empty()) {
    // Same rollup as run_scenario: servers merge in file order, into their
    // admission host's slice and into the fleet-level distribution.
    stats::LatencyHistogram latency;
    std::vector<stats::LatencyHistogram> host_latency(static_cast<std::size_t>(fleet.num_hosts()));
    std::vector<std::uint64_t> host_slo(host_latency.size(), 0);
    for (std::size_t i = 0; i < kv_servers.size(); ++i) {
      const wl::RequestServer& s = *kv_servers[i];
      const auto h = static_cast<std::size_t>(kv_server_hosts[i]);
      latency.merge(s.latency_hist());
      host_latency[h].merge(s.latency_hist());
      host_slo[h] += s.slo_violations();
      out.slo_violations += s.slo_violations();
      out.arrival_events += s.arrival_events();
      out.arrivals_coalesced += s.arrivals_coalesced();
    }
    if (in.workload == Workload::kServingSpike) {
      for (int h = 0; h < fleet.num_hosts(); ++h) {
        const auto i = static_cast<std::size_t>(h);
        out.result.items.push_back({latency_item_name(fleet.host_name(h)),
                                    host_latency[i].count(),
                                    latency_hash(host_latency[i], host_slo[i])});
      }
    }
    if (open_loop) out.arrival_events += open_loop->arrival_events();
    out.requests += latency.count();
    out.p50_ms = 1e3 * latency.p50_s();
    out.p999_ms = 1e3 * latency.p999_s();
  }
  out.admitted += fleet.admitted();
  out.migrations_completed += fleet.migrations_completed();
  out.precopy_rounds += fleet.precopy_rounds();
  out.balance_actions += fleet.balance_actions();
  out.sync = fleet.sync_stats();
}

}  // namespace

CoreTimes& CoreTimes::operator+=(const CoreTimes& o) {
  schedule_calls += o.schedule_calls;
  schedule_s += o.schedule_s;
  tick_s += o.tick_s;
  accounting_s += o.accounting_s;
  wake_s += o.wake_s;
  requeue_s += o.requeue_s;
  total_s += o.total_s;
  return *this;
}

double Traced::window_total_ms() const {
  return std::accumulate(window_ms.begin(), window_ms.end(), 0.0);
}

Traced run_traced(const Inputs& in, int sim_threads) {
  Traced out;
  const auto t0 = Clock::now();
  if (in.workload == Workload::kPaperSpec) {
    run_paper(out, in);
  } else {
    run_cluster(out, in, sim_threads);
  }
  out.wall_s = seconds_since(t0);
  return out;
}

}  // namespace perfbench
