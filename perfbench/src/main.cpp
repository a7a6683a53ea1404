// Simulator benchmark binary (see README.md).  Normally started by run.py,
// which builds it and passes every option in --key=value form:
//
//   perfbench --workload=W --seed=N --seconds=S --trace=0|1 --pins=FILE
//             [--held-out] [--git-sha=SHA] [--src-hash=HASH]
//   perfbench --write-pins --pins=FILE
//   perfbench --self-test --pins=FILE
//
// A run prints its stamp, its checks and, as the last line, one JSON object
// {"correct", "attempted", "failed", "metrics"}; --trace=0 reports the
// end-to-end metrics, --trace=1 the per-layer ones.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "pins.hpp"
#include "runner/cli.hpp"
#include "trace/digest.hpp"
#include "traced.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;  // NOLINT
using Clock = std::chrono::steady_clock;

constexpr double kSmallestHorizon = 1e-9;  // one simulated nanosecond
constexpr std::size_t kMinSetupRuns = 5;
constexpr std::size_t kMaxSetupRuns = 1001;
constexpr double kSetupBudgetS = 2.0;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Peak resident set of this process image, from /proc/self/status VmHWM.
/// (getrusage's ru_maxrss survives execve, so it would report the
/// launching Python process when that peaked higher.)
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Mean without the lowest and highest tenth of the values.
double trimmed_mean(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t cut = v.size() / 10;
  const auto first = v.begin() + static_cast<std::ptrdiff_t>(cut);
  const auto last = v.end() - static_cast<std::ptrdiff_t>(cut);
  return std::accumulate(first, last, 0.0) / static_cast<double>(last - first);
}

/// Nearest-rank percentile.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(p / 100.0 * static_cast<double>(v.size()));
  return v[std::min(rank, v.size() - 1)];
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

int threads_for(Workload w) { return w == Workload::kFleetChurn ? kFleetThreads : 1; }

/// Tally of checked operations.  `correct` goes false when the serial
/// reference path (or the traced rebuild) disagrees with what it must
/// reproduce; sharded-vs-serial divergence on fleet_churn is counted in
/// `failed` without clearing `correct` (a known defect, see README.md).
struct Tally {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void add(const std::string& what, const Check& c, bool reference) {
    attempted += c.attempted;
    failed += c.failed;
    if (c.failed > 0 && reference) correct = false;
    std::printf("check %s: %llu/%llu ok\n", what.c_str(),
                static_cast<unsigned long long>(c.attempted - c.failed),
                static_cast<unsigned long long>(c.attempted));
    for (std::size_t i = 0; i < c.mismatches.size() && i < 4; ++i) {
      std::printf("  mismatch %s: %s\n", c.mismatches[i].item.c_str(),
                  c.mismatches[i].why.c_str());
    }
  }
};

class Metrics {
 public:
  void add(const std::string& name, double value, const char* unit) {
    entries_.push_back({name, value, unit});
  }
  std::string json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      char buf[160];
      std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                    i ? ", " : "", entries_[i].name.c_str(), entries_[i].value,
                    entries_[i].unit);
      out += buf;
    }
    return out + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Entry> entries_;
};

void print_result(const Tally& t, const Metrics& m) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              t.correct ? "true" : "false",
              static_cast<unsigned long long>(t.attempted),
              static_cast<unsigned long long>(t.failed), m.json().c_str());
}

const std::vector<Item>& pinned(const PinTable& pins, const Inputs& in) {
  const auto it = pins.find(in.pin_set);
  if (it == pins.end()) throw std::runtime_error("no pins for " + in.pin_set);
  return it->second;
}

/// Trace records of a run's items (serving-results items count requests).
std::uint64_t total_records(const std::vector<Item>& items) {
  std::uint64_t n = 0;
  for (const Item& i : items) n += is_latency_item(i) ? 0 : i.records;
  return n;
}

void print_paper(const Result& grid) {
  const auto ratios = paper_ratios(grid);
  std::printf("paper_spec vProbe/Credit normalized runtime (simulated vs paper Fig. 4):");
  for (const PaperRatio& r : ratios) {
    std::printf(" %s %.3f vs %.3f;", r.app.c_str(), r.simulated, r.paper);
  }
  std::printf(" paper_gap %.4f\n", paper_gap(ratios));
}

/// The known-defect repro: a 2-host fleet whose balancer makes the
/// sharded run diverge from the serial one.  One attempted operation.
Check balancer_repro() {
  const auto serial = run_scenario_text(balancer_repro_text(), 1);
  const auto sharded = run_scenario_text(balancer_repro_text(), 2);
  Check c;
  c.attempted = 1;
  if (serial.cluster.fleet_digest != sharded.cluster.fleet_digest) {
    c.failed = 1;
    c.mismatches.push_back(
        {"fleet", "digest serial " + vprobe::trace::digest_hex(serial.cluster.fleet_digest) +
                      " != sharded " + vprobe::trace::digest_hex(sharded.cluster.fleet_digest)});
  }
  return c;
}

// -- --trace=0 ----------------------------------------------------------------

int run_end_to_end(const Inputs& in, const PinTable& pins, double seconds) {
  const int threads = threads_for(in.workload);
  const auto& expected = pinned(pins, in);
  const bool cluster = in.workload != Workload::kPaperSpec;
  Tally tally;

  // Set-up: the same workload run to the smallest positive horizon, first,
  // while the heap is fresh (after a full repetition, heap state left behind
  // makes set-up runs 2-4x slower, by an amount that varies per process).
  std::vector<double> setup;
  const auto setup_t0 = Clock::now();
  while (setup.size() < kMaxSetupRuns &&
         (setup.size() < kMinSetupRuns || seconds_since(setup_t0) < kSetupBudgetS)) {
    const auto t0 = Clock::now();
    run_untraced(in, threads, kSmallestHorizon);
    setup.push_back(seconds_since(t0));
  }

  // One untimed warm-up repetition (it grows the heap to its working size),
  // then timed repetitions for `seconds`, each checked against the pins.
  Result last = run_untraced(in, threads);
  Check timed = check_items(expected, last.items, cluster);
  std::vector<double> wall, cpu;
  const auto deadline = Clock::now() + std::chrono::duration<double>(seconds);
  do {
    const double c0 = cpu_seconds();
    const auto t0 = Clock::now();
    last = run_untraced(in, threads);
    wall.push_back(seconds_since(t0));
    cpu.push_back(cpu_seconds() - c0);
    timed.unite(check_items(expected, last.items, cluster));
  } while (Clock::now() < deadline);
  std::printf("set-up runs %zu; timed repetitions %zu, wall_s:", setup.size(), wall.size());
  for (double w : wall) std::printf(" %.4f", w);
  std::printf("\n");

  if (in.workload == Workload::kFleetChurn) {
    // Serial oracle: the pins are --sim-threads 1 digests; the timed runs
    // are sharded, so their mismatches are serial-vs-sharded divergence.
    tally.add("serial_reference " + in.pin_set,
              check_items(expected, run_untraced(in, 1).items, true), true);
    tally.add("sharded_vs_serial " + in.pin_set, timed, false);
    tally.add("pdes_balancer_repro", balancer_repro(), false);
  } else {
    tally.add("pins " + in.pin_set, timed, true);
  }

  // Trimmed mean over the repetitions: on a shared host, rare fast
  // repetitions make the best one jump between runs, and the mean of the
  // middle 80% moved less between runs than the best or the median did.
  const double records = static_cast<double>(
      total_records(cluster ? last.items : expected));
  const double wall_s = trimmed_mean(wall);
  std::printf("wall_s trimmed mean %.4f, median %.4f, best %.4f; cpu_s trimmed mean %.4f\n",
              wall_s, median(wall), *std::min_element(wall.begin(), wall.end()),
              trimmed_mean(cpu));
  Metrics m;
  m.add("wall_s", wall_s, "s");
  m.add("cpu_s", trimmed_mean(cpu), "s");
  m.add("records_per_s", ratio(records, wall_s), "1/s");
  m.add("setup_s", median(setup), "s");
  m.add("peak_rss_mb", peak_rss_mb(), "MB");
  if (in.workload == Workload::kPaperSpec) print_paper(last);
  print_result(tally, m);
  return 0;
}

// -- --trace=1 ----------------------------------------------------------------

int run_layers(const Inputs& in, const PinTable& pins, double seconds) {
  const int threads = threads_for(in.workload);
  const bool fleet = in.workload == Workload::kFleetChurn;
  const bool cluster = in.workload != Workload::kPaperSpec;
  Tally tally;

  // Interleave untraced and traced runs (plus fleet_churn's serial and
  // 4-shard runs) so drift hits every series alike.
  std::vector<double> untraced_wall, traced_wall, serial_wall, four_wall;
  std::vector<Traced> traced;
  Check same;
  Result untraced;
  const auto deadline = Clock::now() + std::chrono::duration<double>(seconds);
  do {
    auto t0 = Clock::now();
    untraced = run_untraced(in, threads);
    untraced_wall.push_back(seconds_since(t0));
    traced.push_back(run_traced(in, threads));
    traced_wall.push_back(traced.back().wall_s);
    // The traced rebuild must reproduce the untraced run bit for bit.
    same.unite(check_items(untraced.items, traced.back().result.items, cluster));
    if (fleet) {
      t0 = Clock::now();
      run_untraced(in, 1);
      serial_wall.push_back(seconds_since(t0));
      t0 = Clock::now();
      run_untraced(in, 4);
      four_wall.push_back(seconds_since(t0));
    }
  } while (Clock::now() < deadline);
  std::printf("traced %zu repetitions\n", traced.size());
  tally.add("traced_vs_untraced " + in.pin_set, same, true);
  if (!fleet) {
    // Serial workloads: the traced run must also match the pins, records
    // included (paper_spec's executor path counts no records).
    tally.add("pins " + in.pin_set,
              check_items(pinned(pins, in), traced.front().result.items, true), true);
  }

  const Traced& t = traced.front();
  auto median_of = [&traced](auto field) {
    std::vector<double> v;
    for (const Traced& r : traced) v.push_back(field(r));
    return median(v);
  };
  std::vector<double> windows;
  for (const Traced& r : traced) windows.insert(windows.end(), r.window_ms.begin(), r.window_ms.end());
  auto kind = [&t](vprobe::trace::EventKind k) {
    return static_cast<double>(t.kinds[static_cast<std::size_t>(k)]);
  };
  auto ovh = [&t](vprobe::hv::OverheadBucket b) {
    return static_cast<double>(t.overhead[static_cast<std::size_t>(b)]);
  };
  using vprobe::hv::OverheadBucket;
  using vprobe::trace::EventKind;
  const double events = static_cast<double>(t.events);
  const double records = static_cast<double>(t.records);
  const double lookups = static_cast<double>(t.rate_hits + t.rate_misses);
  const double untraced_s = median(untraced_wall);

  Metrics m;
  m.add("sim.events", events, "count");
  m.add("sim.events_per_record", ratio(events, records), "ratio");
  m.add("sim.queue_peak", static_cast<double>(t.queue_peak), "count");
  m.add("sim.window_ms_p50", percentile(windows, 50), "ms");
  m.add("sim.window_ms_p99", percentile(windows, 99), "ms");
  m.add("perf.rate_lookups", lookups, "count");
  m.add("perf.rate_evals", static_cast<double>(t.rate_misses), "count");
  m.add("perf.memo_hit_rate", ratio(static_cast<double>(t.rate_hits), lookups), "ratio");
  m.add("hv.records", records, "count");
  m.add("hv.switches", kind(EventKind::kSwitchIn), "count");
  m.add("hv.wakes", kind(EventKind::kWake), "count");
  m.add("hv.blocks", kind(EventKind::kBlock), "count");
  m.add("hv.vcpu_migrations", kind(EventKind::kMigration), "count");
  m.add("hv.page_moves", kind(EventKind::kPageMove), "count");
  m.add("hv.partitions", kind(EventKind::kPartition), "count");
  m.add("hv.domain_destroys", kind(EventKind::kDomainDestroy), "count");
  m.add("hv.ovh.pmu", ovh(OverheadBucket::kPmuCollection), "count");
  m.add("hv.ovh.partition", ovh(OverheadBucket::kPartitioning), "count");
  m.add("hv.ovh.balance", ovh(OverheadBucket::kBalancing), "count");
  m.add("hv.ovh.lock_wait", ovh(OverheadBucket::kLockWait), "count");
  m.add("hv.ovh.ctx_switch", ovh(OverheadBucket::kContextSwitch), "count");
  // Window time and hook time share one timeline only when serial; on the
  // sharded fleet_churn the hooks of two shard threads overlap a window.
  m.add("hv.self_ms",
        threads > 1 ? 0.0
                    : median_of([](const Traced& r) {
                        return r.window_total_ms() - 1e3 * r.core.total_s;
                      }),
        "ms");
  m.add("core.schedule_calls", static_cast<double>(t.core.schedule_calls), "count");
  m.add("core.schedule_ms", median_of([](const Traced& r) { return 1e3 * r.core.schedule_s; }), "ms");
  m.add("core.tick_ms", median_of([](const Traced& r) { return 1e3 * r.core.tick_s; }), "ms");
  m.add("core.accounting_ms",
        median_of([](const Traced& r) { return 1e3 * r.core.accounting_s; }), "ms");
  m.add("core.wake_ms", median_of([](const Traced& r) { return 1e3 * r.core.wake_s; }), "ms");
  m.add("core.requeue_ms", median_of([](const Traced& r) { return 1e3 * r.core.requeue_s; }), "ms");
  m.add("wl.requests", static_cast<double>(t.requests), "count");
  m.add("wl.arrival_events", static_cast<double>(t.arrival_events), "count");
  m.add("wl.arrivals_coalesced", static_cast<double>(t.arrivals_coalesced), "count");
  m.add("wl.events_per_request",
        ratio(static_cast<double>(t.arrival_events), static_cast<double>(t.requests)), "ratio");
  m.add("wl.p50_ms", t.p50_ms, "ms");
  m.add("wl.p999_ms", t.p999_ms, "ms");
  m.add("wl.slo_violations", static_cast<double>(t.slo_violations), "count");
  m.add("cluster.admitted", static_cast<double>(t.admitted), "count");
  m.add("cluster.migrations_completed", static_cast<double>(t.migrations_completed), "count");
  m.add("cluster.precopy_rounds", static_cast<double>(t.precopy_rounds), "count");
  m.add("cluster.balance_actions", static_cast<double>(t.balance_actions), "count");
  m.add("pdes.windows", static_cast<double>(t.sync.windows), "count");
  m.add("pdes.windows_coalesced", static_cast<double>(t.sync.windows_coalesced), "count");
  m.add("pdes.barriers", static_cast<double>(t.sync.barriers), "count");
  m.add("pdes.shard_dispatches", static_cast<double>(t.sync.shard_dispatches), "count");
  m.add("pdes.shard_skips", static_cast<double>(t.sync.shard_skips), "count");
  m.add("pdes.pool_wakeups", static_cast<double>(t.sync.pool_wakeups), "count");
  m.add("pdes.pool_parks", static_cast<double>(t.sync.pool_parks), "count");
  m.add("pdes.dispatches_per_window",
        ratio(static_cast<double>(t.sync.shard_dispatches), static_cast<double>(t.sync.windows)),
        "ratio");
  m.add("pdes.speedup_2t", fleet ? ratio(median(serial_wall), untraced_s) : 0.0, "x");
  m.add("pdes.speedup_4t", fleet ? ratio(median(serial_wall), median(four_wall)) : 0.0, "x");
  m.add("runner.parse_ms", median_of([](const Traced& r) { return 1e3 * r.parse_s; }), "ms");
  m.add("runner.build_ms", median_of([](const Traced& r) { return 1e3 * r.build_s; }), "ms");
  m.add("runner.admit_ms", median_of([](const Traced& r) { return 1e3 * r.admit_s; }), "ms");
  m.add("runner.start_ms", median_of([](const Traced& r) { return 1e3 * r.start_s; }), "ms");
  m.add("trace.overhead_pct", 100.0 * ratio(median(traced_wall) - untraced_s, untraced_s), "%");
  if (in.workload == Workload::kPaperSpec) {
    print_paper(t.result);
    m.add("paper_gap", paper_gap(paper_ratios(t.result)), "ratio");
  }
  print_result(tally, m);
  return 0;
}

// -- maintenance modes ----------------------------------------------------------

int write_pins(const std::string& path) {
  PinTable pins;
  for (const Inputs& in : all_pinned_inputs()) {
    if (in.workload == Workload::kPaperSpec) {
      // Records come from the traced rebuild, which must agree with the
      // executor's metrics hashes before anything is pinned.
      const Result exec = run_untraced(in, 1);
      const Traced traced = run_traced(in, 1);
      const Check c = check_items(exec.items, traced.result.items, false);
      if (c.failed > 0) {
        throw std::runtime_error("traced grid differs: " + c.mismatches[0].item + ": " +
                                 c.mismatches[0].why);
      }
      pins[in.pin_set] = traced.result.items;
    } else {
      pins[in.pin_set] = run_untraced(in, 1).items;
    }
    std::fprintf(stderr, "pinned %s\n", in.pin_set.c_str());
  }
  std::ofstream out(path);
  out << "# Serial-reference outputs: <pin set> <item> <trace records> <hash>.\n"
         "# Cluster items are --sim-threads 1 host trace digests; paper_spec\n"
         "# items hash each Fig. 4 grid job's metrics.  Regenerate only when a\n"
         "# change is meant to alter simulated behaviour:\n"
         "#   python3 perfbench/run.py --write-pins\n"
      << format_pins(pins);
  return out ? 0 : 1;
}

int self_test(const PinTable& pins) {
  int failures = 0;
  auto expect = [&failures](bool ok, const std::string& what) {
    std::printf("self-test %s: %s\n", ok ? "ok" : "FAIL", what.c_str());
    if (!ok) ++failures;
  };

  // A deliberately wrong pin fails and is counted.
  const Inputs fleet = make_inputs(Workload::kFleetChurn, 0, false);
  const Result serial = run_untraced(fleet, 1);
  std::vector<Item> wrong = pinned(pins, fleet);
  const Check right = check_items(wrong, serial.items, true);
  expect(right.failed == 0 && right.attempted == wrong.size(),
         "serial fleet_churn reproduces its pins");
  wrong.at(3).hash ^= 1;
  const Check bad = check_items(wrong, serial.items, true);
  expect(bad.failed == 1 && bad.attempted == wrong.size(),
         "a wrong pin is counted as exactly one failed operation");
  Check repeated = bad;
  repeated.unite(bad);
  expect(repeated.failed == 1 && repeated.attempted == wrong.size(),
         "a mismatch seen in every repetition is still one failed operation");

  // Serving results are pinned per host: a wrong one is counted too.
  const Inputs serving = make_inputs(Workload::kServingSpike, 0, false);
  std::vector<Item> wrong_latency = pinned(pins, serving);
  const auto latency = std::find_if(wrong_latency.begin(), wrong_latency.end(), is_latency_item);
  expect(latency != wrong_latency.end(), "serving_spike pins hold serving results");
  if (latency != wrong_latency.end()) {
    latency->hash ^= 1;
    const Check c = check_items(wrong_latency, run_untraced(serving, 1).items, true);
    expect(c.failed == 1 && c.mismatches[0].item == latency->name,
           "a wrong serving-results pin is counted as exactly one failed operation");
  }

  // Traced runs reproduce untraced runs for every workload.
  for (Workload w : {Workload::kPaperSpec, Workload::kFleetChurn, Workload::kServingSpike}) {
    const Inputs in = make_inputs(w, 0, false);
    const Result plain = run_untraced(in, threads_for(w));
    const Traced traced = run_traced(in, threads_for(w));
    const Check c = check_items(plain.items, traced.result.items, w != Workload::kPaperSpec);
    expect(c.failed == 0 && c.attempted > 0,
           std::string("traced ") + workload_name(w) + " equals untraced");
  }

  // The known defect stays visible (reported, not a self-test failure).
  const Check repro = balancer_repro();
  std::printf("known defect pdes_balancer_repro: %s\n",
              repro.failed ? repro.mismatches[0].why.c_str() : "serial == sharded (fixed?)");
  return failures == 0 ? 0 : 1;
}

void print_stamp(const vprobe::runner::Cli& cli, const Inputs& in, std::uint64_t seed) {
#if defined(VPROBE_CHECKS)
  constexpr bool kChecks = true;
#else
  constexpr bool kChecks = false;
#endif
  std::printf(
      "stamp git_sha=%s src_hash=%s compiler=\"%s\" build_type=%s vprobe_checks=%s"
      " nproc=%u workload=%s seed=%llu sim_seed=%llu pin_set=%s\n",
      cli.get("git-sha", "unknown").c_str(), cli.get("src-hash", "unknown").c_str(),
      PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE, kChecks ? "on" : "off",
      std::thread::hardware_concurrency(), workload_name(in.workload),
      static_cast<unsigned long long>(seed), static_cast<unsigned long long>(in.sim_seed),
      in.pin_set.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const vprobe::runner::Cli cli(argc, argv);
  try {
    const std::string pins_path = cli.get("pins", "");
    if (pins_path.empty()) throw std::invalid_argument("--pins=FILE is required");
    if (cli.has("write-pins")) return write_pins(pins_path);
    const PinTable pins = load_pins(pins_path);
    if (cli.has("self-test")) return self_test(pins);

    const auto workload = workload_from_name(cli.get("workload", ""));
    if (!workload) throw std::invalid_argument("--workload must be paper_spec, fleet_churn or serving_spike");
    const std::uint64_t seed = cli.get_u64("seed", 0);
    const double seconds = cli.get_double("seconds", 10.0);
    const int trace = cli.get_int("trace", 0);
    if (!(seconds > 0) || (trace != 0 && trace != 1)) {
      throw std::invalid_argument("--seconds must be > 0 and --trace 0 or 1");
    }
    const Inputs in = make_inputs(*workload, seed, cli.has("held-out"));
    print_stamp(cli, in, seed);
    return trace ? run_layers(in, pins, seconds) : run_end_to_end(in, pins, seconds);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
