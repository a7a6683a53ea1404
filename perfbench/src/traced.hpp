// The traced run: each workload rebuilt through the same public
// constructors its entry point uses, with a timing decorator around every
// host's scheduler, a tracer on every host, and the engine stepped in the
// same fixed simulated windows the entry point uses, so host time can be
// split by layer from outside the simulator.  A traced run must reproduce
// the untraced run's items bit for bit; otherwise it measured a different
// simulation.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "cluster/cluster.hpp"
#include "hv/overhead.hpp"
#include "trace/event.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Host seconds spent inside each Scheduler hook, summed over hosts.
struct CoreTimes {
  std::uint64_t schedule_calls = 0;
  double schedule_s = 0.0;
  double tick_s = 0.0;
  double accounting_s = 0.0;
  double wake_s = 0.0;
  double requeue_s = 0.0;
  double total_s = 0.0;  ///< outermost hook spans only (no double counting)

  CoreTimes& operator+=(const CoreTimes& o);
};

/// Everything one traced run measures.  Counters are summed over every
/// simulation of the run (the 50 grid simulations of paper_spec, or the
/// hosts of a fleet).
struct Traced {
  Result result;  ///< items carry trace records, for the traced==untraced check
  double wall_s = 0.0;

  // sim
  std::uint64_t events = 0;      ///< Engine::executed over every engine
  std::uint64_t queue_peak = 0;  ///< max queued events seen at a window edge
  std::vector<double> window_ms; ///< host ms of each stepped run_until call

  // perf
  std::uint64_t rate_hits = 0;
  std::uint64_t rate_misses = 0;

  // hv
  std::uint64_t records = 0;
  std::array<std::uint64_t, static_cast<std::size_t>(vprobe::trace::EventKind::kCount)>
      kinds{};
  std::array<std::uint64_t, static_cast<std::size_t>(vprobe::hv::OverheadBucket::kCount)>
      overhead{};

  // core
  CoreTimes core;

  // workload (serving_spike)
  std::uint64_t requests = 0;
  std::uint64_t arrival_events = 0;
  std::uint64_t arrivals_coalesced = 0;
  double p50_ms = 0.0;
  double p999_ms = 0.0;
  std::uint64_t slo_violations = 0;

  // cluster
  std::uint64_t admitted = 0;
  std::uint64_t migrations_completed = 0;
  std::uint64_t precopy_rounds = 0;
  std::uint64_t balance_actions = 0;
  vprobe::cluster::SyncStats sync;

  // runner phases (host seconds)
  double parse_s = 0.0;
  double build_s = 0.0;
  double admit_s = 0.0;
  double start_s = 0.0;

  double window_total_ms() const;
};

/// Rebuild and run the workload traced, at `sim_threads` engine shards
/// (cluster workloads; paper_spec is serial).
Traced run_traced(const Inputs& in, int sim_threads);

}  // namespace perfbench
