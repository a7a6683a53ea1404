// The three benchmark workloads and their untraced runs.
//
// Every workload runs in process through the simulator's public entry
// points: paper_spec through the RunPlan executor (what `fig4_spec --jobs 1`
// runs), fleet_churn and serving_spike through parse_scenario() +
// run_scenario() (what `run_scenario FILE` runs).  A run's checked outputs
// are Items: one per host trace stream, or one per Fig. 4 grid job.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "runner/experiment.hpp"
#include "stats/metrics.hpp"

namespace perfbench {

enum class Workload { kPaperSpec, kFleetChurn, kServingSpike };

const char* workload_name(Workload w);
std::optional<Workload> workload_from_name(std::string_view name);

/// The pinned input set of one run.  Cluster workloads draw their scenario
/// seed from a pool of pinned seeds; paper_spec always runs the same Fig. 4
/// grid (so its paper_gap repeats exactly) and the seed only shuffles the
/// order the grid's jobs run in.  `held_out` selects inputs reserved for
/// re-checking a claim.
struct Inputs {
  Workload workload = Workload::kPaperSpec;
  std::uint64_t sim_seed = 1;    ///< scenario seed, or the grid's base seed
  std::uint64_t order_seed = 0;  ///< paper_spec job order
  std::string pin_set;           ///< key of this input's pins in pins.txt
};

Inputs make_inputs(Workload w, std::uint64_t bench_seed, bool held_out);

/// Every pinned input set, in pins.txt order.
std::vector<Inputs> all_pinned_inputs();

/// Engine shards of the fleet_churn timed run.
inline constexpr int kFleetThreads = 2;

/// One checked output: a host's trace stream (records + running digest), a
/// host's serving results (requests + latency_hash; serving_spike only), or
/// a grid job's metrics (hash of every simulated field; records are the
/// trace records a traced rebuild counts, 0 from the untraced executor).
struct Item {
  std::string name;
  std::uint64_t records = 0;
  std::uint64_t hash = 0;
};

/// Name of a host's serving-results item, and whether an item is one (its
/// `records` count requests, not trace records).
std::string latency_item_name(const std::string& host);
bool is_latency_item(const Item& item);

/// Hash of a host's serving results: the latency histogram's bucket digest,
/// its exact min/max/sum bits, and the SLO violation count.
std::uint64_t latency_hash(const vprobe::stats::LatencyHistogram& latency,
                           std::uint64_t slo_violations);

struct Result {
  std::vector<Item> items;
  /// paper_spec only: each grid job's metrics, in paper_jobs() order.
  std::vector<vprobe::stats::RunMetrics> metrics;
};

// -- paper_spec --------------------------------------------------------------

struct PaperJob {
  std::string app;
  vprobe::runner::SchedKind sched;
};

/// The Fig. 4 grid, app-major: soplex/libquantum/mcf/milc/mix x the
/// paper's five schedulers.
std::vector<PaperJob> paper_jobs();

/// Config of one grid job; repeats cover seeds sim_seed, sim_seed+1, ...
vprobe::runner::RunConfig paper_config(const Inputs& in,
                                       vprobe::runner::SchedKind sched);

std::string paper_item_name(const PaperJob& job);

/// Hash of every simulated field of a RunMetrics (exact double bits).
std::uint64_t metrics_hash(const vprobe::stats::RunMetrics& m);

/// Simulated vProbe/Credit normalized runtime next to the paper's Fig. 4
/// value for each app (EXPERIMENTS.md's paper column).
struct PaperRatio {
  std::string app;
  double simulated = 0.0;
  double paper = 0.0;
};
std::vector<PaperRatio> paper_ratios(const Result& grid);
/// Mean |simulated - paper| over the five apps.
double paper_gap(const std::vector<PaperRatio>& ratios);

// -- cluster workloads -------------------------------------------------------

/// Scenario-file text of a cluster workload.
std::string scenario_text(const Inputs& in);

/// Two-host fleet on which the balancer makes a sharded run diverge from
/// the serial one (a known defect; see README.md).
std::string balancer_repro_text();

// -- runs ----------------------------------------------------------------------

/// Run the workload once, untraced, through its public entry point.
/// `horizon_s` > 0 replaces the simulated horizon (set-up timing).
Result run_untraced(const Inputs& in, int sim_threads, double horizon_s = 0.0);

/// Run one scenario text at `sim_threads`.
vprobe::stats::RunMetrics run_scenario_text(const std::string& text,
                                            int sim_threads,
                                            double horizon_s = 0.0);

}  // namespace perfbench
