// Declarative run plans and the parallel executor.
//
// A RunSpec describes one experiment job — a RunConfig plus the function
// that runs one simulation of it — without running anything.  A RunPlan is an
// ordered list of jobs (typically a workload × scheduler grid).  The
// ParallelExecutor runs a plan on a pool of worker threads and returns
// results keyed by job index, so output never depends on completion order.
//
// Determinism contract: every simulation is single-threaded and fully
// determined by its RunConfig, and the executor (a) expands each job into
// its `repeats` single-seed runs, (b) collects per-run results into
// pre-indexed slots, and (c) folds the repeats in seed order after the
// parallel phase.  Executing the same plan with jobs=1 and jobs=N therefore
// yields bit-identical RunMetrics.  A job that throws reports its error in
// its own slot and never poisons sibling jobs.
#pragma once

#include <cstdio>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "runner/experiment.hpp"
#include "stats/metrics.hpp"

namespace vprobe::runner {

/// One job: a RunConfig, a display label, and the body that runs one
/// simulation of it.  The body ignores cfg.repeats (repeat expansion is
/// the executor's job) and must be safe to call concurrently with *other*
/// jobs: build its own hypervisor/engine, share nothing mutable.
struct RunSpec {
  using Body = std::function<stats::RunMetrics(const RunConfig&)>;

  RunConfig config;
  std::string label;  ///< progress & error display, e.g. "spec:soplex"
  Body body;

  // -- The Section V experiments (experiment.cpp) ----------------------------
  /// SPEC CPU2006 (Figure 4): VM1 and VM2 run identical instance sets of
  /// `app` (4+4, except mcf: 6+2), VM3 runs hungry loops.  `app` may be
  /// "mix" — one instance each of soplex/libquantum/mcf/milc per VM.
  static RunSpec spec(const RunConfig& config, std::string_view app);
  /// NPB (Figure 5): a 4-threaded `app` in VM1 and VM2 each.
  static RunSpec npb(const RunConfig& config, std::string_view app);
  /// Memcached (Figure 6): 8-port servers in VM1 and VM2, memslap-style
  /// closed-loop clients at `concurrency` outstanding calls each; measures
  /// VM1's server.
  static RunSpec memcached(const RunConfig& config, int concurrency,
                           std::uint64_t total_ops = 400'000);
  /// Redis (Figure 7): 4 servers in VM1, 4 redis-benchmark tools in VM2,
  /// `connections` parallel connections per tool.
  static RunSpec redis(const RunConfig& config, int connections,
                       std::uint64_t total_requests = 400'000);
  /// Overhead (Table III): `num_vms` VMs (4 GB, 2 VCPUs, 2 soplex instances
  /// each) under the full vProbe scheduler, whatever config.sched says;
  /// reports the "overhead time" (PMU collection + partitioning) as a
  /// fraction of total busy time.
  static RunSpec overhead(const RunConfig& config, int num_vms);

  /// Any other setup: `fn(cfg)` runs one simulation.
  static RunSpec custom_job(const RunConfig& config, std::string label,
                            Body fn);

  /// Copy of this spec targeting another scheduler (for sweeps).
  RunSpec with_sched(SchedKind kind) const;
};

/// An ordered list of jobs.  Order defines result order.
class RunPlan {
 public:
  /// Append a job; returns its index.
  std::size_t add(RunSpec spec);

  /// Append one copy of `proto` per scheduler in `kinds` (in order);
  /// returns the index of the first.
  std::size_t add_sweep(std::span<const SchedKind> kinds, const RunSpec& proto);

  std::size_t size() const { return jobs_.size(); }
  bool empty() const { return jobs_.empty(); }
  const RunSpec& job(std::size_t i) const { return jobs_.at(i); }
  std::span<const RunSpec> jobs() const { return jobs_; }

 private:
  std::vector<RunSpec> jobs_;
};

/// Outcome of one job: averaged metrics, or the error that ended it.
struct RunResult {
  stats::RunMetrics metrics;
  std::string error;  ///< empty on success
  bool ok() const { return error.empty(); }
};

struct ExecutorOptions {
  /// Worker threads; <= 0 means one per hardware thread.
  int jobs = 1;
  /// Emit a single-line [done/total + ETA] progress ticker to `sink`.
  bool progress = false;
  std::FILE* progress_sink = stderr;
};

/// Thread-pool executor over RunPlans.  Stateless between run() calls.
class ParallelExecutor {
 public:
  explicit ParallelExecutor(ExecutorOptions options = {})
      : options_(options) {}

  /// Execute every job; result i corresponds to plan.job(i).
  std::vector<RunResult> run(const RunPlan& plan) const;

  /// `jobs` resolved against the host (for display).
  int resolved_jobs() const;

 private:
  ExecutorOptions options_;
};

/// Execute and unwrap: throws std::runtime_error on the first failed job
/// (message carries the job label), otherwise returns metrics in job order.
std::vector<stats::RunMetrics> execute_plan(const RunPlan& plan,
                                            ExecutorOptions options = {});

/// Run one job serially — all its repeats, folded — and unwrap it like
/// execute_plan.
stats::RunMetrics run_one(RunSpec spec);

}  // namespace vprobe::runner
