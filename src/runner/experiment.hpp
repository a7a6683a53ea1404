// The knobs of one Section V experiment run.  The experiments themselves
// are RunSpec factories (run_plan.hpp): each builds a fresh hypervisor + VM
// set, runs the workload to completion (or the horizon), and returns the
// metrics the corresponding figure plots.  Normalisation against the Credit
// baseline happens in the bench binaries.
#pragma once

#include <string_view>

#include "runner/scenario.hpp"
#include "stats/metrics.hpp"

namespace vprobe::runner {

struct RunConfig {
  SchedKind sched = SchedKind::kCredit;
  std::uint64_t seed = 1;
  /// Average every experiment over this many seeds (seed, seed+1, ...).
  /// Placement under churny schedulers is seed-sensitive; the paper
  /// likewise averages repeated runs.
  int repeats = 1;
  /// Shrinks application instruction budgets; 1.0 = paper-scale runs.
  double instr_scale = 0.25;
  sim::Time sampling_period = sim::Time::sec(1);
  sim::Time horizon = sim::Time::sec(3600);
  bool dynamic_bounds = false;
  /// Cost-model memoization (bit-identical); --no-rate-cache clears it.
  bool rate_cache = true;
  /// Use Figure 1's VM memory sizes (VM1/VM2 8 GB, VM3 2 GB) instead of the
  /// Section V-A defaults (15/5/1 GB).
  bool fig1_memory_config = false;
  /// Attach the runtime invariant checker (src/check) to every run and
  /// throw if any invariant is violated.  Hook-level checking needs a
  /// VPROBE_CHECKS build; other builds still get the final full sweep.
  bool checks = false;
};

/// Solo calibration run (Figure 3): one 1-VCPU VM runs `app` alone with
/// node-local memory; returns its LLC miss rate, RPTI and runtime.
struct SoloMetrics {
  double llc_miss_rate = 0.0;  ///< misses / references
  double rpti = 0.0;           ///< references per 1000 instructions
  double runtime_s = 0.0;
};
SoloMetrics run_solo(const RunConfig& config, std::string_view app);

}  // namespace vprobe::runner
