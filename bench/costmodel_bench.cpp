// Cost-model hot-path micro-benchmark: the per-segment predict+settle rate
// evaluations, for the versioned/memoized cost model versus the same model
// with its memo and decay caches switched off (the --no-rate-cache path,
// which runs one full compute_rates per call).
//
// Two scenarios replaying the cost model's real call shapes:
//
//   segment_rate     the hypervisor's segment loop: occupant churn + memory
//                    traffic every segment, prediction at segment start and
//                    settlement at the same `now`.  The settlement lookup
//                    hits its own prediction snapshot; the prediction misses
//                    (traffic genuinely moved the trackers), hit rate ~50%.
//   placement_scan   a scheduler scoring candidate placements: repeated
//                    ns_per_instr reads against an unchanging machine, time
//                    advancing between reads.  The fabric is idle, so the
//                    snapshots are time-invariant and everything after the
//                    first fill hits.
//
// Both variants fold each result into a bit-pattern digest.  The digests
// must equal each other and the pinned value per (scenario, steps) — the
// digest the pre-memo cost model produced — so the memo may only ever
// return the exact doubles a full recomputation produces, and neither
// variant may drift from the original model.
//
// Usage:
//   costmodel_bench            full run, JSON on stdout
//   costmodel_bench --smoke    quick CI gate: asserts the pinned digests,
//                              the cache-hit-rate floors, and that lookup
//                              counts match the call count; exit 1 on
//                              violation
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <span>
#include <vector>

#include "numa/machine_config.hpp"
#include "perf/contention.hpp"
#include "perf/cost_model.hpp"
#include "sim/time.hpp"

namespace {

using vprobe::sim::Time;
using vprobe::numa::MachineConfig;
using vprobe::numa::NodeId;

double now_sec() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch()).count();
}

/// Bit-pattern digest (FNV-1a over the raw bytes): equality means every
/// folded double is bit-identical, not merely approximately equal.
struct Digest {
  std::uint64_t h = 1469598103934665603ull;
  void fold(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    for (int i = 0; i < 8; ++i) {
      h ^= (bits >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  void fold(std::int64_t v) { fold(static_cast<double>(v)); }
};

/// One simulated VCPU's per-burst inputs, fixed for the whole run.
struct Guest {
  vprobe::perf::SliceProfile profile;
  std::array<double, 2> fractions;
  double extra_cold_miss = 0.0;
  double instructions = 0.0;
};

/// The SPEC-mix-like guest set: a thrasher, a cache-fitter (sensitive), a
/// friendly one, and a remote-heavy one, cycled over the PCPUs.
std::vector<Guest> make_guests(int count) {
  const double kRpti[] = {42.0, 18.0, 1.5, 30.0};
  const double kSolo[] = {0.55, 0.08, 0.02, 0.35};
  const double kSens[] = {0.05, 0.60, 0.01, 0.20};
  const double kWsMb[] = {14.0, 6.0, 0.5, 9.0};
  const double kLocalFrac[] = {0.85, 1.0, 1.0, 0.35};
  std::vector<Guest> guests(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    Guest& g = guests[static_cast<std::size_t>(i)];
    const int k = i % 4;
    g.fractions = {kLocalFrac[k], 1.0 - kLocalFrac[k]};
    g.profile.rpti = kRpti[k];
    g.profile.solo_miss = kSolo[k];
    g.profile.miss_sensitivity = kSens[k];
    g.profile.working_set_bytes = kWsMb[k] * 1024.0 * 1024.0;
    g.profile.node_fractions = std::span<const double>(g.fractions);
    g.extra_cold_miss = (k == 3) ? 0.04 : 0.0;
    g.instructions = 2.0e6 + 1.0e5 * k;
  }
  return guests;
}

struct BenchResult {
  double calls_per_sec = 0.0;
  std::uint64_t digest = 0;
  std::uint64_t lookups = 0;  ///< hits + misses
  double hit_rate = 0.0;
};

/// Replay the hypervisor's / scheduler's call sequence through the
/// per-PCPU cache slots (slot = PCPU id, settlement reuses the prediction's
/// `now`).  `settle` drives the segment loop (predict, settle at the same
/// `now`, deposit traffic, churn occupants); without it the loop is a pure
/// placement scan — prediction reads only, against a machine nothing
/// mutates.  `cached = false` switches the memo and the decay caches off.
BenchResult drive(const MachineConfig& cfg, int steps, bool settle,
                  bool cached) {
  vprobe::perf::MachineState state(cfg);
  if (!cached) state.set_decay_caches(false);
  vprobe::perf::CostModel model(cfg, state);
  model.resize_cache(static_cast<std::size_t>(cfg.total_pcpus()));
  model.set_cache_enabled(cached);

  const int pcpus = cfg.total_pcpus();
  auto guests = make_guests(pcpus);

  if (!settle) {
    // Scan scenario: fixed occupancy, registered once up front.
    for (int p = 0; p < pcpus; ++p) {
      state.occupant_in(static_cast<NodeId>(p / cfg.cores_per_node),
                        static_cast<std::uint64_t>(p),
                        guests[static_cast<std::size_t>(p)].profile.working_set_bytes);
    }
  }

  Digest d;
  Time t = Time::zero();
  const Time slice = Time::ms(30);
  const double t0 = now_sec();
  for (int s = 0; s < steps; ++s) {
    const int p = s % pcpus;
    const auto slot = static_cast<std::size_t>(p);
    const NodeId node = static_cast<NodeId>(p / cfg.cores_per_node);
    const Guest& g = guests[slot];
    if (settle) {
      state.occupant_in(node, static_cast<std::uint64_t>(p),
                        g.profile.working_set_bytes);
    }
    // Prediction at segment start...
    const double nspi = model.ns_per_instr_cached(slot, g.profile, node,
                                                  g.extra_cold_miss, t);
    d.fold(nspi);
    if (settle) {
      // ...then settlement at the same `now`, exactly as the hypervisor
      // does (run_cached re-reads the prediction's snapshot).
      const auto out = model.run_cached(slot, g.profile, node,
                                        g.extra_cold_miss, g.instructions,
                                        slice, t);
      d.fold(out.instructions);
      d.fold(out.ns_per_instr);
      d.fold(out.elapsed.nanos());
      d.fold(out.counters.llc_misses);
      d.fold(out.counters.remote_accesses);
      state.occupant_out(node, static_cast<std::uint64_t>(p));
      // Advance past the deposit timestamp so the next read pays the decay.
      t = t + out.elapsed + Time::us(7);
    } else {
      t = t + Time::us(10);
    }
  }
  const double t1 = now_sec();

  BenchResult r;
  r.calls_per_sec = static_cast<double>(settle ? 2 * steps : steps) / (t1 - t0);
  r.digest = d.h;
  r.lookups = model.cache_stats().hits + model.cache_stats().misses;
  r.hit_rate = model.cache_stats().hit_rate();
  return r;
}

/// The digest the pre-memo cost model (exp-always rate trackers, map-based
/// LLC occupancy, one full compute_rates per call) produced for each
/// scenario at the smoke and full step counts; 0 for any other count.
std::uint64_t pinned_digest(bool settle, int steps) {
  if (steps == 100'000) return settle ? 0xade9f7c83d4be25eull : 0xdd362e9c76733c2bull;
  if (steps == 600'000) return settle ? 0x5287a9d3c9d01b4eull : 0x8615eb450013a333ull;
  return 0;
}

struct Scenario {
  const char* name;
  BenchResult cached;
  BenchResult uncached;
  std::uint64_t pinned = 0;
  bool digests_match = false;
  bool counts_match = false;
  double speedup() const {
    return cached.calls_per_sec / uncached.calls_per_sec;
  }
};

Scenario run_scenario(const char* name, bool settle, const MachineConfig& cfg,
                      int steps) {
  Scenario sc;
  sc.name = name;
  sc.cached = drive(cfg, steps, settle, true);
  sc.uncached = drive(cfg, steps, settle, false);
  sc.pinned = pinned_digest(settle, steps);
  sc.digests_match = sc.cached.digest == sc.pinned &&
                     sc.uncached.digest == sc.pinned;
  // Every ns_per_instr and every run performs exactly one memo lookup —
  // the cache must not skip or duplicate evaluations.
  const std::uint64_t want =
      static_cast<std::uint64_t>(settle ? 2 * steps : steps);
  sc.counts_match = sc.cached.lookups == want && sc.uncached.lookups == want;
  return sc;
}

void print_scenario(const Scenario& sc, bool first) {
  std::printf("%s    \"%s\": {\n", first ? "" : ",\n", sc.name);
  std::printf("      \"cached_calls_per_sec\": %.0f,\n",
              sc.cached.calls_per_sec);
  std::printf("      \"uncached_calls_per_sec\": %.0f,\n",
              sc.uncached.calls_per_sec);
  std::printf("      \"speedup_vs_uncached\": %.2f,\n", sc.speedup());
  std::printf("      \"cache_hit_rate\": %.3f,\n", sc.cached.hit_rate);
  std::printf("      \"digest\": \"%016llx\",\n",
              static_cast<unsigned long long>(sc.cached.digest));
  std::printf("      \"digests_match_pinned\": %s,\n",
              sc.digests_match ? "true" : "false");
  std::printf("      \"lookup_counts_match\": %s\n",
              sc.counts_match ? "true" : "false");
  std::printf("    }");
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const int steps = smoke ? 100'000 : 600'000;
  const MachineConfig cfg = MachineConfig::xeon_e5620();

  const Scenario seg = run_scenario("segment_rate", true, cfg, steps);
  const Scenario scan = run_scenario("placement_scan", false, cfg, steps);

  // Hit-rate floors: segment churn leaves the settlement hits (~one per
  // segment, half the lookups); the scan should hit everywhere after the
  // first fill per PCPU slot.
  bool ok = true;
  ok &= seg.digests_match && scan.digests_match;
  ok &= seg.counts_match && scan.counts_match;
  ok &= seg.cached.hit_rate >= 0.40;
  ok &= scan.cached.hit_rate >= 0.95;

  if (smoke) {
    std::printf(
        "costmodel_bench --smoke: segment_rate %.2fx (hit rate %.2f), "
        "placement_scan %.2fx (hit rate %.2f); digests %s; lookup counts %s\n",
        seg.speedup(), seg.cached.hit_rate, scan.speedup(),
        scan.cached.hit_rate,
        seg.digests_match && scan.digests_match ? "match pinned" : "MISMATCH",
        seg.counts_match && scan.counts_match ? "match" : "MISMATCH");
    return ok ? 0 : 1;
  }

  // The headline perf gate only applies to the full run: CI machines are too
  // noisy for a timing assertion in --smoke, but the recorded benchmark must
  // clear it.  The uncached path runs as fast as the pre-memo model did, so
  // the gate keeps its strength.
  ok &= seg.speedup() >= 1.5;

  std::printf("{\n");
  std::printf("  \"benchmark\": \"per-segment cost-model rate evaluations, versioned memo vs memo off\",\n");
  std::printf("  \"config\": {\"steps\": %d, \"pcpus\": %d, \"nodes\": %d},\n",
              steps, cfg.total_pcpus(), cfg.num_nodes);
  std::printf("  \"results\": {\n");
  print_scenario(seg, true);
  print_scenario(scan, false);
  std::printf("\n  },\n");
  std::printf("  \"gates\": {\"segment_rate_speedup_min\": 1.5, "
              "\"segment_rate_hit_rate_min\": 0.40, "
              "\"placement_scan_hit_rate_min\": 0.95},\n");
  std::printf("  \"correctness\": \"%s\"\n",
              ok ? "bit-identical-to-pinned" : "VIOLATION");
  std::printf("}\n");
  return ok ? 0 : 1;
}
