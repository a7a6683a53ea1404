// Bit-exact RunMetrics goldens shared by the scenario and experiment golden
// suites.
//
// metrics_hash() reduces a RunMetrics to one FNV-1a digest: every double by
// its bit pattern, every counter, and the latency histogram's digest with its
// exact min/max/sum.  A golden file holds one "<key> <hex digest>" line per
// pinned run under a '#' comment header; VPROBE_UPDATE_GOLDEN=1 rewrites it.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "stats/metrics.hpp"
#include "trace/digest.hpp"

namespace vprobe::test {

struct MetricsHash {
  std::uint64_t h = trace::fnv1a_basis();
  void add(std::uint64_t v) { h = trace::fnv1a_mix(h, v); }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  void add(const std::string& s) {
    add(static_cast<std::uint64_t>(s.size()));
    for (const char c : s) add(static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
  }
};

inline std::uint64_t metrics_hash(const stats::RunMetrics& m) {
  MetricsHash h;
  h.add(m.scheduler);
  h.add(m.workload);
  h.add(static_cast<std::uint64_t>(m.app_runtime_s.size()));
  for (const auto& [name, runtime] : m.app_runtime_s) {
    h.add(name);
    h.add(runtime);
  }
  h.add(m.avg_runtime_s);
  h.add(m.total_mem_accesses);
  h.add(m.remote_mem_accesses);
  h.add(m.throughput_rps);
  h.add(m.latency.digest());
  h.add(m.latency.count());
  h.add(m.latency.min_s());
  h.add(m.latency.max_s());
  h.add(m.latency.sum_s());
  h.add(m.slo_threshold_s);
  h.add(m.slo_violations);
  h.add(m.arrival_events);
  h.add(m.arrivals_coalesced);
  h.add(m.overhead_fraction);
  h.add(m.migrations);
  h.add(m.cross_node_migrations);
  h.add(m.sim_seconds);
  h.add(static_cast<std::uint64_t>(m.completed));
  h.add(static_cast<std::uint64_t>(m.hosts.size()));
  return h.h;
}

inline bool update_mode() { return std::getenv("VPROBE_UPDATE_GOLDEN") != nullptr; }

inline std::map<std::string, std::string> load_goldens(const std::string& path) {
  std::map<std::string, std::string> goldens;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string key;
    std::string digest;
    if (fields >> key >> digest) goldens[key] = digest;
  }
  return goldens;
}

/// Rewrite `path`: the `header` comment block, then one line per key.
inline void save_goldens(const std::string& path, const char* header,
                         const std::map<std::string, std::string>& goldens) {
  std::ofstream out(path);
  out << header;
  for (const auto& [key, digest] : goldens) out << key << ' ' << digest << '\n';
}

}  // namespace vprobe::test
