#include "core/numa_balance.hpp"

#include "core/analyzer.hpp"

namespace vprobe::core {

double NumaAwareBalancer::live_pressure(const hv::Vcpu& vcpu) {
  const pmu::CounterSet window = vcpu.pmu.window_delta();
  if (window.instr_retired <= 0.0) return vcpu.llc_pressure;
  return PmuDataAnalyzer::llc_pressure(window, 1000.0);
}

hv::Vcpu* NumaAwareBalancer::steal(hv::Hypervisor& hv, hv::Pcpu& thief,
                                   int weaker_than, bool local_only) {
  if (hv.queued_outside(thief) == 0) return nullptr;  // nothing to steal
  const auto& topo = hv.topology();

  for (numa::NodeId node : topo.nodes_by_distance(thief.node)) {
    if (local_only && node != thief.node) break;
    // loadList: the node's PCPUs sorted by workload, heaviest first
    // (stable on id so the scan order is deterministic).  Empty queues are
    // left out: the scan would skip them anyway, and the stable order of
    // the rest is unchanged.  A node is a handful of PCPUs, so a stable
    // insertion sort into the reused buffer avoids std::stable_sort's
    // temporary allocation.
    load_list_.clear();
    for (numa::PcpuId pid : topo.pcpus_of(node)) {
      if (pid == thief.id) continue;
      hv::Pcpu& victim = hv.pcpu(pid);
      if (victim.queue.empty()) continue;
      auto pos = load_list_.end();
      while (pos != load_list_.begin() &&
             (*(pos - 1))->workload() < victim.workload()) {
        --pos;
      }
      load_list_.insert(pos, &victim);
    }

    for (hv::Pcpu* victim : load_list_) {
      // Steal the eligible runnable VCPU with the smallest LLC pressure.
      hv::Vcpu* best = nullptr;
      double best_pressure = 0.0;
      for (hv::Vcpu* v : victim->queue.items()) {
        if (static_cast<int>(v->priority) >= weaker_than) continue;
        if (!v->allowed_on(thief.id)) continue;  // hard affinity (vcpu-pin)
        const double pressure = live_pressure(*v);
        if (best == nullptr || pressure < best_pressure) {
          best = v;
          best_pressure = pressure;
        }
      }
      if (best == nullptr) continue;
      victim->queue.remove(*best);
      if (node == thief.node) {
        ++stats_.local_steals;
      } else {
        ++stats_.remote_steals;
      }
      return best;
    }
  }
  return nullptr;
}

}  // namespace vprobe::core
