// Per-PCPU run queue with Credit-scheduler ordering.
//
// VCPUs are kept sorted by priority class (BOOST < UNDER < OVER in queue
// position terms — strongest first), FIFO within a class, exactly like
// Xen's csched runq insertion.
#pragma once

#include <vector>

#include "hv/vcpu.hpp"

namespace vprobe::hv {

class RunQueue {
 public:
  /// Insert by priority class, at the tail of the VCPU's class.
  void insert(Vcpu& vcpu);

  /// Head of the queue (strongest priority, oldest within class).
  Vcpu* front() const { return items_.empty() ? nullptr : items_.front(); }

  Vcpu* pop_front();

  /// Remove a specific VCPU; returns false when not present.
  bool remove(Vcpu& vcpu);

  bool empty() const { return items_.empty(); }
  std::size_t size() const { return items_.size(); }

  /// Queue contents in order (for scheduler scans).
  const std::vector<Vcpu*>& items() const { return items_; }

  /// Also keep `*total` (a machine-wide count of queued VCPUs) in step with
  /// this queue.  Bind while the queue is empty.
  void count_into(std::size_t* total) { total_ = total; }

 private:
  std::vector<Vcpu*> items_;
  std::size_t* total_ = nullptr;
};

}  // namespace vprobe::hv
