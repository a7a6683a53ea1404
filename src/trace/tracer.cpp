#include "trace/tracer.hpp"

#include <stdexcept>

namespace vprobe::trace {

const char* to_string(EventKind kind) {
  switch (kind) {
    case EventKind::kSwitchIn:  return "switch-in";
    case EventKind::kSwitchOut: return "switch-out";
    case EventKind::kWake:      return "wake";
    case EventKind::kBlock:     return "block";
    case EventKind::kFinish:    return "finish";
    case EventKind::kMigration: return "migration";
    case EventKind::kPartition: return "partition";
    case EventKind::kPageMove:  return "page-move";
    case EventKind::kPause:     return "pause";
    case EventKind::kResume:    return "resume";
    case EventKind::kRetire:    return "retire";
    case EventKind::kDomainDestroy: return "domain-destroy";
    case EventKind::kCount:     break;
  }
  return "?";
}

Tracer::Tracer(std::size_t capacity) : capacity_(capacity) {
  if (capacity == 0) throw std::invalid_argument("Tracer: capacity must be > 0");
  // Reserve, not resize: the ring grows by push_back until it is full, so
  // a tracer that records little never touches (or zeroes) the rest.
  ring_.reserve(capacity);
}

void Tracer::record(sim::Time when, EventKind kind, std::int32_t vcpu,
                    std::int32_t pcpu, std::int32_t aux) {
  const Record r{when, kind, vcpu, pcpu, aux};
  if (ring_.size() < capacity_) {
    ring_.push_back(r);
  } else {
    ring_[next_] = r;
  }
  digest_.add(r);
  // Wrap with a compare instead of %: next_ is always < capacity, and the
  // division would be the most expensive instruction on this hot path.
  if (++next_ == capacity_) next_ = 0;
  ++total_;
  ++counts_[static_cast<std::size_t>(kind)];
}

std::vector<Record> Tracer::snapshot() const {
  std::vector<Record> out;
  out.reserve(ring_.size());
  // Oldest retained element sits at next_ when the ring has wrapped.
  std::size_t idx = total_ > capacity_ ? next_ : 0;
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[idx]);
    if (++idx == ring_.size()) idx = 0;
  }
  return out;
}

void Tracer::clear() {
  ring_.clear();  // keeps the reserved capacity
  next_ = 0;
  total_ = 0;
  digest_ = TraceDigest{};
  counts_.fill(0);
}

void Tracer::dump(std::FILE* out, std::size_t limit) const {
  const auto events = snapshot();
  const std::size_t begin = events.size() > limit ? events.size() - limit : 0;
  for (std::size_t i = begin; i < events.size(); ++i) {
    const Record& r = events[i];
    std::fprintf(out, "[%12.6f] %-10s vcpu=%-3d pcpu=%-2d aux=%d\n",
                 r.when.to_seconds(), to_string(r.kind), r.vcpu, r.pcpu, r.aux);
  }
  std::fprintf(out, "total=%llu dropped=%llu\n",
               static_cast<unsigned long long>(total_),
               static_cast<unsigned long long>(dropped()));
}

}  // namespace vprobe::trace
