// Bounded scheduler tracer.
//
// A fixed-capacity ring of Records plus running per-kind counters.  The
// ring keeps the *most recent* events (old ones are overwritten and counted
// as dropped); counters cover the whole run.  The hypervisor emits into an
// attached Tracer with one branch when none is attached, so tracing is free
// unless requested.
#pragma once

#include <array>
#include <cstdio>
#include <vector>

#include "trace/digest.hpp"
#include "trace/event.hpp"

namespace vprobe::trace {

class Tracer {
 public:
  explicit Tracer(std::size_t capacity = 65536);

  void record(sim::Time when, EventKind kind, std::int32_t vcpu,
              std::int32_t pcpu, std::int32_t aux = 0);

  /// Running FNV-1a digest over every record ever recorded — unlike
  /// digest_records(snapshot()), it does not depend on the ring capacity,
  /// so fleet digests stay exact even when a host's ring wraps.  Equal to
  /// digest_records(snapshot()) while dropped() == 0.
  std::uint64_t digest() const { return digest_.value(); }

  /// Host id this stream belongs to in a multi-machine run (-1 = unset).
  /// Tag only; records are unchanged, so single-machine digests hold.
  void set_host(int host) { host_ = host; }
  int host() const { return host_; }

  /// Events currently retained, oldest first.
  std::vector<Record> snapshot() const;

  std::uint64_t count(EventKind kind) const {
    return counts_[static_cast<std::size_t>(kind)];
  }
  std::uint64_t total_recorded() const { return total_; }
  std::uint64_t dropped() const {
    return total_ > capacity_ ? total_ - capacity_ : 0;
  }
  std::size_t capacity() const { return capacity_; }

  void clear();

  /// Human-readable dump of the retained events (most recent `limit`).
  void dump(std::FILE* out, std::size_t limit = 50) const;

 private:
  std::size_t capacity_;
  /// Grows to capacity_ records, then is overwritten in place at next_.
  std::vector<Record> ring_;
  std::size_t next_ = 0;
  std::uint64_t total_ = 0;
  int host_ = -1;
  TraceDigest digest_;
  std::array<std::uint64_t, static_cast<std::size_t>(EventKind::kCount)> counts_{};
};

}  // namespace vprobe::trace
