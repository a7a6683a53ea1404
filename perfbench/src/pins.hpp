// Pinned outputs: the serial-reference digests every run is checked
// against, kept in pins.txt as "<pin set> <item> <records> <hash>" lines.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace perfbench {

using PinTable = std::map<std::string, std::vector<Item>>;

/// Parse pins.txt; throws std::runtime_error with a line number on bad input.
PinTable load_pins(const std::string& path);

/// Render a table in pins.txt format.
std::string format_pins(const PinTable& pins);

struct Mismatch {
  std::string item;
  std::string why;
};

struct Check {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Mismatch> mismatches;  ///< one per failed item

  /// Fold in a repetition of the same check: each item counts once, as
  /// failed if it failed in any repetition (keeping its first mismatch), so
  /// the totals do not grow with the number of repetitions a run makes.
  void unite(const Check& repeat);
};

/// Compare `got` against `expected` item by item (matched by name); every
/// expected item is one attempted operation, and a missing or differing
/// item is one failure.  Record counts are compared when `with_records`.
Check check_items(const std::vector<Item>& expected,
                  const std::vector<Item>& got, bool with_records);

}  // namespace perfbench
