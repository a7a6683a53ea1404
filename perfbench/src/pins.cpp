#include "pins.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "trace/digest.hpp"

namespace perfbench {

PinTable load_pins(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open pins file " + path);
  PinTable pins;
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream words(line);
    std::string set, hash_hex;
    Item item;
    if (!(words >> set >> item.name >> item.records >> hash_hex) ||
        hash_hex.size() != 16) {
      throw std::runtime_error(path + ":" + std::to_string(line_no) +
                               ": expected <set> <item> <records> <hash>");
    }
    item.hash = std::stoull(hash_hex, nullptr, 16);
    pins[set].push_back(std::move(item));
  }
  return pins;
}

std::string format_pins(const PinTable& pins) {
  std::ostringstream out;
  for (const auto& [set, items] : pins) {
    for (const Item& item : items) {
      out << set << " " << item.name << " " << item.records << " "
          << vprobe::trace::digest_hex(item.hash) << "\n";
    }
  }
  return out.str();
}

void Check::unite(const Check& repeat) {
  attempted = std::max(attempted, repeat.attempted);
  for (const Mismatch& m : repeat.mismatches) {
    const bool seen = std::any_of(mismatches.begin(), mismatches.end(),
                                  [&m](const Mismatch& old) { return old.item == m.item; });
    if (!seen) mismatches.push_back(m);
  }
  failed = mismatches.size();
}

Check check_items(const std::vector<Item>& expected,
                  const std::vector<Item>& got, bool with_records) {
  Check check;
  for (const Item& want : expected) {
    ++check.attempted;
    const Item* have = nullptr;
    for (const Item& g : got) {
      if (g.name == want.name) {
        have = &g;
        break;
      }
    }
    std::string why;
    if (have == nullptr) {
      why = "missing";
    } else if (have->hash != want.hash) {
      why = "digest " + vprobe::trace::digest_hex(have->hash) + " != pinned " +
            vprobe::trace::digest_hex(want.hash);
    } else if (with_records && have->records != want.records) {
      why = "records " + std::to_string(have->records) + " != pinned " +
            std::to_string(want.records);
    }
    if (!why.empty()) {
      ++check.failed;
      check.mismatches.push_back({want.name, why});
    }
  }
  return check;
}

}  // namespace perfbench
