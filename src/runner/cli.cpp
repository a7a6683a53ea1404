#include "runner/cli.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

namespace vprobe::runner {

namespace {

/// Keys that may take their value as the *next* argv token ("--jobs 4").
/// "--key=value" works for every key; unknown bare "--flag"s stay flags.
constexpr const char* kValueKeys[] = {
    "jobs",   "repeats", "seed",     "scale", "instr-scale",
    "sched",  "period",  "ops",      "requests",
    "sim-threads", "rps", "slo-ms",  "hosts-csv",
};

bool takes_value(const std::string& key) {
  for (const char* k : kValueKeys) {
    if (key == k) return true;
  }
  return false;
}

}  // namespace

Cli::Cli(int argc, char** argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      const auto eq = arg.find('=');
      if (eq != std::string::npos) {
        options_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
        continue;
      }
      // Values are assigned as std::string temporaries: GCC 12's
      // -Wrestrict misfires on string::operator=(const char*) here.
      const std::string key = arg.substr(2);
      if (takes_value(key) && i + 1 < argc &&
          std::strncmp(argv[i + 1], "--", 2) != 0) {
        options_[key] = std::string(argv[++i]);
      } else {
        options_[key] = std::string("1");
      }
    } else if (arg == "-h") {
      options_["help"] = std::string("1");
    } else {
      positional_.push_back(arg);
    }
  }
}

std::string Cli::get(const std::string& key, const std::string& fallback) const {
  auto it = options_.find(key);
  return it == options_.end() ? fallback : it->second;
}

double Cli::get_double(const std::string& key, double fallback) const {
  auto it = options_.find(key);
  return it == options_.end() ? fallback : std::strtod(it->second.c_str(), nullptr);
}

int Cli::get_int(const std::string& key, int fallback) const {
  auto it = options_.find(key);
  return it == options_.end() ? fallback
                              : static_cast<int>(std::strtol(it->second.c_str(), nullptr, 10));
}

std::uint64_t Cli::get_u64(const std::string& key, std::uint64_t fallback) const {
  auto it = options_.find(key);
  return it == options_.end()
             ? fallback
             : static_cast<std::uint64_t>(std::strtoull(it->second.c_str(), nullptr, 10));
}

bool Cli::help_requested() const { return has("help"); }

BenchFlags parse_bench_flags(const Cli& cli, double default_scale) {
  BenchFlags flags;
  // --instr-scale is the canonical spelling; --scale stays as the
  // historical alias every existing script uses.
  flags.config.instr_scale =
      cli.get_double("instr-scale", cli.get_double("scale", default_scale));
  flags.config.seed = cli.get_u64("seed", 1);
  flags.config.repeats = cli.get_int("repeats", 3);
  flags.config.sampling_period = sim::Time::seconds(cli.get_double("period", 1.0));
  flags.jobs = cli.get_int("jobs", 1);
  flags.config.checks = cli.has("checks");
  flags.config.rate_cache = !cli.has("no-rate-cache");
  if (cli.has("json")) {
    const std::string path = cli.get("json", "-");
    flags.json_path = (path == "1") ? "-" : path;
  }
  if (cli.has("sched")) {
    const std::string name = cli.get("sched", "");
    const auto kind = sched_from_name(name);
    if (!kind) {
      std::fprintf(stderr,
                   "%s: --sched: unknown scheduler '%s' (expected one of"
                   " credit, vprobe, vcpu_p, lb, brm, autonuma)\n",
                   cli.program().c_str(), name.c_str());
      std::exit(2);
    }
    flags.sched = *kind;
    flags.config.sched = *kind;
  }
  return flags;
}

bool maybe_print_help(const Cli& cli, const char* summary, const char* extra) {
  if (!cli.help_requested()) return false;
  std::printf("%s\n\nUsage: %s [options]\n\n", summary, cli.program().c_str());
  std::printf(
      "Standard options (values as --key=value or --key value):\n"
      "  --jobs N         run N simulations concurrently (0 = all host cores;\n"
      "                   results are bit-identical to --jobs 1)\n"
      "  --repeats N      average every experiment over N seeds (default 3)\n"
      "  --seed S         base RNG seed (default 1)\n"
      "  --instr-scale X  scale app instruction budgets; 1.0 = paper-scale\n"
      "                   (alias: --scale)\n"
      "  --sched NAME     restrict scheduler sweeps to one of credit, vprobe,\n"
      "                   vcpu_p, lb, brm, autonuma\n"
      "  --period S       scheduler sampling period in seconds (default 1.0)\n"
      "  --json[=PATH]    also write results as JSON lines to PATH (bare or\n"
      "                   - = stdout; only the = form takes a path)\n"
      "  --checks         run the invariant checker on every simulation and\n"
      "                   abort on any violation (VPROBE_CHECKS builds)\n"
      "  --no-rate-cache  disable the cost-model memoization (results are\n"
      "                   bit-identical either way; this is the escape hatch\n"
      "                   differential tests use to prove it)\n"
      "  --help           this text\n");
  if (extra != nullptr && *extra != '\0') {
    std::printf("\n%s\n", extra);
  }
  return true;
}

std::vector<SchedKind> sweep_schedulers(const BenchFlags& flags) {
  if (flags.sched) return {*flags.sched};
  const auto paper = paper_schedulers();
  return {paper.begin(), paper.end()};
}

}  // namespace vprobe::runner
