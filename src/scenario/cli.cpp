#include "scenario/cli.hpp"

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "scenario/scenario.hpp"
#include "sim/concurrency.hpp"

namespace ragnar::scenario {

namespace {

constexpr const char* kUsage =
    "usage: %s <command> [options]\n"
    "\n"
    "commands:\n"
    "  list [--long]              list registered scenarios (--long adds the\n"
    "                             quick/full parameter sets)\n"
    "  run <scenario...> [opts]   run the named scenarios, in order\n"
    "  run-all [opts]             run every registered scenario (name order)\n"
    "\n"
    "options (run / run-all):\n"
    "  --seed N      experiment seed (default 2024)\n"
    "  --full        paper-scale parameters\n"
    "  --quick       reduced, shape-complete parameters (the default)\n"
    "  --csv-dir D   dump raw sweep series as CSV files into D (--csv alias)\n"
    "  --jobs N      sweep worker threads (default: hardware concurrency;\n"
    "                results are bit-identical for any N)\n"
    "  --json F      dump harness trial reports as JSON to F\n"
    "  --trace F     write a merged Chrome trace_event JSON to F\n"
    "  --shards N    engine shards for engine-based scenarios (0 = scenario\n"
    "                default; output is identical for any N >= 1)\n";

void print_available(std::FILE* to) {
  std::fprintf(to, "available scenarios:\n");
  for (const Scenario* s : Registry::instance().all()) {
    std::fprintf(to, "  %-28s %s\n", s->name, s->tag);
  }
}

// Returns true when argv[*i] matched a uniform option (possibly consuming a
// value).  Sets *err on a malformed value.
bool parse_common_flag(int argc, char** argv, int* i, Options* opt,
                       std::string* err) {
  auto matches = [](const char* arg, const char* flag) {
    const std::size_t n = std::strlen(flag);
    return std::strncmp(arg, flag, n) == 0 &&
           (arg[n] == '\0' || arg[n] == '=');
  };
  auto value_of = [&](const char* flag) -> const char* {
    const char* arg = argv[*i];
    const std::size_t flag_len = std::strlen(flag);
    if (arg[flag_len] == '=') return arg + flag_len + 1;
    if (*i + 1 >= argc) {
      *err = std::string(flag) + " requires a value";
      return nullptr;
    }
    return argv[++*i];
  };
  auto numeric = [&](const char* flag, std::uint64_t* out) {
    const char* text = value_of(flag);
    if (text == nullptr) return false;
    if (!parse_u64_strict(text, out)) {
      *err = std::string(flag) + " expects a non-negative integer, got '" +
             text + "'";
      return false;
    }
    return true;
  };
  const char* arg = argv[*i];
  if (matches(arg, "--seed")) {
    return numeric("--seed", &opt->seed);
  } else if (std::strcmp(arg, "--full") == 0) {
    opt->full = true;
    return true;
  } else if (std::strcmp(arg, "--quick") == 0) {
    opt->full = false;
    return true;
  } else if (matches(arg, "--csv-dir")) {
    const char* v = value_of("--csv-dir");
    if (v == nullptr) return false;
    opt->csv_dir = v;
    return true;
  } else if (matches(arg, "--csv")) {
    const char* v = value_of("--csv");
    if (v == nullptr) return false;
    opt->csv_dir = v;
    return true;
  } else if (matches(arg, "--jobs")) {
    std::uint64_t v = 0;
    if (!numeric("--jobs", &v)) return false;
    opt->jobs = static_cast<std::size_t>(v);
    return true;
  } else if (matches(arg, "--shards")) {
    std::uint64_t v = 0;
    if (!numeric("--shards", &v)) return false;
    opt->shards = static_cast<std::size_t>(v);
    return true;
  } else if (matches(arg, "--json")) {
    const char* v = value_of("--json");
    if (v == nullptr) return false;
    opt->json_path = v;
    return true;
  } else if (matches(arg, "--trace")) {
    const char* v = value_of("--trace");
    if (v == nullptr) return false;
    opt->trace_path = v;
    return true;
  }
  return false;
}

int usage_error(const char* prog, const std::string& why) {
  std::fprintf(stderr, "%s: error: %s\n", prog, why.c_str());
  std::fprintf(stderr, kUsage, prog);
  return 2;
}

// "report.json" + "fig05" -> "report.fig05.json"; keeps each scenario's
// harness dump separate when several scenarios run in one invocation.
std::string per_scenario_path(const std::string& path, const char* name) {
  const std::size_t slash = path.find_last_of('/');
  const std::size_t dot = path.find_last_of('.');
  if (dot == std::string::npos || (slash != std::string::npos && dot < slash)) {
    return path + "." + name;
  }
  return path.substr(0, dot) + "." + name + path.substr(dot);
}

int run_selected(const std::vector<const Scenario*>& selected,
                 const Options& opt) {
  if (!opt.trace_path.empty()) arm_process_trace(opt.trace_path);
  // One process-wide thread budget, seeded from --jobs: sweeps and engine
  // shard pools lease from it instead of each sizing against the hardware.
  sim::ConcurrencyBudget::instance().set_total(
      static_cast<unsigned>(opt.jobs));
  int rc = 0;
  for (std::size_t i = 0; i < selected.size(); ++i) {
    const Scenario* s = selected[i];
    std::fprintf(stderr, "[ragnar] (%zu/%zu) %s\n", i + 1, selected.size(),
                 s->name);
    Options per = opt;
    if (!per.json_path.empty() && selected.size() > 1) {
      per.json_path = per_scenario_path(per.json_path, s->name);
    }
    ScenarioContext ctx(per);
    const int one = s->run(ctx);
    if (one != 0) {
      std::fprintf(stderr, "[ragnar] scenario %s returned %d\n", s->name, one);
      if (one > rc) rc = one;
    }
  }
  return rc;
}

int cmd_list(const char* prog, int argc, char** argv) {
  bool long_form = false;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--long") == 0) {
      long_form = true;
    } else {
      return usage_error(prog, std::string("unknown list argument '") +
                                   argv[i] + "'");
    }
  }
  const auto all = Registry::instance().all();
  std::printf("%-28s %-10s %s\n", "NAME", "TAG", "DESCRIPTION");
  for (const Scenario* s : all) {
    std::printf("%-28s %-10s %s\n", s->name, s->tag, s->description);
    if (long_form) {
      std::printf("%-28s %-10s   quick: %s\n", "", "", s->quick_params);
      std::printf("%-28s %-10s   full:  %s\n", "", "", s->full_params);
    }
  }
  std::printf("(%zu scenarios)\n", all.size());
  return 0;
}

}  // namespace

int run_cli(int argc, char** argv) {
  const char* prog = argc > 0 ? argv[0] : "ragnar";
  if (argc < 2) return usage_error(prog, "missing command");
  const char* cmd = argv[1];

  if (std::strcmp(cmd, "--help") == 0 || std::strcmp(cmd, "-h") == 0 ||
      std::strcmp(cmd, "help") == 0) {
    std::printf(kUsage, prog);
    return 0;
  }
  if (std::strcmp(cmd, "list") == 0) return cmd_list(prog, argc, argv);

  const bool run_all = std::strcmp(cmd, "run-all") == 0;
  if (!run_all && std::strcmp(cmd, "run") != 0) {
    return usage_error(prog, std::string("unknown command '") + cmd + "'");
  }

  Options opt;
  std::vector<std::string> names;
  for (int i = 2; i < argc; ++i) {
    std::string err;
    if (std::strcmp(argv[i], "--help") == 0) {
      std::printf(kUsage, prog);
      return 0;
    }
    if (parse_common_flag(argc, argv, &i, &opt, &err)) continue;
    if (!err.empty()) return usage_error(prog, err);
    if (argv[i][0] == '-') {
      return usage_error(prog,
                         std::string("unknown argument '") + argv[i] + "'");
    }
    if (run_all) {
      return usage_error(prog, std::string("run-all takes no scenario names "
                                           "(got '") +
                                   argv[i] + "')");
    }
    names.push_back(argv[i]);
  }

  std::vector<const Scenario*> selected;
  if (run_all) {
    for (const Scenario* s : Registry::instance().all()) {
      selected.push_back(s);
    }
  } else {
    if (names.empty()) {
      return usage_error(prog, "run requires at least one scenario name");
    }
    for (const std::string& name : names) {
      const Scenario* s = Registry::instance().find(name);
      if (s == nullptr) {
        std::fprintf(stderr, "%s: error: unknown scenario '%s'\n", prog,
                     name.c_str());
        print_available(stderr);
        return 2;
      }
      selected.push_back(s);
    }
  }
  return run_selected(selected, opt);
}

}  // namespace ragnar::scenario
