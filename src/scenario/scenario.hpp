#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness/harness.hpp"
#include "rnic/device_profile.hpp"

// The experiment subsystem: every reproduced figure/table/claim/ablation is
// a *registered scenario* instead of a separate binary.  A scenario is the
// experiment-specific logic only; the shared skeleton the 24 historical
// bench mains duplicated (flag parsing, the reproduction header, sweep
// dispatch, CSV/JSON dumps, Chrome-trace folding) lives here and in the
// `ragnar` CLI (cli.hpp), so adding the next workload is a ~50-line
// RAGNAR_SCENARIO registration.
//
//   ragnar list                 # what is reproducible
//   ragnar run fig06_offset_abs_64 --seed 7 --csv-dir out/
//   ragnar run-all --full --jobs 8 --trace all.trace.json
//
// Scenarios self-register at static-initialization time: defining one in a
// translation unit linked into the `ragnar` binary is all it takes.
namespace ragnar::scenario {

// Strict unsigned-decimal parse for flag values.  Rejects empty strings,
// signs, non-digit characters, and overflow — "--jobs=-2" or "--seed=abc"
// must fail loudly, not silently become 0 or huge.
bool parse_u64_strict(const char* text, std::uint64_t* out);

// The uniform option set, parsed once by the CLI and handed to every
// selected scenario:
//   --seed N      experiment seed (default 2024)
//   --full        paper-scale parameters (default: reduced, shape-complete)
//   --csv-dir D   also dump raw series as CSV files into D
//   --jobs N      worker threads for sweep execution (default: hardware
//                 concurrency; results are bit-identical for any N)
//   --json F      dump harness trial reports as JSON to file F
//   --trace F     arm the observability subsystem and write a merged Chrome
//                 trace_event JSON (chrome://tracing / ui.perfetto.dev) to F.
//                 Without it no obs::Hub exists anywhere, so stdout/CSV
//                 output is byte-identical to a build without obs.
//   --shards N    engine shards for scenarios that build on sim::Engine
//                 (0 = the scenario's default; windowed output is identical
//                 for any N >= 1 per the determinism contract)
struct Options {
  std::uint64_t seed = 2024;
  bool full = false;
  std::string csv_dir;
  std::size_t jobs = 0;  // 0 = hardware concurrency
  std::string json_path;
  std::string trace_path;  // non-empty = observability armed
  std::size_t shards = 0;  // 0 = scenario default
};

// Handed to Scenario::run: the options plus the shared output glue.  The
// fields mirror Options so scenario bodies read `ctx.seed`, `ctx.full`.
class ScenarioContext {
 public:
  explicit ScenarioContext(const Options& opt)
      : seed(opt.seed),
        full(opt.full),
        csv_dir(opt.csv_dir),
        jobs(opt.jobs),
        json_path(opt.json_path),
        trace_path(opt.trace_path),
        shards(opt.shards) {}

  std::uint64_t seed;
  bool full;
  std::string csv_dir;
  std::size_t jobs;
  std::string json_path;
  std::string trace_path;
  std::size_t shards;

  // The standard reproduction header every scenario prints first.
  void header(const char* experiment, const char* paper_ref) const;

  harness::SweepRunner::Options sweep_options() const;

  // Run a populated sweep with the uniform --jobs/--seed, emit the standard
  // timing footer (to stderr, so summary output stays byte-comparable
  // across --jobs values) plus the optional --csv-dir/--json dumps, fold
  // per-trial trace events into the process trace, and hand back the
  // in-order results.
  harness::SweepReport run_sweep(harness::SweepRunner& sweep,
                                 const char* name) const;
  // As above with explicit runner options, for scenarios that need more
  // than the uniform flags (e.g. defense_online arming the streaming obs
  // sink on every trial regardless of --trace).  Callers normally start
  // from sweep_options() and override.
  harness::SweepReport run_sweep(harness::SweepRunner& sweep, const char* name,
                                 const harness::SweepRunner::Options& o) const;
};

// One registered experiment.  `name` is the registry key (and the name of
// the pre-registry bench binary it replaced, where one existed).
struct Scenario {
  const char* name;
  const char* tag;          // figure/claim anchor: "Fig 4", "Table V", ...
  const char* description;  // one line for `ragnar list`
  const char* quick_params; // what the default (reduced) mode sweeps
  const char* full_params;  // what --full scales it to
  int (*run)(ScenarioContext& ctx);
};

class Registry {
 public:
  static Registry& instance();

  // Called by Registrar at static-init time; aborts on duplicate names.
  void add(const Scenario& s);

  const Scenario* find(const std::string& name) const;
  // All scenarios, sorted by name (registration order across translation
  // units is unspecified).
  std::vector<const Scenario*> all() const;
  std::size_t size() const { return scenarios_.size(); }

 private:
  std::vector<Scenario> scenarios_;
};

struct Registrar {
  explicit Registrar(const Scenario& s) { Registry::instance().add(s); }
};

// Defines and registers a scenario in one breath:
//
//   RAGNAR_SCENARIO(fig99_example, "Fig 99", "one-line description",
//                   "quick params", "--full params") {
//     ctx.header("example experiment (Fig 99)", "paper reference");
//     ...
//     return 0;
//   }
#define RAGNAR_SCENARIO(ident, tag, desc, quick, full)                       \
  static int ragnar_scenario_run_##ident(::ragnar::scenario::ScenarioContext&); \
  static const ::ragnar::scenario::Registrar ragnar_scenario_reg_##ident{    \
      ::ragnar::scenario::Scenario{#ident, tag, desc, quick, full,           \
                                   &ragnar_scenario_run_##ident}};           \
  static int ragnar_scenario_run_##ident(                                    \
      [[maybe_unused]] ::ragnar::scenario::ScenarioContext& ctx)

// The device sweep most scenarios iterate.
inline constexpr rnic::DeviceModel kAllDevices[] = {rnic::DeviceModel::kCX4,
                                                    rnic::DeviceModel::kCX5,
                                                    rnic::DeviceModel::kCX6};

// --trace plumbing: installs the process-wide obs::Hub (Chrome-trace pid 0)
// and registers the exit-time trace writer.  Idempotent; the CLI calls it
// once when --trace is given.  run_sweep folds each trial's drained events
// in as one trace pid per trial, numbered across successive sweeps and
// scenarios.
void arm_process_trace(const std::string& path);

}  // namespace ragnar::scenario
