// ragnar_perf: runs one benchmark workload in this process and prints one
// JSON object with its host-time samples, simulated outputs and checks.
//
//   ragnar_perf <workload> [--seed N] [--reps R] [--seconds S]
//               [--trace FILE] [--smoke]
//
// One untimed warm-up rep, then timed reps until R reps (default 5) are done
// and S host seconds (default 0) have passed.  --trace alternates untraced
// and traced reps, reports per-layer metrics from the traced ones, and
// writes their host-time spans as Chrome-trace JSON to FILE.  --smoke runs
// one rep at a tenth of the simulated length.  Every rep with the same seed
// must produce the same simulated outputs.
//
// Exit status: 0 when every check passes, 1 when one fails, 2 on bad
// arguments.
#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "perf.hpp"
#include "scenario/scenario.hpp"
#include "sim/concurrency.hpp"

namespace ragnar::perf {
namespace {

// Every per-layer metric a traced run reports, zero where a workload does
// not reach the layer.  BENCHMARK.json lists the same names.
constexpr const char* kLayerMetrics[] = {
    // engine
    "sim.events", "sim.events_per_op", "sim.ns_per_event", "sim.run_call_s",
    "sim.workers", "sim.windows", "sim.events_per_window", "sim.mail",
    "sim.mail_per_op",
    // verbs
    "verbs.post_ns", "verbs.poll_ns", "verbs.completions", "verbs.errors",
    "verbs.qp_retransmits", "verbs.qp_timeouts",
    // rnic
    "rnic.xl_accesses", "rnic.mtt_miss_ratio", "rnic.rx_msgs", "rnic.tx_msgs",
    "rnic.stage.msgs", "rnic.admission_deferred",
    // fabric
    "fabric.switch.forwarded", "fabric.switch.drops",
    "fabric.pfc.pause_events", "fabric.pfc.paused_us",
    "fabric.switch.peak_buffer_kb",
    // faults
    "faults.delivered", "faults.dropped", "faults.drop_ratio",
    // obs
    "obs.stream.published", "obs.stream.dropped", "obs.stream.drop_ratio",
    "obs.stream.footprint_bytes",
    // defense
    "defense.consume_s", "defense.consume_ns_per_sample", "defense.emit_s",
    "defense.samples", "defense.verdicts", "defense.actions_applied",
    "defense.actions_lifted", "defense.footprint_bytes",
    // covert
    "covert.channel_s", "covert.stack_s", "covert.frames", "covert.rounds",
    "covert.retransmits", "covert.auth_rejects",
    // set-up and the trace itself
    "setup.topology_s", "setup.verbs_s", "trace.overhead_ratio",
};

// Set-up takes 40 us to 2 ms, so after the timed reps a run adds set-up-only
// reps until it has this many set-up samples and has spent this much host
// time in them (a bounded number for the tiny ones).
constexpr std::size_t kSetupSamples = 11;
constexpr double kSetupSeconds = 0.2;
constexpr std::size_t kMaxSetupSamples = 5000;
// No timed rep starts after this much host time, so a slow host still
// finishes well inside the harness's per-run limit.
constexpr double kMaxTimedSeconds = 100.0;

struct Options {
  std::string workload;
  std::uint64_t seed = 2024;
  std::uint64_t reps = 5;
  std::uint64_t seconds = 0;
  std::string trace_path;
  bool smoke = false;
};

void usage() {
  std::fprintf(stderr,
               "usage: ragnar_perf <workload> [--seed N] [--reps R] "
               "[--seconds S] [--trace FILE] [--smoke]\nworkloads:");
  for (const Workload& w : workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
}

bool parse(int argc, char** argv, Options* opt) {
  if (argc < 2 || find_workload(argv[1]) == nullptr) {
    if (argc >= 2) std::fprintf(stderr, "unknown workload '%s'\n", argv[1]);
    return false;
  }
  opt->workload = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      opt->smoke = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "%s expects a value\n", flag.c_str());
      return false;
    }
    const char* value = argv[++i];
    std::uint64_t* number = flag == "--seed"      ? &opt->seed
                            : flag == "--reps"    ? &opt->reps
                            : flag == "--seconds" ? &opt->seconds
                                                  : nullptr;
    if (number != nullptr) {
      if (!scenario::parse_u64_strict(value, number)) {
        std::fprintf(stderr, "%s expects a non-negative integer, got '%s'\n",
                     flag.c_str(), value);
        return false;
      }
    } else if (flag == "--trace") {
      opt->trace_path = value;
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", flag.c_str());
      return false;
    }
  }
  if (opt->reps == 0) {
    std::fprintf(stderr, "--reps must be at least 1\n");
    return false;
  }
  return true;
}

unsigned host_nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
}

// VmHWM, not getrusage: ru_maxrss survives exec, so under a launcher it
// reports the launcher's peak whenever that is the larger.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib / 1024.0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Per-layer values of one traced rep: the probe's own, the ratios derived
// from them, and zero for every layer the workload does not reach.
std::map<std::string, double> layer_values(Probe& p, const RepResult& r) {
  const double ops = static_cast<double>(r.completed);
  p["sim.events_per_op"] = ratio(p["sim.events"], ops);
  p["sim.ns_per_event"] = ratio(p["sim.run_call_s"] * 1e9, p["sim.events"]);
  p["sim.events_per_window"] = ratio(p["sim.events"], p["sim.windows"]);
  p["sim.mail_per_op"] = ratio(p["sim.mail"], ops);
  p["rnic.mtt_miss_ratio"] =
      ratio(p["rnic.mtt_misses"], p["rnic.xl_accesses"]);
  p["faults.drop_ratio"] =
      ratio(p["faults.dropped"], p["faults.delivered"] + p["faults.dropped"]);
  p["obs.stream.drop_ratio"] =
      ratio(p["obs.stream.dropped"], p["obs.stream.published"]);
  p["defense.consume_ns_per_sample"] =
      ratio(p["defense.consume_s"] * 1e9, p["defense.samples"]);
  for (const char* name : kLayerMetrics) p[name];  // zero-fill
  return p.layers();
}

void json_array(std::FILE* f, const std::vector<double>& v) {
  std::fputc('[', f);
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::fprintf(f, "%s%.17g", i ? ", " : "", v[i]);
  }
  std::fputc(']', f);
}

// Host spans as pid 1 (host steady clock), the model's own spans from the
// last traced rep as pid 2 (simulated clock).  obs::write_chrome_trace
// labels a whole file as simulated time, hence this writer.  Names are
// string literals of this driver or the model's fixed span names, so
// nothing needs escaping.
bool write_trace(const std::string& path, const std::vector<HostSpan>& host,
                 const std::vector<obs::TraceEvent>& model) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f,
               "{\"traceEvents\": [\n"
               "  {\"ph\": \"M\", \"pid\": 1, \"name\": \"process_name\", "
               "\"args\": {\"name\": \"ragnar_perf driver (host clock)\"}},\n"
               "  {\"ph\": \"M\", \"pid\": 2, \"name\": \"process_name\", "
               "\"args\": {\"name\": \"model spans, last traced rep "
               "(simulated clock)\"}}");
  for (const HostSpan& s : host) {
    std::fprintf(f,
                 ",\n  {\"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"cat\": "
                 "\"host\", \"name\": \"%s\", \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"rep\": %" PRIu32 "}}",
                 s.name, static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.dur_ns) / 1e3, s.rep);
  }
  for (const obs::TraceEvent& e : model) {
    if (e.ph != obs::TraceEvent::Phase::kComplete) continue;
    std::fprintf(f,
                 ",\n  {\"ph\": \"X\", \"pid\": 2, \"tid\": %" PRIu32
                 ", \"cat\": \"%s\", \"name\": \"%s\", \"ts\": %.6f, "
                 "\"dur\": %.6f}",
                 e.tid, e.cat.c_str(), e.name.c_str(),
                 static_cast<double>(e.ts) / 1e6,
                 static_cast<double>(e.dur) / 1e6);
  }
  std::fprintf(f, "\n],\n\"displayTimeUnit\": \"ms\"}\n");
  return std::fclose(f) == 0;
}

int run(const Options& opt) {
  const Workload& w = *find_workload(opt.workload);
  const unsigned nproc = host_nproc();
  // Engine worker threads never exceed the CPUs this process may use.
  sim::ConcurrencyBudget::instance().set_total(nproc);
  const bool tracing = !opt.trace_path.empty();
  const HostClock::time_point epoch = HostClock::now();

  Params prm;
  prm.seed = opt.seed;
  prm.scale = opt.smoke ? 0.1 : 1.0;

  std::vector<HostSpan> spans;
  std::vector<obs::TraceEvent> model_spans;
  std::vector<double> wall, ops_per_s, setup, traced_wall;
  std::map<std::string, std::vector<double>> layers;
  std::vector<std::string> violations;
  std::vector<std::pair<std::string, std::uint64_t>> outputs;
  std::uint64_t digest = 0;
  bool have_digest = false;
  bool digest_stable = true;
  std::uint64_t attempted = 0, failed = 0, completed = 0;
  std::uint32_t rep_no = 0;

  // Every full rep of `wl` is checked; the warm-up (timed == false) adds
  // no samples, and a reference workload's rep only returns its result.
  const auto one_rep = [&](const Workload& wl, const Params& p, bool traced,
                           bool timed) {
    Probe probe(traced, epoch, rep_no++, &spans);
    RepResult r = wl.run(p, probe);
    if (p.setup_only) {
      setup.push_back(r.setup_s);
      return r;
    }
    for (const std::string& v : r.violations) {
      if (std::find(violations.begin(), violations.end(), v) ==
          violations.end())
        violations.push_back(v);
    }
    if (&wl != &w) return r;
    const std::uint64_t d = r.outputs.digest();
    if (!have_digest) {
      digest = d;
      have_digest = true;
      outputs.assign(r.outputs.items().begin(), r.outputs.items().end());
    }
    digest_stable = digest_stable && d == digest;
    if (!timed) return r;
    attempted += r.attempted;
    failed += r.failed;
    completed += r.completed;
    if (traced) {
      traced_wall.push_back(r.wall_s);
      for (const auto& [name, v] : layer_values(probe, r)) {
        layers[name].push_back(v);
      }
      model_spans = std::move(probe.model_spans());
    } else {
      wall.push_back(r.wall_s);
      ops_per_s.push_back(ratio(static_cast<double>(r.completed), r.wall_s));
      setup.push_back(r.setup_s);
    }
    return r;
  };

  if (!opt.smoke) one_rep(w, prm, false, false);  // warm-up
  const HostClock::time_point t0 = HostClock::now();
  for (;;) {
    const double elapsed = seconds_since(t0);
    const bool want_more = wall.size() < opt.reps ||
                           (tracing && traced_wall.size() < opt.reps) ||
                           elapsed < static_cast<double>(opt.seconds);
    if (!want_more || (elapsed > kMaxTimedSeconds && !wall.empty() &&
                       (!tracing || !traced_wall.empty())))
      break;
    const bool traced = tracing && traced_wall.size() < wall.size();
    one_rep(w, prm, traced, true);
  }
  if (!opt.smoke) {
    Params setup_only = prm;
    setup_only.setup_only = true;
    const HostClock::time_point s0 = HostClock::now();
    while (setup.size() < kSetupSamples ||
           (seconds_since(s0) < kSetupSeconds &&
            setup.size() < kMaxSetupSamples)) {
      one_rep(w, setup_only, false, false);
    }
  }

  bool shard_invariant = true;
  if (w.reference != nullptr) {
    const RepResult ref =
        one_rep(*find_workload(w.reference), prm, false, false);
    shard_invariant = ref.outputs.digest() == digest;
  }

  if (tracing) {
    const double overhead = ratio(median(traced_wall), median(wall));
    layers["trace.overhead_ratio"].assign(traced_wall.size(), overhead);
    if (!write_trace(opt.trace_path, spans, model_spans)) {
      violations.push_back("cannot write the trace file");
    }
  }

  const double rss_mb = peak_rss_mb();
  if (rss_mb <= 0) violations.push_back("cannot read VmHWM");

  std::FILE* f = stdout;
  std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %" PRIu64
               ", \"nproc\": %u, \"smoke\": %s, \"digest\": \"%016" PRIx64
               "\",\n \"outputs\": {",
               w.name, opt.seed, nproc, opt.smoke ? "true" : "false", digest);
  bool first = true;
  for (const auto& [name, v] : outputs) {
    std::fprintf(f, "%s\"%s\": %" PRIu64, first ? "" : ", ", name.c_str(), v);
    first = false;
  }
  std::fprintf(f, "},\n \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
               ", \"completed\": %" PRIu64 ", \"peak_rss_mb\": %.17g,\n",
               attempted, failed, completed, rss_mb);
  std::fprintf(f, " \"samples\": {\"wall_s\": ");
  json_array(f, wall);
  std::fprintf(f, ", \"ops_per_s\": ");
  json_array(f, ops_per_s);
  std::fprintf(f, ", \"setup_s\": ");
  json_array(f, setup);
  std::fprintf(f, ", \"traced_wall_s\": ");
  json_array(f, traced_wall);
  std::fprintf(f, "},\n \"layers\": {");
  first = true;
  for (const auto& [name, v] : layers) {
    std::fprintf(f, "%s\n  \"%s\": ", first ? "" : ",", name.c_str());
    json_array(f, v);
    first = false;
  }
  const bool in_run = violations.empty();
  std::fprintf(f,
               "},\n \"checks\": {\"digest_stable\": %s, "
               "\"shard_invariant\": %s, \"in_run\": %s},\n \"violations\": [",
               digest_stable ? "true" : "false",
               shard_invariant ? "true" : "false", in_run ? "true" : "false");
  for (std::size_t i = 0; i < violations.size(); ++i) {
    std::fprintf(f, "%s\"%s\"", i ? ", " : "", violations[i].c_str());
  }
  std::fprintf(f, "]}\n");
  return digest_stable && shard_invariant && in_run ? 0 : 1;
}

}  // namespace
}  // namespace ragnar::perf

int main(int argc, char** argv) {
  ragnar::perf::Options opt;
  if (!ragnar::perf::parse(argc, argv, &opt)) {
    ragnar::perf::usage();
    return 2;
  }
  // glibc raises its mmap threshold to the largest block freed so far, so
  // whether an MR buffer was page-faulted in fresh or reused from the heap
  // depended on the seed's allocation history: covert_transfer's set-up
  // took 2 ms on some seeds and 0.2 ms on others.  Fixing the threshold at
  // glibc's initial 128 KiB puts every rep on the same path.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  return ragnar::perf::run(opt);
}
