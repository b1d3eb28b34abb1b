#pragma once

// Shared types of the ragnar_perf driver: the host-time probe, one rep's
// simulated outputs and work accounting, and the workload table.
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.hpp"

namespace ragnar::perf {

using HostClock = std::chrono::steady_clock;

inline double seconds_since(HostClock::time_point t0) {
  return std::chrono::duration<double>(HostClock::now() - t0).count();
}

// One closed interval of host time, kept for the Chrome trace.
struct HostSpan {
  const char* name;
  std::int64_t start_ns;  // since the run's epoch
  std::int64_t dur_ns;
  std::uint32_t rep;
};

// Host-time accounting for one rep.  Scopes always time (a scope wraps a
// whole engine run call or set-up phase, so two clock reads are noise) and
// add their seconds to a per-layer metric; only a traced rep records them
// as spans and times the per-call verbs hot path.
class Probe {
 public:
  Probe(bool tracing, HostClock::time_point epoch, std::uint32_t rep,
        std::vector<HostSpan>* spans)
      : tracing_(tracing), epoch_(epoch), rep_(rep), spans_(spans) {}

  bool tracing() const { return tracing_; }
  double& operator[](const std::string& metric) { return layers_[metric]; }
  const std::map<std::string, double>& layers() const { return layers_; }

  // The model's own spans on the simulated clock, from the traced rep's hub.
  void set_model_spans(std::vector<obs::TraceEvent> ev) {
    model_spans_ = std::move(ev);
  }
  std::vector<obs::TraceEvent>& model_spans() { return model_spans_; }

  class Scope {
   public:
    Scope(Probe& p, const char* metric)
        : p_(p), metric_(metric), t0_(HostClock::now()) {}
    ~Scope() { p_.close(metric_, t0_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Probe& p_;
    const char* metric_;
    HostClock::time_point t0_;
  };

  // Adds the scope's host seconds to `metric` (a `*_s` layer metric).
  [[nodiscard]] Scope scope(const char* metric) { return Scope(*this, metric); }

  // Runs `f`; when tracing, adds its host nanoseconds to `ns_total`.  The
  // accumulator belongs to the caller so actors on different engine shards
  // never share one.
  template <class F>
  decltype(auto) timed(double& ns_total, F&& f) {
    if (!tracing_) return f();
    const HostClock::time_point t0 = HostClock::now();
    decltype(auto) r = f();
    ns_total += std::chrono::duration<double, std::nano>(HostClock::now() - t0)
                    .count();
    return r;
  }

 private:
  static constexpr std::size_t kMaxSpans = 1u << 18;

  void close(const char* metric, HostClock::time_point t0) {
    const HostClock::time_point t1 = HostClock::now();
    layers_[metric] += std::chrono::duration<double>(t1 - t0).count();
    if (tracing_ && spans_->size() < kMaxSpans) {
      const auto ns = [this](HostClock::time_point t) {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
            .count();
      };
      spans_->push_back({metric, ns(t0), ns(t1) - ns(t0), rep_});
    }
  }

  bool tracing_;
  HostClock::time_point epoch_;
  std::uint32_t rep_;
  std::vector<HostSpan>* spans_;
  std::map<std::string, double> layers_;
  std::vector<obs::TraceEvent> model_spans_;
};

// The simulated outputs of one rep, in a fixed order.  Their digest must
// repeat across reps, across traced and untraced reps, and between the
// sharded and serial cloud runs.  Host-dependent values (events, windows,
// wall time) never go in here.
class Outputs {
 public:
  void add(const char* name, std::uint64_t v) { items_.emplace_back(name, v); }
  const std::vector<std::pair<const char*, std::uint64_t>>& items() const {
    return items_;
  }
  // FNV-1a over every name and value.
  std::uint64_t digest() const;

 private:
  std::vector<std::pair<const char*, std::uint64_t>> items_;
};

struct RepResult {
  Outputs outputs;
  // Operations tried and failed: WRs, or transport segments on the covert
  // transfer.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  // Work units done, what ops_per_s counts: successful WR completions, or
  // authenticated payload bytes on the covert transfer.
  std::uint64_t completed = 0;
  double setup_s = 0;  // topology, contexts, QPs, MRs
  double wall_s = 0;   // the simulated experiment, set-up excluded
  std::vector<std::string> violations;  // in-run correctness failures
};

struct Params {
  std::uint64_t seed = 2024;
  double scale = 1.0;  // share of the simulated length (0.1 in --smoke)
  bool setup_only = false;
};

struct Workload {
  const char* name;
  RepResult (*run)(const Params&, Probe&);
  // Workload whose digest must equal this one's (the shard-invariance
  // contract), run once per process as an untimed reference; or nullptr.
  const char* reference;
};

const std::vector<Workload>& workloads();
const Workload* find_workload(const std::string& name);

}  // namespace ragnar::perf
