#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "defense/enforcer.hpp"
#include "defense/verdict.hpp"
#include "rnic/rnic.hpp"
#include "sim/flat_map.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"

// HARMONIC-style performance-isolation monitor (Lou et al., NSDI'24 — the
// state-of-the-art defense the paper shows Ragnar bypasses).
//
// The monitor polls the device's per-tenant window counters and applies
// Grain-I/II/III policies:
//   * Grain-I  — aggregate bandwidth above the tenant's fair-share cap;
//   * Grain-II — a single (opcode x size-class) stream above a message-rate
//     cap (the Zhang/Kong/HUSKY availability-attack signature);
//   * Grain-III — resource churn: too many distinct rkeys or QPs per window
//     (Pythia-style eviction sweeps light this up).
//
// What it cannot see is Grain-IV: *which addresses inside one MR* a tenant
// touches.  Ragnar's intra-MR channel changes only that, and its inter-MR
// channel's footprint (two MRs, steady READs) sits below any sane
// Grain-III threshold — section VII's conclusion.
namespace ragnar::defense {

struct TenantVerdict {
  rnic::NodeId src = 0;
  double gbps = 0;
  double mpps = 0;
  double peak_stream_mpps = 0;  // hottest (opcode, size-class) stream
  std::size_t distinct_rkeys = 0;
  std::size_t distinct_qps = 0;
  bool grain1 = false;
  bool grain2 = false;
  bool grain3 = false;
  bool flagged() const { return grain1 || grain2 || grain3; }

  // Reduce this stats row to the unified seam currency (defense/verdict.hpp)
  // the Enforcer consumes.
  Verdict to_verdict(sim::SimTime at) const {
    Verdict v;
    v.src = src;
    v.at = at;
    v.source = VerdictSource::kHarmonic;
    v.grain1 = grain1;
    v.grain2 = grain2;
    v.grain3 = grain3;
    v.score = grain1   ? gbps
              : grain2 ? peak_stream_mpps
                       : static_cast<double>(distinct_rkeys);
    return v;
  }
};

struct HarmonicPolicy {
  double grain1_gbps_cap = 20.0;      // per-tenant bandwidth cap
  double grain2_stream_mpps_cap = 6.0;  // per (opcode,size-class) stream
  double grain2_atomic_mpps_cap = 1.0;  // atomics are priced separately
  std::size_t grain3_rkey_cap = 16;
  std::size_t grain3_qp_cap = 128;
};

class HarmonicMonitor {
 public:
  HarmonicMonitor(sim::Scheduler& sched, rnic::Rnic& dev,
                  sim::SimDur window = sim::ms(1),
                  HarmonicPolicy policy = {});

  void start();
  void stop() { running_ = false; }

  // Enforcement (HARMONIC is an isolation system, not just a detector):
  // the monitor emits unified Verdicts into a defense::Enforcer, which
  // owns the throttle policy and drives the device's rnic::ControlPort.
  // Plug this monitor into such an enforcement loop.  When
  // `drive_windows` is set (the default for a single-monitor loop), each
  // poll tick closes the Enforcer's window after emitting its verdicts;
  // in a multi-detector loop exactly one participant should drive.
  void attach_enforcer(Enforcer* enforcer, bool drive_windows = true) {
    enforcer_ = enforcer;
    drive_windows_ = drive_windows;
  }
  Enforcer* enforcer() { return enforcer_; }

  bool currently_throttled(rnic::NodeId src) const {
    return enforcer_ != nullptr && enforcer_->throttled(src);
  }

  // All verdicts, one row per (window, tenant).
  const std::vector<TenantVerdict>& verdicts() const { return verdicts_; }
  // Was this tenant flagged in any window so far?
  bool ever_flagged(rnic::NodeId src) const;
  // Fraction of windows in which the tenant was flagged.
  double flag_rate(rnic::NodeId src) const;
  std::size_t windows() const { return windows_; }

 private:
  void tick();

  sim::Scheduler& sched_;
  rnic::Rnic& dev_;
  sim::SimDur window_;
  HarmonicPolicy policy_;
  bool running_ = false;
  std::size_t windows_ = 0;
  std::vector<TenantVerdict> verdicts_;
  // The enforcement seam: verdicts flow to an Enforcer, which owns the
  // hysteresis state and the ControlPort(s).  Never owned by the monitor.
  Enforcer* enforcer_ = nullptr;
  bool drive_windows_ = true;
};

}  // namespace ragnar::defense
