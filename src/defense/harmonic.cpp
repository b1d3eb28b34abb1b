#include "defense/harmonic.hpp"

#include <algorithm>

namespace ragnar::defense {

HarmonicMonitor::HarmonicMonitor(sim::Scheduler& sched, rnic::Rnic& dev,
                                 sim::SimDur window, HarmonicPolicy policy)
    : sched_(sched), dev_(dev), window_(window), policy_(policy) {}

void HarmonicMonitor::start() {
  if (running_) return;
  running_ = true;
  (void)dev_.take_src_window_stats();  // reset the window
  sched_.after(window_, [this] { tick(); });
}

void HarmonicMonitor::tick() {
  if (!running_) return;
  ++windows_;
  const sim::SimTime now = sched_.now();
  const double secs = sim::to_sec(window_);
  const auto window_stats = dev_.take_src_window_stats();

  for (auto& [src, s] : window_stats) {
    TenantVerdict v;
    v.src = src;
    v.gbps = static_cast<double>(s.total_bytes()) * 8.0 / 1e9 / secs;
    v.mpps = static_cast<double>(s.total_msgs()) / 1e6 / secs;
    v.distinct_rkeys = s.rkeys_touched.size();
    v.distinct_qps = s.qpns_seen.size();

    // Hottest single (opcode, size-class) stream: approximate the
    // size-class split per opcode with the window's overall split.
    const double total =
        static_cast<double>(std::max<std::uint64_t>(s.total_msgs(), 1));
    const double tiny_frac = static_cast<double>(s.tiny_msgs) / total;
    const double med_frac = static_cast<double>(s.medium_msgs) / total;
    const double large_frac = static_cast<double>(s.large_msgs) / total;
    double peak = 0;
    double atomic_mpps = 0;
    for (std::size_t o = 0; o < rnic::kNumOpcodes; ++o) {
      const double op_mpps = static_cast<double>(s.msgs[o]) / 1e6 / secs;
      const auto opcode = static_cast<rnic::Opcode>(o);
      if (rnic::is_atomic(opcode)) {
        atomic_mpps += op_mpps;
        continue;
      }
      for (double frac : {tiny_frac, med_frac, large_frac}) {
        peak = std::max(peak, op_mpps * frac);
      }
    }
    v.peak_stream_mpps = peak;

    v.grain1 = v.gbps > policy_.grain1_gbps_cap;
    v.grain2 = peak > policy_.grain2_stream_mpps_cap ||
               atomic_mpps > policy_.grain2_atomic_mpps_cap;
    v.grain3 = v.distinct_rkeys > policy_.grain3_rkey_cap ||
               v.distinct_qps > policy_.grain3_qp_cap;
    verdicts_.push_back(v);

    if (enforcer_ != nullptr) enforcer_->observe(v.to_verdict(now));
  }
  // Close the enforcement window at the control tick: newly flagged
  // tenants get the cap, clean (or silent) throttled tenants age toward
  // lift.  All cap mutation rides the device ControlPort(s) the Enforcer
  // holds — the monitor itself no longer touches RuntimeConfig.
  if (enforcer_ != nullptr && drive_windows_) enforcer_->close_window(now);
  sched_.after(window_, [this] { tick(); });
}

bool HarmonicMonitor::ever_flagged(rnic::NodeId src) const {
  return std::any_of(verdicts_.begin(), verdicts_.end(),
                     [src](const TenantVerdict& v) {
                       return v.src == src && v.flagged();
                     });
}

double HarmonicMonitor::flag_rate(rnic::NodeId src) const {
  std::size_t seen = 0, flagged = 0;
  for (const auto& v : verdicts_) {
    if (v.src != src) continue;
    ++seen;
    flagged += v.flagged();
  }
  return seen ? static_cast<double>(flagged) / static_cast<double>(seen) : 0.0;
}

}  // namespace ragnar::defense
