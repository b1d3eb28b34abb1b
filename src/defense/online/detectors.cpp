#include "defense/online/detectors.hpp"

#include <algorithm>
#include <cmath>

namespace ragnar::defense::online {

TenantState::TenantState(const OnlineConfig& cfg)
    : byte_rate_(cfg.bin_width, cfg.bins),
      msg_rate_(cfg.bin_width, cfg.bins),
      size_sketch_(cfg.sketch_eps, cfg.sketch_max_tuples) {}

void TenantState::on_msg(const obs::StreamSample& s, const OnlineConfig& cfg) {
  ++msgs_;
  // Sample key layout (obs/stream.hpp): (src << 8) | (opcode << 4) | class.
  const std::uint32_t stream_key = s.key & 0xffu;
  obs::WindowedRate* rate = streams_.find(stream_key);
  if (rate == nullptr) {
    if (streams_.size() >= cfg.max_streams_per_tenant) {
      ++stream_overflow_;
    } else {
      rate = streams_.try_emplace(stream_key, cfg.bin_width, cfg.bins).first;
    }
  }
  if (rate != nullptr) rate->add(s.t, 1.0);
  byte_rate_.add(s.t, s.value);
  msg_rate_.add(s.t, 1.0);
  size_sketch_.insert(s.value);
}

void TenantState::on_resource(const obs::StreamSample& s,
                              const OnlineConfig& cfg) {
  const sim::SimDur window =
      cfg.bin_width * static_cast<sim::SimDur>(cfg.bins);
  const std::uint64_t epoch = static_cast<std::uint64_t>(s.t) /
                              static_cast<std::uint64_t>(window);
  if (epoch != epoch_) {
    epoch_ = epoch;
    rkeys_.clear();
    qpns_.clear();
  }
  const auto touch = [&](sim::FlatMap<std::uint32_t, char>& set,
                         std::uint32_t id, std::size_t* peak) {
    if (set.find(id) != nullptr) return;
    if (set.size() >= cfg.max_resources_per_tenant) {
      ++resource_overflow_;
      return;
    }
    set.try_emplace(id, 0);
    *peak = std::max(*peak, set.size());
  };
  touch(rkeys_, s.aux, &peak_rkeys_);
  touch(qpns_, static_cast<std::uint32_t>(s.value), &peak_qpns_);
}

double periodicity_score(const std::vector<double>& series) {
  const std::size_t n = series.size();
  if (n < 8) return 0;
  double mean = 0;
  for (double v : series) mean += v;
  mean /= static_cast<double>(n);
  // Centre once: every product below reads the same (v - mean) doubles the
  // per-lag loops used to recompute.
  thread_local std::vector<double> dev;
  dev.resize(n);
  double var = 0;
  for (std::size_t i = 0; i < n; ++i) {
    dev[i] = series[i] - mean;
    var += dev[i] * dev[i];
  }
  if (var <= 0) return 0;
  const double* d = dev.data();
  // Lags start at 2: lag-1 autocorrelation is high for any smooth signal
  // (a steadily draining queue, a ramping incast), which is exactly the
  // benign shape this score must not fire on.
  const std::size_t max_lag = n / 4;
  double best = 0;
  // Four lags per pass over the series.  Each lag's sum still adds its
  // terms in increasing index order, so every score is bit-identical to
  // the one-lag-at-a-time loop.  Each sum is normalized by the full-series
  // variance; truncation biases the score down slightly, which is the
  // conservative direction for an alarm.
  std::size_t lag = 2;
  for (; lag + 3 <= max_lag; lag += 4) {
    double a0 = 0, a1 = 0, a2 = 0, a3 = 0;
    const std::size_t common = n - lag - 3;  // i + lag + 3 < n
    std::size_t i = 0;
    for (; i < common; ++i) {
      a0 += d[i] * d[i + lag];
      a1 += d[i] * d[i + lag + 1];
      a2 += d[i] * d[i + lag + 2];
      a3 += d[i] * d[i + lag + 3];
    }
    for (std::size_t j = i; j + lag + 2 < n; ++j) a2 += d[j] * d[j + lag + 2];
    for (std::size_t j = i; j + lag + 1 < n; ++j) a1 += d[j] * d[j + lag + 1];
    for (std::size_t j = i; j + lag < n; ++j) a0 += d[j] * d[j + lag];
    best = std::max(best, a0 / var);
    best = std::max(best, a1 / var);
    best = std::max(best, a2 / var);
    best = std::max(best, a3 / var);
  }
  for (; lag <= max_lag; ++lag) {
    double acc = 0;
    for (std::size_t i = 0; i + lag < n; ++i) acc += d[i] * d[i + lag];
    best = std::max(best, acc / var);
  }
  return std::clamp(best, 0.0, 1.0);
}

double modulation_score(const std::vector<double>& series, double min_cv) {
  const double p = periodicity_score(series);
  if (p <= 0 || min_cv <= 0) return p;
  double mean = 0;
  for (double v : series) mean += v;
  mean /= static_cast<double>(series.size());
  if (mean <= 0) return 0;
  double var = 0;
  for (double v : series) var += (v - mean) * (v - mean);
  var /= static_cast<double>(series.size());
  const double cv = std::sqrt(var) / mean;
  return p * std::clamp(cv / min_cv, 0.0, 1.0);
}

TenantScore TenantState::score(rnic::NodeId src,
                               const OnlineConfig& cfg) const {
  TenantScore out;
  out.src = src;
  out.msgs = msgs_;
  double peak_mpps = 0;
  bool grain2 = false;
  for (const auto& [key, rate] : streams_) {
    const double mpps = rate.rate_per_sec() / 1e6;
    peak_mpps = std::max(peak_mpps, mpps);
    const auto op = static_cast<rnic::Opcode>((key >> 4) & 0xf);
    const double cap = rnic::is_atomic(op) ? cfg.grain2_atomic_mpps_cap
                                           : cfg.grain2_stream_mpps_cap;
    if (mpps > cap) grain2 = true;
  }
  out.peak_stream_mpps = peak_mpps;
  out.grain2 = grain2;
  out.distinct_rkeys = std::max(peak_rkeys_, rkeys_.size());
  out.distinct_qps = std::max(peak_qpns_, qpns_.size());
  out.grain3 = out.distinct_rkeys > cfg.grain3_rkey_cap ||
               out.distinct_qps > cfg.grain3_qp_cap;
  // One scratch ring copy per thread instead of two fresh vectors per call.
  thread_local std::vector<double> ring;
  byte_rate_.series_into(ring);
  const double byte_score = modulation_score(ring, cfg.grain4_min_cv);
  msg_rate_.series_into(ring);
  out.periodicity =
      std::max(byte_score, modulation_score(ring, cfg.grain4_min_cv));
  out.grain4 = out.periodicity > cfg.grain4_threshold;
  out.p99_msg_bytes = size_sketch_.quantile(0.99);
  return out;
}

std::size_t TenantState::footprint_bytes() const {
  std::size_t s = sizeof(*this);
  for (const auto& [key, rate] : streams_) {
    s += sizeof(key) + rate.footprint_bytes();
  }
  s += rkeys_.size() * sizeof(std::pair<std::uint32_t, char>);
  s += qpns_.size() * sizeof(std::pair<std::uint32_t, char>);
  s += byte_rate_.footprint_bytes();
  s += msg_rate_.footprint_bytes();
  s += size_sketch_.footprint_bytes();
  return s;
}

}  // namespace ragnar::defense::online
