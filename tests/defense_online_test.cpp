#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "defense/online/detectors.hpp"
#include "defense/online/pipeline.hpp"
#include "obs/stream.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"

// Online defense pipeline unit tests (docs/DEFENSE.md): the Grain-IV
// modulation-depth gate, the Grain-II/III counter detectors, and the hard
// memory caps that let the pipeline survive million-message runs.

using namespace ragnar;
using defense::online::OnlineConfig;
using defense::online::OnlinePipeline;
using defense::online::modulation_score;
using defense::online::periodicity_score;

namespace {

// kTenantMsg key layout: (src << 8) | (opcode << 4) | size class.
std::uint32_t msg_key(rnic::NodeId src, unsigned opcode, unsigned size_class) {
  return (static_cast<std::uint32_t>(src) << 8) | (opcode << 4) | size_class;
}

}  // namespace

// A duty-cycled covert sender swings the full amplitude: 4 bins on, 4 bins
// off.  Both periodic and deeply modulated -> high Grain-IV score.
TEST(ModulationScore, DutyCycledBurstsScoreHigh) {
  std::vector<double> series;
  for (int i = 0; i < 64; ++i) {
    series.push_back((i / 4) % 2 == 0 ? 100.0 : 0.0);
  }
  EXPECT_GT(periodicity_score(series), 0.8);
  EXPECT_GT(modulation_score(series, 0.5), 0.8);
}

// Steady closed-loop traffic aliased against the bin grid: a 3-4-3-4 ripple
// is highly autocorrelated but shallow.  The depth gate must keep its
// Grain-IV score low — this is exactly the benign false-alarm shape the
// defense_online scenario sweeps against.
TEST(ModulationScore, AliasedSteadyTrafficScoresLow) {
  std::vector<double> series;
  for (int i = 0; i < 64; ++i) {
    series.push_back(i % 2 == 0 ? 3.0 : 4.0);
  }
  // The raw autocorrelation *is* high — that is the trap.
  EXPECT_GT(periodicity_score(series), 0.8);
  // cv = 0.5/3.5 ~= 0.14, well under the 0.5 gate.
  EXPECT_LT(modulation_score(series, 0.5), 0.3);
}

TEST(ModulationScore, FlatAndEmptySeriesScoreZero) {
  EXPECT_DOUBLE_EQ(modulation_score({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(modulation_score(std::vector<double>(32, 7.0), 0.5), 0.0);
  EXPECT_DOUBLE_EQ(modulation_score(std::vector<double>(32, 0.0), 0.5), 0.0);
}

namespace {

// The one-lag-at-a-time autocorrelation periodicity_score replaced.  The
// blocked version must give the same double, bit for bit.
double reference_periodicity(const std::vector<double>& series) {
  const std::size_t n = series.size();
  if (n < 8) return 0;
  double mean = 0;
  for (double v : series) mean += v;
  mean /= static_cast<double>(n);
  double var = 0;
  for (double v : series) var += (v - mean) * (v - mean);
  if (var <= 0) return 0;
  const std::size_t max_lag = n / 4;
  double best = 0;
  for (std::size_t lag = 2; lag <= max_lag; ++lag) {
    double acc = 0;
    for (std::size_t i = 0; i + lag < n; ++i) {
      acc += (series[i] - mean) * (series[i + lag] - mean);
    }
    best = std::max(best, acc / var);
  }
  return std::clamp(best, 0.0, 1.0);
}

}  // namespace

TEST(PeriodicityScore, BitIdenticalToOneLagAtATime) {
  sim::Xoshiro256 rng(2024);
  for (std::size_t n = 8; n <= 256; ++n) {
    std::vector<double> random(n), periodic(n), flat(n, 3.0), ramp(n);
    const std::size_t period = 2 + n % 7;
    for (std::size_t i = 0; i < n; ++i) {
      random[i] = rng.uniform() * 1000.0;
      periodic[i] = (i / period) % 2 == 0 ? 100.0 + rng.uniform() : 0.0;
      ramp[i] = static_cast<double>(i) * 0.1 + rng.uniform();
    }
    for (const auto* s : {&random, &periodic, &flat, &ramp}) {
      EXPECT_EQ(periodicity_score(*s), reference_periodicity(*s)) << "n=" << n;
    }
  }
}

// Amplitude modulation (random bit sizes) hides the period in the byte
// series, but the burst *cadence* stays in the count series — the reason
// TenantState scores both.
TEST(OnlinePipeline, CadencePeriodicitySurvivesAmplitudeRandomization) {
  OnlineConfig cfg;
  cfg.bin_width = sim::us(10);
  cfg.bins = 64;
  OnlinePipeline pipe(cfg);
  obs::StreamSink sink(1 << 12);
  // 8 messages per 80us window, posted in the window's first 40us; sizes
  // alternate pseudo-randomly (the covert bits).
  std::uint64_t mix = 0x243f6a8885a308d3ull;
  for (int w = 0; w < 8; ++w) {
    const sim::SimTime base = sim::us(80) * w;
    for (int i = 0; i < 8; ++i) {
      mix = mix * 6364136223846793005ull + 1442695040888963407ull;
      const double bytes = (mix >> 62) != 0 ? 4096.0 : 256.0;
      sink.publish(obs::StreamChannel::kTenantMsg, base + sim::us(5) * i,
                   msg_key(3, 1, 0), 0, bytes);
    }
  }
  pipe.consume(sink);
  const auto score = pipe.score(3);
  EXPECT_GT(score.periodicity, 0.5) << "cadence lost";
}

TEST(OnlinePipeline, Grain2FlagsAHotStream) {
  OnlineConfig cfg;
  cfg.bin_width = sim::us(10);
  cfg.bins = 16;  // 160us window
  OnlinePipeline pipe(cfg);
  obs::StreamSink sink(1 << 12);
  // One (opcode, size-class) stream at 10 Mpps: a message every 100ns.
  for (int i = 0; i < 2000; ++i) {
    sink.publish(obs::StreamChannel::kTenantMsg, sim::ns(100) * i,
                 msg_key(5, 2, 1), 0, 64.0);
  }
  pipe.consume(sink);
  const auto hot = pipe.score(5);
  EXPECT_TRUE(hot.grain2);
  EXPECT_GT(hot.peak_stream_mpps, 6.0);
  // A slow tenant on the same config stays clean.
  obs::StreamSink slow_sink(1 << 12);
  for (int i = 0; i < 16; ++i) {
    slow_sink.publish(obs::StreamChannel::kTenantMsg, sim::us(10) * i,
                      msg_key(6, 2, 1), 0, 64.0);
  }
  pipe.consume(slow_sink);
  EXPECT_FALSE(pipe.score(6).grain2);
}

TEST(OnlinePipeline, Grain3FlagsRkeyChurn) {
  OnlineConfig cfg;
  cfg.grain3_rkey_cap = 16;
  OnlinePipeline pipe(cfg);
  obs::StreamSink sink(1 << 12);
  // kTenantResource: key = src, aux = rkey, value = qpn.
  for (std::uint32_t r = 0; r < 40; ++r) {
    sink.publish(obs::StreamChannel::kTenantResource, sim::us(1) * r, 7,
                 1000 + r, 3.0);
  }
  pipe.consume(sink);
  const auto churny = pipe.score(7);
  EXPECT_TRUE(churny.grain3);
  EXPECT_EQ(churny.distinct_rkeys, 40u);
}

// Flood the pipeline far past every cap: tenants, streams, resources and
// sketch tuples must all saturate into overflow counters while the heap
// footprint stays under the configuration-derived bound.
TEST(OnlinePipeline, FootprintStaysUnderCapUnderFlood) {
  OnlineConfig cfg;
  cfg.bins = 32;
  cfg.max_tenants = 4;
  cfg.max_streams_per_tenant = 2;
  cfg.max_resources_per_tenant = 8;
  cfg.sketch_max_tuples = 64;
  OnlinePipeline pipe(cfg);
  obs::StreamSink sink(1 << 12);
  const std::size_t cap = pipe.max_footprint_bytes();

  std::uint64_t published = 0;
  for (int chunk = 0; chunk < 64; ++chunk) {
    for (int i = 0; i < 2000; ++i) {
      // src and opcode must be decorrelated, or each tenant only ever sees
      // one (opcode, class) stream and the stream cap never engages.
      const auto src = static_cast<rnic::NodeId>(i % 16);        // 16 > 4 tenants
      const unsigned opcode = static_cast<unsigned>((i / 16) % 8);  // 8 > 2
      const sim::SimTime t = sim::us(1) * (chunk * 2000 + i);
      sink.publish(obs::StreamChannel::kTenantMsg, t,
                   msg_key(src, opcode, 0), 0,
                   static_cast<double>(64 + i % 4096));
      sink.publish(obs::StreamChannel::kTenantResource, t, src,
                   static_cast<std::uint32_t>(i), static_cast<double>(i));
      published += 2;
    }
    pipe.consume(sink);
    ASSERT_LE(pipe.footprint_bytes(), cap) << "after chunk " << chunk;
  }

  EXPECT_EQ(pipe.samples_consumed(), published);  // ring sized for the chunk
  EXPECT_EQ(pipe.scores().size(), 4u);            // max_tenants enforced
  EXPECT_GT(pipe.tenants_dropped(), 0u);
  EXPECT_GT(pipe.stream_overflow(), 0u);
  EXPECT_GT(pipe.resource_overflow(), 0u);
}

// The bound itself must not depend on how much traffic went through.
TEST(OnlinePipeline, MaxFootprintIsTrafficIndependent) {
  OnlineConfig cfg;
  OnlinePipeline empty(cfg);
  OnlinePipeline fed(cfg);
  obs::StreamSink sink(1 << 10);
  for (int i = 0; i < 5000; ++i) {
    sink.publish(obs::StreamChannel::kTenantMsg, sim::us(1) * i,
                 msg_key(static_cast<rnic::NodeId>(i % 3), 1, 0), 0, 512.0);
    if (i % 512 == 0) fed.consume(sink);
  }
  fed.consume(sink);
  EXPECT_EQ(empty.max_footprint_bytes(), fed.max_footprint_bytes());
  EXPECT_LE(fed.footprint_bytes(), fed.max_footprint_bytes());
}
