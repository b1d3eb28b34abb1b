#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "obs/obs.hpp"
#include "obs/sketch.hpp"
#include "obs/stream.hpp"
#include "sim/engine.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"

// Streaming obs backbone: GK sketch accuracy/boundedness, StreamSink ring
// semantics, and the engine's deterministic per-shard sink merge
// (docs/OBSERVABILITY.md §streaming).

using namespace ragnar;

namespace {

// Rank error of the sketch's answer: a repeated value occupies a whole rank
// interval [lo, hi) in the sorted multiset, and any rank inside that run is
// an exact answer — so measure the distance from the target rank to the
// interval, as a fraction of n (the metric the GK bound speaks about; rank
// error, not value error).
double rank_error(const std::vector<double>& sorted, double v, double q) {
  const auto lo = std::lower_bound(sorted.begin(), sorted.end(), v);
  const auto hi = std::upper_bound(sorted.begin(), sorted.end(), v);
  const double n = static_cast<double>(sorted.size());
  const double lo_r = static_cast<double>(lo - sorted.begin()) / n;
  const double hi_r = static_cast<double>(hi - sorted.begin()) / n;
  return std::max({0.0, lo_r - q, q - hi_r});
}

void expect_quantiles_within(const obs::GkSketch& sk,
                             std::vector<double> values, double tol,
                             const char* what) {
  std::sort(values.begin(), values.end());
  for (double q : {0.01, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    const double got = sk.quantile(q);
    EXPECT_LE(rank_error(values, got, q), tol)
        << what << " q=" << q << " -> " << got;
  }
}

}  // namespace

// Sorted input is GK's adversarial feed (every insert lands at the summary
// tail); the sketch must still answer within its eps rank bound.
TEST(GkSketch, SortedFeedStaysWithinRankError) {
  obs::GkSketch sk(0.02, 4096);
  std::vector<double> vals;
  for (int i = 0; i < 20000; ++i) {
    sk.insert(static_cast<double>(i));
    vals.push_back(static_cast<double>(i));
  }
  EXPECT_EQ(sk.count(), 20000u);
  EXPECT_EQ(sk.forced_collapses(), 0u);  // the GK rule alone suffices here
  expect_quantiles_within(sk, vals, 2 * 0.02, "sorted");
}

// A periodic feed (the shape the Grain-IV detector consumes): many repeats
// of a short value cycle.
TEST(GkSketch, PeriodicFeedStaysWithinRankError) {
  obs::GkSketch sk(0.02, 4096);
  std::vector<double> vals;
  for (int i = 0; i < 50000; ++i) {
    const double v = static_cast<double>(i % 100);
    sk.insert(v);
    vals.push_back(v);
  }
  expect_quantiles_within(sk, vals, 2 * 0.02, "periodic");
}

// Bursty feed: a heavy mass of tiny values with rare large outliers — the
// message-size mix of a duty-cycled covert sender.  The p99 must land in
// the outlier mass.
TEST(GkSketch, BurstyFeedResolvesTheTail) {
  obs::GkSketch sk(0.02, 4096);
  std::vector<double> vals;
  sim::Xoshiro256 rng(42);
  for (int i = 0; i < 50000; ++i) {
    const double v = rng.uniform() < 0.95
                         ? static_cast<double>(64 + (i % 16))
                         : 16384.0;
    sk.insert(v);
    vals.push_back(v);
  }
  expect_quantiles_within(sk, vals, 2 * 0.02, "bursty");
  EXPECT_GT(sk.quantile(0.99), 1000.0);  // tail not smeared into the body
  EXPECT_LT(sk.quantile(0.5), 128.0);
}

// The hard cap: a million-sample sorted feed against a tiny tuple budget.
// Memory must stay flat from the first checkpoint to the last even though
// the GK rule alone would keep growing; the lossy collapses are counted.
TEST(GkSketch, MillionSamplesStayUnderTupleCap) {
  // eps 0.001 wants ~1/(2 eps) = 500 tuples at steady state; the 256 cap
  // sits below that, so the lossy fallback must engage.
  obs::GkSketch sk(0.001, 256);
  std::size_t footprint_at_100k = 0;
  for (std::uint64_t i = 0; i < 1'000'000; ++i) {
    sk.insert(static_cast<double>(i));
    if (i == 100'000) footprint_at_100k = sk.footprint_bytes();
    if ((i & 0xffff) == 0) {
      ASSERT_LE(sk.tuples(), 256u) << "at insert " << i;
    }
  }
  EXPECT_EQ(sk.count(), 1'000'000u);
  EXPECT_LE(sk.tuples(), 256u);
  EXPECT_GT(sk.forced_collapses(), 0u);
  // Flat footprint: the last 900k inserts must not have grown the summary.
  EXPECT_LE(sk.footprint_bytes(), footprint_at_100k);
  // Capped accuracy degrades gracefully rather than collapsing: the median
  // of 0..1e6 must still land in the middle half.
  EXPECT_GT(sk.quantile(0.5), 250'000.0);
  EXPECT_LT(sk.quantile(0.5), 750'000.0);
}

TEST(WindowedRate, FixedFootprintAndWindowedTotal) {
  obs::WindowedRate rate(sim::us(10), 8);
  const std::size_t fp = rate.footprint_bytes();
  for (int i = 0; i < 1000; ++i) {
    rate.add(sim::us(10) * i, 2.0);
  }
  EXPECT_EQ(rate.footprint_bytes(), fp);  // never allocates after ctor
  // Only the last 8 bins survive: 8 adds x 2.0.
  EXPECT_DOUBLE_EQ(rate.window_total(), 16.0);
  EXPECT_EQ(rate.series().size(), 8u);
}

TEST(StreamSink, RingOverwritesOldestAndCountsDrops) {
  obs::StreamSink sink(4);
  for (int i = 0; i < 7; ++i) {
    sink.publish(obs::StreamChannel::kStageDwell, sim::us(i + 1), i, 0, i);
  }
  EXPECT_EQ(sink.published(obs::StreamChannel::kStageDwell), 7u);
  EXPECT_EQ(sink.dropped(obs::StreamChannel::kStageDwell), 3u);
  EXPECT_EQ(sink.size(obs::StreamChannel::kStageDwell), 4u);
  const auto got = sink.drain(obs::StreamChannel::kStageDwell);
  ASSERT_EQ(got.size(), 4u);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].key, 3u + i);  // oldest survivor first
  }
  EXPECT_EQ(sink.size(obs::StreamChannel::kStageDwell), 0u);
  // Counters survive the drain: the harness reads them at trial end.
  EXPECT_EQ(sink.published(obs::StreamChannel::kStageDwell), 7u);
  EXPECT_EQ(sink.dropped(obs::StreamChannel::kStageDwell), 3u);
}

TEST(StreamSink, MergeSortsByTimeAndKeepsShardOrderOnTies) {
  obs::StreamSink a(16), b(16);
  a.publish(obs::StreamChannel::kTenantMsg, sim::us(1), 100, 0, 0);
  a.publish(obs::StreamChannel::kTenantMsg, sim::us(3), 101, 0, 0);
  b.publish(obs::StreamChannel::kTenantMsg, sim::us(2), 200, 0, 0);
  b.publish(obs::StreamChannel::kTenantMsg, sim::us(3), 201, 0, 0);
  a.merge_from(b);
  EXPECT_EQ(b.published_total(), 0u);  // source zeroed: no double counting
  const auto got = a.drain(obs::StreamChannel::kTenantMsg);
  ASSERT_EQ(got.size(), 4u);
  EXPECT_EQ(got[0].key, 100u);
  EXPECT_EQ(got[1].key, 200u);
  EXPECT_EQ(got[2].key, 101u);  // t=3 tie: merge-target (earlier shard) first
  EXPECT_EQ(got[3].key, 201u);
  EXPECT_EQ(a.published(obs::StreamChannel::kTenantMsg), 4u);
}

namespace {

// Publish a deterministic sample pattern from every node of a windowed
// engine (per-shard hubs, possibly parallel worker threads) and return the
// merged sequence the parent hub observes.
std::vector<obs::StreamSample> run_engine_stream(std::uint32_t shards) {
  obs::Hub::Config hcfg;
  hcfg.streaming = true;
  obs::Hub hub(hcfg);
  obs::ScopedHub scoped(&hub);

  sim::Engine eng(sim::Engine::Options{shards, sim::kMillisecond});
  constexpr std::uint32_t kNodes = 8;
  for (std::uint32_t node = 0; node < kNodes; ++node) {
    const sim::ShardId shard =
        static_cast<sim::ShardId>(node % (shards == 0 ? 1 : shards));
    for (std::uint32_t i = 0; i < 50; ++i) {
      // Distinct timestamps everywhere: the merge contract is total order
      // for distinct t, shard order only on ties.
      const sim::SimTime t = sim::us(1 + i * kNodes + node);
      eng.post(shard, t, node, [t, node, i] {
        if (obs::StreamSink* sink = obs::stream()) {
          sink->publish(obs::StreamChannel::kStageDwell, t, node, i,
                        static_cast<double>(node * 1000 + i));
        }
      });
    }
  }
  eng.run_until(sim::ms(2));
  return hub.stream()->drain(obs::StreamChannel::kStageDwell);
}

}  // namespace

namespace {

// The closed-loop audit trail: EnforcementAction samples published from
// per-shard control ports, read back with peek() the way the harness counts
// applies/lifts at trial end (the ring must survive the read).
std::vector<obs::StreamSample> run_enforcement_stream(std::uint32_t shards) {
  obs::Hub::Config hcfg;
  hcfg.streaming = true;
  obs::Hub hub(hcfg);
  obs::ScopedHub scoped(&hub);

  sim::Engine eng(sim::Engine::Options{shards, sim::kMillisecond});
  constexpr std::uint32_t kDevices = 6;
  for (std::uint32_t dev = 0; dev < kDevices; ++dev) {
    const sim::ShardId shard =
        static_cast<sim::ShardId>(dev % (shards == 0 ? 1 : shards));
    for (std::uint32_t w = 0; w < 20; ++w) {
      const sim::SimTime t = sim::us(10 + w * kDevices + dev);
      const auto ev = w % 3 == 0   ? obs::EnforcementEvent::kApply
                      : w % 3 == 1 ? obs::EnforcementEvent::kLift
                                   : obs::EnforcementEvent::kEtsReweight;
      eng.post(shard, t, dev, [t, dev, ev] {
        if (obs::StreamSink* sink = obs::stream()) {
          sink->publish(obs::StreamChannel::kEnforcement, t,
                        (dev << 16) | dev, static_cast<std::uint32_t>(ev),
                        ev == obs::EnforcementEvent::kApply ? 2.0 : 0.0);
        }
      });
    }
  }
  eng.run_until(sim::ms(2));
  return hub.stream()->peek(obs::StreamChannel::kEnforcement);
}

}  // namespace

// kEnforcement merges under the same barrier discipline as every other
// channel: the apply/lift audit the harness reports must not depend on the
// shard count, and peek() must leave the ring intact for the next reader.
TEST(EngineStream, EnforcementAuditIsShardCountInvariant) {
  const std::vector<obs::StreamSample> one = run_enforcement_stream(1);
  ASSERT_EQ(one.size(), 120u);
  for (std::size_t i = 1; i < one.size(); ++i) {
    ASSERT_LT(one[i - 1].t, one[i].t);  // distinct and sorted
  }
  for (std::uint32_t shards : {2u, 3u, 4u}) {
    const std::vector<obs::StreamSample> many = run_enforcement_stream(shards);
    ASSERT_EQ(many.size(), one.size()) << shards << " shards";
    for (std::size_t i = 0; i < one.size(); ++i) {
      EXPECT_EQ(many[i].t, one[i].t) << shards << " shards, sample " << i;
      EXPECT_EQ(many[i].key, one[i].key) << shards << " shards, sample " << i;
      EXPECT_EQ(many[i].aux, one[i].aux) << shards << " shards, sample " << i;
      EXPECT_EQ(many[i].value, one[i].value)
          << shards << " shards, sample " << i;
    }
  }
  // peek() is non-destructive: a second reader (e.g. a scenario printing the
  // audit after the harness counted it) sees the same samples.
  obs::StreamSink sink;
  sink.publish(obs::StreamChannel::kEnforcement, sim::us(1), 7,
               static_cast<std::uint32_t>(obs::EnforcementEvent::kApply), 2.0);
  EXPECT_EQ(sink.peek(obs::StreamChannel::kEnforcement).size(), 1u);
  EXPECT_EQ(sink.peek(obs::StreamChannel::kEnforcement).size(), 1u);
  EXPECT_EQ(sink.drain(obs::StreamChannel::kEnforcement).size(), 1u);
  EXPECT_EQ(sink.peek(obs::StreamChannel::kEnforcement).size(), 0u);
}

// The tsan target: shards=4 runs the publish callbacks on the engine's
// worker pool, each thread writing its own shard sink; the merged sequence
// must be byte-identical to the single-shard run.
TEST(EngineStream, MergedSampleSequenceIsShardCountInvariant) {
  const std::vector<obs::StreamSample> one = run_engine_stream(1);
  ASSERT_EQ(one.size(), 400u);
  for (std::size_t i = 1; i < one.size(); ++i) {
    ASSERT_LT(one[i - 1].t, one[i].t);  // distinct and sorted
  }
  for (std::uint32_t shards : {2u, 4u}) {
    const std::vector<obs::StreamSample> many = run_engine_stream(shards);
    ASSERT_EQ(many.size(), one.size()) << shards << " shards";
    for (std::size_t i = 0; i < one.size(); ++i) {
      EXPECT_EQ(many[i].t, one[i].t) << shards << " shards, sample " << i;
      EXPECT_EQ(many[i].key, one[i].key) << shards << " shards, sample " << i;
      EXPECT_EQ(many[i].aux, one[i].aux) << shards << " shards, sample " << i;
      EXPECT_EQ(many[i].value, one[i].value)
          << shards << " shards, sample " << i;
    }
  }
}
