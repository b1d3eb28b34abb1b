#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/time.hpp"

// Bounded-memory streaming summaries for the push-based obs backbone
// (docs/OBSERVABILITY.md §streaming).  Both structures are deterministic —
// no randomness, no wall clock — so merged multi-shard streams summarize to
// the same digits on every run.
namespace ragnar::obs {

// Greenwald-Khanna streaming quantile sketch.
//
// Maintains a sorted list of tuples (v, g, delta) where g is the number of
// observations folded into the tuple and delta bounds the rank uncertainty.
// Any quantile query is answered within eps * n rank error; a compress pass
// every 1/(2 eps) inserts keeps the tuple count O((1/eps) * log(eps * n)).
// On top of the GK bound the sketch enforces a hard tuple cap: when an
// adversarial (e.g. sorted) feed pushes the summary past `max_tuples`, it
// force-collapses neighbouring tuples pairwise.  That widens the error
// beyond eps but keeps the footprint provably bounded — the property the
// online defense pipeline needs to survive million-message runs.
class GkSketch {
 public:
  explicit GkSketch(double eps = 0.01, std::size_t max_tuples = 4096);

  void insert(double v);

  // Value whose rank is within eps * count() of q * count().  q in [0, 1];
  // returns 0 for an empty sketch.
  double quantile(double q) const;

  std::uint64_t count() const { return n_; }
  std::size_t tuples() const { return tuples_.size(); }
  std::size_t max_tuples() const { return max_tuples_; }
  double eps() const { return eps_; }
  // Times the hard cap forced a lossy pairwise collapse beyond the GK rule.
  std::uint64_t forced_collapses() const { return forced_collapses_; }

  // Current heap footprint of the summary (capacity, not size: what the
  // process actually holds).
  std::size_t footprint_bytes() const;

  // Fold another sketch into this one.  The classic GK merge: interleave the
  // sorted tuple lists keeping each tuple's g and widening delta by the
  // other summary's uncertainty, then compress.  The merged error is
  // bounded by eps_a + eps_b; with equal eps both sides, 2 * eps.
  void merge_from(const GkSketch& other);

  void clear();

 private:
  struct Tuple {
    double v = 0;
    std::uint64_t g = 0;
    std::uint64_t delta = 0;
  };

  void compress();
  void enforce_cap();
  std::uint64_t threshold() const;  // 2 * eps * n, >= 1

  double eps_;
  std::size_t max_tuples_;
  std::uint64_t n_ = 0;
  std::uint64_t since_compress_ = 0;
  std::uint64_t compress_every_;
  std::uint64_t forced_collapses_ = 0;
  std::vector<Tuple> tuples_;  // sorted by v
};

// Fixed-bin windowed rate estimator over simulated time.
//
// A ring of `bins` accumulators, each `bin_width` of simulated time wide.
// add() credits the bin containing t (advancing the ring and zeroing
// skipped bins); rate() divides the ring total by the covered span.  Memory
// is fixed at construction — samples older than bins * bin_width fall out
// of the window by overwrite, never by allocation.
class WindowedRate {
 public:
  WindowedRate(sim::SimDur bin_width, std::size_t bins);

  // Account `amount` at simulated time t.  Time must not run backwards past
  // a full window (stale adds land in the oldest surviving bin).
  void add(sim::SimTime t, double amount);

  // Sum over the window ending at the most recent bin.
  double window_total() const;
  // window_total() / window duration, in amount per second of simulated
  // time (bin widths are picoseconds).
  double rate_per_sec() const;

  // Copy of the ring, oldest bin first — the periodicity detectors consume
  // this as a fixed-length signal.
  std::vector<double> series() const;
  // The same copy into `out`, reusing its storage.
  void series_into(std::vector<double>& out) const;

  sim::SimDur bin_width() const { return bin_width_; }
  std::size_t bins() const { return bins_.size(); }
  std::size_t footprint_bytes() const;

 private:
  void advance_to(std::int64_t bin_index);

  sim::SimDur bin_width_;
  std::vector<double> bins_;
  std::int64_t head_bin_ = -1;  // absolute index of the newest bin; -1 empty
  std::size_t head_slot_ = 0;   // ring position of head_bin_
};

}  // namespace ragnar::obs
