#include "obs/sketch.hpp"

#include <algorithm>
#include <cmath>

namespace ragnar::obs {

GkSketch::GkSketch(double eps, std::size_t max_tuples)
    : eps_(eps <= 0 ? 0.01 : eps),
      max_tuples_(std::max<std::size_t>(max_tuples, 8)) {
  compress_every_ = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(1.0 / (2.0 * eps_)));
}

std::uint64_t GkSketch::threshold() const {
  return std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(2.0 * eps_ * static_cast<double>(n_)));
}

void GkSketch::insert(double v) {
  auto it = std::lower_bound(
      tuples_.begin(), tuples_.end(), v,
      [](const Tuple& t, double x) { return t.v < x; });
  Tuple t;
  t.v = v;
  t.g = 1;
  // Min/max insertions carry delta 0 (their rank is exact); interior
  // insertions inherit the local uncertainty.
  t.delta = (it == tuples_.begin() || it == tuples_.end())
                ? 0
                : std::max<std::uint64_t>(threshold(), 1) - 1;
  tuples_.insert(it, t);
  ++n_;
  if (++since_compress_ >= compress_every_) {
    since_compress_ = 0;
    compress();
  }
  enforce_cap();
}

void GkSketch::compress() {
  if (tuples_.size() < 3) return;
  const std::uint64_t thr = threshold();
  // Sweep from the tail, folding tuple i into its successor whenever the
  // merged band g_i + g_{i+1} + delta_{i+1} stays within the 2*eps*n
  // threshold.  First and last tuples are never removed (they pin min/max).
  std::size_t w = tuples_.size();
  std::size_t succ = tuples_.size() - 1;  // live successor of tuples_[i]
  for (std::size_t i = tuples_.size() - 1; i-- > 1;) {
    Tuple& cur = tuples_[i];
    Tuple& next = tuples_[succ];
    if (cur.g + next.g + next.delta <= thr) {
      next.g += cur.g;
      cur.g = 0;  // mark dead; succ keeps absorbing the run
      --w;
    } else {
      succ = i;
    }
  }
  if (w != tuples_.size()) {
    tuples_.erase(std::remove_if(tuples_.begin(), tuples_.end(),
                                 [](const Tuple& t) { return t.g == 0; }),
                  tuples_.end());
  }
}

void GkSketch::enforce_cap() {
  while (tuples_.size() > max_tuples_) {
    // Lossy fallback for adversarial feeds: merge the cheapest adjacent
    // pair (smallest combined band) regardless of the GK threshold.  Rank
    // error grows past eps but stays balanced — no tuple can exceed the
    // cheapest-pair cost, so mass never concentrates in one summary entry
    // the way a wholesale pairwise halving would (repeatedly re-collapsing
    // the same old tuples doubles them without bound).  Memory stays at
    // the cap; each lossy merge is counted.
    ++forced_collapses_;
    std::size_t best = 1;
    std::uint64_t best_cost = ~std::uint64_t{0};
    for (std::size_t i = 1; i + 1 < tuples_.size(); ++i) {
      const std::uint64_t cost =
          tuples_[i].g + tuples_[i + 1].g + tuples_[i + 1].delta;
      if (cost < best_cost) {
        best_cost = cost;
        best = i;
      }
    }
    tuples_[best + 1].g += tuples_[best].g;
    tuples_.erase(tuples_.begin() + static_cast<std::ptrdiff_t>(best));
  }
}

double GkSketch::quantile(double q) const {
  if (tuples_.empty()) return 0;
  q = std::clamp(q, 0.0, 1.0);
  const double target_rank = q * static_cast<double>(n_);
  // Midpoint-rank rule: each tuple's value has true rank somewhere in
  // [rmin, rmin + delta]; return the first tuple whose band midpoint
  // reaches the target.  With the g + delta <= 2*eps*n invariant intact the
  // rank error is bounded by g_i + delta_i <= 2*eps*n; unlike the classic
  // lookahead query it also degrades gracefully after a forced collapse has
  // widened a band past the invariant (it still walks out to the target
  // mass instead of bailing at the first oversized successor).
  std::uint64_t rmin = 0;
  for (const Tuple& t : tuples_) {
    rmin += t.g;
    const double mid =
        static_cast<double>(rmin) + static_cast<double>(t.delta) / 2.0;
    if (mid >= target_rank) return t.v;
  }
  return tuples_.back().v;
}

std::size_t GkSketch::footprint_bytes() const {
  return sizeof(*this) + tuples_.capacity() * sizeof(Tuple);
}

void GkSketch::merge_from(const GkSketch& other) {
  if (other.tuples_.empty()) return;
  std::vector<Tuple> merged;
  merged.reserve(tuples_.size() + other.tuples_.size());
  const std::uint64_t widen_a = other.threshold();
  const std::uint64_t widen_b = threshold();
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < tuples_.size() || j < other.tuples_.size()) {
    const bool take_mine =
        j >= other.tuples_.size() ||
        (i < tuples_.size() && tuples_[i].v <= other.tuples_[j].v);
    Tuple t = take_mine ? tuples_[i++] : other.tuples_[j++];
    // Interleaving with the other summary adds its rank uncertainty.
    t.delta += take_mine ? widen_a : widen_b;
    merged.push_back(t);
  }
  tuples_ = std::move(merged);
  n_ += other.n_;
  compress();
  enforce_cap();
}

void GkSketch::clear() {
  tuples_.clear();
  n_ = 0;
  since_compress_ = 0;
  forced_collapses_ = 0;
}

// ------------------------------------------------------------ WindowedRate

WindowedRate::WindowedRate(sim::SimDur bin_width, std::size_t bins)
    : bin_width_(std::max<sim::SimDur>(bin_width, 1)),
      bins_(std::max<std::size_t>(bins, 2), 0.0) {}

void WindowedRate::advance_to(std::int64_t bin_index) {
  if (head_bin_ < 0) {
    head_bin_ = bin_index;
    head_slot_ = 0;
    std::fill(bins_.begin(), bins_.end(), 0.0);
    return;
  }
  while (head_bin_ < bin_index) {
    ++head_bin_;
    head_slot_ = (head_slot_ + 1) % bins_.size();
    bins_[head_slot_] = 0.0;
  }
}

void WindowedRate::add(sim::SimTime t, double amount) {
  const auto bin = static_cast<std::int64_t>(t / bin_width_);
  if (bin > head_bin_ || head_bin_ < 0) advance_to(bin);
  const std::int64_t back = head_bin_ - bin;
  if (back >= static_cast<std::int64_t>(bins_.size())) {
    // Older than the whole window: credit the oldest surviving bin so the
    // total stays right even if ordering jitters past the window.
    const std::size_t oldest = (head_slot_ + 1) % bins_.size();
    bins_[oldest] += amount;
    return;
  }
  const std::size_t slot =
      (head_slot_ + bins_.size() - static_cast<std::size_t>(std::max<std::int64_t>(back, 0))) %
      bins_.size();
  bins_[slot] += amount;
}

double WindowedRate::window_total() const {
  double s = 0;
  for (double b : bins_) s += b;
  return s;
}

double WindowedRate::rate_per_sec() const {
  const double span_ps =
      static_cast<double>(bin_width_) * static_cast<double>(bins_.size());
  if (span_ps <= 0) return 0;
  return window_total() * 1e12 / span_ps;
}

std::vector<double> WindowedRate::series() const {
  std::vector<double> out;
  series_into(out);
  return out;
}

void WindowedRate::series_into(std::vector<double>& out) const {
  out.resize(bins_.size());
  for (std::size_t i = 0; i < bins_.size(); ++i) {
    // oldest first: slot head_slot_+1 is the oldest bin in the ring.
    out[i] = bins_[(head_slot_ + 1 + i) % bins_.size()];
  }
}

std::size_t WindowedRate::footprint_bytes() const {
  return sizeof(*this) + bins_.capacity() * sizeof(double);
}

}  // namespace ragnar::obs
