#include "faults/faults.hpp"

#include <algorithm>
#include <cmath>

namespace ragnar::faults {

FaultPlan FaultPlan::uniform_loss(double p, std::uint64_t seed) {
  FaultPlan plan;
  plan.enabled = true;
  plan.seed = seed;
  plan.drop_p = p;
  return plan;
}

FaultPlan FaultPlan::bursty_loss(double target_loss, sim::SimDur mean_burst,
                                 std::uint64_t seed) {
  FaultPlan plan;
  plan.enabled = true;
  plan.seed = seed;
  plan.gilbert = true;
  plan.ge_loss_bad = 1.0;
  plan.ge_loss_good = 0.0;
  // Stationary bad-state probability pi_b = p_gb / (p_gb + p_bg); with
  // loss_bad = 1 the long-run loss fraction equals pi_b, so solve for p_gb.
  const double burst_steps =
      std::max(1.0, static_cast<double>(mean_burst) /
                        static_cast<double>(plan.ge_step));
  plan.ge_p_bad_to_good = 1.0 / burst_steps;
  const double x = std::clamp(target_loss, 0.0, 0.99);
  plan.ge_p_good_to_bad = plan.ge_p_bad_to_good * x / (1.0 - x);
  return plan;
}

namespace {

// SplitMix64 finalizer — full-avalanche mix of (plan seed, chain key) into
// a per-link stream seed, so adjacent link ids get uncorrelated streams.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t chain_key) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (chain_key + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

FaultInjector::FaultInjector(FaultPlan plan, std::size_t n_links)
    : plan_(std::move(plan)) {
  slots_.reserve(2 * n_links);
  for (std::uint64_t key = 0; key < 2 * n_links; ++key) {
    slots_.emplace_back(mix_seed(plan_.seed, key));
  }
}

FaultStats FaultInjector::stats() const {
  FaultStats out;
  for (const LinkSlot& slot : slots_) out += slot.stats;
  return out;
}

bool FaultInjector::in_scope(rnic::NodeId requester) const {
  if (plan_.scoped_tenants.empty()) return true;
  return std::find(plan_.scoped_tenants.begin(), plan_.scoped_tenants.end(),
                   requester) != plan_.scoped_tenants.end();
}

void FaultInjector::ge_advance(LinkSlot& s, sim::SimTime now) {
  // Same-step or out-of-order wire times reuse the current state (route()
  // computes departure times per message; they are not globally sorted).
  if (now <= s.ge_last) return;
  std::uint64_t steps =
      static_cast<std::uint64_t>((now - s.ge_last) / plan_.ge_step);
  s.ge_last += static_cast<sim::SimDur>(steps) * plan_.ge_step;
  const auto spend = [&](std::uint64_t n) {
    s.stats.ge_steps += n;
    if (s.ge_bad) s.stats.ge_bad_steps += n;
  };
  while (steps > 0) {
    const double p_leave =
        s.ge_bad ? plan_.ge_p_bad_to_good : plan_.ge_p_good_to_bad;
    if (p_leave <= 0.0) {  // absorbing state
      spend(steps);
      return;
    }
    if (p_leave >= 1.0) {
      spend(1);
      s.ge_bad = !s.ge_bad;
      --steps;
      continue;
    }
    // Sample the geometric sojourn (steps spent in the current state before
    // the next transition) directly — O(transitions), not O(steps).
    const double u = s.rng.uniform();
    const double raw = std::log1p(-u) / std::log1p(-p_leave);
    const std::uint64_t sojourn =
        1 + static_cast<std::uint64_t>(std::min(raw, 1e18));
    // Memoryless: if the sojourn outlasts the elapsed steps the chain is
    // still in this state at `now`, and re-sampling next time is exact.
    if (sojourn > steps) {
      spend(steps);
      return;
    }
    spend(sojourn);
    steps -= sojourn;
    s.ge_bad = !s.ge_bad;
  }
}

bool FaultInjector::in_flap(sim::SimTime on_wire) const {
  for (const LinkFlap& f : plan_.flaps) {
    if (on_wire >= f.start && on_wire < f.end) return true;
  }
  return false;
}

Decision FaultInjector::decide(const LinkHop& hop, rnic::NodeId requester,
                               sim::SimTime on_wire) {
  // Every draw and every counter stays in this directed link's slot.
  const std::size_t key =
      (static_cast<std::size_t>(hop.link) << 1) | (hop.reverse ? 1u : 0u);
  LinkSlot& s = slots_[key];
  Decision d;
  if (!plan_.enabled || !in_scope(requester)) {
    ++s.stats.delivered;
    return d;
  }

  // Flap windows are deterministic (no RNG draw): a dead link drops
  // everything on the wire inside the window.
  if (in_flap(on_wire)) {
    ++s.stats.flap_dropped;
    d.verdict = Verdict::kFlapDrop;
    return d;
  }

  // Gilbert-Elliott chain: advance this link's chain to the message's wire
  // time, then apply the current state's loss probability.
  if (plan_.gilbert && plan_.ge_step > 0) {
    ge_advance(s, on_wire);
    if (s.rng.bernoulli(s.ge_bad ? plan_.ge_loss_bad : plan_.ge_loss_good)) {
      ++s.stats.dropped;
      d.verdict = Verdict::kDrop;
      return d;
    }
  }

  double drop_p = plan_.drop_p;
  double corrupt_p = plan_.corrupt_p;
  double reorder_p = plan_.reorder_p;
  for (const LinkFaultOverride& o : plan_.link_fault_overrides) {
    if (o.link == hop.link) {
      drop_p = o.drop_p;
      corrupt_p = o.corrupt_p;
      reorder_p = o.reorder_p;
      break;
    }
  }

  if (drop_p > 0 && s.rng.bernoulli(drop_p)) {
    ++s.stats.dropped;
    d.verdict = Verdict::kDrop;
    return d;
  }
  if (corrupt_p > 0 && s.rng.bernoulli(corrupt_p)) {
    // ICRC failure: the receiving NIC discards the packet.
    ++s.stats.corrupted;
    d.verdict = Verdict::kCorrupt;
    return d;
  }
  if (reorder_p > 0 && s.rng.bernoulli(reorder_p)) {
    ++s.stats.reordered;
    d.extra_delay = static_cast<sim::SimDur>(
        s.rng.uniform() * static_cast<double>(plan_.reorder_delay_max));
  }
  ++s.stats.delivered;
  return d;
}

}  // namespace ragnar::faults
