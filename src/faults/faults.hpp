#pragma once

#include <cstdint>
#include <vector>

#include "rnic/op.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"

// Deterministic fault injection for the simulated fabric.
//
// The seed fabric is ideal: every InFlightMsg is delivered exactly once and
// in order.  Real RoCE fabrics are not — the paper's channels run on
// hardware whose 4-8% raw error rates (Table V) come from retransmission,
// RNR backoff, and ambient bursts.  A FaultPlan describes a *seeded,
// reproducible* noise process the fabric::Topology consults on every link
// traversal (requests and replies alike):
//
//   * independent per-message drop / corrupt / reorder probabilities,
//     optionally overridden per link (LinkId-keyed);
//   * a Gilbert-Elliott two-state burst-loss chain per directed link
//     (bursty loss is what desynchronizes covert framing — see
//     covert/framing.hpp);
//   * deterministic link-flap windows (all messages on the wire inside
//     [start, end) are lost) — scheduled maintenance, LAG rebalance,
//     cable-level events;
//   * per-tenant scoping, so a fault campaign can target one requester's
//     traffic while bystanders ride an ideal fabric.
//
// "Corrupt" models an ICRC failure: the receiving NIC detects the bad
// checksum and discards the packet, so the visible effect is loss — it is
// counted separately because monitors see corrupt-discard counters.
//
// Determinism contract: every directed link draws from its own
// xoshiro256++ stream, seeded from FaultPlan::seed and the link's chain
// key, and keeps its own Gilbert-Elliott chain and counters.  A verdict is
// therefore a function of (seed, link, that link's own message order)
// alone, whatever the wall clock, thread placement or shard layout.  With
// no plan armed the topology never consults (or even constructs) an
// injector, so fault-off runs are byte-identical to the pre-fault
// simulator.
namespace ragnar::faults {

// All messages on the scoped links are lost while on the wire in
// [start, end).
struct LinkFlap {
  sim::SimTime start = 0;
  sim::SimTime end = 0;
};

// Stable identifier of one fabric link, assigned by fabric::Topology in
// creation order.  Fault targeting keys on links, so a campaign can hit a
// single uplink of a multi-hop path without touching the host access links.
using LinkId = std::uint32_t;
inline constexpr LinkId kNoLink = 0xffffffffu;

// One directed traversal of a fabric link, as the topology describes it to
// the injector.  `link`/`reverse` are the canonical key: they name one
// physical hop of the path, so a campaign can hit a single uplink of a
// multi-hop route without touching the host access links.
struct LinkHop {
  LinkId link = kNoLink;
  bool reverse = false;  // travelling b->a on the link
};

// Per-link probability override, keyed on the topology's LinkId (both
// directions of the link).  Overrides replace the plan-level defaults for
// matching hops.
struct LinkFaultOverride {
  LinkId link = 0;
  double drop_p = 0;
  double corrupt_p = 0;
  double reorder_p = 0;
};

struct FaultPlan {
  // Master switch.  Disabled plans are never consulted; every existing
  // figure/table output stays byte-identical.
  bool enabled = false;
  std::uint64_t seed = 1;

  // Independent per-message probabilities (defaults for every link).
  double drop_p = 0;
  double corrupt_p = 0;   // ICRC-failure discard, counted separately
  double reorder_p = 0;
  sim::SimDur reorder_delay_max = sim::us(5);
  std::vector<LinkFaultOverride> link_fault_overrides;

  // Gilbert-Elliott burst loss, per directed link.  The chain advances once
  // per `ge_step` of *simulated time* (transition probabilities are
  // per-step), not per message: a tenant whose traffic collapses during an
  // outage must not be able to stretch the outage by starving the chain —
  // bursts are bounded in time, the way cable-level events are.  Messages
  // sent while the chain is bad are lost with ge_loss_bad.
  bool gilbert = false;
  sim::SimDur ge_step = sim::us(1);
  double ge_p_good_to_bad = 0;
  double ge_p_bad_to_good = 0.2;
  double ge_loss_good = 0;
  double ge_loss_bad = 1.0;

  // Deterministic outage windows (apply to every scoped link).
  std::vector<LinkFlap> flaps;

  // Empty = fault every tenant; otherwise faults apply only to messages
  // whose *requester* node is listed (replies to that requester included).
  std::vector<rnic::NodeId> scoped_tenants;

  // Unused: every plan draws from per-directed-link streams.
  bool per_link_rng = false;

  // Convenience factories for the common campaigns.  `mean_burst` is the
  // average bad-state duration; the good->bad rate is solved so the
  // long-run loss fraction equals `target_loss`.
  static FaultPlan uniform_loss(double p, std::uint64_t seed);
  static FaultPlan bursty_loss(double target_loss, sim::SimDur mean_burst,
                               std::uint64_t seed);
};

// Aggregate accounting, queryable from the topology for harness CSV/JSON
// per-trial columns.
struct FaultStats {
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;       // random + Gilbert-Elliott losses
  std::uint64_t corrupted = 0;     // ICRC discards
  std::uint64_t flap_dropped = 0;  // losses inside a flap window
  std::uint64_t reordered = 0;     // deliveries given extra wire delay
  // Gilbert-Elliott dwell accounting, summed over every link chain the
  // injector advanced: per-message loss on a closed-loop workload
  // understates the configured outage (a stalled pipeline sends little
  // during bursts), so the time fraction is reported separately.
  std::uint64_t ge_steps = 0;      // chain steps advanced (all links)
  std::uint64_t ge_bad_steps = 0;  // of those, steps spent in the bad state

  FaultStats& operator+=(const FaultStats& o) {
    delivered += o.delivered;
    dropped += o.dropped;
    corrupted += o.corrupted;
    flap_dropped += o.flap_dropped;
    reordered += o.reordered;
    ge_steps += o.ge_steps;
    ge_bad_steps += o.ge_bad_steps;
    return *this;
  }

  std::uint64_t total_lost() const { return dropped + corrupted + flap_dropped; }
  std::uint64_t total_seen() const { return delivered + total_lost(); }
  double loss_rate() const {
    const std::uint64_t n = total_seen();
    return n == 0 ? 0.0 : static_cast<double>(total_lost()) /
                              static_cast<double>(n);
  }
  // Fraction of simulated link-time the Gilbert-Elliott chains spent in the
  // bad state — the time-domain counterpart of the configured target loss.
  double outage_fraction() const {
    return ge_steps == 0 ? 0.0 : static_cast<double>(ge_bad_steps) /
                                     static_cast<double>(ge_steps);
  }
};

enum class Verdict : std::uint8_t {
  kDeliver,
  kDrop,         // lost without trace
  kCorrupt,      // ICRC discard at the receiver (visible effect: loss)
  kFlapDrop,     // lost inside a link-flap window
};

struct Decision {
  Verdict verdict = Verdict::kDeliver;
  sim::SimDur extra_delay = 0;  // reorder: deliver late by this much
};

class FaultInjector {
 public:
  // One stream per directed link of a topology with links [0, n_links);
  // decide() must name one of them.  Every slot is created here, so
  // decide() never allocates and shards consulting different links in
  // parallel share no state.
  FaultInjector(FaultPlan plan, std::size_t n_links);

  // One verdict per link traversal.  `hop` names the directed link the
  // message is about to cross; `requester` is the node that issued the
  // original request (scoping key); `on_wire` is the time the message
  // starts its wire traversal (flap windows test against it).  On a
  // multi-hop path the topology consults the injector once per hop, so a
  // campaign scoped to one uplink leaves the other hops ideal.
  Decision decide(const LinkHop& hop, rnic::NodeId requester,
                  sim::SimTime on_wire);

  // Summed over every directed link.
  FaultStats stats() const;

 private:
  // One directed link's private stream: its own RNG, Gilbert-Elliott chain
  // and stats counters.  `ge_last` is the chain's position on the
  // simulated clock, quantized to ge_step.
  struct LinkSlot {
    explicit LinkSlot(std::uint64_t seed) : rng(seed) {}
    sim::Xoshiro256 rng;
    bool ge_bad = false;
    sim::SimTime ge_last = 0;
    FaultStats stats;
  };

  bool in_scope(rnic::NodeId requester) const;
  bool in_flap(sim::SimTime on_wire) const;
  void ge_advance(LinkSlot& s, sim::SimTime now);

  FaultPlan plan_;
  // Indexed by chain key (link << 1) | reverse.
  std::vector<LinkSlot> slots_;
};

}  // namespace ragnar::faults
