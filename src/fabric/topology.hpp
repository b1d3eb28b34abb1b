#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "faults/faults.hpp"
#include "rnic/device_profile.hpp"
#include "rnic/rnic.hpp"
#include "sim/engine.hpp"
#include "sim/random.hpp"
#include "sim/resource.hpp"
#include "sim/scheduler.hpp"
#include "sim/sharded.hpp"

// The simulated network as an explicit multi-hop topology.
//
// Hosts (each one Rnic) attach via Links to Switch nodes (the ToR model) or
// directly to each other.  A message leaving a host's WireEgress traverses
// the hop sequence host -> [switch]* -> host:
//
//   * host->switch and host->host links add pure propagation latency — the
//     host's own WireEgress is the serializer for its access link;
//   * at each switch, the message is queued on the egress port of its next
//     hop: a per-port serializer at the link's rate, drawing buffer space
//     from the switch's *shared* pool while it waits + serializes;
//   * when several parallel links connect the same pair of nodes (LAG /
//     multiple ToR uplinks), the path is chosen by a deterministic
//     ECMP-style hash of the flow (requester node, responder node, source
//     QPN), so one flow never reorders across uplinks;
//   * when the shared pool crosses the switch's xoff watermark, the switch
//     asserts PFC pause toward everything feeding it: attached hosts get
//     their WireEgress pause horizon extended, upstream switches get the
//     egress port toward this switch paused.  Pause is released when the
//     queued bytes drain below xon.  A pool overflow (PFC disabled, or
//     in-flight arrivals landing during pause) tail-drops the message.
//
// Routing tables are next-hop vectors computed by BFS per destination host
// when Builder::build() finalizes the topology; hosts never forward, and a
// direct host-host link is simply a one-hop route.  All queueing is latency
// arithmetic over FIFO serializers consulted in event-time order, so a
// given (topology, seed) always replays the identical event sequence.
//
// An armed faults::FaultPlan is consulted once per *link traversal* —
// campaigns key on LinkId and can target a single uplink of a multi-hop
// path, and every directed link draws from its own RNG stream (see
// faults.hpp).  With no plan armed no injector exists and no RNG is drawn.
//
// A topology always runs on a sim::Engine (docs/ENGINE.md).  Hosts and
// switches are pinned to shards at add time, and every cross-node event —
// hop arrivals, deliveries, PFC pause application — flows through
// Engine::post, keyed by the generating node so same-time deliveries order
// identically for any shard layout.  Link propagation latencies bound the
// engine's lookahead; windowed mode therefore rejects zero-latency links.
// A legacy-mode engine posts straight into its single queue, so runs stay
// byte-identical to the pre-engine fabric.  revng::Testbed's paper fabric
// is a full mesh of direct host-host links built the same way.
namespace ragnar::fabric {

using LinkId = faults::LinkId;
using SwitchId = std::uint32_t;
inline constexpr LinkId kNoLink = faults::kNoLink;

// An endpoint of a link: a host (device NodeId) or a switch.
struct NodeRef {
  enum class Kind : std::uint8_t { kHost, kSwitch };
  Kind kind = Kind::kHost;
  std::uint32_t id = 0;

  static constexpr NodeRef host(rnic::NodeId n) {
    return NodeRef{Kind::kHost, n};
  }
  static constexpr NodeRef sw(SwitchId s) { return NodeRef{Kind::kSwitch, s}; }
  bool is_host() const { return kind == Kind::kHost; }
  friend bool operator==(const NodeRef&, const NodeRef&) = default;
};

// One link between two nodes.  Propagation is given per direction, so a
// link may be asymmetric.
struct LinkSpec {
  sim::SimDur lat_ab = 0;  // propagation a -> b
  sim::SimDur lat_ba = 0;  // propagation b -> a
  double gbps = 100.0;     // switch-egress serialization rate onto the link

  static LinkSpec symmetric(sim::SimDur lat, double gbps = 100.0) {
    return LinkSpec{lat, lat, gbps};
  }
};

struct SwitchSpec {
  std::string name = "tor";
  sim::SimDur forward_lat = sim::ns(300);  // fixed pipeline latency per hop
  std::uint64_t buffer_bytes = 1u << 20;   // shared egress buffer pool
  // PFC watermarks on the shared pool.  xoff == 0 disables pause (the
  // switch becomes tail-drop only).
  std::uint64_t pfc_xoff_bytes = 768u << 10;
  std::uint64_t pfc_xon_bytes = 384u << 10;
};

// Per-switch accounting, queryable without observability armed (scenario
// stdout must stay deterministic; see docs/SCENARIOS.md).
struct SwitchStats {
  std::uint64_t forwarded = 0;        // messages enqueued on an egress port
  std::uint64_t fwd_bytes = 0;
  std::uint64_t drops = 0;            // shared-pool overflow tail drops
  std::uint64_t pause_events = 0;     // xoff assertions
  sim::SimDur paused_total = 0;       // cumulative asserted-pause time
  std::uint64_t peak_buffer_bytes = 0;
};

class Topology : public rnic::FabricPort {
 public:
  class Builder;

  Topology(const Topology&) = delete;
  Topology& operator=(const Topology&) = delete;

  // rnic::FabricPort: a device puts a message on the wire at `depart`.
  void transmit(const rnic::InFlightMsg& msg, sim::SimTime depart) override;

  rnic::Rnic* host(rnic::NodeId id) { return hosts_.at(id).get(); }
  std::size_t host_count() const { return hosts_.size(); }
  std::size_t switch_count() const { return switches_.size(); }
  std::size_t link_count() const { return links_.size(); }

  // First link connecting a and b (either orientation); kNoLink if none.
  LinkId link_between(NodeRef a, NodeRef b) const;
  // All links connecting a and b, in LinkId order (the ECMP candidates).
  std::vector<LinkId> links_between(NodeRef a, NodeRef b) const;
  // Bytes ever enqueued for egress serialization on this link (both
  // directions) — how tests observe ECMP spreading flows across uplinks.
  std::uint64_t link_bytes(LinkId id) const;

  // --- faults -------------------------------------------------------------
  // Arm (or, with a disabled plan, disarm) fault injection.  Messages
  // already scheduled for delivery are not recalled.
  void set_fault_plan(const faults::FaultPlan& plan);
  bool faults_active() const { return injector_ != nullptr; }
  // Zero stats when no plan is armed.
  faults::FaultStats fault_stats() const {
    return injector_ ? injector_->stats() : faults::FaultStats{};
  }

  // --- switch introspection ----------------------------------------------
  // Both refresh lazily-drained buffer state to the current simulated time.
  std::uint64_t buffer_occupancy(SwitchId s);
  bool pause_asserted(SwitchId s);
  const SwitchStats& switch_stats(SwitchId s);

 private:
  // --- construction (Builder calls these) ----------------------------------
  // Nodes schedule on their shard's queue, and in windowed mode cross-node
  // events route through the engine's mailboxes.
  explicit Topology(sim::Engine& engine) : engine_(engine) {
    link_bytes_.reset(engine.shard_count(), 0);
  }
  // Create an RNIC attached to this topology, pinned to `shard`.  The
  // topology owns the device; the returned id indexes host().
  rnic::NodeId add_host(rnic::DeviceProfile profile, sim::Xoshiro256 rng,
                        sim::ShardId shard);
  SwitchId add_switch(const SwitchSpec& spec, sim::ShardId shard);
  // Connect two nodes.  Host endpoints may be linked to at most one switch
  // each (plus any number of direct host-host links); switch pairs may be
  // linked in parallel for ECMP.  In windowed mode both propagation
  // latencies must be nonzero (they bound the engine's lookahead).
  LinkId link(NodeRef a, NodeRef b, const LinkSpec& spec);
  // Fill routes_ once the graph is complete (Builder::build()).
  void compute_routes();

  struct Link {
    NodeRef a;
    NodeRef b;
    LinkSpec spec;
    // Egress serializers for switch-side transmit ([0] = a->b, [1] = b->a;
    // host-side transmit is serialized by the host's own WireEgress).
    sim::BandwidthServer ser[2];
    // PFC pause horizon imposed by the downstream switch, per direction.
    sim::SimTime pause_until[2] = {0, 0};
  };

  struct Switch {
    SwitchSpec spec;
    sim::ShardId shard = 0;
    SwitchStats stats;
    std::uint64_t occupancy = 0;  // shared pool, after drain(now)
    bool paused = false;
    sim::SimTime pause_started = 0;
    sim::SimTime pause_horizon = 0;
    // Scheduled egress completions still holding pool space, sorted by
    // time; drained lazily against the simulated clock.
    std::vector<std::pair<sim::SimTime, std::uint64_t>> pending;
    std::vector<LinkId> ports;
  };

  // One hop of a route: fault verdict, egress queueing when `at` is a
  // switch, then the next arrival event.
  void hop(const rnic::InFlightMsg& msg, NodeRef at, sim::SimTime t);
  // Returns the serialization-complete time, or kDropped on pool overflow.
  static constexpr sim::SimTime kDropped = ~sim::SimTime{0};
  sim::SimTime switch_egress(SwitchId sw, LinkId lk, int dir, sim::SimTime t,
                             std::uint64_t bytes);
  // Release drained pool space and close an elapsed pause episode.
  void drain(Switch& s, sim::SimTime now);
  // Earliest time, given currently queued departures, at which the pool
  // drops below xon.
  sim::SimTime pause_release_time(const Switch& s) const;
  void assert_or_extend_pause(SwitchId sw_id, sim::SimTime now);
  void propagate_pause(SwitchId sw_id, sim::SimTime now, sim::SimTime horizon);
  void deliver(const rnic::InFlightMsg& msg, NodeRef from, rnic::NodeId dst,
               bool is_req, sim::SimTime depart, sim::SimTime arrive);

  std::uint32_t node_index(NodeRef n) const {
    return n.is_host() ? n.id
                       : static_cast<std::uint32_t>(hosts_.size()) + n.id;
  }
  NodeRef other_end(const Link& l, NodeRef from) const {
    return l.a == from ? l.b : l.a;
  }

  // --- engine plumbing ----------------------------------------------------
  // True when cross-node events must flow through Engine::post.
  bool windowed() const { return engine_.windowed(); }
  sim::ShardId shard_of(NodeRef n) const {
    return n.is_host() ? host_shard_[n.id] : switches_[n.id].shard;
  }
  // Schedule `cb` at `t` on `to`'s shard.  `from` is the generating node:
  // its topology index keys same-time mailbox ordering, which must not
  // depend on the shard layout.
  void schedule(NodeRef from, NodeRef to, sim::SimTime t, sim::Callback&& cb);
  // The clock a node's lazily-drained state should be refreshed against.
  sim::SimTime node_now(NodeRef n) const {
    return engine_.shard(shard_of(n)).now();
  }
  // The per-shard accounting row for the currently executing shard.
  std::uint32_t stats_shard() const {
    if (!windowed()) return 0;
    const sim::ShardId s = engine_.current_shard();
    return s == sim::kNoShard ? 0 : s;
  }

  sim::Engine& engine_;
  std::vector<std::unique_ptr<rnic::Rnic>> hosts_;
  std::vector<sim::ShardId> host_shard_;
  std::vector<Switch> switches_;
  std::vector<Link> links_;
  // Per link, both directions.  Shard-private rows (a link's two endpoints
  // may execute on different shards); fold with link_bytes().
  sim::PerShardSlots<std::uint64_t> link_bytes_;
  // routes_[node_index][dst_host] = equal-cost next-hop links, LinkId order.
  std::vector<std::vector<std::vector<LinkId>>> routes_;
  std::unique_ptr<faults::FaultInjector> injector_;
};

// Fluent construction: name the hosts and switches, wire them, build.
//
//   Topology::Builder b(engine);
//   auto h0 = b.add_host(profile, rng.fork());
//   auto h1 = b.add_host(profile, rng.fork());
//   auto tor = b.add_switch({.name = "tor0"});
//   b.link(NodeRef::host(h0), NodeRef::sw(tor), LinkSpec::symmetric(lat))
//    .link(NodeRef::host(h1), NodeRef::sw(tor), LinkSpec::symmetric(lat));
//   std::unique_ptr<Topology> topo = b.build();
//
// build() precomputes the routing tables and verifies every host can reach
// every other host (aborts on a partitioned graph — a misbuilt experiment
// should fail loudly, not silently blackhole).
class Topology::Builder {
 public:
  explicit Builder(sim::Engine& engine) : topo_(new Topology(engine)) {}

  rnic::NodeId add_host(rnic::DeviceProfile profile, sim::Xoshiro256 rng,
                        sim::ShardId shard = 0) {
    return topo_->add_host(std::move(profile), rng, shard);
  }
  rnic::NodeId add_host(rnic::DeviceModel model, sim::Xoshiro256 rng,
                        sim::ShardId shard = 0) {
    return topo_->add_host(rnic::make_profile(model), rng, shard);
  }
  SwitchId add_switch(const SwitchSpec& spec = {}, sim::ShardId shard = 0) {
    return topo_->add_switch(spec, shard);
  }
  Builder& link(NodeRef a, NodeRef b, const LinkSpec& spec) {
    topo_->link(a, b, spec);
    return *this;
  }

  std::unique_ptr<Topology> build();

 private:
  std::unique_ptr<Topology> topo_;
};

}  // namespace ragnar::fabric
