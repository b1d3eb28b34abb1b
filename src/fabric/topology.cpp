#include "fabric/topology.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <string>

#include "obs/obs.hpp"

namespace ragnar::fabric {

namespace {

const char* verdict_name(faults::Verdict v) {
  switch (v) {
    case faults::Verdict::kDeliver: return "deliver";
    case faults::Verdict::kDrop: return "drop";
    case faults::Verdict::kCorrupt: return "corrupt";
    case faults::Verdict::kFlapDrop: return "flap_drop";
  }
  return "?";
}

// ECMP flow hash: splitmix64 finalizer over the flow triple.  The triple is
// direction-independent (requester node, responder node, requester QPN), so
// a flow's requests and replies ride the same uplink of every parallel
// group and never reorder against each other.
std::uint64_t flow_hash(const rnic::WireOp& op) {
  std::uint64_t x = (static_cast<std::uint64_t>(op.src_node) << 48) ^
                    (static_cast<std::uint64_t>(op.dst_node) << 32) ^
                    static_cast<std::uint64_t>(op.src_qpn);
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

rnic::NodeId Topology::add_host(rnic::DeviceProfile profile,
                                sim::Xoshiro256 rng, sim::ShardId shard) {
  const auto id = static_cast<rnic::NodeId>(hosts_.size());
  hosts_.push_back(std::make_unique<rnic::Rnic>(
      engine_.shard(shard), std::move(profile), id, rng));
  hosts_.back()->attach_fabric(this);
  host_shard_.push_back(shard);
  return id;
}

SwitchId Topology::add_switch(const SwitchSpec& spec, sim::ShardId shard) {
  const auto id = static_cast<SwitchId>(switches_.size());
  switches_.push_back(Switch{});
  switches_.back().spec = spec;
  switches_.back().shard = shard;
  return id;
}

LinkId Topology::link(NodeRef a, NodeRef b, const LinkSpec& spec) {
  if (windowed() && (spec.lat_ab == 0 || spec.lat_ba == 0)) {
    std::fprintf(stderr,
                 "fabric::Topology: zero-latency link on a windowed engine — "
                 "link propagation bounds the lookahead, so every link needs "
                 "lat >= 1 ps\n");
    std::abort();
  }
  engine_.constrain_lookahead(std::min(spec.lat_ab, spec.lat_ba));
  const auto id = static_cast<LinkId>(links_.size());
  links_.push_back(Link{});
  Link& l = links_.back();
  l.a = a;
  l.b = b;
  l.spec = spec;
  l.ser[0].configure(spec.gbps, 0);
  l.ser[1].configure(spec.gbps, 0);
  link_bytes_.resize_slots(links_.size());
  if (!a.is_host()) switches_.at(a.id).ports.push_back(id);
  if (!b.is_host()) switches_.at(b.id).ports.push_back(id);
  return id;
}

LinkId Topology::link_between(NodeRef a, NodeRef b) const {
  for (LinkId i = 0; i < links_.size(); ++i) {
    const Link& l = links_[i];
    if ((l.a == a && l.b == b) || (l.a == b && l.b == a)) return i;
  }
  return kNoLink;
}

std::vector<LinkId> Topology::links_between(NodeRef a, NodeRef b) const {
  std::vector<LinkId> out;
  for (LinkId i = 0; i < links_.size(); ++i) {
    const Link& l = links_[i];
    if ((l.a == a && l.b == b) || (l.a == b && l.b == a)) out.push_back(i);
  }
  return out;
}

std::uint64_t Topology::link_bytes(LinkId id) const {
  return link_bytes_.sum(id);
}

void Topology::set_fault_plan(const faults::FaultPlan& plan) {
  // Every directed link draws from its own stream, and a hop consults the
  // injector only from the shard that owns its transmitting node, so an
  // armed plan keeps parallel windows and is shard-count invariant.
  injector_ = plan.enabled ? std::make_unique<faults::FaultInjector>(
                                 plan, links_.size())
                           : nullptr;
}

void Topology::schedule(NodeRef from, NodeRef to, sim::SimTime t,
                        sim::Callback&& cb) {
  engine_.post(shard_of(to), t, node_index(from), std::move(cb));
}

void Topology::compute_routes() {
  const std::size_t n_nodes = hosts_.size() + switches_.size();
  routes_.assign(n_nodes, {});
  for (auto& per_dst : routes_) per_dst.assign(hosts_.size(), {});

  // BFS from each destination host.  Hosts never forward: expansion
  // continues through switch nodes only (and the destination itself).
  std::vector<std::uint32_t> dist;
  for (rnic::NodeId dst = 0; dst < hosts_.size(); ++dst) {
    dist.assign(n_nodes, ~0u);
    const std::uint32_t dst_idx = node_index(NodeRef::host(dst));
    dist[dst_idx] = 0;
    std::deque<NodeRef> frontier{NodeRef::host(dst)};
    while (!frontier.empty()) {
      const NodeRef u = frontier.front();
      frontier.pop_front();
      const std::uint32_t ui = node_index(u);
      if (u.is_host() && u.id != dst) continue;  // hosts don't transit
      for (LinkId li = 0; li < links_.size(); ++li) {
        const Link& l = links_[li];
        if (l.a != u && l.b != u) continue;
        const NodeRef v = other_end(l, u);
        const std::uint32_t vi = node_index(v);
        if (dist[vi] == ~0u) {
          dist[vi] = dist[ui] + 1;
          frontier.push_back(v);
        }
      }
    }
    // Next-hop candidates: every link toward a neighbour one step closer.
    // LinkId iteration order keeps the candidate list deterministic.
    for (std::uint32_t ni = 0; ni < n_nodes; ++ni) {
      if (ni == dst_idx || dist[ni] == ~0u) continue;
      const NodeRef u = ni < hosts_.size()
                            ? NodeRef::host(static_cast<rnic::NodeId>(ni))
                            : NodeRef::sw(static_cast<SwitchId>(
                                  ni - hosts_.size()));
      for (LinkId li = 0; li < links_.size(); ++li) {
        const Link& l = links_[li];
        if (l.a != u && l.b != u) continue;
        const NodeRef v = other_end(l, u);
        if (dist[node_index(v)] + 1 == dist[ni]) {
          routes_[ni][dst].push_back(li);
        }
      }
    }
  }
}

void Topology::transmit(const rnic::InFlightMsg& msg, sim::SimTime depart) {
  // Requests leave the requester's port and travel to the target node;
  // every reply kind leaves the responder and returns to the requester.
  const bool is_req = msg.kind == rnic::InFlightMsg::Kind::kRequest;
  hop(msg, NodeRef::host(is_req ? msg.op.src_node : msg.op.dst_node), depart);
}

void Topology::deliver(const rnic::InFlightMsg& msg, NodeRef from,
                       rnic::NodeId dst, bool is_req, sim::SimTime depart,
                       sim::SimTime arrive) {
  rnic::Rnic* target = hosts_.at(dst).get();
  if (obs::MetricsRegistry* reg = obs::metrics()) {
    reg->counter("fabric.delivered").add();
    reg->counter("fabric.wire_bytes").add(msg.wire_bytes);
  }
  if (obs::Tracer* tr = obs::tracer()) {
    tr->complete("fabric", is_req ? "wire.req" : "wire.resp", depart, arrive,
                 {{"src", std::to_string(is_req ? msg.op.src_node
                                                : msg.op.dst_node)},
                  {"dst", std::to_string(dst)},
                  {"bytes", std::to_string(msg.wire_bytes)}});
  }
  schedule(from, NodeRef::host(dst), arrive,
           [target, msg] { target->deliver(msg); });
}

void Topology::hop(const rnic::InFlightMsg& msg, NodeRef at, sim::SimTime t) {
  const bool is_req = msg.kind == rnic::InFlightMsg::Kind::kRequest;
  const rnic::NodeId dst = is_req ? msg.op.dst_node : msg.op.src_node;
  const std::vector<LinkId>& candidates = routes_[node_index(at)][dst];
  if (candidates.empty()) {
    std::fprintf(stderr,
                 "fabric::Topology: no route from %s %u to host %u "
                 "(partitioned topology)\n",
                 at.is_host() ? "host" : "switch", at.id, dst);
    std::abort();
  }
  const LinkId link_id =
      candidates.size() == 1
          ? candidates[0]
          : candidates[flow_hash(msg.op) % candidates.size()];
  Link& l = links_[link_id];
  const bool reverse = !(l.a == at);
  const int dir = reverse ? 1 : 0;
  const NodeRef next = other_end(l, at);

  if (injector_ != nullptr) {
    faults::LinkHop fh;
    fh.link = link_id;
    fh.reverse = reverse;
    const faults::Decision d = injector_->decide(fh, msg.op.src_node, t);
    if (obs::MetricsRegistry* reg = obs::metrics()) {
      reg->counter("fabric.verdicts",
                   obs::LabelSet{{"verdict", verdict_name(d.verdict)}})
          .add();
    }
    if (d.verdict != faults::Verdict::kDeliver) {
      if (obs::Tracer* tr = obs::tracer()) {
        tr->instant("faults", verdict_name(d.verdict), t,
                    {{"link", std::to_string(link_id)},
                     {"dst", std::to_string(dst)}});
      }
      return;
    }
    t += d.extra_delay;
  }

  // Hosts are serialized by their own WireEgress; switches queue the
  // message on the egress port, drawing from the shared pool.
  sim::SimTime t_out = t;
  if (!at.is_host()) {
    t_out = switch_egress(at.id, link_id, dir, t, msg.wire_bytes);
    if (t_out == kDropped) return;
  }
  link_bytes_.at(stats_shard(), link_id) += msg.wire_bytes;
  const sim::SimDur prop = reverse ? l.spec.lat_ba : l.spec.lat_ab;
  sim::SimTime arrive = t_out + prop;
  if (!next.is_host()) arrive += switches_[next.id].spec.forward_lat;

  // A direct host-host hop is fully described by deliver()'s wire span.
  obs::Tracer* tr = obs::tracer();
  if (tr != nullptr && !(at.is_host() && next.is_host())) {
    tr->complete("fabric.link", is_req ? "hop.req" : "hop.resp", t_out, arrive,
                 {{"link", std::to_string(link_id)},
                  {"dst", std::to_string(dst)},
                  {"bytes", std::to_string(msg.wire_bytes)}});
  }

  if (next.is_host()) {
    deliver(msg, at, dst, is_req, t_out, arrive);
  } else {
    const SwitchId sw = next.id;
    schedule(at, next, arrive,
             [this, msg, sw, arrive] { hop(msg, NodeRef::sw(sw), arrive); });
  }
}

sim::SimTime Topology::switch_egress(SwitchId sw, LinkId lk, int dir,
                                     sim::SimTime t, std::uint64_t bytes) {
  Switch& s = switches_[sw];
  drain(s, t);
  if (s.occupancy + bytes > s.spec.buffer_bytes) {
    ++s.stats.drops;
    if (obs::MetricsRegistry* reg = obs::metrics()) {
      reg->counter("fabric.switch.drops",
                   obs::LabelSet{{"switch", s.spec.name}})
          .add();
    }
    if (obs::StreamSink* sink = obs::stream()) {
      sink->publish(obs::StreamChannel::kSwitchDrop, t, sw, lk,
                    static_cast<double>(bytes));
    }
    if (obs::Tracer* tr = obs::tracer()) {
      tr->instant("fabric.switch", "buffer_drop", t,
                  {{"switch", s.spec.name}, {"link", std::to_string(lk)}});
    }
    return kDropped;
  }
  s.occupancy += bytes;
  s.stats.peak_buffer_bytes =
      std::max(s.stats.peak_buffer_bytes, s.occupancy);
  ++s.stats.forwarded;
  s.stats.fwd_bytes += bytes;

  Link& l = links_[lk];
  const sim::SimTime start = std::max(t, l.pause_until[dir]);
  const sim::SimTime done = l.ser[dir].reserve(start, bytes);
  s.pending.insert(
      std::upper_bound(s.pending.begin(), s.pending.end(),
                       std::make_pair(done, bytes)),
      {done, bytes});

  if (obs::MetricsRegistry* reg = obs::metrics()) {
    reg->gauge("fabric.switch.buffer_bytes",
               obs::LabelSet{{"switch", s.spec.name}})
        .set(static_cast<double>(s.occupancy));
  }
  if (obs::StreamSink* sink = obs::stream()) {
    sink->publish(obs::StreamChannel::kSwitchQueue, t, sw, lk,
                  static_cast<double>(s.occupancy));
  }
  if (s.spec.pfc_xoff_bytes > 0 && s.occupancy >= s.spec.pfc_xoff_bytes) {
    assert_or_extend_pause(sw, t);
  }
  return done;
}

void Topology::drain(Switch& s, sim::SimTime now) {
  while (!s.pending.empty() && s.pending.front().first <= now) {
    s.occupancy -= s.pending.front().second;
    s.pending.erase(s.pending.begin());
  }
  if (s.paused && now >= s.pause_horizon) {
    s.stats.paused_total += s.pause_horizon - s.pause_started;
    s.paused = false;
  }
}

sim::SimTime Topology::pause_release_time(const Switch& s) const {
  std::uint64_t occ = s.occupancy;
  for (const auto& [when, bytes] : s.pending) {
    occ -= bytes;
    if (occ < s.spec.pfc_xon_bytes) return when;
  }
  return s.pending.empty() ? 0 : s.pending.back().first;
}

void Topology::assert_or_extend_pause(SwitchId sw_id, sim::SimTime now) {
  Switch& s = switches_[sw_id];
  const sim::SimTime horizon = pause_release_time(s);
  if (!s.paused) {
    s.paused = true;
    s.pause_started = now;
    s.pause_horizon = horizon;
    ++s.stats.pause_events;
    if (obs::MetricsRegistry* reg = obs::metrics()) {
      reg->counter("fabric.pfc.pause_events",
                   obs::LabelSet{{"switch", s.spec.name}})
          .add();
    }
    if (obs::StreamSink* sink = obs::stream()) {
      sink->publish(obs::StreamChannel::kPfcPause, now, sw_id, 1,
                    horizon > now ? sim::to_ns(horizon - now) : 0.0);
    }
    if (obs::Tracer* tr = obs::tracer()) {
      tr->instant("fabric.pfc", "xoff", now, {{"switch", s.spec.name}});
    }
    propagate_pause(sw_id, now, horizon);
  } else if (horizon > s.pause_horizon) {
    s.pause_horizon = horizon;
    if (obs::StreamSink* sink = obs::stream()) {
      sink->publish(obs::StreamChannel::kPfcPause, now, sw_id, 0,
                    horizon > now ? sim::to_ns(horizon - now) : 0.0);
    }
    propagate_pause(sw_id, now, horizon);
  }
}

void Topology::propagate_pause(SwitchId sw_id, sim::SimTime now,
                               sim::SimTime horizon) {
  Switch& s = switches_[sw_id];
  if (obs::MetricsRegistry* reg = obs::metrics()) {
    reg->counter("fabric.pfc.pause_ps",
                 obs::LabelSet{{"switch", s.spec.name}})
        .add(horizon > s.pause_started ? horizon - s.pause_started : 0);
  }
  // In windowed mode pause application is a cross-node effect like any
  // other: it reaches the upstream node one lookahead later through its
  // shard's mailbox (real PFC frames also take a wire trip).  Legacy mode
  // keeps the instantaneous direct pokes, byte-identical to the pre-engine
  // fabric.
  const sim::SimTime apply_at =
      windowed() ? now + engine_.lookahead() : horizon;
  for (LinkId p : s.ports) {
    Link& l = links_[p];
    const NodeRef upstream = other_end(l, NodeRef::sw(sw_id));
    if (upstream.is_host()) {
      rnic::Rnic* h = hosts_.at(upstream.id).get();
      if (windowed()) {
        schedule(NodeRef::sw(sw_id), upstream, apply_at,
                 [h, horizon] { h->pipe().egress().extend_tx_pause(horizon); });
      } else {
        h->pipe().egress().extend_tx_pause(horizon);
      }
    } else {
      // Pause the upstream switch's egress port toward us; its own pool
      // then backs up and may cascade the pause further.
      const int toward_us = l.a == upstream ? 0 : 1;
      if (windowed()) {
        Link* lp = &l;
        schedule(NodeRef::sw(sw_id), upstream, apply_at,
                 [lp, toward_us, horizon] {
                   lp->pause_until[toward_us] =
                       std::max(lp->pause_until[toward_us], horizon);
                 });
      } else {
        l.pause_until[toward_us] =
            std::max(l.pause_until[toward_us], horizon);
      }
    }
  }
}

std::uint64_t Topology::buffer_occupancy(SwitchId sw) {
  Switch& s = switches_.at(sw);
  drain(s, node_now(NodeRef::sw(sw)));
  return s.occupancy;
}

bool Topology::pause_asserted(SwitchId sw) {
  Switch& s = switches_.at(sw);
  drain(s, node_now(NodeRef::sw(sw)));
  return s.paused;
}

const SwitchStats& Topology::switch_stats(SwitchId sw) {
  Switch& s = switches_.at(sw);
  drain(s, node_now(NodeRef::sw(sw)));
  return s.stats;
}

std::unique_ptr<Topology> Topology::Builder::build() {
  topo_->compute_routes();
  // Fail loudly on a partitioned graph: every host must reach every other
  // host, directly or through the switch fabric.
  for (rnic::NodeId src = 0; src < topo_->host_count(); ++src) {
    for (rnic::NodeId dst = 0; dst < topo_->host_count(); ++dst) {
      if (src == dst) continue;
      if (topo_->routes_[topo_->node_index(NodeRef::host(src))][dst]
              .empty()) {
        std::fprintf(stderr,
                     "fabric::Topology::Builder: host %u cannot reach host "
                     "%u\n",
                     src, dst);
        std::abort();
      }
    }
  }
  return std::move(topo_);
}

}  // namespace ragnar::fabric
