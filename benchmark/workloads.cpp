// The five benchmark workloads.  Each builds its model through the public
// APIs only (sim::Engine run calls, fabric::Topology::Builder, the verbs
// objects, revng::Testbed/Flow, the covert channel and transport, the online
// defense pipeline, Enforcer and ControlPort), runs one simulated
// experiment, and reports its simulated outputs, work units and per-layer
// counts.  Why each workload exists is in README.md.
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "conn.hpp"
#include "covert/framing.hpp"
#include "covert/transport/link.hpp"
#include "covert/transport/session.hpp"
#include "covert/uli_channel.hpp"
#include "defense/enforcer.hpp"
#include "defense/online/pipeline.hpp"
#include "fabric/topology.hpp"
#include "obs/obs.hpp"
#include "perf.hpp"
#include "revng/flow.hpp"
#include "revng/testbed.hpp"
#include "rnic/device_profile.hpp"
#include "sim/coro.hpp"
#include "sim/engine.hpp"
#include "sim/random.hpp"
#include "verbs/context.hpp"

namespace ragnar::perf {

std::uint64_t Outputs::digest() const {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint8_t b) {
    h ^= b;
    h *= 0x100000001b3ULL;
  };
  for (const auto& [name, v] : items_) {
    for (const char* c = name; *c != '\0'; ++c) {
      mix(static_cast<std::uint8_t>(*c));
    }
    for (int i = 0; i < 8; ++i) mix(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  return h;
}

namespace {

namespace ct = covert::transport;

sim::SimDur scaled(sim::SimDur d, const Params& prm) {
  return static_cast<sim::SimDur>(static_cast<double>(d) * prm.scale);
}

// The traced rep's obs hub: metrics and simulated-clock spans on, plus the
// stream sink when the workload consumes it.  An untraced rep installs a
// hub only for a streaming consumer.
class RepHub {
 public:
  RepHub(const Probe& probe, bool streaming) {
    if (!probe.tracing() && !streaming) return;
    obs::Hub::Config cfg;
    cfg.tracing = probe.tracing();
    cfg.streaming = streaming;
    hub_.emplace(cfg);
    installed_.emplace(&*hub_);
  }

  obs::Hub* get() { return hub_ ? &*hub_ : nullptr; }

 private:
  std::optional<obs::Hub> hub_;
  std::optional<obs::ScopedHub> installed_;  // uninstalls before hub_ dies
};

// Sum of every labelled series of counter `name` in the registry.
double counter_sum(const obs::MetricsRegistry& reg, std::string_view name) {
  double sum = 0;
  for (const obs::MetricCell& c : reg.snapshot().cells) {
    const std::string_view col = c.column;
    if (col.substr(0, name.size()) != name) continue;
    if (col.size() > name.size() && col[name.size()] != '{') continue;
    sum += std::strtod(c.value.c_str(), nullptr);
  }
  return sum;
}

void note_hub(Probe& probe, obs::Hub* hub) {
  if (hub == nullptr) return;
  const obs::MetricsRegistry& reg = hub->metrics();
  probe["rnic.stage.msgs"] += counter_sum(reg, "rnic.stage.msgs");
  probe["rnic.admission_deferred"] +=
      counter_sum(reg, "rnic.admission_deferred");
  probe["verbs.completions"] += counter_sum(reg, "verbs.completions");
  probe["verbs.errors"] += counter_sum(reg, "verbs.errors");
  if (const obs::StreamSink* s = hub->stream()) {
    probe["obs.stream.published"] += static_cast<double>(s->published_total());
    probe["obs.stream.dropped"] += static_cast<double>(s->dropped_total());
    probe["obs.stream.footprint_bytes"] +=
        static_cast<double>(s->footprint_bytes());
  }
  if (obs::Tracer* tr = hub->tracer()) probe.set_model_spans(tr->take());
}

void note_device(Probe& probe, rnic::Rnic& dev) {
  probe["rnic.xl_accesses"] +=
      static_cast<double>(dev.translation().accesses());
  probe["rnic.mtt_misses"] +=
      static_cast<double>(dev.translation().mtt_misses());
  probe["rnic.rx_msgs"] += static_cast<double>(dev.counters().rx_msgs_total);
  probe["rnic.tx_msgs"] += static_cast<double>(dev.counters().tx_msgs_total);
}

void note_faults(Probe& probe, const faults::FaultStats& fs) {
  probe["faults.delivered"] += static_cast<double>(fs.delivered);
  probe["faults.dropped"] += static_cast<double>(fs.total_lost());
}

void note_qp(Probe& probe, const verbs::QpReliabilityStats& rs) {
  probe["verbs.qp_retransmits"] += static_cast<double>(rs.retransmits);
  probe["verbs.qp_timeouts"] += static_cast<double>(rs.timeouts);
}

// Switch counters, totalled over the switches (the peak is the largest),
// go into the digest as simulated outputs and into the per-layer metrics.
void note_switches(Probe& probe, Outputs& out, fabric::Topology& topo) {
  fabric::SwitchStats sum;
  for (fabric::SwitchId s = 0; s < topo.switch_count(); ++s) {
    const fabric::SwitchStats& st = topo.switch_stats(s);
    sum.forwarded += st.forwarded;
    sum.fwd_bytes += st.fwd_bytes;
    sum.drops += st.drops;
    sum.pause_events += st.pause_events;
    sum.paused_total += st.paused_total;
    sum.peak_buffer_bytes =
        std::max(sum.peak_buffer_bytes, st.peak_buffer_bytes);
  }
  out.add("switch.forwarded", sum.forwarded);
  out.add("switch.fwd_bytes", sum.fwd_bytes);
  out.add("switch.drops", sum.drops);
  out.add("switch.pause_events", sum.pause_events);
  out.add("switch.paused_ps", sum.paused_total);
  out.add("switch.peak_buffer_bytes", sum.peak_buffer_bytes);
  probe["fabric.switch.forwarded"] = static_cast<double>(sum.forwarded);
  probe["fabric.switch.drops"] = static_cast<double>(sum.drops);
  probe["fabric.pfc.pause_events"] = static_cast<double>(sum.pause_events);
  probe["fabric.pfc.paused_us"] = sim::to_us(sum.paused_total);
  probe["fabric.switch.peak_buffer_kb"] =
      static_cast<double>(sum.peak_buffer_bytes) / 1024.0;
}

void note_engine(Probe& probe, const sim::Engine& eng) {
  probe["sim.events"] += static_cast<double>(eng.events_processed());
  probe["sim.windows"] += static_cast<double>(eng.windows_run());
  probe["sim.mail"] += static_cast<double>(eng.mail_delivered());
  probe["sim.workers"] = eng.workers();
}

// --- closed-loop verbs actors (cloud_read_*, incast_defense) --------------

struct Stream {
  verbs::WrOpcode op = verbs::WrOpcode::kRdmaRead;
  std::uint32_t bytes = 0;
  std::uint32_t alt_bytes = 0;  // every other WR; == bytes to not alternate
  std::uint32_t depth = 0;
  sim::SimTime t0 = 0;     // counting window start
  sim::SimTime t_end = 0;  // no posts from here on; in-flight WRs drain
};

// One actor's accounting.  Each is written by exactly one actor, on its
// host's shard; the alignment keeps shards off each other's cache lines.
struct alignas(64) Tally {
  std::uint64_t posted = 0;
  std::uint64_t refused = 0;  // post_send != kOk
  std::uint64_t ok = 0;
  std::uint64_t errors = 0;
  std::uint64_t window_ops = 0;
  std::uint64_t window_bytes = 0;
  double post_ns = 0;
  double poll_ns = 0;
  bool done = false;
};

// Keeps `depth` WRs in flight until t_end, then drains: every WR it posted
// is polled before the actor finishes.
sim::Task closed_loop(sim::Engine& eng, Conn& c, Tally& t, Probe& probe,
                      Stream s) {
  std::uint64_t n = 0;
  const auto post = [&] {
    const std::uint32_t len = n++ % 2 == 0 ? s.bytes : s.alt_bytes;
    const verbs::PostResult r =
        probe.timed(t.post_ns, [&] { return post_one(c, s.op, len); });
    ++(r == verbs::PostResult::kOk ? t.posted : t.refused);
  };
  for (std::uint32_t d = 0; d < s.depth; ++d) post();
  verbs::Wc wc;
  while (c.src_qp->outstanding() > 0) {
    co_await c.src_cq->wait(1);
    while (probe.timed(t.poll_ns, [&] { return c.src_cq->poll_one(&wc); })) {
      if (wc.status == rnic::WcStatus::kSuccess) {
        ++t.ok;
        if (wc.completed_at >= s.t0 && wc.completed_at < s.t_end) {
          ++t.window_ops;
          t.window_bytes += wc.byte_len;
        }
      } else {
        ++t.errors;
      }
      if (eng.local_now() < s.t_end) post();
    }
  }
  t.done = true;
}

// Folds the actors' tallies into the rep result and checks the verbs
// contract of a fault-free run: every posted WR completed, none in error.
void finish_tallies(RepResult& res, Probe& probe,
                    const std::vector<Tally>& tally) {
  std::uint64_t ops = 0, bytes = 0, lo = ~std::uint64_t{0}, hi = 0;
  std::uint64_t refused = 0, errors = 0;
  double post_ns = 0, poll_ns = 0;
  std::size_t unfinished = 0;
  for (const Tally& t : tally) {
    ops += t.window_ops;
    bytes += t.window_bytes;
    lo = std::min(lo, t.window_ops);
    hi = std::max(hi, t.window_ops);
    res.attempted += t.posted;
    res.completed += t.ok;
    refused += t.refused;
    errors += t.errors;
    post_ns += t.post_ns;
    poll_ns += t.poll_ns;
    unfinished += t.done ? 0 : 1;
  }
  res.failed = res.attempted - std::min(res.attempted, res.completed);
  res.outputs.add("window_ops", ops);
  res.outputs.add("window_bytes", bytes);
  res.outputs.add("min_actor_ops", lo);
  res.outputs.add("max_actor_ops", hi);
  res.outputs.add("completions", res.completed);
  res.outputs.add("wc_errors", errors);
  if (unfinished > 0) res.violations.push_back("actors left unfinished");
  if (refused > 0) res.violations.push_back("post_send refused a WR");
  if (errors > 0) res.violations.push_back("WC errors on a fault-free run");
  if (res.attempted != res.completed)
    res.violations.push_back("WRs posted != WRs completed");
  if (probe.tracing()) {
    probe["verbs.post_ns"] =
        res.attempted > 0 ? post_ns / static_cast<double>(res.attempted) : 0;
    probe["verbs.poll_ns"] =
        res.completed > 0 ? poll_ns / static_cast<double>(res.completed) : 0;
  }
}

// --- cloud_read_par / cloud_read_serial ------------------------------------

// 8 racks (a client, a server and a ToR each) behind a full ToR mesh; 1024
// tenants round-robin over the racks, each streaming 2 KiB READs against
// the next rack's server.  Rack r runs on shard r % shards.
RepResult cloud_read(const Params& prm, Probe& probe, std::uint32_t shards) {
  constexpr std::size_t kRacks = 8;
  constexpr std::size_t kTenants = 1024;
  Stream s;
  s.bytes = s.alt_bytes = 2u << 10;
  s.depth = 4;
  s.t0 = sim::us(20);
  s.t_end = s.t0 + scaled(sim::ms(20), prm);

  RepResult res;
  const HostClock::time_point setup0 = HostClock::now();
  sim::Engine eng(sim::Engine::Options{shards, sim::kMillisecond});
  const auto shard_of = [&](std::size_t rack) {
    return static_cast<sim::ShardId>(rack % eng.shard_count());
  };
  std::unique_ptr<fabric::Topology> topo;
  std::vector<rnic::NodeId> client(kRacks), server(kRacks);
  {
    const Probe::Scope scope = probe.scope("setup.topology_s");
    sim::Xoshiro256 rng(prm.seed);
    const rnic::DeviceProfile prof =
        rnic::make_profile(rnic::DeviceModel::kCX5);
    fabric::Topology::Builder b(eng);
    std::vector<fabric::SwitchId> tor(kRacks);
    for (std::size_t r = 0; r < kRacks; ++r) {
      client[r] = b.add_host(prof, rng.fork(), shard_of(r));
      server[r] = b.add_host(prof, rng.fork(), shard_of(r));
      fabric::SwitchSpec spec;
      spec.buffer_bytes = 4u << 20;
      spec.pfc_xoff_bytes = 0;  // deep pool, PFC off
      spec.name = "tor" + std::to_string(r);
      tor[r] = b.add_switch(spec, shard_of(r));
    }
    const auto access = fabric::LinkSpec::symmetric(sim::ns(500), 100.0);
    const auto mesh = fabric::LinkSpec::symmetric(sim::us(1), 100.0);
    for (std::size_t r = 0; r < kRacks; ++r) {
      b.link(fabric::NodeRef::host(client[r]), fabric::NodeRef::sw(tor[r]),
             access);
      b.link(fabric::NodeRef::host(server[r]), fabric::NodeRef::sw(tor[r]),
             access);
      for (std::size_t q = 0; q < r; ++q) {
        b.link(fabric::NodeRef::sw(tor[q]), fabric::NodeRef::sw(tor[r]), mesh);
      }
    }
    topo = b.build();
  }
  std::vector<std::unique_ptr<verbs::Context>> cctx(kRacks), sctx(kRacks);
  std::vector<Conn> conn;
  {
    const Probe::Scope scope = probe.scope("setup.verbs_s");
    for (std::size_t r = 0; r < kRacks; ++r) {
      cctx[r] = std::make_unique<verbs::Context>(
          *topo, topo->host(client[r]), "c" + std::to_string(r));
      sctx[r] = std::make_unique<verbs::Context>(
          *topo, topo->host(server[r]), "s" + std::to_string(r));
    }
    verbs::QpConfig qp;
    qp.max_send_wr = 2 * s.depth;
    conn.reserve(kTenants);
    for (std::size_t i = 0; i < kTenants; ++i) {
      const std::size_t r = i % kRacks;
      // One READ's worth: no WR touches more.  cloud_scale's 64 KiB buffers
      // made set-up mostly zero-filling 128 MiB, bound by memory bandwidth.
      conn.push_back(connect(*cctx[r], *sctx[(r + 1) % kRacks], qp, s.bytes));
    }
  }
  res.setup_s = seconds_since(setup0);
  if (prm.setup_only) return res;

  RepHub hub(probe, false);
  std::vector<Tally> tally(kTenants);
  const HostClock::time_point run0 = HostClock::now();
  {
    const Probe::Scope scope = probe.scope("sim.run_call_s");
    for (std::size_t i = 0; i < kTenants; ++i) {
      eng.spawn(closed_loop(eng, conn[i], tally[i], probe, s),
                shard_of(i % kRacks));
    }
    eng.run_until_idle();
  }
  res.wall_s = seconds_since(run0);

  finish_tallies(res, probe, tally);
  note_switches(probe, res.outputs, *topo);
  note_engine(probe, eng);
  for (std::size_t r = 0; r < kRacks; ++r) {
    note_device(probe, *topo->host(client[r]));
    note_device(probe, *topo->host(server[r]));
  }
  for (const Conn& c : conn) note_qp(probe, c.src_qp->reliability());
  note_hub(probe, hub.get());
  return res;
}

RepResult cloud_read_par(const Params& prm, Probe& probe) {
  return cloud_read(prm, probe, 4);
}

RepResult cloud_read_serial(const Params& prm, Probe& probe) {
  return cloud_read(prm, probe, 1);
}

// --- p2p_read ----------------------------------------------------------------

// The paper-figure path: one CX-5 client READs 64 B against the server
// through revng::Flow, 4 QPs x depth 16, striding 4160 B over 1 MiB.
RepResult p2p_read(const Params& prm, Probe& probe) {
  revng::FlowSpec spec;
  spec.opcode = verbs::WrOpcode::kRdmaRead;
  spec.msg_size = 64;
  spec.qp_num = 4;
  spec.depth_per_qp = 16;
  // Flow's actors start at construction; a start past zero puts their
  // first posts in the timed run instead of in set-up.
  spec.start = sim::us(1);
  spec.duration = scaled(sim::ms(250), prm);
  spec.region_len = 1u << 20;
  spec.stride = 4160;

  RepResult res;
  const HostClock::time_point setup0 = HostClock::now();
  std::unique_ptr<revng::Testbed> bed;
  {
    const Probe::Scope scope = probe.scope("setup.topology_s");
    bed = std::make_unique<revng::Testbed>(rnic::DeviceModel::kCX5, prm.seed,
                                           1);
  }
  std::unique_ptr<revng::Flow> flow;
  {
    const Probe::Scope scope = probe.scope("setup.verbs_s");
    flow = std::make_unique<revng::Flow>(*bed, 0, spec);
  }
  res.setup_s = seconds_since(setup0);
  if (prm.setup_only) return res;

  RepHub hub(probe, false);
  const HostClock::time_point run0 = HostClock::now();
  {
    const Probe::Scope scope = probe.scope("sim.run_call_s");
    bed->engine().run_until_idle();
  }
  res.wall_s = seconds_since(run0);

  rnic::Rnic& cdev = bed->client(0).device();
  rnic::Rnic& sdev = bed->server().device();
  // Flow keeps its QPs private: a request the server never received is a
  // failed unit, and an unfinished flow left WRs without a completion.
  res.attempted = cdev.counters().tx_msgs_total;
  res.failed = res.attempted -
               std::min(res.attempted, sdev.counters().rx_msgs_total);
  res.completed = flow->ops_completed();
  res.outputs.add("window_ops", flow->ops_completed());
  res.outputs.add("window_bytes", flow->bytes_completed());
  res.outputs.add("requests", res.attempted);
  res.outputs.add("end_ps", bed->engine().now());
  res.outputs.add("mtt_misses", sdev.translation().mtt_misses());
  if (!flow->finished()) res.violations.push_back("flow left WRs in flight");
  if (res.failed > 0) {
    res.violations.push_back("requests lost on a fault-free run");
  }
  if (res.completed == 0) res.violations.push_back("no READ completed");

  note_engine(probe, bed->engine());
  note_device(probe, cdev);
  note_device(probe, sdev);
  note_hub(probe, hub.get());
  return res;
}

// --- incast_defense ----------------------------------------------------------

// One ToR (512 KiB pool, PFC xoff 128 KiB / xon 64 KiB), 8 clients into 1
// server: 2 hogs WRITE 64 KiB at depth 16, 6 readers alternate 4 KiB and
// 256 B READs at depth 4.  The online defense consumes the stream every
// 50 us and the Enforcer closes a window onto the server's ControlPort
// every 500 us.
RepResult incast_defense(const Params& prm, Probe& probe) {
  constexpr std::size_t kHogs = 2;
  constexpr std::size_t kReaders = 6;
  constexpr std::size_t kClients = kHogs + kReaders;
  constexpr sim::SimDur kConsumeEvery = sim::us(50);
  constexpr std::uint64_t kConsumesPerWindow = 10;  // 500 us windows
  const sim::SimTime t0 = sim::us(200);
  const sim::SimTime t_end = t0 + scaled(sim::ms(75), prm);

  RepResult res;
  const HostClock::time_point setup0 = HostClock::now();
  sim::Engine eng(sim::Engine::Options{1, sim::kMillisecond});
  std::unique_ptr<fabric::Topology> topo;
  std::vector<rnic::NodeId> hosts;  // clients, then the server
  {
    const Probe::Scope scope = probe.scope("setup.topology_s");
    sim::Xoshiro256 rng(prm.seed);
    const rnic::DeviceProfile prof =
        rnic::make_profile(rnic::DeviceModel::kCX5);
    fabric::Topology::Builder b(eng);
    for (std::size_t i = 0; i <= kClients; ++i) {
      hosts.push_back(b.add_host(prof, rng.fork()));
    }
    fabric::SwitchSpec tor_spec;
    tor_spec.buffer_bytes = 512u << 10;
    tor_spec.pfc_xoff_bytes = 128u << 10;
    tor_spec.pfc_xon_bytes = 64u << 10;
    const fabric::SwitchId tor = b.add_switch(tor_spec);
    const auto access = fabric::LinkSpec::symmetric(sim::ns(250), 100.0);
    for (const rnic::NodeId h : hosts) {
      b.link(fabric::NodeRef::host(h), fabric::NodeRef::sw(tor), access);
    }
    topo = b.build();
  }
  std::vector<std::unique_ptr<verbs::Context>> ctx;
  std::vector<Conn> conn;
  {
    const Probe::Scope scope = probe.scope("setup.verbs_s");
    for (const rnic::NodeId h : hosts) {
      ctx.push_back(std::make_unique<verbs::Context>(
          *topo, topo->host(h), "h" + std::to_string(h)));
    }
    verbs::QpConfig qp;
    qp.max_send_wr = 64;
    qp.timeout = sim::us(500);
    qp.retry_cnt = 7;
    for (std::size_t i = 0; i < kClients; ++i) {
      // Sized for the largest WR, a hog's 64 KiB WRITE.
      conn.push_back(connect(*ctx[i], *ctx[kClients], qp, 64u << 10));
    }
  }
  res.setup_s = seconds_since(setup0);
  if (prm.setup_only) return res;

  RepHub hub(probe, true);
  defense::online::OnlinePipeline pipe;
  // A quarter of the server link: the default 1 Gb/s cap strands a flagged
  // hog's 1 MiB of in-flight WRITEs behind the 500 us QP timeout, so the
  // drain after t_end took 30-60 ms of simulated time depending on the
  // seed.  At 25 Gb/s every seed does the same work.
  defense::EnforcerPolicy policy;
  policy.throttle_gbps = 25.0;
  defense::Enforcer enf(policy);
  enf.attach(&ctx[kClients]->device().control());

  Stream hog;
  hog.op = verbs::WrOpcode::kRdmaWrite;
  hog.bytes = hog.alt_bytes = 64u << 10;
  hog.depth = 16;
  hog.t0 = t0;
  hog.t_end = t_end;
  Stream reader = hog;
  reader.op = verbs::WrOpcode::kRdmaRead;
  reader.bytes = 4u << 10;
  reader.alt_bytes = 256;
  reader.depth = 4;

  std::vector<Tally> tally(kClients);
  // The loop outlives t_end only to drain; a run still going far past it
  // has hung on a WR that never completes.
  const sim::SimTime t_give_up = t_end + sim::ms(50);
  const HostClock::time_point run0 = HostClock::now();
  {
    for (std::size_t i = 0; i < kClients; ++i) {
      eng.spawn(closed_loop(eng, conn[i], tally[i], probe,
                            i < kHogs ? hog : reader));
    }
    const auto live = [&] {
      return std::any_of(tally.begin(), tally.end(),
                         [](const Tally& t) { return !t.done; });
    };
    sim::SimTime t = 0;
    for (std::uint64_t tick = 1; live() && t < t_give_up; ++tick) {
      t += kConsumeEvery;
      {
        const Probe::Scope scope = probe.scope("sim.run_call_s");
        eng.run_until(t);
      }
      {
        const Probe::Scope scope = probe.scope("defense.consume_s");
        pipe.consume(*hub.get()->stream());
      }
      {
        const Probe::Scope scope = probe.scope("defense.emit_s");
        pipe.emit_verdicts(enf, eng.now());
        if (tick % kConsumesPerWindow == 0) enf.close_window(eng.now());
      }
    }
  }
  res.wall_s = seconds_since(run0);

  finish_tallies(res, probe, tally);
  note_switches(probe, res.outputs, *topo);
  verbs::QpReliabilityStats rs;
  for (const Conn& c : conn) rs += c.src_qp->reliability();
  res.outputs.add("qp_retransmits", rs.retransmits);
  res.outputs.add("qp_timeouts", rs.timeouts);
  res.outputs.add("defense.samples", pipe.samples_consumed());
  res.outputs.add("defense.verdicts", enf.verdicts_observed());
  res.outputs.add("defense.flagged", enf.verdicts_flagged());
  res.outputs.add("defense.applied", enf.actions_applied());
  res.outputs.add("defense.lifted", enf.actions_lifted());
  res.outputs.add("end_ps", eng.now());

  note_engine(probe, eng);
  for (const rnic::NodeId h : hosts) note_device(probe, *topo->host(h));
  note_qp(probe, rs);
  probe["defense.samples"] = static_cast<double>(pipe.samples_consumed());
  probe["defense.verdicts"] = static_cast<double>(enf.verdicts_observed());
  probe["defense.actions_applied"] =
      static_cast<double>(enf.actions_applied());
  probe["defense.actions_lifted"] = static_cast<double>(enf.actions_lifted());
  probe["defense.footprint_bytes"] =
      static_cast<double>(pipe.footprint_bytes());
  note_hub(probe, hub.get());
  return res;
}

// --- covert_transfer ---------------------------------------------------------

// The transport's clock over the channel's scheduler, timing every advance
// as an engine run call.
class TimedClock final : public ct::Clock {
 public:
  TimedClock(sim::Scheduler& sched, Probe& probe)
      : inner_(sched), probe_(probe) {}
  sim::SimTime now() const override { return inner_.now(); }
  void advance_to(sim::SimTime t) override {
    const Probe::Scope scope = probe_.scope("sim.run_call_s");
    inner_.advance_to(t);
  }

 private:
  ct::SchedulerClock inner_;
  Probe& probe_;
};

// A 32 B authenticated transfer over the Grain-III ULI channel (CX-4,
// inter-MR) with uniform loss on every fabric link and on the feedback path:
// QP retransmission under the channel, selective-ACK ARQ above it.
//
// The loss rate, bit period and QP timeout keep the work the same for every
// seed.  At the covert_transfer scenario's 1% loss and 60 us bit period a
// transfer took 5 to 14 channel frames depending on the seed, and host time
// followed (0.6-1.5 s).  Its 15 us QP timeout also fired on slow READs that
// were not lost, in storms of 40k-240k retransmits whose size depended on
// the seed.  At 0.03% loss, 90 us and 25 us, each seed tried took 3 frames,
// and each of the ~290 QP retransmits per transfer repaired a real drop.
RepResult covert_transfer(const Params& prm, Probe& probe) {
  constexpr double kLoss = 0.0003;
  covert::UliChannelConfig cfg = covert::UliChannelConfig::best_for(
      rnic::DeviceModel::kCX4, covert::UliChannelKind::kInterMr, prm.seed);
  cfg.ambient_intensity = 0;
  cfg.bit_period = sim::us(90);
  cfg.warmup_bits = 8;
  cfg.fault_plan =
      faults::FaultPlan::uniform_loss(kLoss, prm.seed ^ 0xc0feeULL);
  cfg.fault_plan.per_link_rng = true;
  cfg.qp_timeout = sim::us(25);
  cfg.qp_retry_cnt = 7;
  ct::TransportConfig tcfg;
  tcfg.handshake_retries = 8;
  tcfg.arq.max_retries = 10;
  ct::ModeledFeedbackLink::Config fb;
  fb.loss_p = kLoss;
  fb.seed = prm.seed ^ 0xfeedbacULL;
  // --smoke moves one 4 B segment instead of eight.
  const std::size_t payload_bytes = prm.scale < 1.0 ? 4 : 32;
  std::vector<std::uint8_t> payload(payload_bytes);
  sim::Xoshiro256 prng(prm.seed ^ 0xf11eULL);
  for (std::uint8_t& b : payload) {
    b = static_cast<std::uint8_t>(prng.uniform_u64(256));
  }

  RepResult res;
  const HostClock::time_point setup0 = HostClock::now();
  std::unique_ptr<covert::UliCovertChannel> ch;
  {
    // The channel builds its testbed, QPs and MRs in one constructor.
    const Probe::Scope scope = probe.scope("setup.topology_s");
    ch = std::make_unique<covert::UliCovertChannel>(cfg);
  }
  res.setup_s = seconds_since(setup0);
  if (prm.setup_only) return res;

  RepHub hub(probe, false);
  TimedClock clock(ch->scheduler(), probe);
  std::uint64_t frames = 0;
  ct::FramedChannelLink data(
      [&](const std::vector<int>& bits) {
        const Probe::Scope scope = probe.scope("covert.channel_s");
        ++frames;
        return ch->transmit(bits);
      },
      covert::FrameConfig{});
  ct::ModeledFeedbackLink feedback(clock, fb);
  const ct::Key master{0x5261676e617231ULL, prm.seed};
  ct::CovertTransport transport(data, feedback, clock, master, tcfg);

  const HostClock::time_point run0 = HostClock::now();
  const ct::TransferReport rep = transport.transfer(payload, 0x42);
  res.wall_s = seconds_since(run0);

  res.attempted = rep.segments_total;
  res.failed = rep.missing.size();
  res.completed = rep.delivered_bytes;
  Outputs& out = res.outputs;
  out.add("outcome", static_cast<std::uint64_t>(rep.outcome));
  out.add("byte_exact", rep.byte_exact ? 1 : 0);
  out.add("delivered_bytes", rep.delivered_bytes);
  out.add("segments_delivered", rep.segments_delivered);
  out.add("rounds", rep.rounds);
  out.add("retransmits", rep.retransmits);
  out.add("handshake_sends", rep.handshake_sends);
  out.add("auth_rejects", rep.auth_rejects);
  out.add("acks_lost", rep.acks_lost);
  out.add("duplicates", rep.duplicates);
  out.add("finished_ps", rep.finished);
  out.add("frames", frames);
  const faults::FaultStats fs = ch->fault_stats();
  const verbs::QpReliabilityStats rs = ch->reliability_stats();
  out.add("faults.delivered", fs.delivered);
  out.add("faults.lost", fs.total_lost());
  out.add("qp_retransmits", rs.retransmits);
  if (!rep.complete() || !rep.byte_exact) {
    res.violations.push_back(
        std::string("transfer not complete and byte-exact: ") +
        rep.outcome_name());
  }

  probe["sim.events"] =
      static_cast<double>(ch->scheduler().events_processed());
  probe["sim.workers"] = 1;
  note_device(probe, ch->server_device());
  note_faults(probe, fs);
  note_qp(probe, rs);
  probe["covert.frames"] = static_cast<double>(frames);
  probe["covert.rounds"] = static_cast<double>(rep.rounds);
  probe["covert.retransmits"] = static_cast<double>(rep.retransmits);
  probe["covert.auth_rejects"] = static_cast<double>(rep.auth_rejects);
  probe["covert.stack_s"] = res.wall_s - probe["covert.channel_s"];
  // Every channel frame runs the engine too.
  probe["sim.run_call_s"] += probe["covert.channel_s"];
  note_hub(probe, hub.get());
  return res;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> table = {
      {"cloud_read_par", cloud_read_par, "cloud_read_serial"},
      {"cloud_read_serial", cloud_read_serial, nullptr},
      {"p2p_read", p2p_read, nullptr},
      {"incast_defense", incast_defense, nullptr},
      {"covert_transfer", covert_transfer, nullptr},
  };
  return table;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

}  // namespace ragnar::perf
