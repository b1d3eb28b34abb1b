// cloud_* scenario family: volatile channels that live in the *network*
// rather than on the NIC.  Both scenarios build a switched fabric::Topology
// (ToR model, shared egress buffer pool, PFC) instead of the Testbed's
// switchless direct-link mesh:
//
//   cloud_bankrupt        covert signalling through shared switch queueing
//                         between two tenants whose flows never share a NIC
//                         (Bankrupt, PAPERS.md) — the sender loads a ToR
//                         uplink, the receiver times small probe READs
//                         crossing the same uplink.
//
//   cloud_noisy_neighbor  one tenant's incast exhausting a ToR's shared
//                         buffer (pause + queueing collateral on an innocent
//                         victim), then per-tenant caps at the receiving
//                         NIC — enforced by RxAdmission's pacing machinery —
//                         partially restoring the victim.
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/cloud_common.hpp"
#include "covert/common.hpp"
#include "fabric/topology.hpp"
#include "rnic/device_profile.hpp"
#include "scenario/scenario.hpp"
#include "sim/coro.hpp"
#include "sim/engine.hpp"
#include "sim/random.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"
#include "verbs/context.hpp"

using namespace ragnar;

namespace {

using cloud::Conn;
using cloud::connect;
using cloud::post_one;

// ------------------------------------------------------------------------
// cloud_bankrupt
// ------------------------------------------------------------------------

// Two racks joined by one oversubscribable 25 Gb/s uplink.  Tenant A spans
// both racks (sender h0 in rack 0, its peer h2 in rack 1); so does tenant B
// (prober h1 in rack 0, peer h3 in rack 1).  A and B share *only* the
// uplink's egress queue on tor0 — no NIC, no host, no MR.
struct BankruptRig {
  sim::Engine eng;
  std::unique_ptr<fabric::Topology> topo;
  fabric::SwitchId tor0 = 0;
  std::vector<std::unique_ptr<verbs::Context>> ctx;
  Conn tx;     // tenant A: h0 -> h2, loads the uplink when signalling 1
  Conn probe;  // tenant B: h1 -> h3, times small READs across the uplink

  // Modulation state (PriorityCovertChannel's actor shape).
  std::vector<int> frame;
  sim::SimTime t0 = 0;
  sim::SimTime t_end = 0;
  sim::SimDur window = 0;
  std::vector<double> rtt_sum;
  std::vector<std::uint64_t> rtt_cnt;
  bool tx_done = false;
  bool rx_done = false;

  static constexpr std::uint32_t kBit1Bytes = 4u << 10;
  static constexpr std::uint32_t kBit0Bytes = 256;
  static constexpr std::uint32_t kProbeBytes = 256;
  static constexpr std::uint32_t kTxDepth = 8;

  // `shards` = 0 keeps the engine in legacy mode (the golden path); any
  // other value runs windowed with rack 0 on shard 0 and rack 1 on shard
  // 1 % shards — windowed output is identical for every shard count.
  explicit BankruptRig(std::uint64_t seed, std::size_t shards = 0)
      : eng(sim::Engine::Options{static_cast<std::uint32_t>(shards),
                                 sim::kMillisecond}) {
    const sim::ShardId rack1 =
        shards == 0 ? 0 : static_cast<sim::ShardId>(1 % shards);
    sim::Xoshiro256 rng(seed);
    const rnic::DeviceProfile prof =
        rnic::make_profile(rnic::DeviceModel::kCX5);
    fabric::Topology::Builder b(eng);
    const auto h0 = b.add_host(prof, rng.fork(), 0);
    const auto h1 = b.add_host(prof, rng.fork(), 0);
    const auto h2 = b.add_host(prof, rng.fork(), rack1);
    const auto h3 = b.add_host(prof, rng.fork(), rack1);
    fabric::SwitchSpec tor;
    // Deep pool, PFC off: the channel is pure shared-queue *latency* — the
    // backlog never comes close to filling the buffer, so nothing is
    // dropped and nobody is paused.
    tor.buffer_bytes = 4u << 20;
    tor.pfc_xoff_bytes = 0;
    tor.name = "tor0";
    tor0 = b.add_switch(tor, 0);
    fabric::SwitchSpec tor_b = tor;
    tor_b.name = "tor1";
    const auto tor1 = b.add_switch(tor_b, rack1);
    const auto access = fabric::LinkSpec::symmetric(sim::ns(250), 100.0);
    b.link(fabric::NodeRef::host(h0), fabric::NodeRef::sw(tor0), access)
        .link(fabric::NodeRef::host(h1), fabric::NodeRef::sw(tor0), access)
        .link(fabric::NodeRef::host(h2), fabric::NodeRef::sw(tor1), access)
        .link(fabric::NodeRef::host(h3), fabric::NodeRef::sw(tor1), access)
        .link(fabric::NodeRef::sw(tor0), fabric::NodeRef::sw(tor1),
              fabric::LinkSpec::symmetric(sim::ns(500), 25.0));
    topo = b.build();
    for (rnic::NodeId h : {h0, h1, h2, h3}) {
      ctx.push_back(std::make_unique<verbs::Context>(
          *topo, topo->host(h), "h" + std::to_string(h)));
    }
    verbs::QpConfig qp;
    qp.max_send_wr = 64;
    tx = connect(*ctx[0], *ctx[2], 1, qp);
    probe = connect(*ctx[1], *ctx[3], 1, qp);
  }

  int current_bit(sim::SimTime t) const {
    if (t < t0) return frame.empty() ? 0 : frame.front();
    const auto idx = static_cast<std::size_t>((t - t0) / window);
    return frame[std::min(idx, frame.size() - 1)];
  }

  // The executing shard's clock — both actors live on shard 0 (rack 0), so
  // this is their hosts' local time in either mode.
  sim::SimTime now() const { return eng.local_now(); }

  // Tenant A: saturated WRITE loop whose message size is the bit — large
  // writes back the uplink queue up, small ones leave it empty.
  sim::Task tx_actor() {
    while (post_one(tx, verbs::WrOpcode::kRdmaWrite,
                    current_bit(now()) ? kBit1Bytes : kBit0Bytes) &&
           tx.qp().outstanding() < kTxDepth) {
    }
    verbs::Wc wc;
    while (now() < t_end) {
      co_await tx.cq().wait(1);
      while (tx.cq().poll_one(&wc)) {
        if (now() < t_end) {
          post_one(tx, verbs::WrOpcode::kRdmaWrite,
                   current_bit(now()) ? kBit1Bytes : kBit0Bytes);
        }
      }
    }
    tx_done = true;
  }

  // Tenant B: one small READ at a time; each completion's RTT lands in the
  // bit window of its completion time.
  sim::Task rx_actor() {
    post_one(probe, verbs::WrOpcode::kRdmaRead, kProbeBytes);
    verbs::Wc wc;
    while (now() < t_end) {
      co_await probe.cq().wait(1);
      while (probe.cq().poll_one(&wc)) {
        // Bin by *post* time: a probe issued inside a 1-window carries that
        // window's queueing delay even when it completes after the edge, so
        // completion-time binning would smear each 1 into its successor.
        if (wc.status == rnic::WcStatus::kSuccess && wc.posted_at >= t0 &&
            wc.posted_at < t_end) {
          const auto w =
              static_cast<std::size_t>((wc.posted_at - t0) / window);
          if (w < rtt_sum.size()) {
            rtt_sum[w] += sim::to_us(wc.latency());
            rtt_cnt[w] += 1;
          }
        }
        if (now() < t_end) {
          post_one(probe, verbs::WrOpcode::kRdmaRead, kProbeBytes);
        }
      }
    }
    rx_done = true;
  }

  covert::ChannelRun transmit(const std::vector<int>& payload,
                              sim::SimDur bit_window,
                              std::size_t calibration_bits) {
    std::vector<int> calibration(calibration_bits);
    for (std::size_t i = 0; i < calibration.size(); ++i)
      calibration[i] = static_cast<int>(i & 1);
    frame = calibration;
    frame.insert(frame.end(), payload.begin(), payload.end());
    window = bit_window;
    rtt_sum.assign(frame.size(), 0.0);
    rtt_cnt.assign(frame.size(), 0);
    t0 = eng.now() + sim::us(50);
    t_end = t0 + window * frame.size();
    eng.spawn(tx_actor(), 0);  // h0's shard
    eng.spawn(rx_actor(), 0);  // h1's shard
    eng.run_while([&] { return !(tx_done && rx_done); });

    std::vector<double> means(frame.size(), 0.0);
    for (std::size_t i = 0; i < frame.size(); ++i) {
      if (rtt_cnt[i] > 0)
        means[i] = rtt_sum[i] / static_cast<double>(rtt_cnt[i]);
    }
    covert::ChannelRun run;
    run.sent = payload;
    run.received = covert::ThresholdDecoder::decode(
        means, calibration, &run.threshold, &run.one_is_high,
        &run.cal_separation);
    run.elapsed = window * payload.size();
    run.rx_metric.assign(
        means.begin() + static_cast<std::ptrdiff_t>(calibration.size()),
        means.end());
    return run;
  }
};

// ------------------------------------------------------------------------
// cloud_noisy_neighbor
// ------------------------------------------------------------------------

struct PhaseResult {
  double victim_gbps = 0;
  double mean_rtt_us = 0;
  double p99_rtt_us = 0;
  std::uint64_t victim_ops = 0;
  fabric::SwitchStats sw;
};

// One rack: victim client (h0), two hog clients (h1, h2), one shared server
// (h3), all behind a single ToR.  The hogs' 2-into-1 incast toward the
// server backs the ToR's shared pool up past the PFC watermark, pausing
// every host on the rack — the victim included — and queueing the victim's
// requests behind megabytes of hog traffic.
PhaseResult run_phase(std::uint64_t seed, bool hog_on, double hog_cap_gbps,
                      sim::SimDur measure, std::size_t shards = 0) {
  sim::Engine eng(sim::Engine::Options{static_cast<std::uint32_t>(shards),
                                       sim::kMillisecond});
  // Host i -> shard i % N (round-robin; the ToR rides with the victim).
  // The placement only exists in windowed mode, where output is identical
  // for every shard count; shards = 0 is the legacy golden path.
  const auto place = [&](std::size_t i) {
    return shards == 0 ? sim::ShardId{0}
                       : static_cast<sim::ShardId>(i % shards);
  };
  sim::Xoshiro256 rng(seed);
  const rnic::DeviceProfile prof = rnic::make_profile(rnic::DeviceModel::kCX5);
  fabric::Topology::Builder b(eng);
  const auto victim_h = b.add_host(prof, rng.fork(), place(0));
  const auto hog1_h = b.add_host(prof, rng.fork(), place(1));
  const auto hog2_h = b.add_host(prof, rng.fork(), place(2));
  const auto server_h = b.add_host(prof, rng.fork(), place(3));
  fabric::SwitchSpec tor_spec;
  tor_spec.buffer_bytes = 512u << 10;
  tor_spec.pfc_xoff_bytes = 128u << 10;
  tor_spec.pfc_xon_bytes = 64u << 10;
  const auto tor = b.add_switch(tor_spec, place(0));
  const auto access = fabric::LinkSpec::symmetric(sim::ns(250), 100.0);
  for (rnic::NodeId h : {victim_h, hog1_h, hog2_h, server_h}) {
    b.link(fabric::NodeRef::host(h), fabric::NodeRef::sw(tor), access);
  }
  std::unique_ptr<fabric::Topology> topo = b.build();

  std::vector<std::unique_ptr<verbs::Context>> ctx;
  for (rnic::NodeId h : {victim_h, hog1_h, hog2_h, server_h}) {
    ctx.push_back(std::make_unique<verbs::Context>(
        *topo, topo->host(h), "h" + std::to_string(h)));
  }
  verbs::Context& server = *ctx[3];

  // Transport retry armed everywhere: pool overflow during the hogs'
  // initial burst tail-drops real messages, and RC retransmission — not a
  // stranded WQE — is what real fabrics answer with.
  verbs::QpConfig qp;
  qp.max_send_wr = 64;
  qp.timeout = sim::us(500);
  qp.retry_cnt = 7;

  Conn victim = connect(*ctx[0], server, 1, qp);
  Conn hog1 = connect(*ctx[1], server, 1, qp);
  Conn hog2 = connect(*ctx[2], server, 1, qp);

  if (hog_cap_gbps > 0) {
    rnic::RuntimeConfig cfg = server.device().runtime_config();
    cfg.tenant_caps_gbps[ctx[1]->device().node()] = hog_cap_gbps;
    cfg.tenant_caps_gbps[ctx[2]->device().node()] = hog_cap_gbps;
    server.device().configure(cfg);
  }

  constexpr std::uint32_t kVictimBytes = 4u << 10;
  constexpr std::uint32_t kVictimDepth = 4;
  constexpr std::uint32_t kHogBytes = 64u << 10;
  constexpr std::uint32_t kHogDepth = 16;

  const sim::SimTime t0 = sim::us(200);  // warmup: hogs reach steady state
  const sim::SimTime t_end = t0 + measure;

  PhaseResult res;
  sim::SampleSet rtt;
  std::uint64_t victim_bytes = 0;
  bool victim_done = false;
  // One completion flag per hog, each written by exactly one actor: the
  // hogs live on different shards in windowed mode, so a shared counter
  // would be a data race.  Flags start "done" when the hogs never run.
  bool hog_done[2] = {!hog_on, !hog_on};

  auto victim_actor = [&]() -> sim::Task {
    for (std::uint32_t i = 0; i < kVictimDepth; ++i)
      post_one(victim, verbs::WrOpcode::kRdmaRead, kVictimBytes);
    verbs::Wc wc;
    while (eng.local_now() < t_end) {
      co_await victim.cq().wait(1);
      while (victim.cq().poll_one(&wc)) {
        if (wc.status == rnic::WcStatus::kSuccess && wc.completed_at >= t0 &&
            wc.completed_at < t_end) {
          rtt.add(sim::to_us(wc.latency()));
          victim_bytes += wc.byte_len;
          ++res.victim_ops;
        }
        if (eng.local_now() < t_end)
          post_one(victim, verbs::WrOpcode::kRdmaRead, kVictimBytes);
      }
    }
    victim_done = true;
  };

  auto hog_actor = [&](Conn& conn, bool* done) -> sim::Task {
    for (std::uint32_t i = 0; i < kHogDepth; ++i)
      post_one(conn, verbs::WrOpcode::kRdmaWrite, kHogBytes);
    verbs::Wc wc;
    while (eng.local_now() < t_end) {
      co_await conn.cq().wait(1);
      while (conn.cq().poll_one(&wc)) {
        if (eng.local_now() < t_end)
          post_one(conn, verbs::WrOpcode::kRdmaWrite, kHogBytes);
      }
    }
    *done = true;
  };

  eng.spawn(victim_actor(), place(0));
  if (hog_on) {
    eng.spawn(hog_actor(hog1, &hog_done[0]), place(1));
    eng.spawn(hog_actor(hog2, &hog_done[1]), place(2));
  }
  eng.run_while(
      [&] { return !victim_done || !hog_done[0] || !hog_done[1]; });

  res.victim_gbps =
      static_cast<double>(victim_bytes) * 8.0 / 1e9 / sim::to_sec(measure);
  res.mean_rtt_us = rtt.mean();
  res.p99_rtt_us = rtt.empty() ? 0.0 : rtt.percentile(99.0);
  res.sw = topo->switch_stats(tor);
  return res;
}

}  // namespace

RAGNAR_SCENARIO(cloud_bankrupt, "cloud",
                "covert channel through shared ToR uplink queueing between "
                "tenants on disjoint NICs",
                "48 payload bits, 40 us windows",
                "--full 240 payload bits, 40 us windows") {
  ctx.header(
      "cloud covert channel via shared switch queueing (Bankrupt)",
      "two racks, one 25 Gb/s uplink; tenant A modulates the tor0 uplink "
      "backlog, tenant B times 256 B probe READs across it; the tenants "
      "share no NIC, host, or memory — only the switch queue");

  const std::size_t payload_bits = ctx.full ? 240 : 48;
  const std::size_t calibration_bits = 16;
  const sim::SimDur window = sim::us(40);

  sim::Xoshiro256 rng(ctx.seed);
  const std::vector<int> payload = covert::random_bits(payload_bits, rng);

  BankruptRig rig(ctx.seed, ctx.shards);
  const covert::ChannelRun run =
      rig.transmit(payload, window, calibration_bits);
  const fabric::SwitchStats& sw = rig.topo->switch_stats(rig.tor0);

  std::printf("payload_bits=%zu window_us=%.0f calibration_bits=%zu\n",
              payload_bits, sim::to_us(window), calibration_bits);
  std::printf(
      "cal_separation_us=%.3f threshold_us=%.3f polarity=%s\n",
      run.cal_separation, run.threshold, run.one_is_high ? "1-high" : "1-low");
  std::printf("error_rate=%.4f raw_bps=%.1f effective_bps=%.1f\n",
              run.error_rate(), run.raw_bps(), run.effective_bps());
  std::printf(
      "tor0: forwarded=%llu fwd_mb=%.2f peak_buffer_kb=%.1f drops=%llu "
      "pause_events=%llu\n",
      static_cast<unsigned long long>(sw.forwarded),
      static_cast<double>(sw.fwd_bytes) / 1e6,
      static_cast<double>(sw.peak_buffer_bytes) / 1024.0,
      static_cast<unsigned long long>(sw.drops),
      static_cast<unsigned long long>(sw.pause_events));
  std::printf("channel=%s\n",
              run.effective_bps() > 0 ? "NONZERO-CAPACITY" : "dead");
  return 0;
}

RAGNAR_SCENARIO(cloud_noisy_neighbor, "cloud",
                "hog tenant incast exhausts shared ToR buffer; victim "
                "degradation vs per-tenant caps",
                "3 phases x 2 ms measure",
                "--full 3 phases x 10 ms measure") {
  ctx.header(
      "cloud noisy neighbor: shared-buffer exhaustion + tenant-cap defense",
      "one rack, 2-into-1 hog incast toward a shared server; the ToR's "
      "shared pool crosses the PFC watermark and pauses the whole rack; "
      "per-tenant caps at the server NIC (RxAdmission pacing) throttle the "
      "hogs end-to-end through ACK backpressure");

  const sim::SimDur measure = ctx.full ? sim::ms(10) : sim::ms(2);
  const double cap_gbps = 8.0;

  struct Phase {
    const char* name;
    bool hog_on;
    double cap;
  };
  const Phase phases[] = {
      {"baseline", false, 0.0},
      {"contended", true, 0.0},
      {"defended", true, cap_gbps},
  };

  std::printf(
      "%-10s %12s %12s %11s %11s %9s %7s %8s\n", "phase", "victim_gbps",
      "victim_ops", "mean_rtt_us", "p99_rtt_us", "pause_ev", "drops",
      "peak_kb");
  PhaseResult results[3];
  for (int i = 0; i < 3; ++i) {
    results[i] = run_phase(ctx.seed, phases[i].hog_on, phases[i].cap, measure,
                           ctx.shards);
    const PhaseResult& r = results[i];
    std::printf(
        "%-10s %12.3f %12llu %11.2f %11.2f %9llu %7llu %8.1f\n",
        phases[i].name, r.victim_gbps,
        static_cast<unsigned long long>(r.victim_ops), r.mean_rtt_us,
        r.p99_rtt_us, static_cast<unsigned long long>(r.sw.pause_events),
        static_cast<unsigned long long>(r.sw.drops),
        static_cast<double>(r.sw.peak_buffer_bytes) / 1024.0);
  }

  const double degraded =
      results[0].victim_gbps > 0
          ? results[1].victim_gbps / results[0].victim_gbps
          : 0.0;
  const double restored =
      results[0].victim_gbps > 0
          ? results[2].victim_gbps / results[0].victim_gbps
          : 0.0;
  std::printf(
      "victim retained %.1f%% of baseline under contention; caps at "
      "%.0f Gb/s/tenant restore it to %.1f%%\n",
      100.0 * degraded, cap_gbps, 100.0 * restored);
  std::printf("defense=%s\n",
              restored > degraded ? "PARTIAL-RESTORE" : "ineffective");
  return 0;
}
