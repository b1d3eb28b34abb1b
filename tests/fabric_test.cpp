#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "fabric/topology.hpp"
#include "rnic/device_profile.hpp"
#include "revng/testbed.hpp"
#include "sim/random.hpp"
#include "sim/engine.hpp"
#include "verbs/context.hpp"

namespace ragnar::fabric {
namespace {

// ---------------------------------------------------------------------------
// Harness: a verbs workload over an arbitrary topology, returning the exact
// completion-time sequence (the byte-order observable of the simulator).
// ---------------------------------------------------------------------------

struct Endpoints {
  std::unique_ptr<verbs::Context> src;
  std::unique_ptr<verbs::Context> dst;
  std::unique_ptr<verbs::ProtectionDomain> src_pd, dst_pd;
  std::unique_ptr<verbs::CompletionQueue> src_cq, dst_cq;
  std::vector<std::unique_ptr<verbs::QueuePair>> src_qps, dst_qps;
  std::unique_ptr<verbs::MemoryRegion> src_mr, dst_mr;
};

Endpoints wire(Topology& topo, rnic::NodeId a, rnic::NodeId b,
               std::size_t qp_count) {
  Endpoints e;
  e.src = std::make_unique<verbs::Context>(topo, topo.host(a), "src");
  e.dst = std::make_unique<verbs::Context>(topo, topo.host(b), "dst");
  e.src_pd = e.src->alloc_pd();
  e.dst_pd = e.dst->alloc_pd();
  e.src_cq = e.src->create_cq();
  e.dst_cq = e.dst->create_cq();
  e.src_mr = e.src_pd->register_mr(1u << 20);
  e.dst_mr = e.dst_pd->register_mr(1u << 20);
  for (std::size_t q = 0; q < qp_count; ++q) {
    e.src_qps.push_back(e.src_pd->create_qp(*e.src_cq));
    e.dst_qps.push_back(e.dst_pd->create_qp(*e.dst_cq));
    EXPECT_EQ(e.src_qps.back()->connect(*e.dst_qps.back()),
              verbs::ConnectResult::kOk);
  }
  return e;
}

// Post `ops` READs round-robin across the QPs and collect every completion
// timestamp in arrival order.
std::vector<sim::SimTime> run_reads(sim::Engine& engine, Endpoints& e,
                                    std::size_t ops, std::uint32_t bytes) {
  std::vector<sim::SimTime> completions;
  for (std::size_t i = 0; i < ops; ++i) {
    verbs::SendWr wr;
    wr.opcode = verbs::WrOpcode::kRdmaRead;
    wr.local_addr = e.src_mr->addr();
    wr.length = bytes;
    wr.remote_addr = e.dst_mr->addr();
    wr.rkey = e.dst_mr->rkey();
    EXPECT_EQ(e.src_qps[i % e.src_qps.size()]->post_send(wr),
              verbs::PostResult::kOk);
  }
  engine.run_until_idle();
  verbs::Wc wc;
  while (e.src_cq->poll_one(&wc)) {
    EXPECT_EQ(wc.status, rnic::WcStatus::kSuccess);
    completions.push_back(wc.completed_at);
  }
  return completions;
}

std::unique_ptr<Topology> one_switch_topology(sim::Engine& engine,
                                              std::uint64_t seed) {
  sim::Xoshiro256 rng(seed);
  const rnic::DeviceProfile prof = rnic::make_profile(rnic::DeviceModel::kCX5);
  Topology::Builder b(engine);
  const auto h0 = b.add_host(prof, rng.fork());
  const auto h1 = b.add_host(prof, rng.fork());
  b.add_switch({});
  b.link(NodeRef::host(h0), NodeRef::sw(0), LinkSpec::symmetric(sim::ns(250)))
      .link(NodeRef::host(h1), NodeRef::sw(0),
            LinkSpec::symmetric(sim::ns(250)));
  return b.build();
}

// Two racks, two parallel 25 Gb/s uplinks (the ECMP group).
std::unique_ptr<Topology> two_switch_ecmp_topology(sim::Engine& engine,
                                                   std::uint64_t seed) {
  sim::Xoshiro256 rng(seed);
  const rnic::DeviceProfile prof = rnic::make_profile(rnic::DeviceModel::kCX5);
  Topology::Builder b(engine);
  const auto h0 = b.add_host(prof, rng.fork());
  const auto h1 = b.add_host(prof, rng.fork());
  const auto tor0 = b.add_switch({});
  const auto tor1 = b.add_switch({});
  b.link(NodeRef::host(h0), NodeRef::sw(tor0),
         LinkSpec::symmetric(sim::ns(250)))
      .link(NodeRef::host(h1), NodeRef::sw(tor1),
            LinkSpec::symmetric(sim::ns(250)))
      .link(NodeRef::sw(tor0), NodeRef::sw(tor1),
            LinkSpec::symmetric(sim::ns(500), 25.0))
      .link(NodeRef::sw(tor0), NodeRef::sw(tor1),
            LinkSpec::symmetric(sim::ns(500), 25.0));
  return b.build();
}

// ---------------------------------------------------------------------------
// Determinism: same seed => byte-identical event order
// ---------------------------------------------------------------------------

TEST(TopologyDeterminism, OneSwitchReplaysIdentically) {
  std::vector<sim::SimTime> runs[2];
  for (auto& out : runs) {
    sim::Engine engine;
    auto topo = one_switch_topology(engine, 42);
    Endpoints e = wire(*topo, 0, 1, 4);
    out = run_reads(engine, e, 64, 4096);
  }
  ASSERT_EQ(runs[0].size(), 64u);
  EXPECT_EQ(runs[0], runs[1]);
}

TEST(TopologyDeterminism, TwoSwitchEcmpReplaysIdentically) {
  std::vector<sim::SimTime> runs[2];
  std::uint64_t uplink_bytes[2][2] = {};
  for (int r = 0; r < 2; ++r) {
    sim::Engine engine;
    auto topo = two_switch_ecmp_topology(engine, 42);
    Endpoints e = wire(*topo, 0, 1, 8);
    runs[r] = run_reads(engine, e, 64, 4096);
    const std::vector<LinkId> uplinks =
        topo->links_between(NodeRef::sw(0), NodeRef::sw(1));
    ASSERT_EQ(uplinks.size(), 2u);
    uplink_bytes[r][0] = topo->link_bytes(uplinks[0]);
    uplink_bytes[r][1] = topo->link_bytes(uplinks[1]);
  }
  ASSERT_EQ(runs[0].size(), 64u);
  EXPECT_EQ(runs[0], runs[1]);
  EXPECT_EQ(uplink_bytes[0][0], uplink_bytes[1][0]);
  EXPECT_EQ(uplink_bytes[0][1], uplink_bytes[1][1]);
}

TEST(TopologyDeterminism, EcmpSpreadsFlowsAcrossParallelUplinks) {
  sim::Engine engine;
  auto topo = two_switch_ecmp_topology(engine, 7);
  Endpoints e = wire(*topo, 0, 1, 8);
  run_reads(engine, e, 64, 4096);
  const std::vector<LinkId> uplinks =
      topo->links_between(NodeRef::sw(0), NodeRef::sw(1));
  ASSERT_EQ(uplinks.size(), 2u);
  // With 8 distinct flows (QPs) the hash must not collapse onto one uplink.
  EXPECT_GT(topo->link_bytes(uplinks[0]), 0u);
  EXPECT_GT(topo->link_bytes(uplinks[1]), 0u);
}

// ---------------------------------------------------------------------------
// Shared-buffer pool: PFC watermarks and tail drop
// ---------------------------------------------------------------------------

// Inject raw wire messages so pool arithmetic is exact.  The bogus rkey
// makes the responder NAK without touching memory; the NAK replies cross
// the switch long after the assertions run.
rnic::InFlightMsg synthetic_write(std::uint32_t bytes) {
  rnic::InFlightMsg msg;
  msg.op.op = rnic::Opcode::kWrite;
  msg.op.size = bytes;
  msg.op.rkey = 0xdead;  // unmapped: responder NAKs, no data touched
  msg.op.src_node = 0;
  msg.op.dst_node = 1;
  msg.op.src_qpn = 1;
  msg.wire_bytes = bytes;
  return msg;
}

std::unique_ptr<Topology> pool_test_topology(sim::Engine& engine,
                                             const SwitchSpec& spec) {
  sim::Xoshiro256 rng(3);
  const rnic::DeviceProfile prof = rnic::make_profile(rnic::DeviceModel::kCX5);
  Topology::Builder b(engine);
  const auto h0 = b.add_host(prof, rng.fork());
  const auto h1 = b.add_host(prof, rng.fork());
  b.add_switch(spec);
  // 1 Gb/s egress: 1000 B serialize in 8 us, so the pool drains slowly
  // enough to assert against intermediate states.
  b.link(NodeRef::host(h0), NodeRef::sw(0), LinkSpec::symmetric(sim::ns(250)))
      .link(NodeRef::host(h1), NodeRef::sw(0),
            LinkSpec::symmetric(sim::ns(250), 1.0));
  return b.build();
}

TEST(SwitchPool, PauseAssertsExactlyAtXoffAndReleasesOnDrain) {
  SwitchSpec spec;
  spec.buffer_bytes = 100000;
  spec.pfc_xoff_bytes = 5000;
  spec.pfc_xon_bytes = 2000;
  sim::Engine engine;
  auto topo = pool_test_topology(engine, spec);

  // Four 1000 B messages: pool at 4000 < xoff — no pause.
  for (int i = 0; i < 4; ++i) topo->transmit(synthetic_write(1000), 0);
  engine.run_until(sim::ns(600));
  EXPECT_EQ(topo->buffer_occupancy(0), 4000u);
  EXPECT_FALSE(topo->pause_asserted(0));
  EXPECT_EQ(topo->switch_stats(0).pause_events, 0u);

  // The fifth crossing 5000 >= xoff must assert pause on that enqueue.
  topo->transmit(synthetic_write(1000), sim::ns(100));
  engine.run_until(sim::ns(700));
  EXPECT_EQ(topo->buffer_occupancy(0), 5000u);
  EXPECT_TRUE(topo->pause_asserted(0));
  EXPECT_EQ(topo->switch_stats(0).pause_events, 1u);

  // Pause holds until the pool drains below xon (three messages out at
  // 8 us each), then releases; eventually the pool is empty.
  engine.run_until(sim::us(20));
  EXPECT_TRUE(topo->pause_asserted(0));
  engine.run_until(sim::us(35));
  EXPECT_FALSE(topo->pause_asserted(0));
  EXPECT_GT(topo->switch_stats(0).paused_total, 0);
  engine.run_until(sim::us(60));
  EXPECT_EQ(topo->buffer_occupancy(0), 0u);
  EXPECT_EQ(topo->switch_stats(0).peak_buffer_bytes, 5000u);
}

TEST(SwitchPool, OverflowTailDropsWhenPfcDisabled) {
  SwitchSpec spec;
  spec.buffer_bytes = 3000;
  spec.pfc_xoff_bytes = 0;  // PFC off: tail-drop only
  sim::Engine engine;
  auto topo = pool_test_topology(engine, spec);

  for (int i = 0; i < 5; ++i) topo->transmit(synthetic_write(1000), 0);
  engine.run_until(sim::ns(600));
  EXPECT_EQ(topo->buffer_occupancy(0), 3000u);
  EXPECT_EQ(topo->switch_stats(0).drops, 2u);
  EXPECT_EQ(topo->switch_stats(0).pause_events, 0u);
  EXPECT_FALSE(topo->pause_asserted(0));
}

// ---------------------------------------------------------------------------
// The Testbed mesh: direct host-host links
// ---------------------------------------------------------------------------

// Pinned timestamps from the pre-topology point-to-point fabric: a direct
// link must keep replaying the legacy event sequence bit-for-bit.  (These
// values were captured from the seed implementation, whose scenario goldens
// the Testbed reproduces byte-identically.)
TEST(FacadeEquivalence, LegacyGoldenTimestampsStillHold) {
  revng::Testbed bed(rnic::DeviceModel::kCX5, /*seed=*/7, /*clients=*/1);
  auto conn = bed.connect(0, /*qp_count=*/1, /*max_send_wr=*/16, /*tc=*/0);
  auto mr = conn.server_pd->register_mr(1u << 16);
  std::vector<sim::SimTime> completions;
  for (int i = 0; i < 4; ++i) {
    verbs::SendWr wr;
    wr.opcode = verbs::WrOpcode::kRdmaRead;
    wr.local_addr = conn.local_addr();
    wr.length = 4096;
    wr.remote_addr = mr->addr();
    wr.rkey = mr->rkey();
    ASSERT_EQ(conn.qp().post_send(wr), verbs::PostResult::kOk);
  }
  bed.sched().run_until_idle();
  verbs::Wc wc;
  while (conn.cq().poll_one(&wc)) completions.push_back(wc.completed_at);
  ASSERT_EQ(completions.size(), 4u);
  const std::vector<sim::SimTime> golden = {4493574, 5189174, 5884774,
                                            6580374};
  EXPECT_EQ(completions, golden);
}

// The Testbed wires server + clients as a switchless full mesh, each new
// host linked to every earlier one.  Fault plans and per-link RNG streams
// key on these LinkIds, so the order is pinned.
TEST(TestbedMesh, ShapeIsPairwiseDirectInHostOrder) {
  revng::Testbed bed(rnic::DeviceModel::kCX5, /*seed=*/1, /*clients=*/2);
  Topology& topo = bed.fabric();
  EXPECT_EQ(topo.host_count(), 3u);
  EXPECT_EQ(topo.switch_count(), 0u);
  EXPECT_EQ(topo.link_count(), 3u);
  EXPECT_EQ(topo.link_between(NodeRef::host(0), NodeRef::host(1)), 0u);
  EXPECT_EQ(topo.link_between(NodeRef::host(0), NodeRef::host(2)), 1u);
  EXPECT_EQ(topo.link_between(NodeRef::host(1), NodeRef::host(2)), 2u);
}

}  // namespace
}  // namespace ragnar::fabric
