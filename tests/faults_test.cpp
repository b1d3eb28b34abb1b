#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "covert/framing.hpp"
#include "covert/priority_channel.hpp"
#include "fabric/topology.hpp"
#include "faults/faults.hpp"
#include "revng/testbed.hpp"
#include "sim/concurrency.hpp"
#include "sim/engine.hpp"
#include "verbs/context.hpp"

namespace ragnar::faults {
namespace {

// ---------------------------------------------------------------------------
// FaultInjector unit tests
// ---------------------------------------------------------------------------

LinkHop hop(LinkId link, bool reverse = false) {
  LinkHop h;
  h.link = link;
  h.reverse = reverse;
  return h;
}

TEST(FaultInjector, DisabledPlanDeliversEverything) {
  FaultInjector inj{FaultPlan{}, 1};
  for (int i = 0; i < 100; ++i) {
    const Decision d = inj.decide(hop(0), 0, sim::us(i));
    EXPECT_EQ(d.verdict, Verdict::kDeliver);
    EXPECT_EQ(d.extra_delay, 0);
  }
  EXPECT_EQ(inj.stats().delivered, 100u);
  EXPECT_EQ(inj.stats().total_lost(), 0u);
}

TEST(FaultInjector, SameSeedYieldsSameVerdicts) {
  const FaultPlan plan = FaultPlan::bursty_loss(0.10, sim::us(500), 42);
  FaultInjector a{plan, 1}, b{plan, 1};
  for (int i = 0; i < 5000; ++i) {
    const sim::SimTime t = sim::us(i);
    EXPECT_EQ(static_cast<int>(a.decide(hop(0), 0, t).verdict),
              static_cast<int>(b.decide(hop(0), 0, t).verdict))
        << "diverged at message " << i;
  }
  EXPECT_EQ(a.stats().dropped, b.stats().dropped);
  EXPECT_EQ(a.stats().ge_bad_steps, b.stats().ge_bad_steps);
}

TEST(FaultInjector, UniformLossHitsConfiguredRate) {
  FaultInjector inj{FaultPlan::uniform_loss(0.3, 7), 1};
  for (int i = 0; i < 10000; ++i) inj.decide(hop(0), 0, sim::us(i));
  EXPECT_NEAR(inj.stats().loss_rate(), 0.3, 0.03);
}

TEST(FaultInjector, GilbertElliottLossComesInBursts) {
  // Same long-run loss, two shapes: independent drops vs a burst chain.
  // The burst chain must produce long consecutive-drop runs; independent
  // drops at 10% essentially never run 50 deep.
  const int kMsgs = 50000;
  auto max_drop_run = [&](FaultInjector& inj) {
    int run = 0, best = 0;
    for (int i = 0; i < kMsgs; ++i) {
      if (inj.decide(hop(0), 0, sim::us(i)).verdict != Verdict::kDeliver) {
        best = std::max(best, ++run);
      } else {
        run = 0;
      }
    }
    return best;
  };
  FaultInjector bursty{FaultPlan::bursty_loss(0.10, sim::us(500), 11), 1};
  FaultInjector uniform{FaultPlan::uniform_loss(0.10, 11), 1};
  EXPECT_GE(max_drop_run(bursty), 50);
  EXPECT_LT(max_drop_run(uniform), 50);
  // Dwell accounting: the chain spent roughly the target fraction of time
  // in the bad state (loose bounds; one trajectory, not an ensemble).
  EXPECT_GT(bursty.stats().outage_fraction(), 0.03);
  EXPECT_LT(bursty.stats().outage_fraction(), 0.30);
}

TEST(FaultInjector, FlapWindowIsDeterministic) {
  FaultPlan plan;
  plan.enabled = true;
  plan.flaps.push_back({sim::us(10), sim::us(20)});
  FaultInjector inj{plan, 1};
  EXPECT_EQ(inj.decide(hop(0), 0, sim::us(5)).verdict, Verdict::kDeliver);
  EXPECT_EQ(inj.decide(hop(0), 0, sim::us(10)).verdict, Verdict::kFlapDrop);
  EXPECT_EQ(inj.decide(hop(0), 0, sim::us(15)).verdict, Verdict::kFlapDrop);
  EXPECT_EQ(inj.decide(hop(0), 0, sim::us(20)).verdict, Verdict::kDeliver);
  EXPECT_EQ(inj.stats().flap_dropped, 2u);
}

TEST(FaultInjector, TenantScopingSparesBystanders) {
  FaultPlan plan = FaultPlan::uniform_loss(1.0, 3);
  plan.scoped_tenants = {3};
  FaultInjector inj{plan, 1};
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(inj.decide(hop(0), /*requester=*/3, sim::us(i)).verdict,
              Verdict::kDrop);
    EXPECT_EQ(inj.decide(hop(0), /*requester=*/2, sim::us(i)).verdict,
              Verdict::kDeliver);
  }
  EXPECT_EQ(inj.stats().dropped, 20u);
  EXPECT_EQ(inj.stats().delivered, 20u);
}

// ---------------------------------------------------------------------------
// LinkId keying: overrides and Gilbert-Elliott chains address physical
// hops, not endpoint pairs.
// ---------------------------------------------------------------------------

TEST(FaultInjectorLinks, DirectionsKeepIndependentChains) {
  // The two directions of one link (requests and replies) are separate
  // Gilbert-Elliott chains.  With an absorbing good state each chain's
  // step count advances on its own first consultation, and re-consulting
  // the same direction at the same time adds nothing.
  FaultPlan plan;
  plan.enabled = true;
  plan.gilbert = true;
  plan.ge_p_good_to_bad = 0;  // absorbing good state: no RNG noise
  plan.ge_loss_good = 0;
  FaultInjector inj{plan, 4};

  EXPECT_EQ(inj.decide(hop(3, false), 0, sim::us(5)).verdict,
            Verdict::kDeliver);
  EXPECT_EQ(inj.stats().ge_steps, 5u);
  EXPECT_EQ(inj.decide(hop(3, true), 0, sim::us(5)).verdict,
            Verdict::kDeliver);
  // The reverse chain advanced its own 5 steps — it did not share the
  // forward chain's clock.
  EXPECT_EQ(inj.stats().ge_steps, 10u);
  // Same direction, same time: the chain is already at us(5); no advance.
  EXPECT_EQ(inj.decide(hop(3, false), 0, sim::us(5)).verdict,
            Verdict::kDeliver);
  EXPECT_EQ(inj.stats().ge_steps, 10u);
}

TEST(FaultInjectorLinks, LinkOverrideAppliesOnlyToItsLink) {
  FaultPlan plan;
  plan.enabled = true;  // defaults: no loss anywhere
  LinkFaultOverride lo;
  lo.link = 4;
  lo.drop_p = 1.0;  // ... except link 4
  plan.link_fault_overrides.push_back(lo);
  FaultInjector inj{plan, 10};

  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(inj.decide(hop(4), 0, sim::us(i)).verdict, Verdict::kDrop);
    EXPECT_EQ(inj.decide(hop(9), 0, sim::us(i)).verdict, Verdict::kDeliver);
  }
  EXPECT_EQ(inj.stats().dropped, 10u);
  EXPECT_EQ(inj.stats().delivered, 10u);
}

TEST(FaultInjectorLinks, LinkOverrideOverridesPlanDefaults) {
  FaultPlan plan;
  plan.enabled = true;
  plan.drop_p = 1.0;  // default: drop everything
  LinkFaultOverride lo;
  lo.link = 4;
  lo.drop_p = 0.0;  // ... except link 4, which is clean
  plan.link_fault_overrides.push_back(lo);
  FaultInjector inj{plan, 10};

  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(inj.decide(hop(4), 0, sim::us(i)).verdict, Verdict::kDeliver);
    EXPECT_EQ(inj.decide(hop(9), 0, sim::us(i)).verdict, Verdict::kDrop);
  }
  EXPECT_EQ(inj.stats().dropped, 10u);
  EXPECT_EQ(inj.stats().delivered, 10u);
}

TEST(FaultInjector, CorruptionIsCountedSeparately) {
  FaultPlan plan;
  plan.enabled = true;
  plan.corrupt_p = 1.0;
  FaultInjector inj{plan, 1};
  EXPECT_EQ(inj.decide(hop(0), 0, 0).verdict, Verdict::kCorrupt);
  EXPECT_EQ(inj.stats().corrupted, 1u);
  EXPECT_EQ(inj.stats().dropped, 0u);
  EXPECT_EQ(inj.stats().total_lost(), 1u);
}

TEST(FaultInjector, ReorderDelaysButDelivers) {
  FaultPlan plan;
  plan.enabled = true;
  plan.reorder_p = 1.0;
  plan.reorder_delay_max = sim::us(5);
  FaultInjector inj{plan, 1};
  for (int i = 0; i < 50; ++i) {
    const Decision d = inj.decide(hop(0), 0, sim::us(i));
    EXPECT_EQ(d.verdict, Verdict::kDeliver);
    EXPECT_LE(d.extra_delay, sim::us(5));
  }
  EXPECT_EQ(inj.stats().reordered, 50u);
  EXPECT_EQ(inj.stats().delivered, 50u);
}

// ---------------------------------------------------------------------------
// Fabric + verbs reliability integration
// ---------------------------------------------------------------------------

struct FaultFixture : public ::testing::Test {
  revng::Testbed bed{rnic::DeviceModel::kCX5, 901, 1};

  revng::Testbed::Connection connect_with(const verbs::QpConfig& cfg) {
    return bed.connect(0, 1, cfg, 1u << 16);
  }

  static verbs::SendWr write_wr(const revng::Testbed::Connection& conn,
                                const verbs::MemoryRegion& server_mr,
                                std::uint64_t wr_id) {
    verbs::SendWr w;
    w.wr_id = wr_id;
    w.opcode = verbs::WrOpcode::kRdmaWrite;
    w.local_addr = conn.client_mr->addr();
    w.length = 256;
    w.remote_addr = server_mr.addr();
    w.rkey = server_mr.rkey();
    return w;
  }
};

TEST_F(FaultFixture, LossyFabricStrandsWqeWithoutRetry) {
  // timeout = 0 keeps the transport timer unarmed: a dropped request means
  // the WQE never completes (the pre-reliability failure mode).
  faults::FaultPlan plan = FaultPlan::uniform_loss(1.0, 5);
  bed.fabric().set_fault_plan(plan);
  auto conn = connect_with(verbs::QpConfig{});
  auto server_mr = conn.server_pd->register_mr(1 << 16);

  ASSERT_EQ(conn.qp().post_send(write_wr(conn, *server_mr, 1)),
            verbs::PostResult::kOk);
  bed.sched().run_until_idle();
  verbs::Wc wc;
  EXPECT_FALSE(conn.cq().poll_one(&wc));
  EXPECT_GE(bed.fabric().fault_stats().dropped, 1u);

  // modify_to_error recovers the stranded WQE as a flush completion.
  conn.qp().modify_to_error();
  ASSERT_TRUE(conn.cq().poll_one(&wc));
  EXPECT_EQ(wc.status, rnic::WcStatus::kWrFlushErr);
  EXPECT_EQ(conn.qp().state(), verbs::QpState::kErr);
}

TEST_F(FaultFixture, DroppedRequestIsRetriedToSuccess) {
  // A link flap swallows the first transmission; the transport retry timer
  // fires after the flap has cleared and the retransmission succeeds.
  faults::FaultPlan plan;
  plan.enabled = true;
  plan.flaps.push_back({0, sim::us(20)});
  bed.fabric().set_fault_plan(plan);

  verbs::QpConfig cfg;
  cfg.timeout = sim::us(50);
  cfg.retry_cnt = 7;
  auto conn = connect_with(cfg);
  auto server_mr = conn.server_pd->register_mr(1 << 16);
  std::memset(conn.client_mr->data(), 0xab, 256);

  ASSERT_EQ(conn.qp().post_send(write_wr(conn, *server_mr, 9)),
            verbs::PostResult::kOk);
  ASSERT_TRUE(conn.cq().run_until_available(1));
  verbs::Wc wc;
  ASSERT_TRUE(conn.cq().poll_one(&wc));
  EXPECT_EQ(wc.status, rnic::WcStatus::kSuccess);
  EXPECT_EQ(wc.wr_id, 9u);
  EXPECT_EQ(server_mr->data()[0], 0xab);

  const verbs::QpReliabilityStats& rs = conn.qp().reliability();
  EXPECT_EQ(rs.timeouts, 1u);
  EXPECT_EQ(rs.retransmits, 1u);
  EXPECT_GE(bed.fabric().fault_stats().flap_dropped, 1u);
  EXPECT_EQ(conn.qp().state(), verbs::QpState::kRts);
}

TEST_F(FaultFixture, RetryExhaustionFailsWqeAndFlushesQueue) {
  // The link never comes back: retry_cnt retransmissions burn down, the
  // failing WQE completes with RETRY_EXC_ERR, the QP drops to SQE, and the
  // rest of the send queue flushes.
  faults::FaultPlan plan;
  plan.enabled = true;
  plan.flaps.push_back({0, sim::ms(100)});
  bed.fabric().set_fault_plan(plan);

  verbs::QpConfig cfg;
  cfg.timeout = sim::us(10);
  cfg.retry_cnt = 2;
  auto conn = connect_with(cfg);
  auto server_mr = conn.server_pd->register_mr(1 << 16);

  ASSERT_EQ(conn.qp().post_send(write_wr(conn, *server_mr, 1)),
            verbs::PostResult::kOk);
  ASSERT_EQ(conn.qp().post_send(write_wr(conn, *server_mr, 2)),
            verbs::PostResult::kOk);
  ASSERT_TRUE(conn.cq().run_until_available(2));

  verbs::Wc first, second;
  ASSERT_TRUE(conn.cq().poll_one(&first));
  ASSERT_TRUE(conn.cq().poll_one(&second));
  EXPECT_EQ(first.wr_id, 1u);
  EXPECT_EQ(first.status, rnic::WcStatus::kRetryExcError);
  EXPECT_EQ(second.wr_id, 2u);
  EXPECT_EQ(second.status, rnic::WcStatus::kWrFlushErr);

  EXPECT_EQ(conn.qp().state(), verbs::QpState::kSqe);
  const verbs::QpReliabilityStats& rs = conn.qp().reliability();
  // retry_cnt exhausted on the first WQE; the second may also have burned
  // retries while in flight before the flush caught it.
  EXPECT_GE(rs.retransmits, 2u);
  EXPECT_GE(rs.flushed, 1u);

  // SQE rejects further sends until the QP is reset (not modeled) ...
  EXPECT_EQ(conn.qp().post_send(write_wr(conn, *server_mr, 3)),
            verbs::PostResult::kQpError);
  // ... but the receive side of SQE stays usable per the IB spec split
  // between SQE and ERR.
  verbs::RecvWr rwr;
  rwr.local_addr = conn.client_mr->addr();
  rwr.length = 64;
  EXPECT_EQ(conn.qp().post_recv(rwr), verbs::PostResult::kOk);
}

TEST_F(FaultFixture, RnrNakRetriesAfterBackoffAndSucceeds) {
  // SEND into a bare receive queue draws an RNR NAK; the responder posts a
  // buffer during the backoff window and the RNR retry lands.
  verbs::QpConfig cfg;
  cfg.rnr_retry = 3;
  cfg.min_rnr_timer = sim::us(10);
  auto conn = connect_with(cfg);
  auto server_buf = conn.server_pd->register_mr(1 << 16);
  verbs::QueuePair& server_qp = *conn.server_qps.at(0);

  const char msg[] = "retry me";
  std::memcpy(conn.client_mr->data(), msg, sizeof msg);
  verbs::SendWr swr;
  swr.wr_id = 4;
  swr.opcode = verbs::WrOpcode::kSend;
  swr.local_addr = conn.client_mr->addr();
  swr.length = sizeof msg;
  ASSERT_EQ(conn.qp().post_send(swr), verbs::PostResult::kOk);

  bed.sched().after(sim::us(15), [&] {
    verbs::RecvWr rwr;
    rwr.wr_id = 70;
    rwr.local_addr = server_buf->addr();
    rwr.length = 256;
    ASSERT_EQ(server_qp.post_recv(rwr), verbs::PostResult::kOk);
  });

  ASSERT_TRUE(conn.cq().run_until_available(1));
  verbs::Wc wc;
  ASSERT_TRUE(conn.cq().poll_one(&wc));
  EXPECT_EQ(wc.status, rnic::WcStatus::kSuccess);
  EXPECT_EQ(conn.qp().state(), verbs::QpState::kRts);

  const verbs::QpReliabilityStats& rs = conn.qp().reliability();
  EXPECT_GE(rs.rnr_naks, 1u);
  EXPECT_GE(rs.rnr_retries, 1u);

  bed.sched().run_until_idle();
  verbs::Wc rwc;
  ASSERT_TRUE(conn.server_cq->poll_one(&rwc));
  EXPECT_EQ(rwc.status, rnic::WcStatus::kSuccess);
  EXPECT_STREQ(reinterpret_cast<const char*>(server_buf->data()), msg);
}

// ---------------------------------------------------------------------------
// Fault-tolerant covert framing vs raw decoding on the same lossy fabric
// ---------------------------------------------------------------------------

TEST(FramedCovert, FramingBeatsRawDecodingAtTwoPercentLoss) {
  // Deterministic ~2% loss: a 300 us link flap every 15 ms, stepped so the
  // outages drift across bit-window phases.  Raw decoding accumulates
  // residual bit errors above 1%; the framed path (per-segment resync +
  // outage erasures + interleaved Hamming) recovers the payload below 1%.
  auto flap_plan = [] {
    faults::FaultPlan plan;
    plan.enabled = true;
    plan.seed = 77;
    for (sim::SimTime t = sim::ms(5); t < sim::ms(450); t += sim::ms(15)) {
      plan.flaps.push_back({t, t + sim::us(300)});
    }
    return plan;
  };
  auto make_channel = [&] {
    covert::PriorityChannelConfig cfg;
    cfg.model = rnic::DeviceModel::kCX5;
    cfg.seed = 33;
    cfg.fault_plan = flap_plan();
    cfg.qp_timeout = sim::us(500);
    cfg.qp_retry_cnt = 7;
    return cfg;
  };
  sim::Xoshiro256 rng(33);
  const std::vector<int> data = covert::random_bits(56, rng);

  covert::PriorityCovertChannel raw_ch(make_channel());
  const covert::ChannelRun raw = raw_ch.transmit(data);

  covert::PriorityCovertChannel framed_ch(make_channel());
  const covert::FramedRun framed = covert::transmit_framed(
      [&framed_ch](const std::vector<int>& bits) {
        return framed_ch.transmit(bits);
      },
      data);

  EXPECT_GT(raw.error_rate(), 0.01);
  EXPECT_LT(framed.residual_error(), 0.01);
  EXPECT_GT(framed.codewords_corrected, 0u);
  // Both runs actually suffered injected loss and recovered via retries.
  EXPECT_GE(raw_ch.fault_stats().flap_dropped, 1u);
  EXPECT_GE(framed_ch.fault_stats().flap_dropped, 1u);
  EXPECT_GE(framed_ch.reliability_stats().retransmits, 1u);
}

// ---------------------------------------------------------------------------
// Per-link RNG streams: pinned verdicts and shard invariance
// ---------------------------------------------------------------------------

// Every directed link draws from its own seeded stream, so the verdict
// sequence depends only on (seed, link, that link's message order) — the
// property that lets an armed plan run with parallel shard windows.
TEST(FaultInjectorPerLink, VerdictsDependOnlyOnPerLinkOrder) {
  FaultPlan plan = FaultPlan::uniform_loss(0.3, 17);
  plan.reorder_p = 0.2;

  // Run A: strictly alternate links 0 and 1.  Run B: all of link 0's
  // messages first, then all of link 1's.  The two interleavings must give
  // every link the same verdicts.
  FaultInjector a{plan, 2}, b{plan, 2};
  std::vector<Verdict> a0, a1, b0, b1;
  for (int i = 0; i < 500; ++i) {
    a0.push_back(a.decide(hop(0), 0, sim::us(i)).verdict);
    a1.push_back(a.decide(hop(1), 0, sim::us(i)).verdict);
  }
  for (int i = 0; i < 500; ++i) {
    b0.push_back(b.decide(hop(0), 0, sim::us(i)).verdict);
  }
  for (int i = 0; i < 500; ++i) {
    b1.push_back(b.decide(hop(1), 0, sim::us(i)).verdict);
  }
  EXPECT_EQ(a0, b0);
  EXPECT_EQ(a1, b1);
  // The two links' streams are themselves decorrelated.
  EXPECT_NE(a0, a1);
  // Aggregated stats see every draw either way.
  EXPECT_EQ(a.stats().total_seen(), 1000u);
  EXPECT_EQ(a.stats().total_seen(), b.stats().total_seen());
  EXPECT_EQ(a.stats().dropped, b.stats().dropped);
}

// 64 decisions on each direction of links 0-3 under two plans, pinned to
// the values the per-directed-link streams give for these seeds.  Per-link
// drop counts catch a slip in seeding or in the (link << 1) | reverse slot
// index even where the totals would survive it.
TEST(FaultInjectorPerLink, PinnedVerdictsOnFourLinks) {
  struct Tally {
    std::vector<int> dropped;  // per directed link, (link << 1) | reverse
    FaultStats stats;
    sim::SimDur delay = 0;
  };
  const auto run = [](const FaultPlan& plan) {
    FaultInjector inj{plan, 4};
    Tally t;
    t.dropped.assign(8, 0);
    for (int i = 0; i < 64; ++i) {
      for (LinkId link = 0; link < 4; ++link) {
        for (bool reverse : {false, true}) {
          const Decision d = inj.decide(hop(link, reverse), 0, sim::us(i));
          if (d.verdict == Verdict::kDrop) ++t.dropped[(link << 1) | reverse];
          t.delay += d.extra_delay;
        }
      }
    }
    t.stats = inj.stats();
    return t;
  };

  FaultPlan uniform = FaultPlan::uniform_loss(0.3, 17);
  uniform.reorder_p = 0.2;
  const Tally u = run(uniform);
  EXPECT_EQ(u.dropped, (std::vector<int>{15, 23, 21, 18, 18, 20, 24, 16}));
  EXPECT_EQ(u.stats.dropped, 155u);
  EXPECT_EQ(u.stats.corrupted, 0u);
  EXPECT_EQ(u.stats.reordered, 78u);
  EXPECT_EQ(u.stats.delivered, 357u);
  EXPECT_EQ(u.delay, 194186418);

  FaultPlan bursty = FaultPlan::bursty_loss(0.1, sim::us(8), 23);
  bursty.corrupt_p = 0.05;
  bursty.reorder_p = 0.1;
  const Tally b = run(bursty);
  EXPECT_EQ(b.dropped, (std::vector<int>{4, 12, 0, 0, 14, 7, 0, 6}));
  EXPECT_EQ(b.stats.dropped, 43u);
  EXPECT_EQ(b.stats.corrupted, 27u);
  EXPECT_EQ(b.stats.reordered, 32u);
  EXPECT_EQ(b.stats.delivered, 442u);
  EXPECT_EQ(b.stats.ge_steps, 504u);
  EXPECT_EQ(b.stats.ge_bad_steps, 42u);
  EXPECT_EQ(b.delay, 76419205);
}

namespace shard_invariance {

// Two racks, one 25G uplink, a direct h1-h3 link, a faulted fabric, and an
// open-loop burst of reliable WRITEs from each rack-0 host to its rack-1
// peer: h0 -> h2 crosses both switches, h1 -> h3 crosses shards on the
// direct link without touching a switch.  Returns everything observable:
// completion records, fault stats, bytes on the direct link, and the
// engine's worker count.
struct FabricRun {
  std::vector<std::tuple<std::uint64_t, int, sim::SimTime>> completions;
  faults::FaultStats stats;
  std::uint64_t direct_bytes = 0;
  unsigned workers = 0;
};

FabricRun run_faulted_fabric(std::size_t shards) {
  sim::Engine eng(sim::Engine::Options{static_cast<std::uint32_t>(shards),
                                       sim::kMillisecond});
  const auto rack1 = static_cast<sim::ShardId>(1 % shards);
  sim::Xoshiro256 rng(99);
  const rnic::DeviceProfile prof = rnic::make_profile(rnic::DeviceModel::kCX5);
  fabric::Topology::Builder b(eng);
  const auto h0 = b.add_host(prof, rng.fork(), 0);
  const auto h1 = b.add_host(prof, rng.fork(), 0);
  const auto h2 = b.add_host(prof, rng.fork(), rack1);
  const auto h3 = b.add_host(prof, rng.fork(), rack1);
  fabric::SwitchSpec tor;
  tor.name = "tor0";
  const auto tor0 = b.add_switch(tor, 0);
  fabric::SwitchSpec tor_b = tor;
  tor_b.name = "tor1";
  const auto tor1 = b.add_switch(tor_b, rack1);
  const auto access = fabric::LinkSpec::symmetric(sim::ns(250), 100.0);
  b.link(fabric::NodeRef::host(h0), fabric::NodeRef::sw(tor0), access)
      .link(fabric::NodeRef::host(h1), fabric::NodeRef::sw(tor0), access)
      .link(fabric::NodeRef::host(h2), fabric::NodeRef::sw(tor1), access)
      .link(fabric::NodeRef::host(h3), fabric::NodeRef::sw(tor1), access)
      .link(fabric::NodeRef::sw(tor0), fabric::NodeRef::sw(tor1),
            fabric::LinkSpec::symmetric(sim::ns(500), 25.0))
      .link(fabric::NodeRef::host(h1), fabric::NodeRef::host(h3),
            fabric::LinkSpec::symmetric(sim::ns(750)));
  auto topo = b.build();

  FaultPlan plan = FaultPlan::bursty_loss(0.05, sim::us(20), 5);
  plan.drop_p = 0.03;
  plan.corrupt_p = 0.01;
  plan.reorder_p = 0.05;
  topo->set_fault_plan(plan);

  std::vector<std::unique_ptr<verbs::Context>> ctx;
  for (rnic::NodeId h : {h0, h1, h2, h3}) {
    ctx.push_back(std::make_unique<verbs::Context>(
        *topo, topo->host(h), "h" + std::to_string(h)));
  }

  struct Conn {
    std::unique_ptr<verbs::ProtectionDomain> spd, dpd;
    std::unique_ptr<verbs::CompletionQueue> scq, dcq;
    std::unique_ptr<verbs::QueuePair> sqp, dqp;
    std::unique_ptr<verbs::MemoryRegion> smr, dmr;
  };
  verbs::QpConfig qp;
  qp.max_send_wr = 64;
  qp.timeout = sim::us(50);  // arm the transport retry timer
  const auto connect = [&qp](verbs::Context& src, verbs::Context& dst) {
    Conn c;
    c.spd = src.alloc_pd();
    c.dpd = dst.alloc_pd();
    c.scq = src.create_cq();
    c.dcq = dst.create_cq();
    c.smr = c.spd->register_mr(1u << 16);
    c.dmr = c.dpd->register_mr(1u << 16);
    c.sqp = c.spd->create_qp(*c.scq, qp);
    c.dqp = c.dpd->create_qp(*c.dcq, qp);
    EXPECT_EQ(c.sqp->connect(*c.dqp), verbs::ConnectResult::kOk);
    return c;
  };
  Conn c02 = connect(*ctx[0], *ctx[2]);
  Conn c13 = connect(*ctx[1], *ctx[3]);

  for (Conn* c : {&c02, &c13}) {
    for (std::uint64_t i = 0; i < 48; ++i) {
      verbs::SendWr wr;
      wr.wr_id = i;
      wr.opcode = verbs::WrOpcode::kRdmaWrite;
      wr.local_addr = c->smr->addr();
      wr.length = 1024;
      wr.remote_addr = c->dmr->addr();
      wr.rkey = c->dmr->rkey();
      EXPECT_EQ(c->sqp->post_send(wr), verbs::PostResult::kOk);
    }
  }

  FabricRun out;
  out.workers = eng.workers();
  eng.run_until(sim::ms(20));
  for (Conn* c : {&c02, &c13}) {
    verbs::Wc wc;
    while (c->scq->poll_one(&wc)) {
      out.completions.emplace_back(wc.wr_id, static_cast<int>(wc.status),
                                   wc.completed_at);
    }
  }
  out.stats = topo->fault_stats();
  out.direct_bytes = topo->link_bytes(
      topo->link_between(fabric::NodeRef::host(h1), fabric::NodeRef::host(h3)));
  return out;
}

}  // namespace shard_invariance

// An armed plan is byte-identical across shard counts, with the 2- and
// 3-shard runs on parallel workers whatever the host's core count.
TEST(FaultInjectorPerLink, ArmedPlanIsShardCountInvariant) {
  using shard_invariance::run_faulted_fabric;
  sim::ConcurrencyBudget::instance().set_total(4);
  const auto one = run_faulted_fabric(1);
  EXPECT_GT(one.stats.total_lost(), 0u) << "plan never fired";
  EXPECT_FALSE(one.completions.empty());
  EXPECT_GT(one.direct_bytes, 0u) << "h1 -> h3 bypassed the direct link";
  for (std::size_t shards : {2u, 3u}) {
    const auto many = run_faulted_fabric(shards);
    EXPECT_GT(many.workers, 1u) << shards << " shards";
    EXPECT_EQ(one.completions, many.completions) << shards << " shards";
    EXPECT_EQ(one.stats.delivered, many.stats.delivered) << shards;
    EXPECT_EQ(one.stats.dropped, many.stats.dropped) << shards;
    EXPECT_EQ(one.stats.corrupted, many.stats.corrupted) << shards;
    EXPECT_EQ(one.stats.flap_dropped, many.stats.flap_dropped) << shards;
    EXPECT_EQ(one.stats.reordered, many.stats.reordered) << shards;
    EXPECT_EQ(one.stats.ge_steps, many.stats.ge_steps) << shards;
    EXPECT_EQ(one.stats.ge_bad_steps, many.stats.ge_bad_steps) << shards;
    EXPECT_EQ(one.direct_bytes, many.direct_bytes) << shards;
  }
  sim::ConcurrencyBudget::instance().set_total(0);
}

}  // namespace
}  // namespace ragnar::faults
