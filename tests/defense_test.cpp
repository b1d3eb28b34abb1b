#include <gtest/gtest.h>

#include "covert/uli_channel.hpp"
#include "defense/enforcer.hpp"
#include "defense/harmonic.hpp"
#include "defense/mitigation.hpp"
#include "revng/flow.hpp"
#include "revng/testbed.hpp"

namespace ragnar::defense {
namespace {

TEST(Harmonic, FlagsGrain2AvailabilityAttack) {
  // A Zhang/Kong-style flood: one tenant hammering tiny writes at full rate.
  revng::Testbed bed(rnic::DeviceModel::kCX4, 61, 1);
  HarmonicPolicy policy;
  HarmonicMonitor mon(bed.sched(), bed.server().device(), sim::ms(1), policy);
  mon.start();

  revng::FlowSpec flood;
  flood.opcode = verbs::WrOpcode::kRdmaWrite;
  flood.msg_size = 64;
  flood.qp_num = 4;
  flood.depth_per_qp = 16;
  flood.duration = sim::ms(4);
  revng::Flow f(bed, 0, flood);
  bed.sched().run_while([&] { return !f.finished(); });

  const auto attacker = bed.client(0).device().node();
  EXPECT_TRUE(mon.ever_flagged(attacker));
  EXPECT_GT(mon.flag_rate(attacker), 0.5);
}

TEST(Harmonic, FlagsAtomicFlood) {
  revng::Testbed bed(rnic::DeviceModel::kCX4, 62, 1);
  HarmonicMonitor mon(bed.sched(), bed.server().device(), sim::ms(1));
  mon.start();
  revng::FlowSpec flood;
  flood.opcode = verbs::WrOpcode::kFetchAdd;
  flood.qp_num = 4;
  flood.depth_per_qp = 16;
  flood.duration = sim::ms(4);
  revng::Flow f(bed, 0, flood);
  bed.sched().run_while([&] { return !f.finished(); });
  EXPECT_TRUE(mon.ever_flagged(bed.client(0).device().node()));
}

TEST(Harmonic, DoesNotFlagModerateBenignTraffic) {
  revng::Testbed bed(rnic::DeviceModel::kCX4, 63, 1);
  HarmonicMonitor mon(bed.sched(), bed.server().device(), sim::ms(1));
  mon.start();
  // A moderate tenant: 4 KB reads, shallow queue — roughly 10 Gb/s on CX-4,
  // under the fair-share cap.
  revng::FlowSpec benign;
  benign.opcode = verbs::WrOpcode::kRdmaRead;
  benign.msg_size = 4096;
  benign.qp_num = 1;
  benign.depth_per_qp = 2;
  benign.duration = sim::ms(4);
  revng::Flow f(bed, 0, benign);
  bed.sched().run_while([&] { return !f.finished(); });
  EXPECT_FALSE(mon.ever_flagged(bed.client(0).device().node()));
}

TEST(Harmonic, EnforcementThrottlesAndLifts) {
  // The isolation loop end to end: a flood gets throttled within a window,
  // a victim recovers, and the throttle lifts after clean windows.
  revng::Testbed bed(rnic::DeviceModel::kCX4, 67, 2);
  HarmonicPolicy policy;
  policy.grain2_stream_mpps_cap = 1.0;  // flag the flood in its first window
  HarmonicMonitor mon(bed.sched(), bed.server().device(), sim::ms(1), policy);
  Enforcer enf{EnforcerPolicy{/*throttle_gbps=*/2.0,
                              /*clean_windows_to_lift=*/2}};
  enf.attach(&bed.server().device().control());
  mon.attach_enforcer(&enf);
  mon.start();

  revng::FlowSpec flood;
  flood.opcode = verbs::WrOpcode::kRdmaWrite;
  flood.msg_size = 64;
  flood.qp_num = 4;
  flood.depth_per_qp = 16;
  flood.duration = sim::ms(4);
  revng::FlowSpec victim;
  victim.opcode = verbs::WrOpcode::kRdmaRead;
  victim.msg_size = 1024;
  victim.qp_num = 1;
  victim.depth_per_qp = 4;
  victim.duration = sim::ms(8);  // outlives the flood

  revng::Flow attacker(bed, 0, flood);
  revng::Flow v(bed, 1, victim);
  const auto attacker_node = bed.client(0).device().node();

  // Run past the first monitoring window: the flood must be throttled.
  bed.sched().run_until(sim::ms(3));
  EXPECT_TRUE(mon.currently_throttled(attacker_node));
  EXPECT_GT(bed.server().device().tenant_cap_gbps(attacker_node), 0.0);

  // Finish everything; the flood ends at 4 ms, so after 2 clean windows the
  // throttle must be gone.
  bed.sched().run_while([&] { return !(attacker.finished() && v.finished()); });
  bed.sched().run_until(bed.sched().now() + sim::ms(4));
  EXPECT_FALSE(mon.currently_throttled(attacker_node));
  EXPECT_EQ(bed.server().device().tenant_cap_gbps(attacker_node), 0.0);

  // The throttle bit: the flood achieved far less than its unthrottled rate.
  EXPECT_LT(attacker.achieved_gbps(), 4.0);
}

TEST(Enforcer, HysteresisAppliesOnceAndLiftsThroughControlPort) {
  // The enforcement seam in isolation: verdicts in, cap transitions out on
  // a live device port, with the clean-window lift ladder in between.
  revng::Testbed bed(rnic::DeviceModel::kCX4, 68, 1);
  rnic::ControlPort& port = bed.server().device().control();
  const rnic::NodeId attacker = bed.client(0).device().node();

  EnforcerPolicy pol;
  pol.throttle_gbps = 2.0;
  pol.clean_windows_to_lift = 3;
  Enforcer enf(pol);
  enf.attach(&port);
  ASSERT_EQ(enf.ports(), 1u);

  const auto flagged = [&](sim::SimTime at, VerdictSource source) {
    Verdict v;
    v.src = attacker;
    v.at = at;
    v.source = source;
    v.grain2 = true;
    v.score = 9.0;
    return v;
  };

  // Window 1: both detector generations flag the same tenant through the
  // one seam — exactly one cap transition reaches the port.
  enf.observe(flagged(sim::ms(1), VerdictSource::kHarmonic));
  enf.observe(flagged(sim::ms(1), VerdictSource::kOnline));
  enf.close_window(sim::ms(1));
  EXPECT_TRUE(enf.throttled(attacker));
  EXPECT_EQ(enf.actions_applied(), 1u);
  EXPECT_EQ(port.snapshot().cap_for(attacker), 2.0);
  EXPECT_EQ(port.snapshot().caps_applied, 1u);

  // Window 2: still flagged — the clean run resets, the cap stays, and no
  // redundant apply hits the port.
  enf.observe(flagged(sim::ms(2), VerdictSource::kHarmonic));
  enf.close_window(sim::ms(2));
  EXPECT_EQ(enf.actions_applied(), 1u);
  EXPECT_EQ(port.snapshot().caps_applied, 1u);

  // Windows 3-4: one clean verdict, then total silence.  Both age the
  // throttle toward lift; neither lifts it yet.
  Verdict clean;
  clean.src = attacker;
  clean.at = sim::ms(3);
  enf.observe(clean);
  enf.close_window(sim::ms(3));
  enf.close_window(sim::ms(4));  // silent tenant still ages
  EXPECT_TRUE(enf.throttled(attacker));
  EXPECT_EQ(enf.actions_lifted(), 0u);

  // Window 5: the third clean window lifts the cap on the live port.
  enf.close_window(sim::ms(5));
  EXPECT_FALSE(enf.throttled(attacker));
  EXPECT_EQ(enf.actions_lifted(), 1u);
  EXPECT_EQ(port.snapshot().cap_for(attacker), 0.0);
  EXPECT_EQ(port.snapshot().caps_cleared, 1u);

  // Bookkeeping the scenarios print: 4 verdicts seen, 3 of them flagged.
  EXPECT_EQ(enf.verdicts_observed(), 4u);
  EXPECT_EQ(enf.verdicts_flagged(), 3u);
  EXPECT_EQ(enf.windows_closed(), 5u);
  EXPECT_EQ(enf.last_window_at(), sim::ms(5));
}

// The paper's core defense claim (section VII): HARMONIC's Grain-I/II/III
// counters do not catch the Grain-III/IV Ragnar channels.
class HarmonicVsRagnar
    : public ::testing::TestWithParam<covert::UliChannelKind> {};

TEST_P(HarmonicVsRagnar, CovertChannelStaysUnderTheRadar) {
  auto cfg = covert::UliChannelConfig::best_for(rnic::DeviceModel::kCX4,
                                                GetParam(), 64);
  cfg.ambient_intensity = 0;
  covert::UliCovertChannel ch(cfg);

  sim::Xoshiro256 rng(65);
  const auto payload = covert::random_bits(64, rng);

  // Attach the monitor to the channel's server device.
  HarmonicMonitor mon(ch.scheduler(), ch.server_device(), sim::ms(1));
  mon.start();
  const auto run = ch.transmit(payload);
  EXPECT_LT(run.error_rate(), 0.05);

  // Neither the covert sender (client 0) nor receiver (client 1) trips any
  // grain's policy.
  EXPECT_FALSE(mon.ever_flagged(ch.tx_node()));
  EXPECT_FALSE(mon.ever_flagged(ch.rx_node()));
}

INSTANTIATE_TEST_SUITE_P(BothKinds, HarmonicVsRagnar,
                         ::testing::Values(covert::UliChannelKind::kInterMr,
                                           covert::UliChannelKind::kIntraMr));

TEST(NoiseMitigation, DegradesChannelAndCostsBenignLatency) {
  // Section VII: "sub-microsecond noise ... may still leave detectable
  // traces; adding full noise for complete masking results in significant
  // performance degradation".  800 ns must NOT kill the channel; 8 us must.
  const std::vector<sim::SimDur> levels{0, sim::ns(800), sim::us(8)};
  const auto points =
      sweep_noise_mitigation(rnic::DeviceModel::kCX4, 66, levels, 64);
  ASSERT_EQ(points.size(), 3u);
  EXPECT_LT(points[1].channel_error, 0.25);  // sub-us noise: still detectable
  EXPECT_GT(points[2].channel_error, 0.25);  // full noise: channel collapses
  // Full noise costs benign tenants dearly: +~4 us on a ~3 us READ.
  EXPECT_GT(points[2].benign_mean_latency_ns,
            points[0].benign_mean_latency_ns * 1.5);
}

}  // namespace
}  // namespace ragnar::defense
