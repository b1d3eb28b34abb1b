#include <gtest/gtest.h>

#include "covert/common.hpp"
#include "covert/priority_channel.hpp"
#include "covert/pythia_channel.hpp"
#include "covert/uli_channel.hpp"

namespace ragnar::covert {
namespace {

TEST(Framing, BitStringRoundTrip) {
  const std::string s = "1101111101010010";
  const auto bits = bits_from_string(s);
  ASSERT_EQ(bits.size(), 16u);
  EXPECT_EQ(bits_to_string(bits), s);
  EXPECT_EQ(bits[0], 1);
  EXPECT_EQ(bits[2], 0);
}

TEST(Framing, RandomBitsBalanced) {
  sim::Xoshiro256 rng(1);
  const auto bits = random_bits(10000, rng);
  int ones = 0;
  for (int b : bits) ones += b;
  EXPECT_NEAR(ones, 5000, 300);
}

TEST(ChannelRunTest, ErrorAccounting) {
  ChannelRun run;
  run.sent = {1, 0, 1, 1};
  run.received = {1, 1, 1, 1};
  run.elapsed = sim::ms(1);
  EXPECT_NEAR(run.error_rate(), 0.25, 1e-12);
  EXPECT_NEAR(run.raw_bps(), 4000.0, 1e-9);
  // Effective bandwidth uses 1 - H2(e).
  EXPECT_NEAR(run.effective_bps(), 4000.0 * (1.0 - sim::binary_entropy(0.25)),
              1e-6);
}

TEST(ChannelRunTest, MissingBitsCountAsErrors) {
  ChannelRun run;
  run.sent = {1, 0, 1, 0};
  run.received = {1, 0};
  EXPECT_NEAR(run.error_rate(), 0.5, 1e-12);
}

TEST(ThresholdDecoderTest, LearnsPolarityAndLevels) {
  // Calibration 10 windows alternating, then payload.
  std::vector<int> cal{0, 1, 0, 1, 0, 1, 0, 1, 0, 1};
  std::vector<double> means;
  for (int b : cal) means.push_back(b ? 5.0 : 1.0);
  for (int b : {1, 1, 0, 1, 0}) means.push_back(b ? 5.2 : 0.9);
  double thresh = 0;
  const auto decoded = ThresholdDecoder::decode(means, cal, &thresh);
  EXPECT_EQ(decoded, (std::vector<int>{1, 1, 0, 1, 0}));
  EXPECT_NEAR(thresh, 3.0, 1e-9);
}

TEST(ThresholdDecoderTest, InvertedPolarity) {
  // Here bit 1 LOWERS the metric; the decoder must learn that.
  std::vector<int> cal{0, 1, 0, 1};
  std::vector<double> means{9.0, 2.0, 9.1, 2.1, /*payload:*/ 2.0, 9.0};
  const auto decoded = ThresholdDecoder::decode(means, cal);
  EXPECT_EQ(decoded, (std::vector<int>{1, 0}));
}

TEST(ThresholdDecoderTest, MedianRobustToImpulse) {
  // One corrupted calibration window must not wreck the threshold.
  std::vector<int> cal{0, 1, 0, 1, 0, 1};
  std::vector<double> means{1.0, 5.0, 1.1, 5.1, 400.0, 5.05, /*payload:*/ 1.0, 5.0};
  double thresh = 0;
  const auto decoded = ThresholdDecoder::decode(means, cal, &thresh);
  EXPECT_EQ(decoded, (std::vector<int>{0, 1}));
  EXPECT_LT(thresh, 10.0);
}

// --- End-to-end channels (noise off for determinism of round-trips) --------

TEST(UliChannels, InterMrRoundTripClean) {
  auto cfg = UliChannelConfig::best_for(rnic::DeviceModel::kCX4,
                                        UliChannelKind::kInterMr, 21);
  cfg.ambient_intensity = 0;  // no bystander: channel must be error-free
  UliCovertChannel ch(cfg);
  const auto payload = bits_from_string("110100101101000111001010");
  const auto run = ch.transmit(payload);
  EXPECT_EQ(run.error_rate(), 0.0);
  EXPECT_GT(run.raw_bps(), 20e3);
}

TEST(UliChannels, IntraMrRoundTripClean) {
  auto cfg = UliChannelConfig::best_for(rnic::DeviceModel::kCX4,
                                        UliChannelKind::kIntraMr, 22);
  cfg.ambient_intensity = 0;
  UliCovertChannel ch(cfg);
  const auto payload = bits_from_string("001011100010111010101101");
  const auto run = ch.transmit(payload);
  EXPECT_EQ(run.error_rate(), 0.0);
  EXPECT_GT(run.raw_bps(), 20e3);
}

struct ChannelCase {
  rnic::DeviceModel model;
  UliChannelKind kind;
  double min_kbps;   // loose floor, paper Table V shape
  double max_err;
};

// Names each cell after its device and kind ("CX4_InterMr").  ctest takes
// the printed parameter as the test name, and gtest's default print is a
// byte dump that includes the struct's uninitialised padding.
void PrintTo(const ChannelCase& c, std::ostream* os) {
  static constexpr const char* kModel[] = {"CX4", "CX5", "CX6"};
  *os << kModel[static_cast<int>(c.model)] << '_'
      << (c.kind == UliChannelKind::kInterMr ? "InterMr" : "IntraMr");
}

class UliChannelMatrix : public ::testing::TestWithParam<ChannelCase> {};

TEST_P(UliChannelMatrix, TableVShape) {
  const ChannelCase& c = GetParam();
  auto cfg = UliChannelConfig::best_for(c.model, c.kind, 23);
  UliCovertChannel ch(cfg);
  sim::Xoshiro256 rng(24);
  const auto run = ch.transmit(random_bits(192, rng));
  EXPECT_GT(run.raw_bps() / 1e3, c.min_kbps);
  EXPECT_LT(run.error_rate(), c.max_err);
  EXPECT_GT(run.effective_bps(), 0.4 * run.raw_bps());
}

INSTANTIATE_TEST_SUITE_P(
    AllCells, UliChannelMatrix,
    ::testing::Values(
        ChannelCase{rnic::DeviceModel::kCX4, UliChannelKind::kInterMr, 25, 0.15},
        ChannelCase{rnic::DeviceModel::kCX5, UliChannelKind::kInterMr, 55, 0.15},
        ChannelCase{rnic::DeviceModel::kCX6, UliChannelKind::kInterMr, 75, 0.16},
        ChannelCase{rnic::DeviceModel::kCX4, UliChannelKind::kIntraMr, 25, 0.15},
        ChannelCase{rnic::DeviceModel::kCX5, UliChannelKind::kIntraMr, 25, 0.15},
        ChannelCase{rnic::DeviceModel::kCX6, UliChannelKind::kIntraMr, 70, 0.15}));

TEST(UliChannels, DecodesDespiteRxClockOffset) {
  // The covert parties only share a coarse clock: shift the receiver's
  // belief of the frame start by half a bit period — the worst case, where
  // every window straddles two bits 50/50 and plain thresholding breaks.
  // The calibration phase search must recover the true phase.
  auto cfg = UliChannelConfig::best_for(rnic::DeviceModel::kCX4,
                                        UliChannelKind::kIntraMr, 31);
  cfg.ambient_intensity = 0;
  cfg.rx_clock_offset = cfg.bit_period / 2;
  UliCovertChannel ch(cfg);
  const auto payload = bits_from_string("10110100101101001011");
  const auto run = ch.transmit(payload);
  EXPECT_LE(run.error_rate(), 0.05);
}

TEST(UliChannels, PhaseSearchNeverHurts) {
  // The search can only pick a phase whose calibration contrast is at least
  // the belief's own, so enabling it must never increase the error rate.
  // (A fixed clock offset alone is partly absorbed by threshold decoding
  // because the sender's in-flight queue already delays the effective
  // signal; the search matters under noise and asymmetric smear.)
  for (std::uint64_t seed : {31ull, 32ull, 33ull}) {
    auto cfg = UliChannelConfig::best_for(rnic::DeviceModel::kCX4,
                                          UliChannelKind::kIntraMr, seed);
    cfg.rx_clock_offset = cfg.bit_period / 2;
    const auto payload = bits_from_string("10110100101101001011");

    auto cfg1 = cfg;
    cfg1.phase_search_steps = 1;
    UliCovertChannel ch1(cfg1);
    const double err_fixed = ch1.transmit(payload).error_rate();

    UliCovertChannel ch9(cfg);
    const double err_search = ch9.transmit(payload).error_rate();
    EXPECT_LE(err_search, err_fixed + 0.10) << "seed " << seed;
  }
}

TEST(UliChannels, InterMrFasterOnFasterNics) {
  sim::Xoshiro256 rng(25);
  const auto payload = random_bits(96, rng);
  double bps[3];
  const rnic::DeviceModel models[] = {rnic::DeviceModel::kCX4,
                                      rnic::DeviceModel::kCX5,
                                      rnic::DeviceModel::kCX6};
  for (int i = 0; i < 3; ++i) {
    auto cfg = UliChannelConfig::best_for(models[i], UliChannelKind::kInterMr,
                                          26);
    UliCovertChannel ch(cfg);
    bps[i] = ch.transmit(payload).raw_bps();
  }
  EXPECT_LT(bps[0], bps[1]);
  EXPECT_LT(bps[1], bps[2]);
}

TEST(PriorityChannel, Fig9BitstreamErrorFree) {
  PriorityChannelConfig cfg;
  cfg.model = rnic::DeviceModel::kCX4;
  PriorityCovertChannel ch(cfg);
  const auto payload = bits_from_string("1101111101010010");  // Fig 9
  const auto run = ch.transmit(payload);
  EXPECT_EQ(run.error_rate(), 0.0);
  EXPECT_NEAR(ch.bits_per_interval(run), 1.0, 1e-9);
  // Bit 0 (bulk writes) visibly depresses the monitored bandwidth.
  double bw1 = 0, bw0 = 0;
  int n1 = 0, n0 = 0;
  for (std::size_t i = 0; i < payload.size(); ++i) {
    if (payload[i]) {
      bw1 += run.rx_metric[i];
      ++n1;
    } else {
      bw0 += run.rx_metric[i];
      ++n0;
    }
  }
  EXPECT_GT(bw1 / n1, 1.5 * (bw0 / n0));
}

class PriorityAcrossDevices
    : public ::testing::TestWithParam<rnic::DeviceModel> {};

TEST_P(PriorityAcrossDevices, OneBitPerInterval) {
  PriorityChannelConfig cfg;
  cfg.model = GetParam();
  PriorityCovertChannel ch(cfg);
  sim::Xoshiro256 rng(27);
  const auto run = ch.transmit(random_bits(24, rng));
  EXPECT_EQ(run.error_rate(), 0.0);
  EXPECT_NEAR(ch.bits_per_interval(run), 1.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(AllDevices, PriorityAcrossDevices,
                         ::testing::Values(rnic::DeviceModel::kCX4,
                                           rnic::DeviceModel::kCX5,
                                           rnic::DeviceModel::kCX6));

TEST(Pythia, BaselineNearTwentyKbpsOnCx5) {
  PythiaConfig cfg;
  cfg.model = rnic::DeviceModel::kCX5;
  PythiaCovertChannel ch(cfg);
  sim::Xoshiro256 rng(28);
  const auto run = ch.transmit(random_bits(96, rng));
  EXPECT_LT(run.error_rate(), 0.05);
  EXPECT_GT(run.raw_bps(), 12e3);
  EXPECT_LT(run.raw_bps(), 30e3);
}

TEST(Pythia, RagnarBeatsPythiaByRoughly3x) {
  sim::Xoshiro256 rng(29);
  const auto payload = random_bits(96, rng);

  PythiaConfig pc;
  pc.model = rnic::DeviceModel::kCX5;
  PythiaCovertChannel pythia(pc);
  const double pythia_bps = pythia.transmit(payload).raw_bps();

  auto rc = UliChannelConfig::best_for(rnic::DeviceModel::kCX5,
                                       UliChannelKind::kInterMr, 30);
  UliCovertChannel ragnar(rc);
  const double ragnar_bps = ragnar.transmit(payload).raw_bps();

  const double ratio = ragnar_bps / pythia_bps;
  EXPECT_GT(ratio, 2.4);  // paper: 3.2x
  EXPECT_LT(ratio, 4.5);
}

}  // namespace
}  // namespace ragnar::covert
