// Property-style tests: randomized sweeps checked against reference models
// and invariants, complementing the example-based suites.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "covert/ecc.hpp"
#include "rnic/memory_table.hpp"
#include "rnic/translation.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "sim/resource.hpp"
#include "verbs/context.hpp"

#include "revng/testbed.hpp"

namespace ragnar {
namespace {

// --- resource primitives vs reference models -------------------------------

TEST(Property, FifoServerMatchesReferenceQueue) {
  sim::Xoshiro256 rng(101);
  sim::FifoServer server;
  sim::SimTime ref_free = 0;  // reference: single cumulative horizon
  sim::SimTime now = 0;
  for (int i = 0; i < 20000; ++i) {
    now += rng.uniform_u64(500);
    const sim::SimDur svc = 1 + rng.uniform_u64(300);
    const sim::SimTime done = server.reserve(now, svc);
    const sim::SimTime ref_start = std::max(now, ref_free);
    ref_free = ref_start + svc;
    ASSERT_EQ(done, ref_free);
    ASSERT_GE(done, now + svc);  // completion never beats arrival+service
  }
}

TEST(Property, FifoServerCompletionsAreMonotonic) {
  sim::Xoshiro256 rng(102);
  sim::FifoServer server;
  sim::SimTime now = 0, last_done = 0;
  for (int i = 0; i < 20000; ++i) {
    now += rng.uniform_u64(200);
    const sim::SimTime done = server.reserve(now, 1 + rng.uniform_u64(100));
    ASSERT_GE(done, last_done);  // FIFO order
    last_done = done;
  }
}

TEST(Property, PoolServerNeverExceedsParallelism) {
  sim::Xoshiro256 rng(103);
  constexpr std::size_t kUnits = 3;
  sim::PoolServer pool(kUnits);
  std::vector<std::pair<sim::SimTime, sim::SimTime>> busy;  // [start, end)
  sim::SimTime now = 0;
  for (int i = 0; i < 3000; ++i) {
    now += rng.uniform_u64(50);
    const sim::SimDur svc = 1 + rng.uniform_u64(400);
    const sim::SimTime done = pool.reserve(now, svc);
    busy.emplace_back(done - svc, done);
  }
  // Sweep: at no instant are more than kUnits intervals overlapping.
  std::vector<std::pair<sim::SimTime, int>> events;
  for (auto [s, e] : busy) {
    events.emplace_back(s, +1);
    events.emplace_back(e, -1);
  }
  std::sort(events.begin(), events.end());
  int depth = 0;
  for (auto [t, d] : events) {
    depth += d;
    ASSERT_LE(depth, static_cast<int>(kUnits)) << "at t=" << t;
  }
}

TEST(Property, BandwidthServerConservesBusyTime) {
  sim::Xoshiro256 rng(104);
  sim::BandwidthServer bw(10.0, sim::ns(20));
  sim::SimDur expected_busy = 0;
  sim::SimTime now = 0;
  for (int i = 0; i < 5000; ++i) {
    now += rng.uniform_u64(2000);
    const std::uint64_t bytes = 1 + rng.uniform_u64(9000);
    expected_busy += bw.service_time(bytes);
    bw.reserve(now, bytes);
  }
  EXPECT_EQ(bw.busy_total(), expected_busy);
  EXPECT_EQ(bw.reservations(), 5000u);
}

TEST(Property, EventQueueDrainsInSortedStableOrder) {
  sim::Xoshiro256 rng(105);
  sim::EventQueue q;
  struct Ref {
    sim::SimTime at;
    int seq;
  };
  std::vector<Ref> ref;
  std::vector<int> fired;
  for (int i = 0; i < 5000; ++i) {
    const sim::SimTime at = rng.uniform_u64(1000);  // many ties
    ref.push_back({at, i});
    q.push(at, [&fired, i] { fired.push_back(i); });
  }
  std::stable_sort(ref.begin(), ref.end(),
                   [](const Ref& a, const Ref& b) { return a.at < b.at; });
  while (!q.empty()) q.pop(nullptr)();
  ASSERT_EQ(fired.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) EXPECT_EQ(fired[i], ref[i].seq);

  // Second input: running callbacks push more events, at their own instant
  // and later, until far more are pending than were pushed up front, so the
  // callback slots grow under a running callback.  Captures sit below and
  // above sim::Callback's inline buffer, and one kind is move-only.  Each
  // capture holds a Probe that counts its destruction; a copy made anywhere
  // would count twice.  Run once to empty and once cut short by clear().
  struct Probe {
    std::vector<int>* dtors;
    int id;
    Probe(std::vector<int>* d, int i) : dtors(d), id(i) {}
    Probe(const Probe&) = default;
    Probe(Probe&& o) noexcept
        : dtors(std::exchange(o.dtors, nullptr)), id(o.id) {}
    ~Probe() {
      if (dtors != nullptr) ++(*dtors)[id];
    }
  };
  using Pad = std::array<std::uint64_t, 24>;
  static_assert(sizeof(Pad) > sim::Callback::kInlineBytes);
  constexpr int kRoots = 64;
  constexpr int kDepth = 5;  // each root fans out into 2^6 - 1 events
  for (const bool cut_short : {false, true}) {
    sim::EventQueue q2;
    std::vector<int> dtors;
    std::vector<std::pair<sim::SimTime, int>> pushed, ran;
    std::size_t max_pending = 0;
    std::function<void(sim::SimTime, int)> push = [&](sim::SimTime at,
                                                      int depth) {
      const int id = static_cast<int>(pushed.size());
      pushed.push_back({at, id});
      dtors.push_back(0);
      auto body = [&, at, id, depth] {
        ran.push_back({at, id});
        if (depth == 0) return;
        push(at, depth - 1);
        push(at + 1 + rng.uniform_u64(50), depth - 1);
        max_pending = std::max(max_pending, q2.size());
      };
      switch (id % 3) {
        case 0:
          q2.push(at, [probe = Probe(&dtors, id), body] { body(); });
          break;
        case 1:
          q2.push(at, [probe = Probe(&dtors, id), pad = Pad{}, body] {
            body();
          });
          break;
        default:
          q2.push(at, [p = std::make_unique<Probe>(&dtors, id), body] {
            body();
          });
          break;
      }
    };
    for (int i = 0; i < kRoots; ++i) push(rng.uniform_u64(200), kDepth);
    const std::size_t total = kRoots * ((std::size_t{2} << kDepth) - 1);
    const std::size_t stop = cut_short ? total / 2 : total;
    while (!q2.empty() && ran.size() < stop) q2.pop(nullptr)();
    if (cut_short) {
      EXPECT_FALSE(q2.empty());
      q2.clear();
    }
    EXPECT_TRUE(q2.empty());
    EXPECT_GT(max_pending, std::size_t{kRoots});
    if (!cut_short) {
      ASSERT_EQ(pushed.size(), total);
    }
    // Every push lands at or after the running event's time with a later
    // insertion index, so the run order is the (at, insertion) order.
    std::sort(pushed.begin(), pushed.end());
    ASSERT_EQ(ran.size(), stop);
    EXPECT_TRUE(std::equal(ran.begin(), ran.end(), pushed.begin()));
    for (std::size_t id = 0; id < dtors.size(); ++id) {
      EXPECT_EQ(dtors[id], 1) << "capture " << id;
    }
  }
}

// --- translation unit properties --------------------------------------------

TEST(Property, StaticReadCost2048Periodicity) {
  auto prof = rnic::make_profile(rnic::DeviceModel::kCX4);
  rnic::TranslationUnit xl(prof, sim::Xoshiro256(1));
  sim::Xoshiro256 rng(106);
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t off = rng.uniform_u64(1u << 20);
    const std::uint64_t k = 1 + rng.uniform_u64(100);
    EXPECT_EQ(xl.static_read_cost(off), xl.static_read_cost(off + 2048 * k));
  }
}

TEST(Property, StaticReadCostAlignmentOrdering) {
  auto prof = rnic::make_profile(rnic::DeviceModel::kCX5);
  rnic::TranslationUnit xl(prof, sim::Xoshiro256(1));
  sim::Xoshiro256 rng(107);
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t line = rng.uniform_u64(1u << 14) * 64;
    // Within one line: 64B-aligned <= 8B-aligned < misaligned.
    EXPECT_LE(xl.static_read_cost(line), xl.static_read_cost(line + 8));
    EXPECT_LT(xl.static_read_cost(line + 8), xl.static_read_cost(line + 3));
  }
}

TEST(Property, BankGradientMonotoneAcrossWindow) {
  auto prof = rnic::make_profile(rnic::DeviceModel::kCX6);
  rnic::TranslationUnit xl(prof, sim::Xoshiro256(1));
  for (std::uint64_t b = 0; b + 1 < 32; ++b) {
    EXPECT_LE(xl.static_read_cost(b * 64), xl.static_read_cost((b + 1) * 64));
  }
}

// --- memory protection fuzz --------------------------------------------------

TEST(Property, MemoryTableFuzzAgainstReferencePredicate) {
  sim::Xoshiro256 rng(108);
  rnic::MemoryTable mt;
  std::vector<std::uint8_t> buf(1 << 16);
  struct Region {
    rnic::Rkey rkey;
    std::uint64_t base, len;
    bool r, w, a;
  };
  std::vector<Region> regions;
  for (int i = 0; i < 8; ++i) {
    Region reg;
    reg.rkey = 100 + static_cast<rnic::Rkey>(i);
    reg.base = 0x1000 * (i + 1) * 7;
    reg.len = 64 + rng.uniform_u64(4000);
    reg.r = rng.bernoulli(0.8);
    reg.w = rng.bernoulli(0.6);
    reg.a = rng.bernoulli(0.4);
    regions.push_back(reg);
    rnic::MrEntry e;
    e.rkey = reg.rkey;
    e.base = reg.base;
    e.length = reg.len;
    e.allow_read = reg.r;
    e.allow_write = reg.w;
    e.allow_atomic = reg.a;
    e.data = buf.data();
    mt.register_mr(e);
  }

  for (int trial = 0; trial < 20000; ++trial) {
    const rnic::Rkey rkey = 98 + static_cast<rnic::Rkey>(rng.uniform_u64(12));
    const std::uint64_t addr = rng.uniform_u64(0x1000 * 80);
    const std::uint32_t len = 1u << rng.uniform_u64(13);
    const auto op = static_cast<rnic::Opcode>(rng.uniform_u64(5));
    const bool is_at = rnic::is_atomic(op);
    const std::uint32_t eff_len = is_at ? 8 : len;

    const Region* reg = nullptr;
    for (const auto& r : regions) {
      if (r.rkey == rkey) reg = &r;
    }
    rnic::WcStatus expected;
    if (reg == nullptr || addr < reg->base ||
        addr + eff_len > reg->base + reg->len) {
      expected = rnic::WcStatus::kRemoteAccessError;
    } else if ((op == rnic::Opcode::kRead && !reg->r) ||
               ((op == rnic::Opcode::kWrite || op == rnic::Opcode::kSend) &&
                !reg->w) ||
               (is_at && !reg->a)) {
      expected = rnic::WcStatus::kRemoteAccessError;
    } else if (is_at && (addr % 8 != 0)) {
      expected = rnic::WcStatus::kRemoteInvalidRequest;
    } else {
      expected = rnic::WcStatus::kSuccess;
    }
    EXPECT_EQ(mt.check(rkey, addr, eff_len, op, nullptr), expected)
        << "rkey=" << rkey << " addr=" << addr << " len=" << eff_len
        << " op=" << static_cast<int>(op);
  }
}

// --- Hamming code property ----------------------------------------------------

TEST(Property, HammingCorrectsEverySingleFlipOnRandomData) {
  sim::Xoshiro256 rng(109);
  for (int trial = 0; trial < 500; ++trial) {
    const auto data = covert::random_bits(4 * (1 + rng.uniform_u64(16)), rng);
    auto coded = covert::hamming74_encode(data);
    const std::size_t flip = rng.uniform_u64(coded.size());
    coded[flip] ^= 1;
    const auto decoded = covert::hamming74_decode(coded);
    for (std::size_t i = 0; i < data.size(); ++i) {
      ASSERT_EQ(decoded[i], data[i]) << "trial " << trial << " flip " << flip;
    }
  }
}

TEST(Property, InterleaverIsAPermutation) {
  sim::Xoshiro256 rng(110);
  for (std::size_t depth : {2u, 5u, 16u}) {
    // Tag each position; after interleave every tag appears exactly once.
    std::vector<int> tags(97);
    for (std::size_t i = 0; i < tags.size(); ++i)
      tags[i] = static_cast<int>(i + 1);
    const auto inter = covert::interleave(tags, depth);
    std::map<int, int> counts;
    for (int t : inter) ++counts[t];
    for (std::size_t i = 0; i < tags.size(); ++i) {
      EXPECT_EQ(counts[static_cast<int>(i + 1)], 1);
    }
  }
}

// --- verbs invariants -----------------------------------------------------------

TEST(Property, OutstandingNeverExceedsDepthUnderRandomTraffic) {
  revng::Testbed bed(rnic::DeviceModel::kCX5, 111, 1);
  auto conn = bed.connect(0, 1, /*max_send_wr=*/12, 0);
  auto mr = conn.server_pd->register_mr(1u << 20);
  sim::Xoshiro256 rng(112);

  std::uint64_t posted = 0, completed = 0;
  for (int step = 0; step < 3000; ++step) {
    if (rng.bernoulli(0.6)) {
      verbs::SendWr wr;
      wr.opcode = rng.bernoulli(0.5) ? verbs::WrOpcode::kRdmaRead
                                     : verbs::WrOpcode::kRdmaWrite;
      wr.local_addr = conn.client_mr->addr();
      wr.length = 8u << rng.uniform_u64(8);
      wr.remote_addr = mr->addr() + (rng.uniform_u64(1u << 19) & ~7ull);
      wr.rkey = mr->rkey();
      const auto res = conn.qp().post_send(wr);
      if (res == verbs::PostResult::kOk) {
        ++posted;
      } else {
        ASSERT_EQ(res, verbs::PostResult::kSqFull);
        ASSERT_EQ(conn.qp().outstanding(), 12u);
      }
    } else {
      // Drain a little.
      for (int k = rng.uniform_u64(4); k > 0 && bed.sched().step(); --k) {
      }
      verbs::Wc wc;
      while (conn.cq().poll_one(&wc)) ++completed;
    }
    ASSERT_LE(conn.qp().outstanding(), 12u);
    ASSERT_EQ(conn.qp().outstanding(), posted - completed);
  }
  bed.sched().run_until_idle();
  verbs::Wc wc;
  while (conn.cq().poll_one(&wc)) ++completed;
  EXPECT_EQ(posted, completed);
  EXPECT_EQ(conn.qp().outstanding(), 0u);
}

TEST(Property, CqDropsOldestOnOverrun) {
  revng::Testbed bed(rnic::DeviceModel::kCX5, 113, 1);
  verbs::Context& cl = bed.client(0);
  auto cq = cl.create_cq(/*depth=*/4);
  auto pd = cl.alloc_pd();
  auto server_pd = bed.server().alloc_pd();
  auto mr = server_pd->register_mr(1 << 16);
  auto local = pd->register_mr(1 << 12);
  verbs::QpConfig cfg;
  cfg.max_send_wr = 8;
  auto qp_ptr = pd->create_qp(*cq, cfg);
  auto sqp = server_pd->create_qp(*cq, cfg);  // server side (unused sink)
  verbs::QueuePair& qp = *qp_ptr;
  ASSERT_EQ(qp.connect(*sqp), verbs::ConnectResult::kOk);

  verbs::SendWr wr;
  wr.opcode = verbs::WrOpcode::kRdmaRead;
  wr.local_addr = local->addr();
  wr.length = 64;
  wr.remote_addr = mr->addr();
  wr.rkey = mr->rkey();
  for (std::uint64_t i = 0; i < 8; ++i) {
    wr.wr_id = i;
    ASSERT_EQ(qp.post_send(wr), verbs::PostResult::kOk);
  }
  bed.sched().run_until_idle();
  EXPECT_EQ(cq->available(), 4u);  // depth-bounded
  verbs::Wc wc;
  ASSERT_TRUE(cq->poll_one(&wc));
  EXPECT_EQ(wc.wr_id, 4u);  // oldest four were dropped
}

}  // namespace
}  // namespace ragnar
