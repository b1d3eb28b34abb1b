#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "sim/concurrency.hpp"
#include "sim/coro.hpp"
#include "sim/engine.hpp"
#include "sim/scheduler.hpp"
#include "sim/sharded.hpp"
#include "sim/time.hpp"

// The sim::Engine facade contract (docs/ENGINE.md): legacy mode is
// event-for-event identical to a raw Scheduler; windowed mode executes the
// same event set for any shard count, exchanging cross-shard events through
// (at, origin)-ordered mailboxes; and every thread pool leases its workers
// from the process-wide ConcurrencyBudget.
namespace ragnar::sim {
namespace {

using EventLog = std::vector<std::pair<SimTime, int>>;

// A small self-scheduling program driven against any Scheduler.
void seed_program(Scheduler& s, EventLog* log) {
  s.at(us(10), [&s, log] {
    log->push_back({s.now(), 1});
    s.at(s.now() + us(5), [&s, log] { log->push_back({s.now(), 2}); });
  });
  s.at(us(10), [&s, log] { log->push_back({s.now(), 3}); });
  s.at(us(40), [&s, log] { log->push_back({s.now(), 4}); });
}

TEST(EngineLegacy, IdenticalToRawScheduler) {
  EventLog raw_log;
  Scheduler raw;
  seed_program(raw, &raw_log);
  raw.run_until_idle();

  EventLog eng_log;
  Engine eng;  // Options{} -> legacy
  ASSERT_FALSE(eng.windowed());
  seed_program(eng.legacy_scheduler(), &eng_log);
  eng.run_until_idle();

  EXPECT_EQ(raw_log, eng_log);
  EXPECT_EQ(eng.events_processed(), raw.events_processed());
  EXPECT_EQ(eng.now(), raw.now());
  EXPECT_EQ(eng.local_now(), eng.now());
  EXPECT_EQ(eng.current_shard(), kNoShard);
}

TEST(EngineLegacy, PredicateStopsAreEventGranular) {
  // Legacy run_while must stop mid-stream exactly where a raw Scheduler
  // would: after the 50th event, not at some coarser boundary.
  int raw_count = 0;
  Scheduler raw;
  for (int i = 1; i <= 100; ++i) raw.at(us(i), [&] { ++raw_count; });
  raw.run_while([&] { return raw_count < 50; });

  int eng_count = 0;
  Engine eng;
  for (int i = 1; i <= 100; ++i) {
    eng.legacy_scheduler().at(us(i), [&] { ++eng_count; });
  }
  eng.run_while([&] { return eng_count < 50; });

  EXPECT_EQ(raw_count, 50);
  EXPECT_EQ(eng_count, 50);
  EXPECT_EQ(eng.now(), raw.now());
}

TEST(EngineWindowed, RunsEventsAndAdvancesAllClocksToBound) {
  Engine::Options opts;
  opts.shards = 2;
  Engine eng(opts);
  ASSERT_TRUE(eng.windowed());
  eng.constrain_lookahead(us(1));
  EXPECT_EQ(eng.lookahead(), us(1));

  int ran = 0;
  eng.shard(0).at(us(3), [&] { ++ran; });
  eng.shard(1).at(us(7), [&] { ++ran; });
  eng.run_until(us(20));

  EXPECT_EQ(ran, 2);
  EXPECT_GE(eng.windows_run(), 2u);
  // Bounded runs leave every shard clock at the bound, so now() is
  // well-defined and local_now() agrees outside a window.
  EXPECT_EQ(eng.now(), us(20));
  EXPECT_EQ(eng.shard(0).now(), us(20));
  EXPECT_EQ(eng.shard(1).now(), us(20));
  EXPECT_EQ(eng.local_now(), eng.now());
}

TEST(EngineWindowed, SameTimeMailDeliversInOriginOrder) {
  Engine::Options opts;
  opts.shards = 3;
  Engine eng(opts);
  eng.constrain_lookahead(us(1));

  // Shards 1 and 2 each post to shard 0 for the same instant; delivery
  // order must follow the shard-independent origin key, not the posting
  // shard or push interleaving.  Origins deliberately invert shard order.
  std::vector<int> order;  // only shard 0 executes these -> no race
  const SimTime when = us(5);
  eng.shard(2).at(us(2), [&] { eng.post(0, when, /*origin=*/1, [&] {
    order.push_back(1); }); });
  eng.shard(1).at(us(2), [&] { eng.post(0, when, /*origin=*/9, [&] {
    order.push_back(9); }); });
  eng.shard(1).at(us(2), [&] { eng.post(0, when, /*origin=*/4, [&] {
    order.push_back(4); }); });
  // More posts from origin 4 for the same instant run in post order (the
  // push-index tie-break) — enough of them that a sort on (time, origin)
  // alone would be free to reorder the run.
  eng.shard(1).at(us(2), [&] {
    for (int k = 0; k < 32; ++k) {
      eng.post(0, when, /*origin=*/4, [&order, k] { order.push_back(40 + k); });
    }
  });
  eng.run_until_idle();

  std::vector<int> expect{1, 4};
  for (int k = 0; k < 32; ++k) expect.push_back(40 + k);
  expect.push_back(9);
  EXPECT_EQ(order, expect);
  EXPECT_EQ(eng.mail_delivered(), 35u);
}

// Four logical nodes pass a token around a ring, node n pinned to shard
// n % N.  The per-node observation logs must be identical for every shard
// count: this is the determinism contract the cloud scenarios rely on.
std::array<EventLog, 4> run_ring(std::uint32_t shards) {
  Engine::Options opts;
  opts.shards = shards;
  Engine eng(opts);
  EXPECT_EQ(eng.workers(), shards);
  eng.constrain_lookahead(us(1));
  const auto shard_of = [&](int node) {
    return static_cast<ShardId>(node % shards);
  };

  std::array<EventLog, 4> log;
  std::function<void(int, int, int)> hop = [&](int node, int token,
                                               int hops) {
    log[node].push_back({eng.local_now(), token});
    if (hops == 0) return;
    const int next = (node + 1) % 4;
    eng.post(shard_of(next), eng.local_now() + eng.lookahead(), node,
             [&hop, next, token, hops] { hop(next, token + 1, hops - 1); });
  };
  for (int n = 0; n < 4; ++n) {
    eng.shard(shard_of(n)).at(us(n + 1), [&hop, n] { hop(n, 100 * n, 12); });
  }
  eng.run_until_idle();
  return log;
}

TEST(EngineWindowed, OutputInvariantAcrossShardCounts) {
  // One worker per shard whatever the host's core count, so the 2- and
  // 4-shard rings always take the parallel window path.
  ConcurrencyBudget::instance().set_total(4);
  const auto one = run_ring(1);
  const auto two = run_ring(2);
  const auto four = run_ring(4);
  ConcurrencyBudget::instance().set_total(0);
  for (int n = 0; n < 4; ++n) {
    EXPECT_FALSE(one[n].empty());
    EXPECT_EQ(one[n], two[n]) << "node " << n << " diverged at 2 shards";
    EXPECT_EQ(one[n], four[n]) << "node " << n << " diverged at 4 shards";
  }
}

// A run call must leave no mail behind in the outboxes: the last window's
// mail is queued before the call returns, so coordinator code scheduling
// into a shard for the same instant runs after it, and the mail is counted
// once.  Covers the final window of a bounded run and of a predicate stop.
TEST(EngineWindowed, LastWindowMailIsQueuedWhenTheRunReturns) {
  ConcurrencyBudget::instance().set_total(2);
  {
    Engine::Options opts;
    opts.shards = 2;
    Engine eng(opts);
    EXPECT_EQ(eng.workers(), 2u);
    eng.constrain_lookahead(us(1));

    std::vector<int> order;  // only shard 1 executes these -> no race
    eng.shard(0).at(us(2), [&] {
      eng.post(1, us(10), /*origin=*/0, [&] { order.push_back(1); });
    });
    eng.run_until(us(5));  // the mail's window lies past the bound
    EXPECT_EQ(eng.now(), us(5));
    EXPECT_EQ(eng.shard(1).pending(), 1u);
    EXPECT_EQ(eng.mail_delivered(), 1u);
    eng.shard(1).at(us(10), [&] { order.push_back(2); });

    bool stop = false;
    eng.shard(0).at(us(20), [&] {
      stop = true;
      eng.post(1, us(30), /*origin=*/0, [&] { order.push_back(3); });
    });
    eng.run_while([&] { return !stop; });
    EXPECT_TRUE(stop);
    EXPECT_EQ(eng.shard(1).pending(), 1u);
    eng.shard(1).at(us(30), [&] { order.push_back(4); });

    eng.run_until_idle();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
    EXPECT_EQ(eng.mail_delivered(), 2u);
  }
  ConcurrencyBudget::instance().set_total(0);
}

TEST(EngineWindowed, ConstrainLookaheadTightensAndClamps) {
  Engine::Options opts;
  opts.shards = 1;
  opts.max_lookahead = us(100);
  Engine eng(opts);
  eng.constrain_lookahead(us(200));  // looser: no effect
  EXPECT_EQ(eng.lookahead(), us(100));
  eng.constrain_lookahead(us(3));
  EXPECT_EQ(eng.lookahead(), us(3));
  eng.constrain_lookahead(0);  // clamped to the 1-tick floor
  EXPECT_EQ(eng.lookahead(), SimDur{1});
}

TEST(EngineWindowedDeathTest, LookaheadViolationAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        ConcurrencyBudget::instance().set_total(1);  // keep the child serial
        Engine::Options opts;
        opts.shards = 2;
        Engine eng(opts);
        eng.constrain_lookahead(us(1));
        // Posting *inside* the current window means a model path bypassed
        // the fabric's latency floor; the engine must refuse to reorder
        // history and abort instead.
        eng.shard(0).at(us(10), [&] { eng.post(1, us(10), 0, [] {}); });
        eng.run_until_idle();
      },
      "lookahead violation");
}

// Heavy cross-shard traffic: 64 token chains, each hop sent one lookahead
// ahead to the next shard round-robin, so on 4 shards every hop crosses a
// shard boundary through the mailboxes.  Returns each chain's hop log
// (time, hops left), which must not depend on the shard count.
std::vector<EventLog> run_chains(Engine& eng) {
  constexpr int kChains = 64;
  constexpr int kHops = 200;
  const std::uint32_t shards = eng.shard_count();
  eng.constrain_lookahead(ns(10));
  PerShardSlots<std::uint64_t> executed;
  executed.reset(shards, 1);
  std::vector<EventLog> log(kChains);  // a chain runs on one shard at a time
  std::function<void(int, int)> hop = [&](int chain, int hops) {
    executed.at(eng.current_shard(), 0) += 1;
    log[chain].push_back({eng.local_now(), hops});
    if (hops == 0) return;
    eng.post(static_cast<ShardId>((chain + kHops - hops + 1) % shards),
             eng.local_now() + eng.lookahead(), chain,
             [&hop, chain, hops] { hop(chain, hops - 1); });
  };
  for (int c = 0; c < kChains; ++c) {
    eng.shard(static_cast<ShardId>(c % shards))
        .at(ns(1), [&hop, c] { hop(c, kHops); });
  }
  eng.run_until_idle();
  EXPECT_EQ(executed.sum(0),
            static_cast<std::uint64_t>(kChains) * (kHops + 1));
  EXPECT_GE(eng.mail_delivered(), static_cast<std::uint64_t>(kChains) * kHops);
  return log;
}

// The chains with a real worker pool.  Run under tsan this is the
// data-race probe for the parallel window path (the CI tsan job runs it
// with the rest of this suite).
TEST(EngineWindowed, MailboxStressUnderParallelWorkers) {
  Engine::Options serial_opts;
  serial_opts.shards = 1;
  Engine serial(serial_opts);
  const std::vector<EventLog> reference = run_chains(serial);

  ConcurrencyBudget& budget = ConcurrencyBudget::instance();
  budget.set_total(4);  // decouple the pool size from the host's cores
  {
    Engine::Options opts;
    opts.shards = 4;
    Engine eng(opts);
    EXPECT_EQ(eng.workers(), 4u);
    EXPECT_EQ(budget.leased(), 4u);
    const std::vector<EventLog> parallel = run_chains(eng);
    ASSERT_EQ(parallel.size(), reference.size());
    for (std::size_t c = 0; c < reference.size(); ++c) {
      EXPECT_EQ(parallel[c], reference[c]) << "chain " << c << " diverged";
    }
  }
  EXPECT_EQ(budget.leased(), 0u);  // the engine's lease died with it
  budget.set_total(0);
}

// --- ConcurrencyBudget ----------------------------------------------------

TEST(ConcurrencyBudget, SerialFloorIsFreeAndGrantsNeverBlock) {
  ConcurrencyBudget& b = ConcurrencyBudget::instance();
  b.set_total(4);
  ConcurrencyBudget::Lease big = b.acquire(4);
  EXPECT_EQ(big.workers(), 4u);
  EXPECT_EQ(b.leased(), 4u);
  // Budget exhausted: further acquires degrade to the (uncharged) serial
  // floor instead of blocking.
  ConcurrencyBudget::Lease nested = b.acquire(8);
  EXPECT_EQ(nested.workers(), 1u);
  EXPECT_EQ(b.leased(), 4u);
  big.release();
  EXPECT_EQ(b.leased(), 0u);
  ConcurrencyBudget::Lease again = b.acquire(8);
  EXPECT_EQ(again.workers(), 4u);  // capped at the budget total
  again.release();
  b.set_total(0);
}

TEST(ConcurrencyBudget, ExactRequestsOverrideTheCapButAreCharged) {
  ConcurrencyBudget& b = ConcurrencyBudget::instance();
  b.set_total(2);
  // An explicit --jobs value may oversubscribe: results are bit-identical
  // for any worker count, so the machine is the user's to burn.
  ConcurrencyBudget::Lease exact = b.acquire(6, /*exact=*/true);
  EXPECT_EQ(exact.workers(), 6u);
  EXPECT_EQ(b.leased(), 6u);
  // ...but implicit pools nested under it still see an empty budget.
  ConcurrencyBudget::Lease nested = b.acquire(4);
  EXPECT_EQ(nested.workers(), 1u);
  exact.release();
  b.set_total(0);
}

TEST(ConcurrencyBudget, WantZeroAsksForTheFullBudget) {
  ConcurrencyBudget& b = ConcurrencyBudget::instance();
  b.set_total(3);
  ConcurrencyBudget::Lease all = b.acquire(0);
  EXPECT_EQ(all.workers(), 3u);
  all.release();
  b.set_total(0);
}

TEST(ConcurrencyBudget, LeaseIsMoveOnlyRaii) {
  ConcurrencyBudget& b = ConcurrencyBudget::instance();
  b.set_total(4);
  {
    ConcurrencyBudget::Lease a = b.acquire(3);
    ConcurrencyBudget::Lease moved = std::move(a);
    EXPECT_EQ(moved.workers(), 3u);
    EXPECT_EQ(b.leased(), 3u);
  }
  EXPECT_EQ(b.leased(), 0u);  // destructor released the moved-to lease once
  b.set_total(0);
}

// --- PerShardSlots --------------------------------------------------------

TEST(PerShardSlots, FoldsAcrossShardsAndGrowsPreservingCounts) {
  PerShardSlots<std::uint64_t> slots;
  slots.reset(3, 2);
  slots.at(0, 0) = 5;
  slots.at(1, 0) = 7;
  slots.at(2, 1) = 11;
  EXPECT_EQ(slots.sum(0), 12u);
  EXPECT_EQ(slots.sum(1), 11u);
  slots.resize_slots(4);  // grow (a new link registered mid-build)
  EXPECT_EQ(slots.sum(0), 12u);
  EXPECT_EQ(slots.sum(1), 11u);
  EXPECT_EQ(slots.sum(3), 0u);
  slots.at(2, 3) = 1;
  EXPECT_EQ(slots.sum(3), 1u);
}

}  // namespace
}  // namespace ragnar::sim
