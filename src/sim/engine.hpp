#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "sim/concurrency.hpp"
#include "sim/mailbox.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"

namespace ragnar::obs {
class Hub;
}

// The simulation engine facade (docs/ENGINE.md).
//
// An Engine owns one or more shards — each a private Scheduler with its own
// event queue and clock — and is the only run loop scenarios talk to.  Two
// execution modes share the API:
//
//   * legacy (Options::shards == 0, the default): one shard, and every run
//     call delegates 1:1 to the underlying Scheduler.  Event-for-event and
//     byte-for-byte identical to driving a Scheduler directly — all
//     pre-engine scenario goldens are preserved through this path.
//
//   * windowed (Options::shards >= 1): conservative parallel DES.  Time
//     advances in windows [T, T+L) where T is the earliest pending event
//     across all shards — queued, or mailed in the last window — and L is
//     the lookahead: the minimum cross-node propagation latency the fabric
//     registered via constrain_lookahead().  Within a window every shard
//     runs its local events independently (in parallel when the
//     ConcurrencyBudget grants workers); events one node generates for
//     another are at least L in the future, so they belong to a later
//     window and travel through per-shard mailboxes.  Each shard starts a
//     window by queueing the mail posted to it in the previous one, in a
//     shard-count-independent order (mailbox.hpp), and a run call queues
//     the last window's mail before it returns.  The window schedule is a
//     pure function of event timestamps, so a windowed run's output is
//     identical for 1 shard or N, with any number of worker threads — the
//     determinism contract tests assert exactly this.  Workers wait for the
//     next window by spinning briefly, then parking (docs/ENGINE.md §5).
//
// The two modes are not byte-identical to each other: legacy predicate
// stops are event-granular while windowed stops are barrier-granular, and
// windowed PFC propagation is delayed by one lookahead (docs/ENGINE.md §4).
// Scenarios pick windowed mode explicitly via --shards.
namespace ragnar::sim {

class Task;

using ShardId = std::uint32_t;
inline constexpr ShardId kNoShard = ~ShardId{0};

class Engine {
 public:
  struct Options {
    // 0 = legacy single-scheduler mode; >= 1 = windowed mode with that many
    // shards (1-shard windowed is the determinism baseline for N-shard).
    std::uint32_t shards = 0;
    // Upper bound on the lookahead; the fabric tightens it to the minimum
    // link propagation latency when the topology is built.
    SimDur max_lookahead = kMillisecond;
  };

  Engine() : Engine(Options{}) {}
  explicit Engine(const Options& opts);
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  ~Engine();

  bool windowed() const { return windowed_; }
  std::uint32_t shard_count() const {
    return static_cast<std::uint32_t>(shards_.size());
  }

  // The shard's scheduler: what a device pinned to shard `s` schedules its
  // internal (same-node) events on.  In legacy mode shard(0) *is* the
  // engine; handing it to pre-engine code keeps that code bit-exact.
  Scheduler& shard(ShardId s) { return shards_[s]->sched; }
  Scheduler& legacy_scheduler() { return shard(0); }

  // Committed global time: every shard's clock agrees between run calls.
  SimTime now() const;
  // The executing shard's clock when called from inside a window (where
  // shard clocks legitimately diverge within the lookahead), else now().
  SimTime local_now() const;
  // Shard currently executing on this thread; kNoShard outside a window.
  ShardId current_shard() const;

  // Start an actor coroutine on a shard.  The actor must only touch state
  // owned by that shard (its hosts' devices, its switches); cross-shard
  // effects must flow through the fabric.
  void spawn(Task actor, ShardId s = 0);

  // Schedule `cb` at absolute time `t` on shard `to`.  Called from inside a
  // window this is mailbox mail: it must respect the lookahead (t no
  // earlier than the end of the current window — violations abort, they
  // mean a model path bypassed the fabric's latency floor).  `origin` is
  // the shard-independent key of the generating node; it decides same-time
  // delivery order, so it must not depend on the shard layout.
  void post(ShardId to, SimTime t, std::uint64_t origin, Callback&& cb);

  // Tighten the lookahead (clamped to >= 1 ps).  Topology construction calls
  // this with each link's propagation latency; must happen before running.
  void constrain_lookahead(SimDur lat);
  SimDur lookahead() const { return lookahead_; }

  // --- run loop -----------------------------------------------------------
  // Run all events with timestamp <= t, then advance every clock to t.
  void run_until(SimTime t);
  // Run until done() returns true (checked event-by-event in legacy mode,
  // at window barriers in windowed mode — before the last window's mail is
  // queued) or no events remain.
  void run_until(const std::function<bool()>& done);
  // Complement of run_until(pred): run while pred() holds.
  void run_while(const std::function<bool()>& pred);
  void run_until_idle();

  // --- introspection -------------------------------------------------------
  std::uint64_t events_processed() const;
  std::uint64_t windows_run() const { return windows_; }
  std::uint64_t mail_delivered() const;
  // Worker threads the ConcurrencyBudget granted (1 = serial).
  unsigned workers() const { return workers_; }

 private:
  static constexpr std::size_t kCacheLine = 64;

  // drain_mail's sort keys: (at, origin, source shard, push index).
  struct MailKey {
    SimTime at;
    std::uint64_t origin;
    std::uint32_t src;
    std::uint32_t idx;
  };
  struct ShardState {
    Scheduler sched;
    Outbox out;
    // Earliest mail this shard posted in the current window (valid while
    // `mailed`); the coordinator folds it into the next window's floor.
    SimTime mail_floor = 0;
    bool mailed = false;
    std::vector<MailKey> mail_keys;  // mail addressed to this shard
    std::uint64_t mail_delivered = 0;
    std::unique_ptr<obs::Hub> hub;  // per-shard metrics, merged after runs
  };
  // The shard this thread is currently executing a window for.  A
  // thread-local (not a member): each worker sees only its own slot, the
  // coordinator's slot stays null outside serial execution.
  struct ExecContext {
    ShardState* state = nullptr;
    ShardId id = kNoShard;
  };
  static thread_local ExecContext t_exec;

  void run_windows(SimTime bound, bool bounded,
                   const std::function<bool()>* pred);
  void drain_mail(ShardId dest, unsigned parity);
  void exec_window(SimTime upto);
  void exec_shard_window(ShardId s, SimTime upto);
  void run_worker_share(unsigned worker_id, SimTime upto);
  void start_workers();
  void worker_main(unsigned worker_id);
  void arm_shard_hubs();
  void merge_shard_metrics();

  bool windowed_ = false;
  SimDur lookahead_;
  std::vector<std::unique_ptr<ShardState>> shards_;
  std::uint64_t windows_ = 0;
  // Inclusive end of the window being executed; post() validates against it.
  SimTime window_upto_ = 0;
  // Outbox parity the executing window posts into; it drains the other.
  unsigned parity_ = 0;
  bool record_obs_ = false;

  // Worker pool (windowed mode; thread 0 is the caller).  The coordinator
  // bumps gen_ to release a window and the workers count themselves into
  // done_ when their share is finished; the two words sit on separate
  // cache lines, so the spinning readers of one never slow the writers of
  // the other.
  ConcurrencyBudget::Lease lease_;
  unsigned workers_ = 1;
  alignas(kCacheLine) std::atomic<std::uint32_t> gen_{0};
  std::atomic<bool> shutdown_{false};
  alignas(kCacheLine) std::atomic<std::uint32_t> done_{0};
  std::vector<std::thread> threads_;
};

}  // namespace ragnar::sim
