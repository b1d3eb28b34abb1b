#include "sim/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "obs/obs.hpp"
#include "sim/coro.hpp"

namespace ragnar::sim {

thread_local Engine::ExecContext Engine::t_exec;

namespace {

// How long a thread waiting on the window handoff spins before it parks
// (workers on gen_) or falls back to plain yielding (the coordinator on
// done_).  Between the windows of one run call the coordinator turns a
// barrier around in a few microseconds, so a worker that spins this long
// catches the next window without a futex sleep and wake; paying those on
// every window was most of the parallel overhead.  Only a worker left idle
// between run calls, or starved of its core, runs past the budget.
constexpr std::chrono::microseconds kSpinBudget{50};

void cpu_pause() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

// Spins with a CPU pause until ready() holds or kSpinBudget has passed;
// returns ready().  Every 64 pauses (about a microsecond) it reads the
// clock and yields.  On an otherwise idle core the yield returns at once;
// when the host has more runnable threads than cores, it hands the core to
// them, often the very thread being waited for.  A pause-only spin made
// cloud_read_par (4 workers on 4 cores) about 3x slower than a
// condition-variable handoff with two CPU-bound processes beside it.
template <typename Ready>
bool spin_until(const Ready& ready) {
  const auto deadline = std::chrono::steady_clock::now() + kSpinBudget;
  for (unsigned i = 1;; ++i) {
    if (ready()) return true;
    cpu_pause();
    if (i % 64 == 0) {
      if (std::chrono::steady_clock::now() >= deadline) return ready();
      std::this_thread::yield();
    }
  }
}

}  // namespace

Engine::Engine(const Options& opts)
    : windowed_(opts.shards > 0),
      lookahead_(std::max<SimDur>(1, opts.max_lookahead)) {
  const std::uint32_t n = windowed_ ? opts.shards : 1;
  shards_.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<ShardState>());
    shards_.back()->out.reset(n);
  }
  if (windowed_ && n > 1) {
    lease_ = ConcurrencyBudget::instance().acquire(n);
    workers_ = std::min<unsigned>(lease_.workers(), n);
  }
}

Engine::~Engine() {
  if (threads_.empty()) return;
  shutdown_.store(true, std::memory_order_release);
  gen_.fetch_add(1);  // seq_cst, as in exec_window
  gen_.notify_all();
  for (std::thread& t : threads_) t.join();
}

SimTime Engine::now() const {
  // Between run calls every shard clock agrees (run_windows advances all of
  // them to the same bound); shard 0 speaks for the engine.
  return shards_[0]->sched.now();
}

SimTime Engine::local_now() const {
  return t_exec.state != nullptr ? t_exec.state->sched.now() : now();
}

ShardId Engine::current_shard() const { return t_exec.id; }

void Engine::spawn(Task actor, ShardId s) {
  shards_[s]->sched.spawn(std::move(actor));
}

void Engine::post(ShardId to, SimTime t, std::uint64_t origin, Callback&& cb) {
  ShardState* cur = t_exec.state;
  if (!windowed_ || cur == nullptr) {
    // Legacy mode, or coordinator code running between windows: schedule
    // straight into the destination queue (deterministic — one thread).
    shards_[to]->sched.at(t, std::move(cb));
    return;
  }
  if (t <= window_upto_) {
    std::fprintf(stderr,
                 "sim::Engine: lookahead violation — post for t=%llu inside "
                 "window ending at %llu (lookahead %llu ps). A model path "
                 "bypassed the fabric's latency floor.\n",
                 static_cast<unsigned long long>(t),
                 static_cast<unsigned long long>(window_upto_),
                 static_cast<unsigned long long>(lookahead_));
    std::abort();
  }
  cur->out.push(parity_, to, t, origin, std::move(cb));
  if (!cur->mailed || t < cur->mail_floor) cur->mail_floor = t;
  cur->mailed = true;
}

void Engine::constrain_lookahead(SimDur lat) {
  lookahead_ = std::max<SimDur>(1, std::min(lookahead_, lat));
}

void Engine::run_until(SimTime t) {
  if (!windowed_) {
    legacy_scheduler().run_until(t);
    return;
  }
  run_windows(t, true, nullptr);
}

void Engine::run_until(const std::function<bool()>& done) {
  run_while([&done] { return !done(); });
}

void Engine::run_while(const std::function<bool()>& pred) {
  if (!windowed_) {
    legacy_scheduler().run_while(pred);
    return;
  }
  run_windows(0, false, &pred);
}

void Engine::run_until_idle() {
  if (!windowed_) {
    legacy_scheduler().run_until_idle();
    return;
  }
  run_windows(0, false, nullptr);
}

std::uint64_t Engine::events_processed() const {
  std::uint64_t total = 0;
  for (const auto& s : shards_) total += s->sched.events_processed();
  return total;
}

std::uint64_t Engine::mail_delivered() const {
  std::uint64_t total = 0;
  for (const auto& s : shards_) total += s->mail_delivered;
  return total;
}

void Engine::run_windows(SimTime bound, bool bounded,
                         const std::function<bool()>* pred) {
  record_obs_ = obs::current() != nullptr;
  if (record_obs_) arm_shard_hubs();
  for (;;) {
    if (pred != nullptr && !(*pred)()) break;
    // T: the earliest event still to run, whether it sits in a shard queue
    // or in the mail the last window posted, which its destination queues
    // at the start of the next window.
    bool any = false;
    SimTime t_min = ~SimTime{0};
    for (const auto& s : shards_) {
      if (s->sched.pending() != 0) {
        t_min = std::min(t_min, s->sched.next_event_time());
        any = true;
      }
      if (s->mailed) {
        t_min = std::min(t_min, s->mail_floor);
        any = true;
      }
    }
    if (!any || (bounded && t_min > bound)) break;
    // Window [t_min, t_min + L): inclusive end, saturating on overflow.
    SimTime upto = t_min + (lookahead_ - 1);
    if (upto < t_min) upto = ~SimTime{0};
    if (bounded && upto > bound) upto = bound;
    exec_window(upto);
    parity_ ^= 1;
    ++windows_;
  }
  // Queue the last window's mail before returning: between run calls every
  // pending event sits in a shard queue, so coordinator code that schedules
  // into a shard lands behind the mail, as it always has.
  for (ShardId d = 0; d < shard_count(); ++d) drain_mail(d, parity_ ^ 1);
  for (auto& s : shards_) s->mailed = false;
  if (bounded) {
    // No events <= bound remain anywhere; advance every clock to the bound
    // so now() is well-defined and equal across shards.
    for (auto& s : shards_) s->sched.run_until(bound);
  }
  if (record_obs_) merge_shard_metrics();
}

void Engine::drain_mail(ShardId dest, unsigned parity) {
  ShardState& st = *shards_[dest];
  std::vector<MailKey>& keys = st.mail_keys;
  keys.clear();
  for (std::uint32_t src = 0; src < shard_count(); ++src) {
    const std::vector<MailSlot>& row = shards_[src]->out.row(parity, dest);
    for (std::uint32_t i = 0; i < row.size(); ++i) {
      keys.push_back(MailKey{row[i].at, row[i].origin, src, i});
    }
  }
  // (source shard, push index) completes the key, so this unstable sort
  // yields exactly the stable (at, origin) order of the rows concatenated
  // in source-shard order (mailbox.hpp).
  std::sort(keys.begin(), keys.end(), [](const MailKey& a, const MailKey& b) {
    if (a.at != b.at) return a.at < b.at;
    if (a.origin != b.origin) return a.origin < b.origin;
    if (a.src != b.src) return a.src < b.src;
    return a.idx < b.idx;
  });
  st.mail_delivered += keys.size();
  for (const MailKey& k : keys) {
    std::vector<MailSlot>& row = shards_[k.src]->out.row(parity, dest);
    st.sched.at(k.at, std::move(row[k.idx].cb));
  }
  for (auto& src : shards_) src->out.row(parity, dest).clear();
}

void Engine::exec_window(SimTime upto) {
  window_upto_ = upto;
  if (workers_ <= 1) {
    for (ShardId s = 0; s < shard_count(); ++s) exec_shard_window(s, upto);
    return;
  }
  start_workers();
  done_.store(0, std::memory_order_relaxed);
  // seq_cst, not just release: a worker parks only after registering as a
  // waiter, and notify_all skips the wake when it sees no waiter, so the
  // bump and that check must be totally ordered with the worker's.
  gen_.fetch_add(1);
  gen_.notify_all();
  run_worker_share(0, upto);
  const unsigned expect = workers_ - 1;
  const auto joined = [&] {
    return done_.load(std::memory_order_acquire) == expect;
  };
  if (!spin_until(joined)) {
    while (!joined()) std::this_thread::yield();
  }
}

void Engine::exec_shard_window(ShardId s, SimTime upto) {
  ShardState& st = *shards_[s];
  // First the mail every shard posted to s in the previous window: no
  // event entered s's queue since that window ended, so the mail takes the
  // same queue positions as a drain at the barrier would give it.
  drain_mail(s, parity_ ^ 1);
  st.mailed = false;
  t_exec.state = &st;
  t_exec.id = s;
  obs::Hub* prev = nullptr;
  if (record_obs_) prev = obs::install(st.hub.get());
  st.sched.run_until(upto);
  if (record_obs_) obs::install(prev);
  t_exec.state = nullptr;
  t_exec.id = kNoShard;
}

void Engine::run_worker_share(unsigned worker_id, SimTime upto) {
  for (ShardId s = worker_id; s < shard_count(); s += workers_) {
    exec_shard_window(s, upto);
  }
}

void Engine::start_workers() {
  if (!threads_.empty()) return;
  threads_.reserve(workers_ - 1);
  for (unsigned w = 1; w < workers_; ++w) {
    threads_.emplace_back([this, w] { worker_main(w); });
  }
}

void Engine::worker_main(unsigned worker_id) {
  std::uint32_t seen = 0;
  for (;;) {
    const auto released = [&] {
      return gen_.load(std::memory_order_acquire) != seen;
    };
    if (!spin_until(released)) gen_.wait(seen, std::memory_order_acquire);
    seen = gen_.load(std::memory_order_acquire);
    if (shutdown_.load(std::memory_order_acquire)) return;
    run_worker_share(worker_id, window_upto_);
    done_.fetch_add(1, std::memory_order_release);
  }
}

void Engine::arm_shard_hubs() {
  // Shard hubs inherit the parent's streaming config so model hooks publish
  // per-shard (no cross-thread sink contention inside a window); tracing
  // stays parent-only — span rings are drained per trial, not per window.
  obs::Hub::Config cfg;
  if (obs::Hub* parent = obs::current()) {
    cfg.streaming = parent->config().streaming;
    cfg.stream_capacity = parent->config().stream_capacity;
  }
  for (auto& s : shards_) {
    // Recreate on config change (a later run may arm streaming): shard hubs
    // hold no state across runs — metrics and streams are merged out and
    // cleared at every run's end.
    const bool stale =
        s->hub != nullptr &&
        (s->hub->config().streaming != cfg.streaming ||
         (cfg.streaming &&
          s->hub->config().stream_capacity != cfg.stream_capacity));
    if (s->hub == nullptr || stale) s->hub = std::make_unique<obs::Hub>(cfg);
  }
}

void Engine::merge_shard_metrics() {
  obs::Hub* parent = obs::current();
  if (parent == nullptr) return;
  for (auto& s : shards_) {
    if (s->hub == nullptr) continue;
    parent->metrics().merge_from(s->hub->metrics());
    s->hub->metrics().clear();
    // Streams merge in shard order with a stable per-timestamp sort, so the
    // merged sample sequence is shard-count independent for distinct
    // timestamps (docs/OBSERVABILITY.md §streaming).
    if (parent->stream() != nullptr && s->hub->stream() != nullptr) {
      parent->stream()->merge_from(*s->hub->stream());
    }
  }
}

}  // namespace ragnar::sim
