#pragma once

#include <coroutine>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace ragnar::sim {

class Task;

// The discrete-event engine.  Every simulated component (NIC units, hosts,
// attack actors) schedules work through one Scheduler; experiment drivers
// spawn coroutine actors and run the scheduler until a condition holds.
class Scheduler {
 public:
  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;
  ~Scheduler();

  SimTime now() const { return now_; }

  // Schedule a callback at an absolute / relative time.  Scheduling in the
  // past is an error in the model; it is clamped to `now` to stay safe.
  void at(SimTime t, Callback&& cb);
  void after(SimDur d, Callback&& cb) { at(now_ + d, std::move(cb)); }

  // Run one event.  Returns false when the queue is empty.
  bool step();
  // Run until no events remain.
  void run_until_idle();
  // Run all events with timestamp <= t, then advance the clock to t.
  void run_until(SimTime t);
  // Run events while pred() is true (checked before each event) and the
  // queue is non-empty.
  void run_while(const std::function<bool()>& pred);

  std::size_t pending() const { return queue_.size(); }
  // Timestamp of the earliest pending event (precondition: pending() > 0).
  // The windowed engine reads this to pick the next window floor.
  SimTime next_event_time() const { return queue_.next_time(); }
  std::uint64_t events_processed() const { return events_processed_; }

  // --- coroutine support -------------------------------------------------
  // Take ownership of an actor coroutine and start it.  The scheduler keeps
  // the coroutine alive until it completes (finished actors are reaped
  // lazily).
  void spawn(Task t);

  // `co_await sched.sleep(d)` suspends the current actor for d picoseconds.
  struct SleepAwaiter {
    Scheduler* sched;
    SimDur dur;
    bool await_ready() const noexcept { return dur == 0; }
    void await_suspend(std::coroutine_handle<> h) {
      sched->after(dur, [h] { h.resume(); });
    }
    void await_resume() const noexcept {}
  };
  SleepAwaiter sleep(SimDur d) { return SleepAwaiter{this, d}; }
  // Yield to events at the current timestamp (reschedule at `now`).
  SleepAwaiter yield() { return SleepAwaiter{this, 1}; }

 private:
  void reap_finished_tasks();

  EventQueue queue_;
  SimTime now_ = 0;
  std::uint64_t events_processed_ = 0;
  std::vector<Task> tasks_;
};

}  // namespace ragnar::sim
