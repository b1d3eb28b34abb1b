#include "sim/scheduler.hpp"

#include <algorithm>
#include <utility>

#include "sim/coro.hpp"

namespace ragnar::sim {

Scheduler::~Scheduler() {
  // Drop pending events first: they may hold coroutine handles into tasks_,
  // and destroying a suspended coroutine while an event still references it
  // would leave a dangling handle in the queue.
  queue_.clear();
  tasks_.clear();
}

void Scheduler::at(SimTime t, Callback&& cb) {
  queue_.push(std::max(t, now_), std::move(cb));
}

bool Scheduler::step() {
  if (queue_.empty()) return false;
  SimTime at = 0;
  auto cb = queue_.pop(&at);
  now_ = at;
  ++events_processed_;
  cb();
  // Amortized cleanup of completed actor coroutines.
  if ((events_processed_ & 0xfff) == 0) reap_finished_tasks();
  return true;
}

void Scheduler::run_until_idle() {
  while (step()) {
  }
  reap_finished_tasks();
}

void Scheduler::run_until(SimTime t) {
  while (!queue_.empty() && queue_.next_time() <= t) step();
  now_ = std::max(now_, t);
  reap_finished_tasks();
}

void Scheduler::run_while(const std::function<bool()>& pred) {
  while (pred() && step()) {
  }
  reap_finished_tasks();
}

void Scheduler::spawn(Task t) {
  tasks_.push_back(std::move(t));
  tasks_.back().start();
}

void Scheduler::reap_finished_tasks() {
  std::erase_if(tasks_, [](const Task& t) { return t.done(); });
}

}  // namespace ragnar::sim
