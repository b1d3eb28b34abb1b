#include "sim/event_queue.hpp"

#include <algorithm>
#include <utility>

namespace ragnar::sim {

void EventQueue::push(SimTime at, Callback&& cb) {
  std::uint32_t slot;
  if (free_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(std::move(cb));
  } else {
    slot = free_.back();
    free_.pop_back();
    slots_[slot] = std::move(cb);
  }
  keys_.push_back(Key{at, next_seq_++, slot});
  std::push_heap(keys_.begin(), keys_.end(), Later{});
}

Callback EventQueue::pop(SimTime* at) {
  std::pop_heap(keys_.begin(), keys_.end(), Later{});
  const Key k = keys_.back();
  keys_.pop_back();
  if (at != nullptr) *at = k.at;
  free_.push_back(k.slot);
  return std::move(slots_[k.slot]);
}

void EventQueue::clear() {
  keys_.clear();
  slots_.clear();
  free_.clear();
  // Reset the FIFO tie-break counter too: a cleared queue must behave like a
  // freshly constructed one, or post-clear runs order same-time events
  // differently from a fresh simulation.
  next_seq_ = 0;
}

}  // namespace ragnar::sim
