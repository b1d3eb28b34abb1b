#pragma once

#include <cstdint>
#include <vector>

#include "sim/callback.hpp"
#include "sim/time.hpp"

namespace ragnar::sim {

// Min-heap of timed callbacks.  Ties on the timestamp are broken by
// insertion order (a monotonically increasing sequence number) so that
// same-instant events run deterministically in FIFO order — the attacks
// depend on reproducible interleavings.
//
// The callbacks live in a slot vector recycled through a free list; the
// heap orders only 24-byte {at, seq, slot} keys, so a sift moves no
// captures.  `(at, seq)` is unique, so the pop order is a pure function of
// the push sequence.
class EventQueue {
 public:
  void push(SimTime at, Callback&& cb);
  bool empty() const { return keys_.empty(); }
  std::size_t size() const { return keys_.size(); }
  // Precondition: !empty().
  SimTime next_time() const { return keys_.front().at; }

  // Pop the earliest event and return its callback, moved out of its slot:
  // a running callback may push, which can grow (and so move) the slots.
  // Precondition: !empty().
  Callback pop(SimTime* at);

  // Drop every pending event (destroying its callback) and reset the FIFO
  // tie-break counter.
  void clear();

 private:
  struct Key {
    SimTime at;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  struct Later {
    bool operator()(const Key& a, const Key& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };
  std::vector<Key> keys_;
  std::vector<Callback> slots_;
  std::vector<std::uint32_t> free_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace ragnar::sim
