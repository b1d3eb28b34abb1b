#pragma once

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/callback.hpp"
#include "sim/time.hpp"

// Cross-shard mail for the windowed engine (docs/ENGINE.md §3).
//
// During a window, each shard appends every engine-mediated event it
// generates to its own outbox row — one slot vector per destination shard.
// The rows are double-buffered by window parity: a window posts into the
// rows of its own parity, and at the start of the next window each
// destination shard drains the rows of the other parity addressed to it
// while the other shards already post the new window's mail.  A row is
// written by exactly one thread in one window (the worker executing its
// source shard) and read and cleared by exactly one thread in the next
// (the worker executing its destination shard), so the handoff needs no
// locks and no per-slot atomics: the window barrier's release/acquire
// edge is the only synchronization, the mailbox itself is plain memory.
//
// Determinism does not come from the drain *visit* order but from an
// explicit shard-independent sort key.  Every slot carries the origin key
// of the node that generated it; Engine::drain_mail sorts one
// (time, origin, source shard, push index) key per slot and moves each
// callback, in key order, straight from its row into the destination
// queue.  An origin node lives on exactly one shard, so slots that tie on
// (time, origin) share a source row and keep their push order: the key
// order is one total order that is a pure function of the event content —
// the same whether the topology ran on 1 shard or 16.  See docs/ENGINE.md
// for why push order alone (the naive per-pair FIFO) is *not* shard-count
// invariant when two events tie on the timestamp.
namespace ragnar::sim {

struct MailSlot {
  SimTime at = 0;
  std::uint64_t origin = 0;  // shard-independent generator key (node id)
  Callback cb;
};

// One shard's outgoing mail: per window parity, a row per destination
// shard.
class Outbox {
 public:
  void reset(std::uint32_t shard_count) {
    for (std::vector<std::vector<MailSlot>>& rows : rows_) {
      rows.clear();
      rows.resize(shard_count);
    }
  }

  void push(unsigned parity, std::uint32_t dest, SimTime at,
            std::uint64_t origin, Callback&& cb) {
    rows_[parity][dest].emplace_back(at, origin, std::move(cb));
  }

  std::vector<MailSlot>& row(unsigned parity, std::uint32_t dest) {
    return rows_[parity][dest];
  }

 private:
  std::array<std::vector<std::vector<MailSlot>>, 2> rows_;
};

}  // namespace ragnar::sim
