#pragma once

#include <array>
#include <cstdint>
#include <unordered_set>

#include "rnic/counters.hpp"
#include "rnic/op.hpp"
#include "sim/callback.hpp"
#include "sim/time.hpp"

// Message and accounting types shared between the Rnic orchestrator, the
// pipeline stages and the typed port interfaces (see rnic/ports.hpp).
namespace ragnar::rnic {

// Callback type used by the verbs layer to receive completions.
class CompletionSink {
 public:
  virtual ~CompletionSink() = default;
  virtual void on_completion(std::uint64_t wr_id, WcStatus status,
                             sim::SimTime at, std::uint64_t atomic_result) = 0;
};

// A message traveling the simulated fabric.  Pointers travel with the
// message (single-process simulation shortcut).
struct InFlightMsg {
  enum class Kind : std::uint8_t {
    kRequest,
    kReadResponse,
    kAck,           // WRITE/SEND acknowledgment
    kAtomicResponse,
    kNak,           // protection/validation failure (terminal)
    kRnrNak,        // receiver-not-ready: requester backs off and retries
  };
  WireOp op;
  Kind kind = Kind::kRequest;
  WcStatus status = WcStatus::kSuccess;
  std::uint8_t* requester_local = nullptr;  // requester-side buffer
  const std::uint8_t* responder_data = nullptr;  // source of READ payload
  CompletionSink* sink = nullptr;
  std::uint64_t atomic_result = 0;
  std::uint64_t wire_bytes = 0;  // total bytes incl. headers, all packets
  std::uint32_t wire_pkts = 1;
};

// Fabric hops, deliveries and the rnic response stages schedule lambdas
// that carry a message plus up to three words.  Keep those inside the event
// record's inline buffer: a message that outgrows it would send every such
// event back to the heap allocator.
static_assert(sizeof(InFlightMsg) + 3 * sizeof(std::uint64_t) <=
                  sim::Callback::kInlineBytes,
              "InFlightMsg outgrew sim::Callback's inline buffer");

// Per-source-node (per-tenant) accounting window — the observables a
// HARMONIC-class defense (Grain-I/II/III counters) gets to see.
struct SrcWindowStats {
  std::array<std::uint64_t, kNumOpcodes> msgs{};
  std::array<std::uint64_t, kNumOpcodes> bytes{};
  std::uint64_t tiny_msgs = 0;    // <= fast-path cutoff
  std::uint64_t medium_msgs = 0;  // <= MTU
  std::uint64_t large_msgs = 0;   // > MTU
  std::unordered_set<Rkey> rkeys_touched;  // Grain-III resource footprint
  std::unordered_set<Qpn> qpns_seen;

  std::uint64_t total_msgs() const {
    std::uint64_t s = 0;
    for (auto m : msgs) s += m;
    return s;
  }
  std::uint64_t total_bytes() const {
    std::uint64_t s = 0;
    for (auto b : bytes) s += b;
    return s;
  }
};

}  // namespace ragnar::rnic
