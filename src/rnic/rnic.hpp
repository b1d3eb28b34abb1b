#pragma once

#include <cstdint>
#include <unordered_map>

#include "rnic/control.hpp"
#include "rnic/counters.hpp"
#include "rnic/device_profile.hpp"
#include "rnic/memory_table.hpp"
#include "rnic/message.hpp"
#include "rnic/op.hpp"
#include "rnic/pipeline/pipeline.hpp"
#include "rnic/ports.hpp"
#include "rnic/translation.hpp"
#include "sim/flat_map.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"

// Top-level RNIC model (paper Fig 3): a thin orchestrator over the explicit
// pipeline-stage chain in rnic/pipeline/.
//
// Requester path (red):  DoorbellFetch (PCIe WQE/payload fetch) ->
// TxArbiter (grant + Tx PU) -> WireEgress (serialization + ETS pacing) ->
// wire.
//
// Responder path (yellow/green): WireEgress::accept (ingress serialization)
// -> RxAdmission (tenant pacing/caps/TDM) -> RxDispatch (source-hashed
// fast-path lanes / store-forward, Rx PU) -> protection check ->
// TranslationStage (READ/ATOMIC only; the Grain-IV leak) -> PayloadDma ->
// ResponseGen back through the TxArbiter and WireEgress.
//
// All stages are FIFO/bandwidth servers, so each message's traversal is
// computed with latency arithmetic inside a handful of events; contention
// between flows emerges from the shared server state, exactly the
// "volatile channel" the paper exploits.  The Rnic itself owns only the
// message branching (opcode dispatch, admission deferral, reply
// construction) and data movement — all timing math lives in the stages.
namespace ragnar::rnic {

// Re-exported pipeline helpers: DecayedUtil moved into the pipeline layer
// with the stages that use it, but remains part of this header's API.
using pipeline::DecayedUtil;

// Declarative runtime-tuning state: every mitigation / pacing / QoS knob the
// device exposes, gathered into one value that is applied atomically via
// Rnic::configure().  Field-for-field round-trippable through
// Rnic::runtime_config() and the legacy getters; the historical set_*
// setters survive as thin shims over configure().
struct RuntimeConfig {
  // Section VII noise mitigation: uniform [0, max] added to every READ
  // translation on the responder path (0 disables).
  sim::SimDur responder_noise = 0;
  // Section VII "hardware partitioning": per-tenant isolation of the
  // translation unit's speculative state + TDM admission slots.
  bool tenant_isolation = false;
  // Native Grain-I flow control: global per-tenant ingress pacing cap in
  // Gb/s (0 disables).
  double tenant_pacing_gbps = 0;
  // Targeted per-tenant throttles (HARMONIC-style enforcement).  A tenant's
  // entry overrides the global pacing cap; entries <= 0 are dropped on
  // apply (equivalent to lifting the throttle).
  std::unordered_map<NodeId, double> tenant_caps_gbps;
  // ETS per-TC bandwidth shares (the mlnx_qos equivalent).
  EtsConfig ets;
};

class Rnic {
 public:
  Rnic(sim::Scheduler& sched, DeviceProfile profile, NodeId node,
       sim::Xoshiro256 rng);

  NodeId node() const { return node_; }
  const DeviceProfile& profile() const { return prof_; }
  MemoryTable& memory() { return memory_; }
  PortCounters& counters() { return counters_; }
  const PortCounters& counters() const { return counters_; }
  EtsConfig& ets() { return pipe_.egress().ets(); }
  TranslationUnit& translation() { return pipe_.translation().unit(); }
  // Direct stage access (tests, defense interposers).
  pipeline::Pipeline& pipe() { return pipe_; }
  // Runtime control plane: typed scheduled-time knob mutation + live
  // snapshot (rnic/control.hpp; driven by defense::Enforcer).
  ControlPort& control() { return control_; }
  const ControlPort& control() const { return control_; }
  // The scheduler this device's internal events run on — its shard's, when
  // the owning topology is built on a windowed sim::Engine.
  sim::Scheduler& scheduler() { return sched_; }

  // Wired up by the owning fabric::Topology (see rnic/ports.hpp).
  void attach_fabric(FabricPort* port) { fabric_ = port; }

  // Two-sided SEND delivery sink, wired by the verbs layer.
  void attach_recv_sink(RecvSink* sink) { recv_ = sink; }
  RecvSink* recv_sink() const { return recv_; }

  // Requester entry point: process one WQE.  `local_ptr` is the local
  // buffer backing laddr (source for WRITE/SEND, destination for READ).
  void post(WireOp op, CompletionSink* sink, std::uint8_t* local_ptr);

  // Fabric delivers an inbound message at the current simulated time.
  void deliver(const InFlightMsg& msg);

  // Tenant-granularity window counters: returns the stats accumulated since
  // the previous call and resets the window (how a HARMONIC-style monitor
  // polls the device).  Sorted-vector map, iterated in ascending NodeId
  // order — monitors poll this every window, so no per-poll rehashing.
  sim::FlatMap<NodeId, SrcWindowStats> take_src_window_stats() {
    return pipe_.admission().take_stats();
  }

  // Apply the whole runtime-tuning state in one shot.  Atomic with respect
  // to simulated time: no message processed after this call sees a mix of
  // old and new knobs.
  void configure(const RuntimeConfig& cfg);
  // Snapshot of the currently applied state; configure(runtime_config())
  // is a no-op.
  RuntimeConfig runtime_config() const;

  // Read-side accessors for the applied tuning state.  (The PR 1 single-knob
  // setter shims were removed in PR 3 — mutate through configure().)
  sim::SimDur responder_noise() const { return pipe_.noise().noise(); }
  // (See RuntimeConfig::tenant_isolation — kills the Grain-III/IV volatile
  // channels, costs capacity + time-slicing overhead.)
  bool tenant_isolation() const {
    return pipe_.translation().unit().partitioned();
  }
  // (See RuntimeConfig::tenant_pacing_gbps — what modern RNICs already
  // ship; it contains pure bandwidth floods but cannot see — let alone
  // stop — the Kbps-scale Ragnar channels.)
  double tenant_pacing_gbps() const {
    return pipe_.admission().tenant_pacing_gbps();
  }
  // Per-tenant targeted throttle (HARMONIC-style enforcement; 0 = unset).
  // Reads through the control port's snapshot, so callers always see the
  // *live* admission state — including caps an Enforcer applied mid-run —
  // never a stale construction-time copy.
  double tenant_cap_gbps(NodeId src) const {
    return control_.snapshot().cap_for(src);
  }

 private:
  // Responder-path orchestration.  Admission *defers* through the event
  // queue rather than pushing `t` forward: reserving shared FIFO stages at
  // far-future times would block later-arriving but earlier-ready requests
  // of other tenants (a head-of-line artifact real hardware does not have).
  void handle_request(InFlightMsg msg, sim::SimTime t);
  void handle_request_admitted(InFlightMsg msg, sim::SimTime t);
  void handle_response(InFlightMsg msg, sim::SimTime t);
  // Response-generation stages, run *at* their start time.  Reserving them
  // at request-arrival time would poison the shared FIFO horizon whenever
  // the upstream DMA has a deep backlog (e.g. pipelined 64 KB READs), making
  // unrelated ACKs queue behind far-future reservations.
  void finish_read_response(InFlightMsg reply);
  void finish_ack(InFlightMsg reply);
  void finish_atomic_response(InFlightMsg reply);
  void defer(sim::SimTime t, sim::Callback&& fn) {
    if (t <= sched_.now()) {
      fn();
    } else {
      sched_.at(t, std::move(fn));
    }
  }
  void send_reply(InFlightMsg reply, sim::SimTime t);

  // The device's ControlPort implementation: per-knob mutation delegates to
  // the live pipeline stages and stamps an EnforcementAction stream sample
  // at the scheduler's current time.
  class Control final : public ControlPort {
   public:
    explicit Control(Rnic& dev) : dev_(dev) {}
    NodeId node() const override;
    void set_tenant_cap(NodeId src, double gbps) override;
    void clear_tenant_cap(NodeId src) override;
    void set_tx_ets_share(std::uint8_t tc, double weight_pct) override;
    ControlSnapshot snapshot() const override;

   private:
    Rnic& dev_;
    std::uint64_t caps_applied_ = 0;
    std::uint64_t caps_cleared_ = 0;
  };

  sim::Scheduler& sched_;
  DeviceProfile prof_;
  NodeId node_;
  FabricPort* fabric_ = nullptr;
  RecvSink* recv_ = nullptr;

  MemoryTable memory_;
  PortCounters counters_;
  pipeline::Pipeline pipe_;
  Control control_{*this};
};

}  // namespace ragnar::rnic
