#pragma once

#include <coroutine>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "fabric/topology.hpp"
#include "rnic/memory_table.hpp"
#include "rnic/op.hpp"
#include "rnic/rnic.hpp"
#include "sim/coro.hpp"
#include "sim/flat_map.hpp"
#include "sim/scheduler.hpp"
#include "verbs/verbs.hpp"

// The verbs object model: Context (one per host endpoint), ProtectionDomain,
// MemoryRegion, CompletionQueue, QueuePair — Figure 1 of the paper.
namespace ragnar::verbs {

class ProtectionDomain;
class MemoryRegion;
class CompletionQueue;
class QueuePair;

// Queue-pair creation parameters (hoisted out of QueuePair so the factory
// methods on Context/ProtectionDomain can name it before QueuePair is
// defined; QueuePair::Config aliases it for existing call sites).
struct QpConfig {
  std::uint32_t max_send_wr = 64;   // the paper's "max send queue size"
  rnic::TrafficClass tc = 0;

  // IB CM reliability attributes.  `timeout` is the initial transport retry
  // timer; 0 keeps the timer unarmed so fault-free runs schedule exactly the
  // same events as before reliability existed (byte-identical figures).
  sim::SimDur timeout = 0;
  std::uint8_t retry_cnt = 7;       // transport retries before RETRY_EXC_ERR
  std::uint8_t rnr_retry = 0;       // RNR retries before RNR_RETRY_EXC_ERR
  sim::SimDur min_rnr_timer = sim::us(10);  // first RNR backoff (doubles)
};

// One host endpoint: owns a device attachment, the local virtual address
// space, and all verbs objects created on it.  It is the device's
// rnic::RecvSink: inbound SENDs land in on_inbound_send(), which routes to
// the destination QP's receive queue.
//
// A Context binds to any fabric::Topology — the Testbed's direct-link mesh
// and multi-switch cloud topologies alike.
class Context final : public rnic::RecvSink {
 public:
  Context(fabric::Topology& fabric, rnic::Rnic* device, std::string name);
  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;
  ~Context() override;

  // rnic::RecvSink: inbound SEND targeting `dst_qpn`; false = RNR.
  bool on_inbound_send(rnic::Qpn dst_qpn, const std::uint8_t* data,
                       std::uint32_t len, sim::SimTime at) override;

  const std::string& name() const { return name_; }
  rnic::Rnic& device() { return *device_; }
  sim::Scheduler& scheduler() { return device_->scheduler(); }
  fabric::Topology& fabric() { return fabric_; }

  std::unique_ptr<ProtectionDomain> alloc_pd();
  std::unique_ptr<CompletionQueue> create_cq(std::uint32_t depth = 4096);
  // Canonical QP factory (ibv_create_qp equivalent): callers never construct
  // QueuePair directly.  The PD and CQ must belong to this context.
  std::unique_ptr<QueuePair> create_qp(ProtectionDomain& pd,
                                       CompletionQueue& cq,
                                       QpConfig cfg = {});

  // Resolve a local VA to backing storage (nullptr when unmapped).
  std::uint8_t* resolve_local(std::uint64_t addr, std::uint32_t len);

  // Internal: VA space management for MRs.
  std::uint64_t allocate_va(std::uint64_t len);
  void map_local(std::uint64_t base, std::uint64_t len, std::uint8_t* data);
  void unmap_local(std::uint64_t base);

  std::uint32_t next_qpn() { return next_qpn_++; }
  std::uint32_t next_mr_id() { return next_mr_id_++; }
  rnic::Rkey next_rkey() { return next_rkey_++; }
  std::uint32_t active_qp_count() const { return active_qps_; }
  void note_qp_created() { ++active_qps_; }
  void note_qp_destroyed() { --active_qps_; }

  // Internal: QP registry for inbound SEND delivery and timer callbacks
  // (timers resolve the QP through the registry so a fired timer whose QP
  // has been destroyed is a no-op, never a use-after-free).
  void register_qp(std::uint32_t qpn, QueuePair* qp) { qp_registry_[qpn] = qp; }
  void unregister_qp(std::uint32_t qpn) { qp_registry_.erase(qpn); }
  QueuePair* find_qp(std::uint32_t qpn) {
    QueuePair** slot = qp_registry_.find(qpn);
    return slot == nullptr ? nullptr : *slot;
  }

 private:
  struct LocalMap {
    std::uint64_t len;
    std::uint8_t* data;
  };
  fabric::Topology& fabric_;
  rnic::Rnic* device_;
  std::string name_;
  std::uint64_t next_va_;
  std::uint32_t next_pdn_ = 1;
  std::uint32_t next_qpn_ = 1;
  std::uint32_t next_mr_id_ = 1;
  rnic::Rkey next_rkey_;
  std::uint32_t active_qps_ = 0;
  // local_maps_ stays std::map: resolve_local range-scans with upper_bound,
  // which FlatMap deliberately does not expose.
  std::map<std::uint64_t, LocalMap> local_maps_;  // base -> mapping
  sim::FlatMap<std::uint32_t, QueuePair*> qp_registry_;
};

// Protection domain: groups MRs and QPs under one access scope.
class ProtectionDomain {
 public:
  explicit ProtectionDomain(Context& ctx, std::uint32_t pdn)
      : ctx_(ctx), pdn_(pdn) {}

  Context& context() { return ctx_; }
  std::uint32_t pdn() const { return pdn_; }

  // Register a fresh buffer of `len` bytes.  `huge_pages` selects the MTT
  // page granularity (the paper's setup uses 2 MB huge pages; the Pythia
  // baseline needs 4 KB pages).
  std::unique_ptr<MemoryRegion> register_mr(std::uint64_t len,
                                            Access access = Access::full(),
                                            bool huge_pages = true);

  // Convenience QP factory scoped to this PD (delegates to the context).
  std::unique_ptr<QueuePair> create_qp(CompletionQueue& cq, QpConfig cfg = {});

 private:
  Context& ctx_;
  std::uint32_t pdn_;
};

// A registered memory region with backing storage.
class MemoryRegion {
 public:
  MemoryRegion(Context& ctx, std::uint32_t pdn, std::uint64_t len,
               Access access, bool huge_pages);
  MemoryRegion(const MemoryRegion&) = delete;
  MemoryRegion& operator=(const MemoryRegion&) = delete;
  ~MemoryRegion();

  std::uint64_t addr() const { return base_; }
  std::uint64_t length() const { return len_; }
  rnic::Rkey rkey() const { return rkey_; }
  std::uint32_t mr_id() const { return mr_id_; }
  std::uint8_t* data() { return buf_.data(); }
  const std::uint8_t* data() const { return buf_.data(); }
  std::uint32_t pdn() const { return pdn_; }

 private:
  Context& ctx_;
  std::uint32_t pdn_;
  std::uint64_t base_;
  std::uint64_t len_;
  rnic::Rkey rkey_;
  std::uint32_t mr_id_;
  std::vector<std::uint8_t> buf_;
};

// Completion queue with both polling and coroutine-await interfaces.
class CompletionQueue {
 public:
  CompletionQueue(Context& ctx, std::uint32_t depth)
      : ctx_(ctx), depth_(depth) {}

  // Non-blocking poll: moves up to out.size() completions into `out`,
  // returns the count (ibv_poll_cq semantics).
  std::size_t poll(std::span<Wc> out);
  // Convenience: poll exactly one.
  bool poll_one(Wc* out);

  std::size_t available() const { return ready_.size(); }
  std::uint32_t depth() const { return depth_; }

  // Coroutine awaitable: suspends until at least `n` completions are ready.
  struct WaitAwaiter {
    CompletionQueue* cq;
    std::size_t n;
    bool await_ready() const noexcept { return cq->ready_.size() >= n; }
    void await_suspend(std::coroutine_handle<> h) {
      cq->waiters_.push_back({n, h});
    }
    void await_resume() const noexcept {}
  };
  WaitAwaiter wait(std::size_t n = 1) { return WaitAwaiter{this, n}; }

  // Driver convenience (non-coroutine): run the scheduler until `n`
  // completions are available; returns false if the simulation went idle
  // first.
  bool run_until_available(std::size_t n);

  // Internal: called by QueuePair on completion.
  void push(const Wc& wc);

 private:
  struct Waiter {
    std::size_t n;
    std::coroutine_handle<> h;
  };
  Context& ctx_;
  std::uint32_t depth_;
  std::deque<Wc> ready_;
  std::vector<Waiter> waiters_;
};

// Reliable-connected queue pair.  Created through Context::create_qp /
// ProtectionDomain::create_qp (the constructor stays public only for the
// factories and legacy in-tree call sites).
class QueuePair : public rnic::CompletionSink {
 public:
  using Config = QpConfig;

  QueuePair(ProtectionDomain& pd, CompletionQueue& cq, Config cfg);
  ~QueuePair() override;

  // RC connection wiring (the out-of-band QP exchange of Figure 1).
  // Connecting an already-connected QP (either side) or a QP to itself is
  // rejected and leaves both queue pairs untouched.
  ConnectResult connect(QueuePair& peer);
  bool connected() const { return connected_; }

  PostResult post_send(const SendWr& wr);
  // Post a receive buffer; consumed in FIFO order by inbound SENDs, which
  // complete on this QP's CQ with opcode kRecv.
  PostResult post_recv(const RecvWr& wr);
  std::uint32_t recv_outstanding() const {
    return static_cast<std::uint32_t>(recv_queue_.size());
  }
  // Internal: consume a recv buffer for an inbound SEND of `len` bytes at
  // simulated time `at`; false when the receive queue is empty (RNR).
  bool consume_recv(const std::uint8_t* data, std::uint32_t len,
                    sim::SimTime at);
  std::uint32_t qpn() const { return qpn_; }
  std::uint32_t outstanding() const { return outstanding_; }
  std::uint32_t max_send_wr() const { return cfg_.max_send_wr; }
  rnic::TrafficClass tc() const { return cfg_.tc; }
  void set_tc(rnic::TrafficClass tc) { cfg_.tc = tc; }
  std::uint32_t pdn() const { return pdn_; }

  QpState state() const { return state_; }
  const QpReliabilityStats& reliability() const { return stats_; }
  // ibv_modify_qp(..., IBV_QPS_ERR): flush both queues, refuse new work,
  // RNR-NAK inbound SENDs.
  void modify_to_error();

  // rnic::CompletionSink
  void on_completion(std::uint64_t wr_id, rnic::WcStatus status,
                     sim::SimTime at, std::uint64_t atomic_result) override;

 private:
  struct Pending {
    std::uint64_t user_wr_id;
    WrOpcode opcode;
    std::uint32_t length;
    sim::SimTime posted_at;
    std::uint32_t queue_ahead;
    // Retransmission state: the wire op and resolved local buffer let the
    // QP replay the WQE through the full device pipeline.
    rnic::WireOp op;
    std::uint8_t* local = nullptr;
    std::uint8_t retries_left = 0;
    std::uint8_t rnr_left = 0;
    // Bumped on every (re)transmission; timers and deferred reposts carry
    // the attempt they were armed for and no-op on mismatch, so a late ACK
    // for attempt N cannot race a timer armed for attempt N-1.
    std::uint32_t attempt = 0;
    sim::SimDur cur_timeout = 0;  // doubles per transport retry
  };

  void arm_timer(std::uint64_t id);
  void on_transport_timeout(std::uint64_t id, std::uint32_t attempt);
  void repost_after_rnr(std::uint64_t id, std::uint32_t attempt);
  // Complete WQE `id` with `status`, then SQE-transition and flush the rest.
  void fail_wqe(std::uint64_t id, rnic::WcStatus status, sim::SimTime at);
  void flush_sends(sim::SimTime at);

  Context& ctx_;
  CompletionQueue& cq_;
  Config cfg_;
  std::uint32_t qpn_;
  std::uint32_t pdn_;
  bool connected_ = false;
  rnic::NodeId peer_node_ = 0;
  std::uint32_t peer_qpn_ = 0;
  std::uint32_t outstanding_ = 0;
  std::uint64_t next_internal_id_ = 1;  // users may reuse wr_id freely
  // Keyed by monotonic internal id, so inserts always append (no shifting)
  // and iteration is post order.
  sim::FlatMap<std::uint64_t, Pending> pending_;  // internal id -> bookkeeping
  std::deque<RecvWr> recv_queue_;
  QpState state_ = QpState::kInit;
  QpReliabilityStats stats_;
};

}  // namespace ragnar::verbs
