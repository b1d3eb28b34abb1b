#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fabric/topology.hpp"
#include "rnic/device_profile.hpp"
#include "sim/engine.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"
#include "verbs/context.hpp"

// The canonical experiment topology (paper Fig 2): one server hosting
// in-memory data behind an RNIC, plus N client hosts (victim, attacker, ...)
// reaching it through the fabric — a full mesh of direct host-host links,
// with no switch.  All experiments and attacks build on this.
namespace ragnar::revng {

class Testbed {
 public:
  // All devices use the same model (the paper benches CX-4/5/6 testbeds
  // separately); `clients` is the number of client hosts.
  Testbed(rnic::DeviceModel model, std::uint64_t seed,
          std::size_t clients = 2);
  // Custom device profile on every host — used by the model-feature
  // ablations (bench/ablation_model_features) to switch individual
  // microarchitectural mechanisms off.
  Testbed(const rnic::DeviceProfile& profile, std::uint64_t seed,
          std::size_t clients = 2);

  // The testbed's engine runs in legacy mode (one shard, event-granular
  // run calls): the two-to-four-host shape has nothing to parallelize, and
  // legacy mode keeps every pre-engine figure byte-identical.  sched() is
  // that single shard's scheduler.
  sim::Engine& engine() { return engine_; }
  sim::Scheduler& sched() { return engine_.legacy_scheduler(); }
  fabric::Topology& fabric() { return *fabric_; }
  rnic::DeviceModel model() const { return model_; }
  const rnic::DeviceProfile& profile() const {
    return server_->device().profile();
  }

  verbs::Context& server() { return *server_; }
  verbs::Context& client(std::size_t i) { return *clients_.at(i); }
  std::size_t client_count() const { return clients_.size(); }

  sim::Xoshiro256 fork_rng() { return rng_.fork(); }

  // Convenience: a fully wired RC connection from client `i` to the server,
  // owning its PD/CQ/QPs on both ends.
  struct Connection {
    std::unique_ptr<verbs::ProtectionDomain> client_pd;
    std::unique_ptr<verbs::ProtectionDomain> server_pd;
    std::unique_ptr<verbs::CompletionQueue> client_cq;
    std::unique_ptr<verbs::CompletionQueue> server_cq;
    std::vector<std::unique_ptr<verbs::QueuePair>> client_qps;
    std::vector<std::unique_ptr<verbs::QueuePair>> server_qps;
    std::unique_ptr<verbs::MemoryRegion> client_mr;  // local staging buffer

    verbs::QueuePair& qp(std::size_t i = 0) { return *client_qps.at(i); }
    verbs::CompletionQueue& cq() { return *client_cq; }
    std::uint64_t local_addr() const { return client_mr->addr(); }
  };

  Connection connect(std::size_t client_idx, std::size_t qp_count,
                     std::uint32_t max_send_wr, rnic::TrafficClass tc,
                     std::uint64_t client_buf_len = 1u << 20);
  // Full-config variant: callers that need the reliability knobs (timeout /
  // retry_cnt / rnr_retry) pass a complete QpConfig, applied to both ends.
  Connection connect(std::size_t client_idx, std::size_t qp_count,
                     const verbs::QpConfig& qp_cfg,
                     std::uint64_t client_buf_len = 1u << 20);

 private:
  rnic::DeviceModel model_;
  sim::Xoshiro256 rng_;
  sim::Engine engine_;
  std::unique_ptr<fabric::Topology> fabric_;
  std::unique_ptr<verbs::Context> server_;
  std::vector<std::unique_ptr<verbs::Context>> clients_;
};

}  // namespace ragnar::revng
