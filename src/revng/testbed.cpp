#include "revng/testbed.hpp"

#include <cassert>

namespace ragnar::revng {

Testbed::Testbed(rnic::DeviceModel model, std::uint64_t seed,
                 std::size_t clients)
    : Testbed(rnic::make_profile(model), seed, clients) {}

Testbed::Testbed(const rnic::DeviceProfile& profile, std::uint64_t seed,
                 std::size_t clients)
    : model_(profile.model), rng_(seed) {
  // Host 0 is the server, host i + 1 client i.  Each new host links to
  // every earlier one, oriented lower id -> higher id, so LinkId 0 joins
  // hosts (0,1), 1 joins (0,2), 2 joins (1,2), ...  Fault plans and
  // per-link RNG streams key on LinkId and direction: changing this order
  // changes every faulted run.
  fabric::Topology::Builder b(engine_);
  const auto wire = fabric::LinkSpec::symmetric(profile.wire_lat);
  for (rnic::NodeId id = 0; id <= clients; ++id) {
    b.add_host(profile, rng_.fork());
    for (rnic::NodeId other = 0; other < id; ++other) {
      b.link(fabric::NodeRef::host(other), fabric::NodeRef::host(id), wire);
    }
  }
  fabric_ = b.build();
  server_ = std::make_unique<verbs::Context>(*fabric_, fabric_->host(0),
                                             "server");
  for (std::size_t i = 0; i < clients; ++i) {
    clients_.push_back(std::make_unique<verbs::Context>(
        *fabric_, fabric_->host(static_cast<rnic::NodeId>(i + 1)),
        "client" + std::to_string(i)));
  }
}

Testbed::Connection Testbed::connect(std::size_t client_idx,
                                     std::size_t qp_count,
                                     std::uint32_t max_send_wr,
                                     rnic::TrafficClass tc,
                                     std::uint64_t client_buf_len) {
  verbs::QpConfig cfg;
  cfg.max_send_wr = max_send_wr;
  cfg.tc = tc;
  return connect(client_idx, qp_count, cfg, client_buf_len);
}

Testbed::Connection Testbed::connect(std::size_t client_idx,
                                     std::size_t qp_count,
                                     const verbs::QpConfig& qp_cfg,
                                     std::uint64_t client_buf_len) {
  Connection c;
  verbs::Context& cl = client(client_idx);
  c.client_pd = cl.alloc_pd();
  c.server_pd = server_->alloc_pd();
  c.client_cq = cl.create_cq();
  c.server_cq = server_->create_cq();
  c.client_mr = c.client_pd->register_mr(client_buf_len);
  for (std::size_t q = 0; q < qp_count; ++q) {
    c.client_qps.push_back(c.client_pd->create_qp(*c.client_cq, qp_cfg));
    c.server_qps.push_back(c.server_pd->create_qp(*c.server_cq, qp_cfg));
    const verbs::ConnectResult cr =
        c.client_qps.back()->connect(*c.server_qps.back());
    assert(cr == verbs::ConnectResult::kOk);
    (void)cr;
  }
  return c;
}

}  // namespace ragnar::revng
