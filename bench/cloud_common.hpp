#pragma once

// Shared plumbing for the cloud_* scenario family: a fully wired
// unidirectional RC attachment between two hosts of a fabric::Topology (the
// cloud analogue of Testbed::connect, which presumes the Testbed's server +
// clients mesh), plus the closed-loop posting helper every tenant actor
// uses.
#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "verbs/context.hpp"

namespace ragnar::cloud {

struct Conn {
  std::unique_ptr<verbs::ProtectionDomain> src_pd;
  std::unique_ptr<verbs::ProtectionDomain> dst_pd;
  std::unique_ptr<verbs::CompletionQueue> src_cq;
  std::unique_ptr<verbs::CompletionQueue> dst_cq;
  std::vector<std::unique_ptr<verbs::QueuePair>> src_qps;
  std::vector<std::unique_ptr<verbs::QueuePair>> dst_qps;
  std::unique_ptr<verbs::MemoryRegion> src_mr;  // local staging buffer
  std::unique_ptr<verbs::MemoryRegion> dst_mr;  // remote target region

  verbs::QueuePair& qp(std::size_t i = 0) { return *src_qps.at(i); }
  verbs::CompletionQueue& cq() { return *src_cq; }
};

inline Conn connect(verbs::Context& src, verbs::Context& dst,
                    std::size_t qp_count, const verbs::QpConfig& cfg,
                    std::uint64_t buf_len = 1u << 20) {
  Conn c;
  c.src_pd = src.alloc_pd();
  c.dst_pd = dst.alloc_pd();
  c.src_cq = src.create_cq();
  c.dst_cq = dst.create_cq();
  c.src_mr = c.src_pd->register_mr(buf_len);
  c.dst_mr = c.dst_pd->register_mr(buf_len);
  for (std::size_t q = 0; q < qp_count; ++q) {
    c.src_qps.push_back(c.src_pd->create_qp(*c.src_cq, cfg));
    c.dst_qps.push_back(c.dst_pd->create_qp(*c.dst_cq, cfg));
    const verbs::ConnectResult cr =
        c.src_qps.back()->connect(*c.dst_qps.back());
    assert(cr == verbs::ConnectResult::kOk);
    (void)cr;
  }
  return c;
}

// Closed-loop posting helper: one WR of `length` bytes.
inline bool post_one(Conn& conn, verbs::WrOpcode opcode,
                     std::uint32_t length) {
  verbs::SendWr wr;
  wr.opcode = opcode;
  wr.local_addr = conn.src_mr->addr();
  wr.length = length;
  wr.remote_addr = conn.dst_mr->addr();
  wr.rkey = conn.dst_mr->rkey();
  return conn.qp().post_send(wr) == verbs::PostResult::kOk;
}

}  // namespace ragnar::cloud
