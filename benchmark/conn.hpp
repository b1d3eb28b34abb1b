#pragma once

// A fully wired one-way RC attachment between two hosts of a
// fabric::Topology, and the closed-loop posting helper.  A copy of the
// cloud scenarios' helpers, kept here so the benchmark depends only on the
// verbs object model and not on scenario sources.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "verbs/context.hpp"

namespace ragnar::perf {

struct Conn {
  std::unique_ptr<verbs::ProtectionDomain> src_pd;
  std::unique_ptr<verbs::ProtectionDomain> dst_pd;
  std::unique_ptr<verbs::CompletionQueue> src_cq;
  std::unique_ptr<verbs::CompletionQueue> dst_cq;
  std::unique_ptr<verbs::QueuePair> src_qp;
  std::unique_ptr<verbs::QueuePair> dst_qp;
  std::unique_ptr<verbs::MemoryRegion> src_mr;  // local staging buffer
  std::unique_ptr<verbs::MemoryRegion> dst_mr;  // remote target region
};

inline Conn connect(verbs::Context& src, verbs::Context& dst,
                    const verbs::QpConfig& cfg, std::uint64_t buf_len) {
  Conn c;
  c.src_pd = src.alloc_pd();
  c.dst_pd = dst.alloc_pd();
  c.src_cq = src.create_cq();
  c.dst_cq = dst.create_cq();
  c.src_mr = c.src_pd->register_mr(buf_len);
  c.dst_mr = c.dst_pd->register_mr(buf_len);
  c.src_qp = c.src_pd->create_qp(*c.src_cq, cfg);
  c.dst_qp = c.dst_pd->create_qp(*c.dst_cq, cfg);
  const verbs::ConnectResult cr = c.src_qp->connect(*c.dst_qp);
  if (cr != verbs::ConnectResult::kOk) {
    std::fprintf(stderr, "ragnar_perf: QP connect failed: %s\n",
                 verbs::connect_result_name(cr));
    std::abort();
  }
  return c;
}

// One WR of `length` bytes against the start of the remote region.
inline verbs::PostResult post_one(Conn& c, verbs::WrOpcode opcode,
                                  std::uint32_t length) {
  verbs::SendWr wr;
  wr.opcode = opcode;
  wr.local_addr = c.src_mr->addr();
  wr.length = length;
  wr.remote_addr = c.dst_mr->addr();
  wr.rkey = c.dst_mr->rkey();
  return c.src_qp->post_send(wr);
}

}  // namespace ragnar::perf
