// Quickstart: the Ragnar verbs API in one file.
//
// Builds a simulated RDMA fabric (one server, one client, ConnectX-5
// profiles), registers memory, and runs the basic one-sided verbs —
// WRITE, READ, FETCH_ADD, CMP_SWAP — printing what a real RDMA program
// would observe: completion status, latency, and the protection errors you
// get when you reach outside a memory region.
#include <cstdio>
#include <cstring>

#include "revng/testbed.hpp"
#include "verbs/context.hpp"

using namespace ragnar;

namespace {

verbs::Wc run_one(revng::Testbed::Connection& conn, const verbs::SendWr& wr) {
  if (conn.qp().post_send(wr) != verbs::PostResult::kOk) {
    std::printf("post_send failed\n");
    return {};
  }
  conn.cq().run_until_available(1);
  verbs::Wc wc;
  conn.cq().poll_one(&wc);
  return wc;
}

}  // namespace

int main() {
  // One server + one client on a ConnectX-5 fabric.
  revng::Testbed bed(rnic::DeviceModel::kCX5, /*seed=*/7, /*clients=*/1);
  std::printf("fabric: server %s + 1 client, %s each\n",
              bed.profile().name.c_str(), bed.profile().name.c_str());

  // QP + CQ + a local staging MR, connected to the server (RC).
  auto conn = bed.connect(/*client_idx=*/0, /*qp_count=*/1,
                          /*max_send_wr=*/16, /*tc=*/0);
  // A remote MR on the server to play with.
  auto server_mr = conn.server_pd->register_mr(1u << 20);
  std::printf("registered 1 MiB server MR: rkey=%u base=0x%llx\n",
              server_mr->rkey(),
              static_cast<unsigned long long>(server_mr->addr()));

  // 1) RDMA WRITE: put a greeting into server memory.
  const char msg[] = "hello, RDMA!";
  std::memcpy(conn.client_mr->data(), msg, sizeof msg);
  verbs::SendWr wr;
  wr.opcode = verbs::WrOpcode::kRdmaWrite;
  wr.local_addr = conn.client_mr->addr();
  wr.length = sizeof msg;
  wr.remote_addr = server_mr->addr() + 4096;
  wr.rkey = server_mr->rkey();
  verbs::Wc wc = run_one(conn, wr);
  std::printf("WRITE  %-22s latency=%s\n", rnic::wc_status_name(wc.status),
              sim::format_duration(wc.latency()).c_str());

  // 2) RDMA READ it back into a clean buffer.
  std::memset(conn.client_mr->data(), 0, sizeof msg);
  wr.opcode = verbs::WrOpcode::kRdmaRead;
  wc = run_one(conn, wr);
  std::printf("READ   %-22s latency=%s payload=\"%s\"\n",
              rnic::wc_status_name(wc.status),
              sim::format_duration(wc.latency()).c_str(),
              reinterpret_cast<const char*>(conn.client_mr->data()));

  // 3) Atomics: FETCH_ADD twice, then a CMP_SWAP.
  wr.opcode = verbs::WrOpcode::kFetchAdd;
  wr.remote_addr = server_mr->addr();  // 8-aligned counter
  wr.length = 8;
  wr.compare_add = 5;
  run_one(conn, wr);
  wc = run_one(conn, wr);
  std::uint64_t fetched = 0;
  std::memcpy(&fetched, conn.client_mr->data(), 8);
  std::printf("FETCH_ADD(+5) twice: second op fetched %llu (expect 5)\n",
              static_cast<unsigned long long>(fetched));

  wr.opcode = verbs::WrOpcode::kCmpSwap;
  wr.compare_add = 10;  // expect the counter to be 10 now
  wr.swap = 777;
  wc = run_one(conn, wr);
  std::memcpy(&fetched, conn.client_mr->data(), 8);
  std::printf("CMP_SWAP(10 -> 777): %-22s old=%llu\n",
              rnic::wc_status_name(wc.status),
              static_cast<unsigned long long>(fetched));

  // 4) Protection: reading past the MR end fails with a remote access
  // error, like real verbs.
  wr.opcode = verbs::WrOpcode::kRdmaRead;
  wr.remote_addr = server_mr->addr() + server_mr->length() - 8;
  wr.length = 64;
  wc = run_one(conn, wr);
  std::printf("out-of-bounds READ: %s (expected REMOTE_ACCESS_ERROR)\n",
              rnic::wc_status_name(wc.status));

  // 5) Pipelining: fill the send queue and watch ULI, the paper's
  // per-message observable.
  wr.remote_addr = server_mr->addr();
  wr.length = 64;
  for (int i = 0; i < 16; ++i) conn.qp().post_send(wr);
  conn.cq().run_until_available(16);
  double uli = 0;
  while (conn.cq().poll_one(&wc)) uli = wc.uli_ns();
  std::printf("pipelined 16 READs: last ULI = %.1f ns "
              "(Lat_total/(len_sq+1), section IV-C)\n",
              uli);

  std::printf("\nsimulated time elapsed: %s; events processed: %llu\n",
              sim::format_duration(bed.sched().now()).c_str(),
              static_cast<unsigned long long>(bed.sched().events_processed()));
  return 0;
}
