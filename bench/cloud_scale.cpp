// cloud_scale: the sharded-engine scale-out scenario (docs/ENGINE.md §6).
// R racks — per rack one client host, one server host, and a ToR — joined
// by a full ToR-to-ToR mesh.  T tenants are spread round-robin over the
// racks; tenant i on rack r runs a closed-loop stream of 2 KiB READs
// against the *next* rack's server, so every request crosses the mesh and
// every rack both originates and serves traffic.
//
// Unlike the other cloud_* scenarios this one always runs windowed
// (--shards 0 means one shard), with rack r pinned to shard r % N: it is
// the workload the engine's conservative time-window parallelism is built
// for; the engine's speed is measured by the benchmark's cloud_read_par
// and cloud_read_serial workloads (docs/ENGINE.md §6), which run the same
// shape of model.  Per the determinism contract the stdout summary is
// byte-identical for every shard count; the events/sec line — the only
// host-timing-dependent output — goes to stderr.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/cloud_common.hpp"
#include "fabric/topology.hpp"
#include "rnic/device_profile.hpp"
#include "scenario/scenario.hpp"
#include "sim/coro.hpp"
#include "sim/engine.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"
#include "verbs/context.hpp"

using namespace ragnar;

namespace {

using cloud::Conn;
using cloud::connect;
using cloud::post_one;

constexpr std::uint32_t kReadBytes = 2u << 10;
constexpr std::uint32_t kDepth = 4;  // in-flight READs per tenant

struct ScaleResult {
  // Deterministic (stdout) half.
  std::uint64_t ops = 0;
  std::uint64_t bytes = 0;
  std::uint64_t min_tenant_ops = 0;
  std::uint64_t max_tenant_ops = 0;
  // Host-timing (stderr) half.
  std::uint64_t events = 0;
  std::uint64_t windows = 0;
  unsigned workers = 1;
  double wall_ms = 0;
};

ScaleResult run_scale(std::uint64_t seed, std::size_t tenants,
                      std::size_t racks, std::size_t shards,
                      sim::SimDur measure) {
  sim::Engine::Options eopts;
  // Always windowed: 1 shard is the determinism baseline, N shards the
  // parallel configuration with identical output.
  eopts.shards = shards == 0 ? 1 : static_cast<std::uint32_t>(shards);
  sim::Engine eng(eopts);
  const auto shard_of = [&](std::size_t rack) {
    return static_cast<sim::ShardId>(rack % eng.shard_count());
  };

  sim::Xoshiro256 rng(seed);
  const rnic::DeviceProfile prof = rnic::make_profile(rnic::DeviceModel::kCX5);
  fabric::Topology::Builder b(eng);
  std::vector<rnic::NodeId> client(racks), server(racks);
  std::vector<fabric::SwitchId> tor(racks);
  for (std::size_t r = 0; r < racks; ++r) {
    client[r] = b.add_host(prof, rng.fork(), shard_of(r));
    server[r] = b.add_host(prof, rng.fork(), shard_of(r));
    fabric::SwitchSpec spec;
    spec.buffer_bytes = 4u << 20;
    spec.pfc_xoff_bytes = 0;  // deep pool, PFC off: pure scale workload
    spec.name = "tor" + std::to_string(r);
    tor[r] = b.add_switch(spec, shard_of(r));
  }
  const auto access = fabric::LinkSpec::symmetric(sim::ns(500), 100.0);
  const auto mesh = fabric::LinkSpec::symmetric(sim::us(1), 100.0);
  for (std::size_t r = 0; r < racks; ++r) {
    b.link(fabric::NodeRef::host(client[r]), fabric::NodeRef::sw(tor[r]),
           access);
    b.link(fabric::NodeRef::host(server[r]), fabric::NodeRef::sw(tor[r]),
           access);
    for (std::size_t q = 0; q < r; ++q) {
      b.link(fabric::NodeRef::sw(tor[q]), fabric::NodeRef::sw(tor[r]), mesh);
    }
  }
  std::unique_ptr<fabric::Topology> topo = b.build();

  std::vector<std::unique_ptr<verbs::Context>> cctx(racks), sctx(racks);
  for (std::size_t r = 0; r < racks; ++r) {
    cctx[r] = std::make_unique<verbs::Context>(
        *topo, topo->host(client[r]), "c" + std::to_string(r));
    sctx[r] = std::make_unique<verbs::Context>(
        *topo, topo->host(server[r]), "s" + std::to_string(r));
  }

  verbs::QpConfig qp;
  qp.max_send_wr = 2 * kDepth;
  std::vector<Conn> conn;
  conn.reserve(tenants);
  for (std::size_t i = 0; i < tenants; ++i) {
    const std::size_t r = i % racks;
    conn.push_back(
        connect(*cctx[r], *sctx[(r + 1) % racks], 1, qp, 64u << 10));
  }

  const sim::SimTime t0 = sim::us(20);  // warmup: pipelines fill
  const sim::SimTime t_end = t0 + measure;

  // Per-tenant accounting: each slot is written by exactly one actor (on
  // its rack's shard), so plain uint64/uint8 slots are race-free; vectors
  // of bool would share bytes between shards.
  std::vector<std::uint64_t> ops(tenants, 0), bytes(tenants, 0);
  std::vector<std::uint8_t> done(tenants, 0);

  auto tenant_actor = [&](std::size_t i) -> sim::Task {
    Conn& c = conn[i];
    for (std::uint32_t d = 0; d < kDepth; ++d)
      post_one(c, verbs::WrOpcode::kRdmaRead, kReadBytes);
    verbs::Wc wc;
    while (eng.local_now() < t_end) {
      co_await c.cq().wait(1);
      while (c.cq().poll_one(&wc)) {
        if (wc.status == rnic::WcStatus::kSuccess && wc.completed_at >= t0 &&
            wc.completed_at < t_end) {
          ops[i] += 1;
          bytes[i] += wc.byte_len;
        }
        if (eng.local_now() < t_end)
          post_one(c, verbs::WrOpcode::kRdmaRead, kReadBytes);
      }
    }
    done[i] = 1;
  };

  for (std::size_t i = 0; i < tenants; ++i) {
    eng.spawn(tenant_actor(i), shard_of(i % racks));
  }

  const auto w0 = std::chrono::steady_clock::now();
  eng.run_while([&] {
    return std::any_of(done.begin(), done.end(),
                       [](std::uint8_t d) { return d == 0; });
  });
  const auto w1 = std::chrono::steady_clock::now();

  ScaleResult res;
  res.min_tenant_ops = ~std::uint64_t{0};
  for (std::size_t i = 0; i < tenants; ++i) {
    res.ops += ops[i];
    res.bytes += bytes[i];
    res.min_tenant_ops = std::min(res.min_tenant_ops, ops[i]);
    res.max_tenant_ops = std::max(res.max_tenant_ops, ops[i]);
  }
  res.events = eng.events_processed();
  res.windows = eng.windows_run();
  res.workers = eng.workers();
  res.wall_ms =
      std::chrono::duration<double, std::milli>(w1 - w0).count();
  return res;
}

}  // namespace

RAGNAR_SCENARIO(cloud_scale, "cloud",
                "multi-rack tenant scale-out on the sharded engine; "
                "closed-loop cross-rack READs",
                "128 tenants x 8 racks, 200 us measure",
                "--full 128/256/512/1024 tenants x 8 racks, 300 us measure") {
  ctx.header(
      "cloud scale-out on the sharded simulation engine",
      "R racks behind a full ToR mesh, tenants stream 2 KiB READs to the "
      "next rack's server; rack r runs on shard r % N — summary output is "
      "identical for every --shards value");

  const std::size_t racks = 8;
  const sim::SimDur measure = ctx.full ? sim::us(300) : sim::us(200);
  std::vector<std::size_t> sweep;
  if (ctx.full) {
    sweep = {128, 256, 512, 1024};
  } else {
    sweep = {128};
  }

  std::printf("racks=%zu measure_us=%.0f read_bytes=%u depth=%u\n", racks,
              sim::to_us(measure), kReadBytes, kDepth);
  std::printf("%8s %12s %14s %12s %12s %12s\n", "tenants", "total_ops",
              "goodput_gbps", "ops_mean", "ops_min", "ops_max");
  for (const std::size_t tenants : sweep) {
    const ScaleResult r =
        run_scale(ctx.seed, tenants, racks, ctx.shards, measure);
    const double gbps = static_cast<double>(r.bytes) * 8.0 / 1e9 /
                        sim::to_sec(measure);
    std::printf("%8zu %12llu %14.3f %12.1f %12llu %12llu\n", tenants,
                static_cast<unsigned long long>(r.ops), gbps,
                static_cast<double>(r.ops) / static_cast<double>(tenants),
                static_cast<unsigned long long>(r.min_tenant_ops),
                static_cast<unsigned long long>(r.max_tenant_ops));
    std::fprintf(stderr,
                 "[cloud_scale] tenants=%zu workers=%u windows=%llu "
                 "events=%llu wall_ms=%.1f events_per_sec=%.0f\n",
                 tenants, r.workers,
                 static_cast<unsigned long long>(r.windows),
                 static_cast<unsigned long long>(r.events), r.wall_ms,
                 r.wall_ms > 0
                     ? static_cast<double>(r.events) / (r.wall_ms / 1e3)
                     : 0.0);
  }
  return 0;
}
