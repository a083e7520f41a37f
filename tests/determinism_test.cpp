// End-to-end determinism regression for the event-core rewrite.
//
// The simulator contract (same-time events fire in scheduling order) is
// unit-tested in sim_test.cpp; here we pin the system-level consequence: a
// full sPIN-PBT k=4 replicated write — thousands of events, deep tie
// chains across NIC/link/HPU schedulers — must produce byte-identical
// storage contents on every replica and the identical final simulated time
// on every run. Any heap/order regression shows up as a diff here.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "services/client.hpp"
#include "services/cluster.hpp"

namespace nadfs {
namespace {

using services::Client;
using services::Cluster;
using services::ClusterConfig;
using services::FilePolicy;

Bytes random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Bytes out(n);
  for (auto& b : out) b = rng.next_byte();
  return out;
}

struct RunResult {
  bool ok = false;
  TimePs final_time = 0;
  std::uint64_t executed_events = 0;
  std::vector<Bytes> replicas;
};

RunResult run_spin_pbt_k4(std::size_t size, std::uint64_t seed) {
  ClusterConfig cfg;
  cfg.storage_nodes = 4;
  Cluster cluster(cfg);
  Client client(cluster, 0);
  FilePolicy policy;
  policy.resiliency = dfs::Resiliency::kReplication;
  policy.strategy = dfs::ReplStrategy::kPbt;
  policy.repl_k = 4;
  const auto& layout = cluster.metadata().create("o", size, policy);
  const auto cap = cluster.metadata().grant(client.client_id(), layout, auth::Right::kWrite);
  const Bytes data = random_bytes(size, seed);

  RunResult r;
  client.write(layout, cap, data, [&r](dfs::DfsError err, TimePs) {
    r.ok = err == dfs::DfsError::kOk;
  });
  r.final_time = cluster.sim().run();
  r.executed_events = cluster.sim().executed_events();
  for (const auto& coord : layout.targets) {
    r.replicas.push_back(cluster.storage_by_node(coord.node).target().read(coord.addr, size));
  }
  return r;
}

TEST(Determinism, SpinPbtK4RunIsReproducible) {
  // Multi-packet write with a ragged tail so completion/tail events create
  // plenty of same-time ties.
  const std::size_t size = 5 * 2048 + 13;
  const auto first = run_spin_pbt_k4(size, 7);
  const auto second = run_spin_pbt_k4(size, 7);

  ASSERT_TRUE(first.ok);
  ASSERT_TRUE(second.ok);
  EXPECT_EQ(first.final_time, second.final_time);
  EXPECT_EQ(first.executed_events, second.executed_events);
  ASSERT_EQ(first.replicas.size(), 4u);
  EXPECT_EQ(first.replicas, second.replicas);

  // And the contents are the payload itself, byte-identical on every
  // replica — not merely reproducibly wrong.
  const Bytes data = random_bytes(size, 7);
  for (std::size_t i = 0; i < first.replicas.size(); ++i) {
    EXPECT_EQ(first.replicas[i], data) << "replica " << i;
  }
}

/// FNV-1a over (final_time, executed_events, replica contents) — the full
/// observable outcome of a run folded into one value.
std::uint64_t run_digest(const RunResult& r) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix_byte = [&h](unsigned char b) {
    h ^= b;
    h *= 1099511628211ull;
  };
  const auto mix_u64 = [&](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) mix_byte(static_cast<unsigned char>(v >> (8 * i)));
  };
  mix_u64(r.final_time);
  mix_u64(r.executed_events);
  for (const auto& replica : r.replicas) {
    for (const auto b : replica) mix_byte(b);
  }
  return h;
}

TEST(Determinism, SpinPbtK4DigestPinnedAcrossQueueSwap) {
  // Calendar-queue replay pin: these digests were recorded at commit
  // bf5d7b8 with the PR 1 binary-heap event core (build/digest_probe run,
  // 2026-08-07), BEFORE the calendar-queue swap. The swap — and any future
  // event-core change — must reproduce the heap's schedule byte-for-byte.
  // If a deliberate timing-model change breaks this, re-record the
  // constants and say so in the commit message.
  EXPECT_EQ(run_digest(run_spin_pbt_k4(5 * 2048 + 13, 7)), 0xc0411f89e10c90ccull);
  EXPECT_EQ(run_digest(run_spin_pbt_k4(64 * KiB, 21)), 0x4fa062e29be13837ull);
}

TEST(Determinism, LargerPbtWriteIsReproducible) {
  const std::size_t size = 64 * KiB;
  const auto first = run_spin_pbt_k4(size, 21);
  const auto second = run_spin_pbt_k4(size, 21);
  ASSERT_TRUE(first.ok && second.ok);
  EXPECT_EQ(first.final_time, second.final_time);
  EXPECT_EQ(first.executed_events, second.executed_events);
  EXPECT_EQ(first.replicas, second.replicas);
}

}  // namespace
}  // namespace nadfs
