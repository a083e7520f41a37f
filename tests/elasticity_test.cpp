// Cluster elasticity suite: node restart/rejoin, planned drain, and the
// background rebalancer — the lifecycle beyond "nodes only ever die".
//
// Covers the full alive -> suspected -> failed -> (restart) -> alive loop
// driven by the failure detector's rejoin confirmation probes, planned
// decommission through Rebalancer::drain_node, skew-driven background
// migration under a bandwidth budget, and the placement-path bugfixes that
// ride along (typed kNoQuorum creates, partition-held spare allocation,
// serialized rebuilds).
//
// Chaos methodology (PR 4): seeded scenarios run twice and must produce
// bit-identical FNV digests; NADFS_CHAOS_SEED varies the seed and
// scripts/check.sh re-runs these suites under a second seed, so
// assertions hold for any seed and anything seed-dependent is
// digest-folded, not pinned.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <set>

#include "common/rng.hpp"
#include "services/failure_detector.hpp"
#include "services/rebalancer.hpp"
#include "workload/workload.hpp"

namespace nadfs {
namespace {

using services::Client;
using services::Cluster;
using services::ClusterConfig;
using services::FailureDetector;
using services::FilePolicy;
using services::Rebalancer;
using services::RebalancerConfig;
using services::RecoveryManager;

std::uint64_t chaos_seed() {
  const char* env = std::getenv("NADFS_CHAOS_SEED");
  if (env == nullptr || *env == '\0') return 1;
  return std::strtoull(env, nullptr, 10);
}

Bytes random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Bytes out(n);
  for (auto& b : out) b = rng.next_byte();
  return out;
}

struct Digest {
  std::uint64_t h = 1469598103934665603ull;
  void u8(std::uint8_t b) {
    h ^= b;
    h *= 1099511628211ull;
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void bytes(const Bytes& b) {
    u64(b.size());
    for (auto x : b) u8(x);
  }
  void counters(const net::FaultCounters& fc) {
    u64(fc.tx_drops);
    u64(fc.rx_drops);
    u64(fc.random_drops);
    u64(fc.duplicates);
    u64(fc.corruptions);
  }
  void detector(const FailureDetector& det) {
    u64(det.probes_sent());
    u64(det.probes_missed());
    u64(det.indirect_probes());
    u64(det.escalations_held());
    u64(det.rejoins());
  }
};

/// Systematic plain read of an EC layout: fetch the k data chunks directly
/// and concatenate.
Bytes ec_plain_read(Cluster& cluster, Client& client, const services::FileLayout& layout) {
  const auto k = layout.targets.size();
  std::vector<Bytes> parts(k);
  for (std::size_t i = 0; i < k; ++i) {
    const auto& coord = layout.targets[i];
    const auto cap =
        cluster.management().grant(client.client_id(), layout.object_id, auth::Right::kRead, 0,
                                   coord.addr, layout.chunk_len);
    client.read_extent(coord, cap, static_cast<std::uint32_t>(layout.chunk_len),
                       [&parts, i](dfs::DfsError, Bytes d, TimePs) { parts[i] = std::move(d); });
  }
  cluster.sim().run();
  Bytes out;
  out.reserve(k * layout.chunk_len);
  for (auto& p : parts) out.insert(out.end(), p.begin(), p.end());
  out.resize(layout.size);
  return out;
}

/// Read an object through its *current* layout with a freshly minted
/// capability (migrations re-home extents, so stale caps don't cover them).
Bytes read_current(Cluster& cluster, Client& client, const std::string& name,
                   std::uint32_t len) {
  const services::FileLayout* layout = cluster.metadata().lookup(name);
  if (layout == nullptr) return {};
  const auto cap = cluster.metadata().grant(client.client_id(), *layout, auth::Right::kRead);
  Bytes got;
  client.read(*layout, cap, len, [&got](dfs::DfsError, Bytes d, TimePs) { got = std::move(d); });
  cluster.sim().run();
  return got;
}

/// True when any coordinate of any layout still lives on `node`.
bool hosts_anything(Cluster& cluster, net::NodeId node) {
  for (const auto& name : cluster.metadata().list("")) {
    const auto* l = cluster.metadata().lookup(name);
    if (l == nullptr) continue;
    for (const auto& c : l->targets) {
      if (c.node == node) return true;
    }
    for (const auto& c : l->parity) {
      if (c.node == node) return true;
    }
  }
  return false;
}

// =============================================================== Rejoin

// Tentpole loop under load: a storage node is killed mid-run, the detector
// declares it failed and recovery re-homes its chunk; the node then
// restarts (FaultPlan::restart_at + StorageNode::restart_dfs) and the
// detector walks it failed -> alive after rejoin_probes consecutive
// answered heartbeats, re-admitting it to placement. A plain-write load
// runs throughout, and same-bytes rewrites of the EC object land in
// whatever failure state the seed produces. Digest of everything.
std::uint64_t run_kill_restart_rejoin(std::uint64_t seed) {
  ClusterConfig cfg;
  cfg.storage_nodes = 7;
  cfg.clients = 2;
  Cluster cluster(cfg);
  Client writer(cluster, 0);
  Client prober(cluster, 1);
  RecoveryManager recovery(cluster, writer);

  FilePolicy policy;
  policy.resiliency = dfs::Resiliency::kErasureCoding;
  policy.ec_k = 3;
  policy.ec_m = 2;
  const std::size_t size = 48000;
  const auto& layout = cluster.metadata().create("obj", size, policy);
  const auto cap = cluster.metadata().grant(writer.client_id(), layout, auth::Right::kReadWrite);
  const Bytes data = random_bytes(size, 42);

  bool v1_ok = false;
  writer.write(layout, cap, data, [&](dfs::DfsError err, TimePs) {
    v1_ok = err == dfs::DfsError::kOk;
  });
  cluster.sim().run();
  EXPECT_TRUE(v1_ok) << "seed " << seed;
  const TimePs t0 = cluster.sim().now();

  // A small plain object carries the background load through the episode.
  const auto& hot = cluster.metadata().create("hot", 4 * KiB, FilePolicy{});
  const auto hot_cap = cluster.metadata().grant(writer.client_id(), hot, auth::Right::kReadWrite);

  Rng jitter(seed);
  net::FaultPlan plan;
  plan.set_seed(seed);
  const net::NodeId victim = layout.parity[0].node;
  const TimePs kill_at = t0 + ns(200) + jitter.next_below(us(1));
  const TimePs restart_time = kill_at + us(150);  // well past detection (~80 us)
  plan.kill_node(victim, kill_at);
  plan.restart_at(victim, restart_time);
  cluster.network().install_faults(plan);
  // The revived machine comes back with cold NIC state; NVMM survives.
  cluster.sim().schedule_at(restart_time, [&cluster, victim] {
    cluster.storage_by_node(victim).restart_dfs();
  });

  writer.set_timeout(us(30));
  writer.set_retry_policy(2, us(10));

  // Load: 40 plain writes at a steady cadence, plus 3 same-bytes EC
  // rewrites that land in whatever failure state the seed puts the cluster
  // in (same bytes keep every surviving chunk consistent either way).
  std::uint64_t hot_ok = 0, hot_failed = 0;
  Bytes hot_last;
  for (int i = 0; i < 40; ++i) {
    const TimePs at = t0 + us(5) + static_cast<TimePs>(i) * us(10);
    cluster.sim().schedule_at(at, [&, i] {
      Bytes content = random_bytes(4 * KiB, 500 + static_cast<std::uint64_t>(i));
      writer.write(hot, hot_cap, std::move(content), [&, i](dfs::DfsError err, TimePs) {
        if (err == dfs::DfsError::kOk) {
          ++hot_ok;
          hot_last = random_bytes(4 * KiB, 500 + static_cast<std::uint64_t>(i));
        } else {
          ++hot_failed;
        }
      });
    });
  }
  std::uint64_t obj_rewrite_outcomes = 0;
  for (int i = 0; i < 3; ++i) {
    const TimePs at = t0 + us(60) + static_cast<TimePs>(i) * us(120) + jitter.next_below(us(5));
    cluster.sim().schedule_at(at, [&, i] {
      writer.write(layout, cap, data, [&, i](dfs::DfsError err, TimePs) {
        obj_rewrite_outcomes |= (err == dfs::DfsError::kOk ? 1ull : 2ull) << (2 * i);
      });
    });
  }

  FailureDetector detector(cluster, prober);
  TimePs detected_at = 0, rejoined_at = 0, rebuilt_at = 0;
  std::optional<services::FileLayout> repaired;
  detector.set_on_failure([&](net::NodeId node, TimePs at) {
    EXPECT_EQ(node, victim) << "seed " << seed;
    if (detected_at != 0) return;
    detected_at = at;
    recovery.rebuild("obj", detector.failed(),
                     [&](std::optional<services::FileLayout> l, TimePs t) {
                       repaired = std::move(l);
                       rebuilt_at = t;
                     });
  });
  detector.set_on_rejoin([&](net::NodeId node, TimePs at) {
    EXPECT_EQ(node, victim) << "seed " << seed;
    rejoined_at = at;
  });
  detector.start();
  cluster.sim().run_until(t0 + us(700));
  detector.stop();
  cluster.sim().run();

  // Failure was detected, the chunk re-homed, and the node rejoined.
  EXPECT_GT(detected_at, kill_at) << "seed " << seed;
  EXPECT_TRUE(repaired.has_value()) << "seed " << seed;
  if (repaired.has_value()) {
    for (const auto& c : repaired->targets) EXPECT_NE(c.node, victim);
    for (const auto& c : repaired->parity) EXPECT_NE(c.node, victim);
  }
  EXPECT_GE(rejoined_at, restart_time) << "seed " << seed;
  EXPECT_EQ(detector.rejoins(), 1u) << "seed " << seed;
  EXPECT_EQ(detector.health(victim), FailureDetector::Health::kAlive) << "seed " << seed;
  EXPECT_TRUE(detector.failed().empty()) << "seed " << seed;
  // Placement re-inclusion: the rejoined node takes spares again.
  EXPECT_FALSE(cluster.metadata().excluded(victim)) << "seed " << seed;
  std::vector<net::NodeId> avoid;
  for (std::size_t i = 0; i < cluster.storage_node_count(); ++i) {
    const net::NodeId id = cluster.storage_node(i).id();
    if (id != victim) avoid.push_back(id);
  }
  const auto spare = cluster.metadata().try_allocate_spare(4 * KiB, avoid);
  EXPECT_TRUE(spare.has_value()) << "seed " << seed;
  if (spare.has_value()) {
    EXPECT_EQ(spare->node, victim) << "seed " << seed;
  }

  // Zero data loss: the repaired object reads byte-equal, and the load
  // object holds the last successful write.
  const auto* current = cluster.metadata().lookup("obj");
  EXPECT_NE(current, nullptr);
  if (current == nullptr) return 0;
  const Bytes plain = ec_plain_read(cluster, writer, *current);
  EXPECT_EQ(plain, data) << "seed " << seed;
  EXPECT_GT(hot_ok, 0u) << "seed " << seed;
  if (!hot_last.empty()) {
    EXPECT_EQ(read_current(cluster, writer, "hot", 4 * KiB), hot_last) << "seed " << seed;
  }
  EXPECT_EQ(writer.tracker().pending_count(), 0u);
  EXPECT_EQ(prober.tracker().pending_count(), 0u);

  Digest d;
  d.bytes(plain);
  d.u64(detected_at);
  d.u64(rebuilt_at);
  d.u64(rejoined_at);
  d.u64(kill_at);
  d.u64(hot_ok);
  d.u64(hot_failed);
  d.u64(obj_rewrite_outcomes);
  d.detector(detector);
  d.counters(cluster.network().fault_counters());
  d.u64(writer.tracker().late_acks());
  d.u64(cluster.sim().executed_events());
  return d.h;
}

TEST(Rejoin, KillRestartRejoinUnderLoadIsDeterministic) {
  const std::uint64_t seed = chaos_seed();
  const auto first = run_kill_restart_rejoin(seed);
  if (::testing::Test::HasFatalFailure()) return;
  const auto second = run_kill_restart_rejoin(seed);
  EXPECT_EQ(first, second) << "same seed must replay identically (seed " << seed << ")";
}

// A node that restarts *behind a partition* must not rejoin until its
// confirmation probes actually get through: rejoin_probes consecutive
// answered heartbeats, and a trunk cut answers none of them.
std::uint64_t run_restart_during_partition(std::uint64_t seed) {
  ClusterConfig cfg;
  cfg.storage_nodes = 6;
  cfg.clients = 1;  // prober on node 6, leaf 0
  cfg.network.topology = net::Topology::leaf_spine(2, 1);
  Cluster cluster(cfg);
  const net::SwitchId spine = cluster.network().topology().spine_id(0);
  Client prober(cluster, 0);
  FailureDetector detector(cluster, prober);

  const net::NodeId victim = 1;  // leaf 1: opposite side from the prober
  EXPECT_EQ(cluster.network().topology().leaf_of(victim), 1u);

  Rng jitter(seed);
  net::FaultPlan plan;
  plan.set_seed(seed);
  const TimePs kill_at = us(20) + jitter.next_below(us(5));
  const TimePs cut_at = us(200);
  const TimePs heal_at = us(500);
  const TimePs restart_time = us(250) + jitter.next_below(us(10));  // mid-cut
  plan.kill_node(victim, kill_at);
  plan.restart_at(victim, restart_time);
  plan.trunk_down(0, spine, cut_at, heal_at);
  cluster.network().install_faults(plan);
  cluster.sim().schedule_at(restart_time, [&cluster, victim] {
    cluster.storage_by_node(victim).restart_dfs();
  });

  TimePs rejoined_at = 0;
  detector.set_on_rejoin([&](net::NodeId node, TimePs at) {
    EXPECT_EQ(node, victim) << "seed " << seed;
    rejoined_at = at;
  });

  // Deep inside the cut, well after the restart: the node is back up at
  // the network level but its heartbeats die on the trunk — it must still
  // be failed, with zero rejoins booked.
  bool mid_cut_failed = false;
  bool mid_cut_excluded = false;
  std::uint64_t mid_cut_rejoins = 0;
  cluster.sim().schedule_at(us(450), [&] {
    mid_cut_failed = detector.health(victim) == FailureDetector::Health::kFailed;
    mid_cut_excluded = cluster.metadata().excluded(victim);
    mid_cut_rejoins = detector.rejoins();
  });

  detector.start();
  cluster.sim().run_until(us(800));
  detector.stop();
  cluster.sim().run();

  EXPECT_TRUE(mid_cut_failed) << "seed " << seed;
  EXPECT_TRUE(mid_cut_excluded) << "seed " << seed;
  EXPECT_EQ(mid_cut_rejoins, 0u) << "seed " << seed;

  // After the heal the probes land and the node rejoins.
  EXPECT_GT(rejoined_at, heal_at) << "seed " << seed;
  EXPECT_EQ(detector.rejoins(), 1u) << "seed " << seed;
  EXPECT_EQ(detector.health(victim), FailureDetector::Health::kAlive) << "seed " << seed;
  EXPECT_FALSE(cluster.metadata().excluded(victim)) << "seed " << seed;
  // The cut parked the other far-side peers (quorum hold) without failing
  // them, and every hold was released on rehabilitation.
  EXPECT_TRUE(detector.failed().empty()) << "seed " << seed;
  for (std::size_t i = 0; i < cluster.storage_node_count(); ++i) {
    const net::NodeId id = cluster.storage_node(i).id();
    EXPECT_EQ(detector.health(id), FailureDetector::Health::kAlive) << "seed " << seed;
    EXPECT_FALSE(cluster.metadata().held(id)) << "seed " << seed;
  }

  Digest d;
  d.u64(kill_at);
  d.u64(restart_time);
  d.u64(rejoined_at);
  d.detector(detector);
  d.counters(cluster.network().fault_counters());
  d.u64(cluster.network().fault_counters().trunk_drops);
  d.u64(cluster.sim().executed_events());
  return d.h;
}

TEST(Rejoin, RestartDuringPartitionWaitsForConfirmationProbes) {
  const std::uint64_t seed = chaos_seed();
  const auto first = run_restart_during_partition(seed);
  if (::testing::Test::HasFatalFailure()) return;
  const auto second = run_restart_during_partition(seed);
  EXPECT_EQ(first, second) << "same seed must replay identically (seed " << seed << ")";
}

// Satellite: overlapping rebuilds of the same object are serialized.
// Without per-name serialization, the second rebuild snapshots the
// pre-repair layout and its update_layout resurrects the first victim's
// re-homed coordinate — the double-adoption race a rejoin-mid-rebuild (or
// second failure) triggers. The deferred rebuild must run against the
// *published* layout of the first.
TEST(Rejoin, OverlappingRebuildsAreSerializedNotDoubleAdopted) {
  ClusterConfig cfg;
  cfg.storage_nodes = 8;
  Cluster cluster(cfg);
  Client writer(cluster, 0);
  RecoveryManager recovery(cluster, writer);

  FilePolicy policy;
  policy.resiliency = dfs::Resiliency::kErasureCoding;
  policy.ec_k = 3;
  policy.ec_m = 2;
  const std::size_t size = 48000;
  const auto& layout = cluster.metadata().create("obj", size, policy);
  const auto cap = cluster.metadata().grant(writer.client_id(), layout, auth::Right::kWrite);
  const Bytes data = random_bytes(size, 42);
  bool wrote = false;
  writer.write(layout, cap, data, [&](dfs::DfsError err, TimePs) {
    wrote = err == dfs::DfsError::kOk;
  });
  cluster.sim().run();
  ASSERT_TRUE(wrote);

  const net::NodeId v1 = layout.targets[0].node;
  const net::NodeId v2 = layout.parity[0].node;

  // Two rebuilds for the same name, back to back: the second must defer
  // until the first publishes, then run against the updated layout.
  std::optional<services::FileLayout> first, second;
  TimePs first_at = 0, second_at = 0;
  recovery.rebuild("obj", {v1}, [&](std::optional<services::FileLayout> l, TimePs at) {
    first = std::move(l);
    first_at = at;
  });
  recovery.rebuild("obj", {v2}, [&](std::optional<services::FileLayout> l, TimePs at) {
    second = std::move(l);
    second_at = at;
  });
  EXPECT_EQ(recovery.rebuilds_deferred(), 1u);
  cluster.sim().run();

  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_GT(second_at, first_at);  // strictly serialized, not interleaved
  // The final layout re-homes BOTH victims: the second rebuild saw the
  // first's published layout, so v1's old coordinate was not resurrected.
  std::set<net::NodeId> nodes;
  for (const auto& c : second->targets) nodes.insert(c.node);
  for (const auto& c : second->parity) nodes.insert(c.node);
  EXPECT_EQ(nodes.size(), 5u);  // k+m distinct nodes, no double adoption
  EXPECT_EQ(nodes.count(v1), 0u);
  EXPECT_EQ(nodes.count(v2), 0u);
  // And the metadata service agrees with the callback's copy.
  const auto* current = cluster.metadata().lookup("obj");
  ASSERT_NE(current, nullptr);
  for (const auto& c : current->targets) EXPECT_NE(c.node, v1);
  for (const auto& c : current->targets) EXPECT_NE(c.node, v2);

  // Byte-equal through the twice-repaired layout.
  EXPECT_EQ(ec_plain_read(cluster, writer, *current), data);
  EXPECT_EQ(writer.tracker().pending_count(), 0u);
}

// ================================================================ Drain

// Planned decommission under a write load: every extent on the draining
// node migrates off under the bandwidth budget, the node is removed from
// the placement view and retired from the probe loop, and no byte is lost
// — neither on the drained objects nor under the concurrent writes.
std::uint64_t run_drain_during_writes(std::uint64_t seed) {
  ClusterConfig cfg;
  cfg.storage_nodes = 5;
  cfg.clients = 3;
  Cluster cluster(cfg);
  Client writer(cluster, 0);
  Client mover(cluster, 1);
  Client prober(cluster, 2);
  mover.set_timeout(us(50));

  // Ten plain objects round-robin over five nodes: two land on the victim.
  const std::size_t size = 64 * KiB;
  std::vector<Bytes> expected(10);
  std::vector<auth::Capability> caps;
  for (int i = 0; i < 10; ++i) {
    const std::string name = "d" + std::to_string(i);
    const auto& l = cluster.metadata().create(name, size, FilePolicy{});
    caps.push_back(cluster.metadata().grant(writer.client_id(), l, auth::Right::kReadWrite));
    expected[i] = random_bytes(size, 1000 + static_cast<std::uint64_t>(i));
    bool ok = false;
    writer.write(l, caps.back(), expected[i], [&ok](dfs::DfsError err, TimePs) {
      ok = err == dfs::DfsError::kOk;
    });
    cluster.sim().run();
    EXPECT_TRUE(ok) << "seed " << seed;
  }
  const TimePs t0 = cluster.sim().now();
  const net::NodeId victim = cluster.storage_node(0).id();
  std::uint64_t victim_extents = 0;
  for (int i = 0; i < 10; ++i) {
    const auto* l = cluster.metadata().lookup("d" + std::to_string(i));
    if (l != nullptr && l->targets[0].node == victim) ++victim_extents;
  }
  EXPECT_GT(victim_extents, 0u) << "seed " << seed;

  FailureDetector detector(cluster, prober);
  RebalancerConfig rcfg;
  rcfg.interval = us(20);
  rcfg.skew_threshold = 64 * MiB;  // drain work only — no skew moves racing the writes
  rcfg.bytes_per_tick = 128 * KiB;
  Rebalancer rebalancer(cluster, mover, rcfg);
  rebalancer.set_detector(&detector);
  detector.start();
  rebalancer.start();

  bool drain_ok = false;
  TimePs drained_at = 0;
  rebalancer.drain_node(victim, [&](dfs::DfsError err, TimePs at) {
    drain_ok = err == dfs::DfsError::kOk;
    drained_at = at;
  });

  // Concurrent writes to the objects NOT hosted on the draining node (the
  // drained ones stay read-only: migration copies them byte-for-byte).
  Rng jitter(seed);
  writer.set_timeout(us(40));
  writer.set_retry_policy(1, us(10));
  std::uint64_t writes_ok = 0, writes_failed = 0;
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < 10; ++i) {
      const auto* l = cluster.metadata().lookup("d" + std::to_string(i));
      EXPECT_NE(l, nullptr);
      if (l == nullptr || l->targets[0].node == victim) continue;
      const TimePs at = t0 + us(10) + static_cast<TimePs>(round) * us(80) +
                        static_cast<TimePs>(i) * us(7) + jitter.next_below(us(3));
      cluster.sim().schedule_at(at, [&, i, round] {
        Bytes content =
            random_bytes(size, 2000 + static_cast<std::uint64_t>(i) * 10 +
                                   static_cast<std::uint64_t>(round));
        writer.write(*cluster.metadata().lookup("d" + std::to_string(i)), caps[i],
                     std::move(content), [&, i, round](dfs::DfsError err, TimePs) {
                       if (err == dfs::DfsError::kOk) {
                         ++writes_ok;
                         expected[i] = random_bytes(
                             size, 2000 + static_cast<std::uint64_t>(i) * 10 +
                                       static_cast<std::uint64_t>(round));
                       } else {
                         ++writes_failed;
                       }
                     });
      });
    }
  }

  cluster.sim().run_until(t0 + ms(1));
  rebalancer.stop();
  detector.stop();
  cluster.sim().run();

  // The decommission completed cleanly.
  EXPECT_TRUE(drain_ok) << "seed " << seed;
  EXPECT_GT(drained_at, t0) << "seed " << seed;
  EXPECT_EQ(rebalancer.drains_completed(), 1u) << "seed " << seed;
  EXPECT_EQ(rebalancer.moves(), victim_extents) << "seed " << seed;
  EXPECT_EQ(rebalancer.moved_bytes(), victim_extents * size) << "seed " << seed;
  EXPECT_EQ(rebalancer.moves_aborted(), 0u) << "seed " << seed;
  EXPECT_TRUE(cluster.metadata().removed(victim)) << "seed " << seed;
  EXPECT_FALSE(hosts_anything(cluster, victim)) << "seed " << seed;
  // Retired from the probe loop, never declared failed.
  EXPECT_TRUE(detector.failed().empty()) << "seed " << seed;
  EXPECT_EQ(detector.health(victim), FailureDetector::Health::kDraining) << "seed " << seed;

  // Zero data loss: every object reads byte-equal through its current
  // layout — migrated copies and rewritten ones alike.
  Digest d;
  for (int i = 0; i < 10; ++i) {
    const Bytes got = read_current(cluster, writer, "d" + std::to_string(i),
                                   static_cast<std::uint32_t>(size));
    EXPECT_EQ(got, expected[i]) << "object d" << i << " seed " << seed;
    d.bytes(got);
  }
  EXPECT_GT(writes_ok, 0u) << "seed " << seed;
  EXPECT_EQ(writer.tracker().pending_count(), 0u);
  EXPECT_EQ(mover.tracker().pending_count(), 0u);

  d.u64(drained_at);
  d.u64(rebalancer.moves());
  d.u64(rebalancer.moved_bytes());
  d.u64(writes_ok);
  d.u64(writes_failed);
  d.detector(detector);
  d.counters(cluster.network().fault_counters());
  d.u64(cluster.sim().executed_events());
  return d.h;
}

TEST(Drain, DrainDuringWritesMigratesEverythingAndRetiresNode) {
  const std::uint64_t seed = chaos_seed();
  const auto first = run_drain_during_writes(seed);
  if (::testing::Test::HasFatalFailure()) return;
  const auto second = run_drain_during_writes(seed);
  EXPECT_EQ(first, second) << "same seed must replay identically (seed " << seed << ")";
}

TEST(Drain, DrainedNodeReceivesNoNewPlacementsAndRemovalShrinksTheView) {
  ClusterConfig cfg;
  cfg.storage_nodes = 4;
  Cluster cluster(cfg);
  auto& meta = cluster.metadata();
  const net::NodeId victim = cluster.storage_node(2).id();

  meta.drain(victim);
  EXPECT_TRUE(meta.draining(victim));
  EXPECT_EQ(meta.eligible_node_count(), 3u);
  EXPECT_EQ(meta.placeable_node_count(), 4u);  // draining still counts as placeable

  for (int i = 0; i < 8; ++i) {
    const auto [err, layout] = meta.try_create("obj" + std::to_string(i), 4 * KiB, FilePolicy{});
    ASSERT_EQ(err, dfs::DfsError::kOk);
    for (const auto& c : layout->targets) EXPECT_NE(c.node, victim);
  }
  // Spares skip it too.
  for (int i = 0; i < 4; ++i) {
    const auto spare = meta.try_allocate_spare(4 * KiB, {});
    ASSERT_TRUE(spare.has_value());
    EXPECT_NE(spare->node, victim);
  }

  // Removal takes it out of the placement view for good: a policy needing
  // every original node is now structurally unsatisfiable (kBadArg), not
  // transiently short (kNoQuorum).
  meta.remove_node(victim);
  EXPECT_TRUE(meta.removed(victim));
  EXPECT_FALSE(meta.draining(victim));
  EXPECT_EQ(meta.placeable_node_count(), 3u);
  FilePolicy repl4;
  repl4.resiliency = dfs::Resiliency::kReplication;
  repl4.repl_k = 4;
  EXPECT_EQ(meta.try_create("wide", 4 * KiB, repl4).first, dfs::DfsError::kBadArg);
  FilePolicy repl3 = repl4;
  repl3.repl_k = 3;
  const auto [err3, l3] = meta.try_create("fits", 4 * KiB, repl3);
  ASSERT_EQ(err3, dfs::DfsError::kOk);
  for (const auto& c : l3->targets) EXPECT_NE(c.node, victim);
}

// =========================================================== Elasticity

// Satellite: capacity exhaustion is a typed, *retryable* verdict. A policy
// the cluster could normally satisfy NACKs kNoQuorum (not a throw, not
// kBadArg) while failures shrink the eligible set, and the same create
// succeeds once nodes are readmitted; kBadArg stays reserved for policies
// no amount of healing can place.
TEST(Elasticity, CreateNoQuorumIsTypedAndRetryable) {
  ClusterConfig cfg;
  cfg.storage_nodes = 4;
  Cluster cluster(cfg);
  Client client(cluster, 0);
  auto& meta = cluster.metadata();

  FilePolicy repl3;
  repl3.resiliency = dfs::Resiliency::kReplication;
  repl3.repl_k = 3;

  meta.exclude_from_placement(cluster.storage_node(0).id());
  meta.exclude_from_placement(cluster.storage_node(1).id());
  EXPECT_EQ(meta.eligible_node_count(), 2u);

  // Transient shortage: eligible (2) < want (3) <= placeable (4).
  std::pair<dfs::DfsError, const services::FileLayout*> r;
  EXPECT_NO_THROW(r = meta.try_create("obj", 16 * KiB, repl3));
  EXPECT_EQ(r.first, dfs::DfsError::kNoQuorum);
  EXPECT_EQ(r.second, nullptr);
  EXPECT_EQ(client.create("obj", 16 * KiB, repl3), dfs::DfsError::kNoQuorum);

  // Structural impossibility stays kBadArg even with nodes down.
  FilePolicy repl5 = repl3;
  repl5.repl_k = 5;
  EXPECT_EQ(meta.try_create("wide", 16 * KiB, repl5).first, dfs::DfsError::kBadArg);
  FilePolicy ec32;
  ec32.resiliency = dfs::Resiliency::kErasureCoding;
  ec32.ec_k = 3;
  ec32.ec_m = 2;
  EXPECT_EQ(meta.try_create("ec", 16 * KiB, ec32).first, dfs::DfsError::kBadArg);

  // Spare allocation reports the same way, typed instead of throwing.
  std::vector<net::NodeId> avoid = {cluster.storage_node(2).id(),
                                    cluster.storage_node(3).id()};
  EXPECT_FALSE(meta.try_allocate_spare(4 * KiB, avoid).has_value());
  EXPECT_THROW(meta.allocate_spare(4 * KiB, avoid), std::runtime_error);

  // The retry story: nodes rejoin, the same create now lands.
  meta.readmit_to_placement(cluster.storage_node(0).id());
  meta.readmit_to_placement(cluster.storage_node(1).id());
  EXPECT_EQ(client.create("obj", 16 * KiB, repl3), dfs::DfsError::kOk);
  const auto* layout = meta.lookup("obj");
  ASSERT_NE(layout, nullptr);
  EXPECT_EQ(layout->targets.size(), 3u);
}

// Satellite regression: spare allocation must skip partition-held nodes —
// a spare on the far side of a suspected cut would strand the repair.
TEST(Elasticity, SpareAllocationSkipsPartitionHeldNodes) {
  ClusterConfig cfg;
  cfg.storage_nodes = 4;
  Cluster cluster(cfg);
  auto& meta = cluster.metadata();
  const net::NodeId held = cluster.storage_node(1).id();
  std::vector<net::NodeId> others = {cluster.storage_node(0).id(),
                                     cluster.storage_node(2).id(),
                                     cluster.storage_node(3).id()};

  meta.hold_from_placement(held);
  EXPECT_TRUE(meta.held(held));
  EXPECT_FALSE(meta.excluded(held));  // a hold is not a failure verdict

  // Rotation never lands on the held node...
  for (int i = 0; i < 8; ++i) {
    const auto spare = meta.try_allocate_spare(4 * KiB, {});
    ASSERT_TRUE(spare.has_value());
    EXPECT_NE(spare->node, held);
  }
  // ...even when it is the only node outside the avoid set.
  EXPECT_FALSE(meta.try_allocate_spare(4 * KiB, others).has_value());

  // The hold is reference-counted: two detectors (one per partition side)
  // may hold the same node; one release must not unpark it.
  meta.hold_from_placement(held);
  meta.release_hold(held);
  EXPECT_TRUE(meta.held(held));
  EXPECT_FALSE(meta.try_allocate_spare(4 * KiB, others).has_value());
  meta.release_hold(held);
  EXPECT_FALSE(meta.held(held));
  const auto spare = meta.try_allocate_spare(4 * KiB, others);
  ASSERT_TRUE(spare.has_value());
  EXPECT_EQ(spare->node, held);
}

// Background rebalance: a deliberately skewed placement (every extent on
// one node) converges below the skew threshold under the per-tick byte
// budget, every migration is visible as a span on the rebalance lane and
// as registry counters, and no byte is lost in the moves.
std::uint64_t run_rebalance_convergence(std::uint64_t seed) {
  ClusterConfig cfg;
  cfg.storage_nodes = 4;
  cfg.clients = 2;
  Cluster cluster(cfg);
  obs::SpanTracer tracer;
  cluster.set_tracer(&tracer);
  Client writer(cluster, 0);
  Client mover(cluster, 1);
  mover.set_timeout(us(50));
  auto& meta = cluster.metadata();

  // Pile 8 x 64 KiB objects onto node 0 by holding everyone else.
  for (std::size_t i = 1; i < cluster.storage_node_count(); ++i) {
    meta.hold_from_placement(cluster.storage_node(i).id());
  }
  const std::size_t size = 64 * KiB;
  std::vector<Bytes> contents(8);
  for (int i = 0; i < 8; ++i) {
    const auto& l = meta.create("r" + std::to_string(i), size, FilePolicy{});
    EXPECT_EQ(l.targets[0].node, cluster.storage_node(0).id());
    contents[i] = random_bytes(size, seed * 100 + static_cast<std::uint64_t>(i));
    const auto cap = meta.grant(writer.client_id(), l, auth::Right::kWrite);
    bool ok = false;
    writer.write(l, cap, contents[i], [&ok](dfs::DfsError err, TimePs) {
      ok = err == dfs::DfsError::kOk;
    });
    cluster.sim().run();
    EXPECT_TRUE(ok) << "seed " << seed;
  }
  for (std::size_t i = 1; i < cluster.storage_node_count(); ++i) {
    meta.release_hold(cluster.storage_node(i).id());
  }

  RebalancerConfig rcfg;
  rcfg.interval = us(20);
  rcfg.skew_threshold = 64 * KiB;
  rcfg.bytes_per_tick = 128 * KiB;  // two extents per tick, max
  Rebalancer rebalancer(cluster, mover, rcfg);
  EXPECT_EQ(rebalancer.skew(), 8 * size) << "seed " << seed;

  rebalancer.start();
  cluster.sim().run_until(cluster.sim().now() + ms(1));
  rebalancer.stop();
  cluster.sim().run();

  // Converged below the threshold; 8 extents over 4 nodes needs >= 6 moves.
  EXPECT_LE(rebalancer.skew(), rcfg.skew_threshold) << "seed " << seed;
  EXPECT_GE(rebalancer.moves(), 6u) << "seed " << seed;
  EXPECT_EQ(rebalancer.moved_bytes(), rebalancer.moves() * size) << "seed " << seed;
  EXPECT_EQ(rebalancer.moves_aborted(), 0u) << "seed " << seed;
  // Observable: registry counters and one span per move on the new lane.
  const auto snap = cluster.metrics().snapshot();
  EXPECT_EQ(snap.at("rebalance.moves"),
            static_cast<long long>(rebalancer.moves()));
  EXPECT_EQ(snap.at("rebalance.moved_bytes"),
            static_cast<long long>(rebalancer.moved_bytes()));
  std::size_t lane_spans = 0;
  for (const auto& s : tracer.spans()) {
    if (s.lane == obs::kLaneRebalance) ++lane_spans;
  }
  EXPECT_EQ(lane_spans, rebalancer.moves()) << "seed " << seed;

  // No byte lost in the shuffle.
  Digest d;
  for (int i = 0; i < 8; ++i) {
    const Bytes got = read_current(cluster, writer, "r" + std::to_string(i),
                                   static_cast<std::uint32_t>(size));
    EXPECT_EQ(got, contents[i]) << "object r" << i << " seed " << seed;
    d.bytes(got);
  }
  d.u64(rebalancer.moves());
  d.u64(rebalancer.moved_bytes());
  d.u64(rebalancer.skew());
  d.u64(cluster.sim().executed_events());
  cluster.set_tracer(nullptr);
  return d.h;
}

TEST(Elasticity, RebalancerConvergesSkewUnderBudget) {
  const std::uint64_t seed = chaos_seed();
  const auto first = run_rebalance_convergence(seed);
  if (::testing::Test::HasFatalFailure()) return;
  const auto second = run_rebalance_convergence(seed);
  EXPECT_EQ(first, second) << "same seed must replay identically (seed " << seed << ")";
}

// Acceptance: rolling restart of EVERY storage node, one at a time, under
// sustained workload-engine load, with the detector, recovery-free rejoin
// (NVMM survives restarts) and the rebalancer all running. Zero data loss
// (byte-equal golden reads), every node alive and re-admitted at the end,
// skew below threshold, and a goodput timeline that records the dip.
std::uint64_t run_rolling_restart(std::uint64_t seed) {
  ClusterConfig cfg;
  cfg.storage_nodes = 4;
  cfg.clients = 5;  // 0-1 workload slots, 2 prober, 3 mover, 4 golden writer
  Cluster cluster(cfg);
  Client prober(cluster, 2);
  Client mover(cluster, 3);
  Client golden_writer(cluster, 4);
  mover.set_timeout(us(50));

  // Golden objects, written before the storm and untouched during it: the
  // byte-equality oracle for "zero data loss".
  FilePolicy repl2;
  repl2.resiliency = dfs::Resiliency::kReplication;
  repl2.repl_k = 2;
  // The engine draws its arrival schedule on the absolute clock, so the
  // sim must still be at t=0 here: the golden writes are only *enqueued*
  // and complete in the first microseconds of the engine's run — long
  // before the first kill.
  const std::size_t golden_size = 32 * KiB;
  std::vector<Bytes> golden(3);
  int golden_written = 0;
  for (int i = 0; i < 3; ++i) {
    const auto& l = cluster.metadata().create("golden" + std::to_string(i), golden_size, repl2);
    golden[i] = random_bytes(golden_size, 7000 + static_cast<std::uint64_t>(i));
    const auto cap = cluster.metadata().grant(golden_writer.client_id(), l, auth::Right::kWrite);
    golden_writer.write(l, cap, golden[i], [&golden_written](dfs::DfsError err, TimePs) {
      if (err == dfs::DfsError::kOk) ++golden_written;
    });
  }
  const TimePs t0 = 0;

  FailureDetector detector(cluster, prober);
  RebalancerConfig rcfg;
  rcfg.interval = us(50);
  rcfg.skew_threshold = 256 * KiB;
  rcfg.bytes_per_tick = 128 * KiB;
  Rebalancer rebalancer(cluster, mover, rcfg);
  rebalancer.set_detector(&detector);

  std::vector<TimePs> detected, rejoined;
  detector.set_on_failure([&](net::NodeId, TimePs at) { detected.push_back(at); });
  detector.set_on_rejoin([&](net::NodeId, TimePs at) { rejoined.push_back(at); });

  // Rolling schedule: each storage node down for ~150 us (past detection),
  // restarts staggered 350 us apart so only one node is ever dark.
  Rng jitter(seed);
  net::FaultPlan plan;
  plan.set_seed(seed);
  std::vector<TimePs> restarts;
  for (std::size_t i = 0; i < cluster.storage_node_count(); ++i) {
    const net::NodeId node = cluster.storage_node(i).id();
    const TimePs kill_at = t0 + us(150) + static_cast<TimePs>(i) * us(350) +
                           jitter.next_below(us(20));
    const TimePs restart_time = kill_at + us(150);
    plan.kill_node(node, kill_at);
    plan.restart_at(node, restart_time);
    restarts.push_back(restart_time);
  }
  cluster.network().install_faults(plan);
  for (std::size_t i = 0; i < cluster.storage_node_count(); ++i) {
    const net::NodeId node = cluster.storage_node(i).id();
    cluster.sim().schedule_at(restarts[i], [&cluster, node] {
      cluster.storage_by_node(node).restart_dfs();
    });
  }

  detector.start();
  rebalancer.start();
  const TimePs t_stop = t0 + us(150) + 4 * us(350) + us(400);
  cluster.sim().schedule_at(t_stop, [&] {
    rebalancer.stop();
    detector.stop();
  });

  // Sustained mixed load over pre-created replicated objects for the whole
  // storm, with a goodput timeline wide enough to show the per-node dips.
  workload::TenantSpec tenant;
  tenant.name = "roll";
  tenant.objects = 8;
  tenant.object_size = 64 * KiB;
  tenant.policy = repl2;
  tenant.io_bytes = 4 * KiB;
  tenant.mix.read = 0.5;
  tenant.mix.write = 0.5;
  tenant.mix.append = 0.0;
  tenant.mix.stat = 0.0;
  workload::EngineConfig ecfg;
  ecfg.users = 1000;
  ecfg.client_slots = 2;
  ecfg.rate_ops_per_s = 2e5;
  ecfg.duration = us(1600);
  ecfg.goodput_window = us(100);
  ecfg.seed = seed;
  ecfg.retries = 1;
  ecfg.timeout = us(40);
  workload::Engine engine(cluster, ecfg, {tenant});
  engine.run();  // drains once the periodic services stop at t_stop

  EXPECT_EQ(golden_written, 3) << "seed " << seed;
  const auto& stats = engine.stats();
  EXPECT_GT(stats.completed, 0u) << "seed " << seed;
  EXPECT_FALSE(stats.goodput_timeline.empty()) << "seed " << seed;
  std::uint64_t timeline_sum = 0;
  for (const auto b : stats.goodput_timeline) timeline_sum += b;
  EXPECT_EQ(timeline_sum, stats.bytes_ok) << "seed " << seed;

  // Every node was detected down once and rejoined once; the cluster ends
  // whole: all alive, none excluded, none held, skew within threshold.
  EXPECT_EQ(detected.size(), cluster.storage_node_count()) << "seed " << seed;
  EXPECT_EQ(rejoined.size(), cluster.storage_node_count()) << "seed " << seed;
  EXPECT_EQ(detector.rejoins(), cluster.storage_node_count()) << "seed " << seed;
  EXPECT_TRUE(detector.failed().empty()) << "seed " << seed;
  for (std::size_t i = 0; i < cluster.storage_node_count(); ++i) {
    const net::NodeId id = cluster.storage_node(i).id();
    EXPECT_EQ(detector.health(id), FailureDetector::Health::kAlive) << "seed " << seed;
    EXPECT_FALSE(cluster.metadata().excluded(id)) << "seed " << seed;
    EXPECT_FALSE(cluster.metadata().held(id)) << "seed " << seed;
  }
  EXPECT_LE(rebalancer.skew(), rcfg.skew_threshold) << "seed " << seed;

  // Zero data loss: the goldens survived four restarts byte-for-byte
  // (NVMM persists; only NIC state is cold after restart_dfs).
  Digest d;
  for (int i = 0; i < 3; ++i) {
    const Bytes got = read_current(cluster, golden_writer, "golden" + std::to_string(i),
                                   static_cast<std::uint32_t>(golden_size));
    EXPECT_EQ(got, golden[i]) << "golden" << i << " seed " << seed;
    d.bytes(got);
  }

  d.u64(engine.digest());
  d.u64(stats.completed);
  d.u64(stats.failed);
  d.u64(stats.bytes_ok);
  for (const auto b : stats.goodput_timeline) d.u64(b);
  for (const auto t : detected) d.u64(t);
  for (const auto t : rejoined) d.u64(t);
  d.u64(rebalancer.moves());
  d.u64(rebalancer.moved_bytes());
  d.u64(rebalancer.moves_aborted());
  d.detector(detector);
  d.counters(cluster.network().fault_counters());
  d.u64(cluster.sim().executed_events());
  return d.h;
}

TEST(Elasticity, RollingRestartUnderLoadZeroDataLoss) {
  const std::uint64_t seed = chaos_seed();
  const auto first = run_rolling_restart(seed);
  if (::testing::Test::HasFatalFailure()) return;
  const auto second = run_rolling_restart(seed);
  EXPECT_EQ(first, second) << "same seed must replay identically (seed " << seed << ")";
}

}  // namespace
}  // namespace nadfs
