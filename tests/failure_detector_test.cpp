// Tests of the heartbeat failure detector: healthy clusters stay healthy,
// killed nodes walk alive -> suspected -> failed deterministically, failed
// nodes leave the metadata placement pool, and auto_rebuild feeds the
// detector's own failed set into the recovery manager.
#include <gtest/gtest.h>

#include <optional>

#include "common/rng.hpp"
#include "services/failure_detector.hpp"

namespace nadfs {
namespace {

using services::Client;
using services::Cluster;
using services::ClusterConfig;
using services::FailureDetector;
using services::FailureDetectorConfig;
using services::FilePolicy;
using services::RecoveryManager;

Bytes random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Bytes out(n);
  for (auto& b : out) b = rng.next_byte();
  return out;
}

TEST(FailureDetector, HealthyClusterStaysAlive) {
  ClusterConfig cfg;
  cfg.storage_nodes = 4;
  cfg.clients = 1;
  Cluster cluster(cfg);
  Client prober(cluster, 0);
  FailureDetector detector(cluster, prober);

  detector.start();
  cluster.sim().run_until(ms(1));
  detector.stop();
  cluster.sim().run();

  for (std::size_t i = 0; i < cluster.storage_node_count(); ++i) {
    EXPECT_EQ(detector.health(cluster.storage_node(i).id()), FailureDetector::Health::kAlive);
  }
  EXPECT_TRUE(detector.failed().empty());
  EXPECT_EQ(detector.probes_missed(), 0u);
  // ~50 ticks x 4 nodes at the default 20 us cadence.
  EXPECT_GT(detector.probes_sent(), 100u);
  // Quiesce: every probe resolved, nothing leaked.
  EXPECT_EQ(prober.node().nic().pending_read_count(), 0u);
  EXPECT_EQ(prober.tracker().pending_count(), 0u);
}

TEST(FailureDetector, NackedHeartbeatIsAnAnswer) {
  // Deleting a node's first file trims its extent at address 0, the extent
  // every heartbeat reads: from then on the node NACKs each probe with
  // kNotFound. A NACK proves the node reachable, so it stays alive.
  ClusterConfig cfg;
  cfg.storage_nodes = 4;
  cfg.clients = 2;
  Cluster cluster(cfg);
  Client writer(cluster, 0);
  Client prober(cluster, 1);
  ASSERT_EQ(writer.create("f", 4 * KiB, FilePolicy{}), dfs::DfsError::kOk);
  const auto layout = *cluster.metadata().lookup("f");
  ASSERT_EQ(layout.targets.front().addr, 0u);
  const auto cap = cluster.metadata().grant(writer.client_id(), layout, auth::Right::kReadWrite);
  std::optional<dfs::DfsError> wrote;
  std::optional<dfs::DfsError> removed;
  writer.write(layout, cap, random_bytes(4 * KiB, 1), [&](dfs::DfsError err, TimePs) {
    wrote = err;
  });
  cluster.sim().run();
  writer.remove("f", cap, [&](dfs::DfsError err, TimePs) { removed = err; });
  cluster.sim().run();
  ASSERT_EQ(wrote, dfs::DfsError::kOk);
  ASSERT_EQ(removed, dfs::DfsError::kOk);

  FailureDetector detector(cluster, prober);
  unsigned failures = 0;
  detector.set_on_failure([&](net::NodeId, TimePs) { ++failures; });
  detector.start();
  cluster.sim().run_until(cluster.sim().now() + ms(1));
  detector.stop();
  cluster.sim().run();

  EXPECT_EQ(detector.health(layout.targets.front().node), FailureDetector::Health::kAlive);
  EXPECT_EQ(failures, 0u);
  EXPECT_TRUE(detector.failed().empty());
  EXPECT_EQ(detector.probes_missed(), 0u);
  EXPECT_GT(detector.probes_sent(), 100u);
}

TEST(FailureDetector, KilledNodeWalksSuspectedThenFailed) {
  ClusterConfig cfg;
  cfg.storage_nodes = 4;
  cfg.clients = 1;
  Cluster cluster(cfg);
  Client prober(cluster, 0);
  FailureDetector detector(cluster, prober);  // 20 us probes, 10 us timeout, fail after 3

  const net::NodeId victim = cluster.storage_node(1).id();
  cluster.network().faults().kill_node(victim, us(50));

  net::NodeId failed_node = net::kInvalidNode;
  TimePs failed_time = 0;
  unsigned failures = 0;
  detector.set_on_failure([&](net::NodeId node, TimePs at) {
    ++failures;
    failed_node = node;
    failed_time = at;
  });

  // Kill at 50 us: the 60/80/100 us probes miss (deadlines 70/90/110), so
  // at 95 us the victim is suspected but not yet failed.
  cluster.sim().schedule(us(95), [&] {
    EXPECT_EQ(detector.health(victim), FailureDetector::Health::kSuspected);
  });

  detector.start();
  cluster.sim().run_until(ms(1));
  detector.stop();
  cluster.sim().run();

  EXPECT_EQ(detector.health(victim), FailureDetector::Health::kFailed);
  EXPECT_EQ(failures, 1u);  // sticky: exactly one transition
  EXPECT_EQ(failed_node, victim);
  EXPECT_GT(failed_time, us(50));
  EXPECT_EQ(detector.failed_at(victim), failed_time);
  EXPECT_EQ(detector.failed().count(victim), 1u);
  EXPECT_GE(detector.probes_missed(), 3u);

  // The victim left the placement pool: metadata knows, and new objects
  // avoid it.
  EXPECT_TRUE(cluster.metadata().excluded(victim));
  for (int i = 0; i < 8; ++i) {
    const auto& layout =
        cluster.metadata().create("post-" + std::to_string(i), 4096, FilePolicy{});
    EXPECT_NE(layout.targets[0].node, victim);
  }
  EXPECT_EQ(prober.tracker().pending_count(), 0u);
  EXPECT_EQ(prober.node().nic().pending_read_count(), 0u);
}

TEST(FailureDetector, AutoRebuildRepairsEcObjectFromDetectorView) {
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
  const auto cap = cluster.metadata().grant(writer.client_id(), layout, auth::Right::kWrite);
  const Bytes data = random_bytes(size, 42);
  bool wrote = false;
  writer.write(layout, cap, data, [&](dfs::DfsError err, TimePs) {
    wrote = err == dfs::DfsError::kOk;
  });
  cluster.sim().run();
  ASSERT_TRUE(wrote);

  const net::NodeId victim = layout.parity[0].node;
  cluster.network().faults().kill_node(victim, cluster.sim().now() + us(5));

  FailureDetector detector(cluster, prober);
  std::optional<services::FileLayout> repaired;
  unsigned rebuilds = 0;
  detector.auto_rebuild(recovery, "obj",
                        [&](std::optional<services::FileLayout> l, TimePs) {
                          ++rebuilds;
                          repaired = std::move(l);
                        });
  detector.start();
  cluster.sim().run_until(cluster.sim().now() + ms(2));
  detector.stop();
  cluster.sim().run();

  ASSERT_EQ(rebuilds, 1u);
  ASSERT_TRUE(repaired.has_value());
  EXPECT_EQ(recovery.chunks_rebuilt(), 1u);
  for (const auto& c : repaired->targets) EXPECT_NE(c.node, victim);
  for (const auto& c : repaired->parity) EXPECT_NE(c.node, victim);

  // The republished layout reconstructs the original bytes even with the
  // *other* parity node masked out (proves the rebuilt chunk is correct).
  const auto* current = cluster.metadata().lookup("obj");
  ASSERT_NE(current, nullptr);
  std::optional<Bytes> got;
  recovery.degraded_read(*current, {current->parity[1].node},
                         [&](std::optional<Bytes> d, TimePs) { got = std::move(d); });
  cluster.sim().run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, data);

  EXPECT_EQ(writer.tracker().pending_count(), 0u);
  EXPECT_EQ(prober.tracker().pending_count(), 0u);
}

}  // namespace
}  // namespace nadfs
