// Tests of RAID-0-style file striping in the client library: layout
// arithmetic, writes/reads crossing stripe-unit boundaries, and bandwidth
// aggregation across storage nodes.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "services/client.hpp"
#include "services/cluster.hpp"

namespace nadfs {
namespace {

using services::Client;
using services::Cluster;
using services::ClusterConfig;
using services::FileLayout;
using services::FilePolicy;

Bytes random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Bytes out(n);
  for (auto& b : out) b = rng.next_byte();
  return out;
}

FilePolicy striped(std::uint8_t count, std::uint64_t unit) {
  FilePolicy p;
  p.stripe_count = count;
  p.stripe_size = unit;
  return p;
}

TEST(Striping, LocateArithmetic) {
  FileLayout layout;
  layout.policy = striped(4, 1000);
  // byte 0 -> stripe 0 @0; byte 999 -> stripe 0 @999; byte 1000 -> stripe 1 @0
  EXPECT_EQ(layout.locate(0), (std::pair<std::size_t, std::uint64_t>{0, 0}));
  EXPECT_EQ(layout.locate(999), (std::pair<std::size_t, std::uint64_t>{0, 999}));
  EXPECT_EQ(layout.locate(1000), (std::pair<std::size_t, std::uint64_t>{1, 0}));
  EXPECT_EQ(layout.locate(3999), (std::pair<std::size_t, std::uint64_t>{3, 999}));
  // Second pass around the ring: byte 4000 -> stripe 0 @1000.
  EXPECT_EQ(layout.locate(4000), (std::pair<std::size_t, std::uint64_t>{0, 1000}));
  EXPECT_EQ(layout.locate(5500), (std::pair<std::size_t, std::uint64_t>{1, 1500}));
}

TEST(Striping, LayoutPlacesStripesOnDistinctNodes) {
  ClusterConfig cfg;
  cfg.storage_nodes = 4;
  Cluster cluster(cfg);
  const auto& layout = cluster.metadata().create("s", 256 * KiB, striped(4, 16 * KiB));
  ASSERT_EQ(layout.targets.size(), 4u);
  std::set<net::NodeId> nodes;
  for (const auto& c : layout.targets) nodes.insert(c.node);
  EXPECT_EQ(nodes.size(), 4u);
  EXPECT_TRUE(layout.striped());
}

TEST(Striping, RejectsBadParameters) {
  Cluster cluster;  // 4 nodes
  EXPECT_THROW(cluster.metadata().create("a", 100, striped(9, 1024)), std::invalid_argument);
  EXPECT_THROW(cluster.metadata().create("b", 100, striped(2, 0)), std::invalid_argument);
  FilePolicy bad = striped(2, 1024);
  bad.resiliency = dfs::Resiliency::kReplication;
  bad.repl_k = 2;
  EXPECT_THROW(cluster.metadata().create("c", 100, bad), std::invalid_argument);
}

TEST(Striping, FullWriteReadRoundTrip) {
  ClusterConfig cfg;
  cfg.storage_nodes = 4;
  Cluster cluster(cfg);
  Client client(cluster, 0);
  const auto& layout = cluster.metadata().create("s", 300000, striped(4, 16 * KiB));
  const auto cap = cluster.metadata().grant(client.client_id(), layout, auth::Right::kReadWrite);

  const Bytes data = random_bytes(300000, 1);
  bool ok = false;
  client.write(layout, cap, data, [&](dfs::DfsError err, TimePs) {
    ok = err == dfs::DfsError::kOk;
  });
  cluster.sim().run();
  ASSERT_TRUE(ok);

  Bytes got;
  client.read(layout, cap, static_cast<std::uint32_t>(data.size()),
              [&](dfs::DfsError, Bytes d, TimePs) { got = std::move(d); });
  cluster.sim().run();
  EXPECT_EQ(got, data);
}

TEST(Striping, DataActuallySpreadsAcrossNodes) {
  ClusterConfig cfg;
  cfg.storage_nodes = 4;
  Cluster cluster(cfg);
  Client client(cluster, 0);
  const auto& layout = cluster.metadata().create("s", 256 * KiB, striped(4, 16 * KiB));
  const auto cap = cluster.metadata().grant(client.client_id(), layout, auth::Right::kWrite);

  bool ok = false;
  client.write(layout, cap, random_bytes(256 * KiB, 2), [&](dfs::DfsError err, TimePs) {
    ok = err == dfs::DfsError::kOk;
  });
  cluster.sim().run();
  ASSERT_TRUE(ok);
  // Each node holds exactly a quarter of the bytes.
  for (const auto& coord : layout.targets) {
    EXPECT_EQ(cluster.storage_by_node(coord.node).target().bytes_written(), 64 * KiB);
  }
}

TEST(Striping, UnalignedOffsetWriteCrossingUnits) {
  ClusterConfig cfg;
  cfg.storage_nodes = 3;
  Cluster cluster(cfg);
  Client client(cluster, 0);
  const auto& layout = cluster.metadata().create("s", 60000, striped(3, 4096));
  const auto cap = cluster.metadata().grant(client.client_id(), layout, auth::Right::kReadWrite);

  // Base contents, then an overwrite spanning several stripe units at an
  // unaligned offset.
  Bytes base = random_bytes(60000, 3);
  bool ok = false;
  client.write(layout, cap, base, [&](dfs::DfsError err, TimePs) {
    ok = err == dfs::DfsError::kOk;
  });
  cluster.sim().run();
  ASSERT_TRUE(ok);

  const std::uint64_t off = 3000;
  const Bytes patch = random_bytes(20000, 4);
  std::copy(patch.begin(), patch.end(), base.begin() + static_cast<std::ptrdiff_t>(off));
  ok = false;
  client.write_at(layout, cap, off, patch, [&](dfs::DfsError err, TimePs) {
    ok = err == dfs::DfsError::kOk;
  });
  cluster.sim().run();
  ASSERT_TRUE(ok);

  Bytes got;
  client.read(layout, cap, 60000, [&](dfs::DfsError, Bytes d, TimePs) { got = std::move(d); });
  cluster.sim().run();
  EXPECT_EQ(got, base);
}

TEST(Striping, SubRangeRead) {
  ClusterConfig cfg;
  cfg.storage_nodes = 2;
  Cluster cluster(cfg);
  Client client(cluster, 0);
  const auto& layout = cluster.metadata().create("s", 40000, striped(2, 1024));
  const auto cap = cluster.metadata().grant(client.client_id(), layout, auth::Right::kReadWrite);

  Bytes data = random_bytes(40000, 5);
  bool ok = false;
  client.write(layout, cap, data, [&](dfs::DfsError err, TimePs) {
    ok = err == dfs::DfsError::kOk;
  });
  cluster.sim().run();
  ASSERT_TRUE(ok);

  Bytes got;
  client.read_at(layout, cap, 1500, 5000,
                 [&](dfs::DfsError, Bytes d, TimePs) { got = std::move(d); });
  cluster.sim().run();
  EXPECT_EQ(got, Bytes(data.begin() + 1500, data.begin() + 6500));
}

TEST(Striping, AggregatesBandwidthOverSingleTarget) {
  // A large write striped over 4 nodes completes faster than the same write
  // to one node: the DMA/ingress path parallelizes even though the client
  // uplink is shared.
  const Bytes data = random_bytes(1 * MiB, 6);
  TimePs striped_at = 0, single_at = 0;
  {
    ClusterConfig cfg;
    cfg.storage_nodes = 4;
    Cluster cluster(cfg);
    Client client(cluster, 0);
    const auto& layout = cluster.metadata().create("s", 1 * MiB, striped(4, 64 * KiB));
    const auto cap = cluster.metadata().grant(client.client_id(), layout, auth::Right::kWrite);
    client.write(layout, cap, data, [&](dfs::DfsError, TimePs at) { striped_at = at; });
    cluster.sim().run();
  }
  {
    ClusterConfig cfg;
    cfg.storage_nodes = 4;
    Cluster cluster(cfg);
    Client client(cluster, 0);
    const auto& layout = cluster.metadata().create("s", 1 * MiB, FilePolicy{});
    const auto cap = cluster.metadata().grant(client.client_id(), layout, auth::Right::kWrite);
    client.write(layout, cap, data, [&](dfs::DfsError, TimePs at) { single_at = at; });
    cluster.sim().run();
  }
  EXPECT_LE(striped_at, single_at);
}

}  // namespace
}  // namespace nadfs
