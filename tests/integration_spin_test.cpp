// End-to-end tests of the offloaded (sPIN) data path: client endpoint ->
// network -> storage NIC -> PsPIN handlers -> storage target -> DFS acks.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "dfs/handlers.hpp"
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

struct WriteResult {
  bool done = false;
  bool ok = false;
  TimePs at = 0;
};

services::OpCb capture(WriteResult& r) {
  return [&r](dfs::DfsError err, TimePs at) {
    r.done = true;
    r.ok = err == dfs::DfsError::kOk;
    r.at = at;
  };
}

TEST(SpinPath, PlainWriteLandsAndAcks) {
  Cluster cluster;
  Client client(cluster, 0);
  const auto& layout = cluster.metadata().create("obj", 64 * KiB, FilePolicy{});
  const auto cap = cluster.metadata().grant(client.client_id(), layout, auth::Right::kWrite);

  const Bytes data = random_bytes(10000, 1);
  WriteResult r;
  client.write(layout, cap, data, capture(r));
  cluster.sim().run();

  ASSERT_TRUE(r.done);
  EXPECT_TRUE(r.ok);
  EXPECT_GT(r.at, 0u);
  auto& node = cluster.storage_by_node(layout.targets[0].node);
  EXPECT_EQ(node.target().read(layout.targets[0].addr, data.size()), data);
  EXPECT_EQ(node.dfs_state()->acks_sent, 1u);
  EXPECT_EQ(node.dfs_state()->table.in_use(), 0u);  // slot released at CH
}

TEST(SpinPath, SmallWriteSinglePacketTriggersAllHandlers) {
  Cluster cluster;
  Client client(cluster, 0);
  const auto& layout = cluster.metadata().create("obj", 4 * KiB, FilePolicy{});
  const auto cap = cluster.metadata().grant(client.client_id(), layout, auth::Right::kWrite);

  WriteResult r;
  client.write(layout, cap, random_bytes(512, 2), capture(r));
  cluster.sim().run();
  ASSERT_TRUE(r.ok);

  const auto& stats = cluster.storage_by_node(layout.targets[0].node).pspin().stats();
  EXPECT_EQ(stats.duration_ns(spin::HandlerType::kHeader).count(), 1u);
  EXPECT_EQ(stats.duration_ns(spin::HandlerType::kPayload).count(), 1u);
  EXPECT_EQ(stats.duration_ns(spin::HandlerType::kCompletion).count(), 1u);
}

TEST(SpinPath, HandlerCostsMatchPaperCalibration) {
  // Unloaded single write: HH ~211 ns + dispatch, PH ~92, CH ~107 (Table I
  // k=1 row), with the calibrated instruction counts.
  Cluster cluster;
  Client client(cluster, 0);
  const auto& layout = cluster.metadata().create("obj", 64 * KiB, FilePolicy{});
  const auto cap = cluster.metadata().grant(client.client_id(), layout, auth::Right::kWrite);

  WriteResult r;
  client.write(layout, cap, random_bytes(40 * KiB, 3), capture(r));
  cluster.sim().run();
  ASSERT_TRUE(r.ok);

  const auto& stats = cluster.storage_by_node(layout.targets[0].node).pspin().stats();
  EXPECT_NEAR(stats.duration_ns(spin::HandlerType::kHeader).mean(), 212.0, 2.0);
  EXPECT_NEAR(stats.instructions(spin::HandlerType::kHeader).mean(), 120.0, 0.1);
  EXPECT_NEAR(stats.instructions(spin::HandlerType::kPayload).mean(), 55.0, 0.1);
  EXPECT_NEAR(stats.duration_ns(spin::HandlerType::kPayload).mean(), 93.0, 2.0);
  EXPECT_NEAR(stats.instructions(spin::HandlerType::kCompletion).mean(), 66.0, 0.1);
  // IPC in the paper's 0.55-0.65 band.
  EXPECT_NEAR(stats.ipc(spin::HandlerType::kHeader), 0.57, 0.03);
}

TEST(SpinPath, BadCapabilityNacksAndDropsData) {
  Cluster cluster;
  Client client(cluster, 0);
  const auto& layout = cluster.metadata().create("obj", 16 * KiB, FilePolicy{});
  auto cap = cluster.metadata().grant(client.client_id(), layout, auth::Right::kWrite);
  cap.mac ^= 1;  // forge

  WriteResult r;
  client.write(layout, cap, random_bytes(8 * KiB, 4), capture(r));
  cluster.sim().run();

  ASSERT_TRUE(r.done);
  EXPECT_FALSE(r.ok);
  auto& node = cluster.storage_by_node(layout.targets[0].node);
  EXPECT_EQ(node.target().bytes_written(), 0u);
  EXPECT_EQ(node.dfs_state()->auth_failures, 1u);
  EXPECT_EQ(node.dfs_state()->nacks_sent, 1u);
  // Host was notified on its event queue (paper §III-C).
  ASSERT_FALSE(node.host_events().empty());
  EXPECT_EQ(node.host_events()[0].code, dfs::kEvAuthFailure);
}

TEST(SpinPath, ReadOnlyCapabilityCannotWrite) {
  Cluster cluster;
  Client client(cluster, 0);
  const auto& layout = cluster.metadata().create("obj", 16 * KiB, FilePolicy{});
  const auto cap = cluster.metadata().grant(client.client_id(), layout, auth::Right::kRead);

  WriteResult r;
  client.write(layout, cap, random_bytes(1 * KiB, 5), capture(r));
  cluster.sim().run();
  ASSERT_TRUE(r.done);
  EXPECT_FALSE(r.ok);
}

TEST(SpinPath, ExpiredCapabilityRejected) {
  Cluster cluster;
  Client client(cluster, 0);
  const auto& layout = cluster.metadata().create("obj", 16 * KiB, FilePolicy{});
  const auto cap =
      cluster.metadata().grant(client.client_id(), layout, auth::Right::kWrite, ns(1));

  // By the time the request reaches the NIC, the capability is expired.
  WriteResult r;
  client.write(layout, cap, random_bytes(1 * KiB, 6), capture(r));
  cluster.sim().run();
  ASSERT_TRUE(r.done);
  EXPECT_FALSE(r.ok);
}

TEST(SpinPath, ReplicationRingLandsOnAllReplicas) {
  Cluster cluster;
  Client client(cluster, 0);
  FilePolicy policy;
  policy.resiliency = dfs::Resiliency::kReplication;
  policy.strategy = dfs::ReplStrategy::kRing;
  policy.repl_k = 3;
  const auto& layout = cluster.metadata().create("obj", 64 * KiB, policy);
  const auto cap = cluster.metadata().grant(client.client_id(), layout, auth::Right::kWrite);

  const Bytes data = random_bytes(20000, 7);
  WriteResult r;
  client.write(layout, cap, data, capture(r));
  cluster.sim().run();

  ASSERT_TRUE(r.done);
  EXPECT_TRUE(r.ok);
  for (const auto& coord : layout.targets) {
    EXPECT_EQ(cluster.storage_by_node(coord.node).target().read(coord.addr, data.size()), data)
        << "replica at node " << coord.node;
  }
}

TEST(SpinPath, ReplicationPbtLandsOnAllReplicas) {
  ClusterConfig cfg;
  cfg.storage_nodes = 6;
  Cluster cluster(cfg);
  Client client(cluster, 0);
  FilePolicy policy;
  policy.resiliency = dfs::Resiliency::kReplication;
  policy.strategy = dfs::ReplStrategy::kPbt;
  policy.repl_k = 6;
  const auto& layout = cluster.metadata().create("obj", 64 * KiB, policy);
  const auto cap = cluster.metadata().grant(client.client_id(), layout, auth::Right::kWrite);

  const Bytes data = random_bytes(33000, 8);
  WriteResult r;
  client.write(layout, cap, data, capture(r));
  cluster.sim().run();

  ASSERT_TRUE(r.done);
  EXPECT_TRUE(r.ok);
  for (const auto& coord : layout.targets) {
    EXPECT_EQ(cluster.storage_by_node(coord.node).target().read(coord.addr, data.size()), data);
  }
}

TEST(SpinPath, ReplicationDeniedForwardsNothing) {
  Cluster cluster;
  Client client(cluster, 0);
  FilePolicy policy;
  policy.resiliency = dfs::Resiliency::kReplication;
  policy.repl_k = 3;
  const auto& layout = cluster.metadata().create("obj", 16 * KiB, policy);
  auto cap = cluster.metadata().grant(client.client_id(), layout, auth::Right::kWrite);
  cap.extent_len = 1;  // break the extent so validation fails

  WriteResult r;
  client.write(layout, cap, random_bytes(8 * KiB, 9), capture(r));
  cluster.sim().run();
  ASSERT_TRUE(r.done);
  EXPECT_FALSE(r.ok);
  for (const auto& coord : layout.targets) {
    EXPECT_EQ(cluster.storage_by_node(coord.node).target().bytes_written(), 0u);
  }
}

TEST(SpinPath, ErasureCodingWritesDataAndCorrectParity) {
  ClusterConfig cfg;
  cfg.storage_nodes = 5;
  Cluster cluster(cfg);
  Client client(cluster, 0);
  FilePolicy policy;
  policy.resiliency = dfs::Resiliency::kErasureCoding;
  policy.ec_k = 3;
  policy.ec_m = 2;
  const auto& layout = cluster.metadata().create("obj", 30000, policy);
  const auto cap = cluster.metadata().grant(client.client_id(), layout, auth::Right::kWrite);

  Bytes data = random_bytes(30000, 10);
  WriteResult r;
  client.write(layout, cap, data, capture(r));
  cluster.sim().run();

  ASSERT_TRUE(r.done);
  EXPECT_TRUE(r.ok);

  const auto chunk_len = static_cast<std::size_t>(layout.chunk_len);
  Bytes padded = data;
  padded.resize(chunk_len * 3, 0);

  // Data chunks stored verbatim (systematic code).
  std::vector<Bytes> chunks(3);
  for (unsigned i = 0; i < 3; ++i) {
    chunks[i].assign(padded.begin() + static_cast<std::ptrdiff_t>(i * chunk_len),
                     padded.begin() + static_cast<std::ptrdiff_t>((i + 1) * chunk_len));
    EXPECT_EQ(cluster.storage_by_node(layout.targets[i].node)
                  .target()
                  .read(layout.targets[i].addr, chunk_len),
              chunks[i]);
  }
  // Parity chunks match a host-side reference encode.
  ec::ReedSolomon rs(3, 2);
  const auto parity = rs.encode(chunks);
  for (unsigned i = 0; i < 2; ++i) {
    EXPECT_EQ(cluster.storage_by_node(layout.parity[i].node)
                  .target()
                  .read(layout.parity[i].addr, chunk_len),
              parity[i])
        << "parity " << i;
  }
}

TEST(SpinPath, ErasureCodedDataRecoverableAfterNodeLoss) {
  ClusterConfig cfg;
  cfg.storage_nodes = 5;
  Cluster cluster(cfg);
  Client client(cluster, 0);
  FilePolicy policy;
  policy.resiliency = dfs::Resiliency::kErasureCoding;
  policy.ec_k = 3;
  policy.ec_m = 2;
  const auto& layout = cluster.metadata().create("obj", 24000, policy);
  const auto cap = cluster.metadata().grant(client.client_id(), layout, auth::Right::kWrite);

  Bytes data = random_bytes(24000, 11);
  WriteResult r;
  client.write(layout, cap, data, capture(r));
  cluster.sim().run();
  ASSERT_TRUE(r.ok);

  // "Fail" data nodes 0 and 1: rebuild from chunk 2 + both parities.
  const auto chunk_len = static_cast<std::size_t>(layout.chunk_len);
  std::vector<std::pair<unsigned, Bytes>> present;
  present.emplace_back(2, cluster.storage_by_node(layout.targets[2].node)
                              .target()
                              .read(layout.targets[2].addr, chunk_len));
  for (unsigned i = 0; i < 2; ++i) {
    present.emplace_back(3 + i, cluster.storage_by_node(layout.parity[i].node)
                                    .target()
                                    .read(layout.parity[i].addr, chunk_len));
  }
  ec::ReedSolomon rs(3, 2);
  auto recovered = rs.decode(present);
  ASSERT_TRUE(recovered.has_value());
  Bytes flat;
  for (const auto& c : *recovered) flat.insert(flat.end(), c.begin(), c.end());
  flat.resize(data.size());
  EXPECT_EQ(flat, data);
}

TEST(SpinPath, ReadRoundTrip) {
  Cluster cluster;
  Client client(cluster, 0);
  const auto& layout = cluster.metadata().create("obj", 64 * KiB, FilePolicy{});
  const auto wcap = cluster.metadata().grant(client.client_id(), layout, auth::Right::kWrite);
  const auto rcap = cluster.metadata().grant(client.client_id(), layout, auth::Right::kRead);

  const Bytes data = random_bytes(12345, 12);
  WriteResult wr;
  client.write(layout, wcap, data, capture(wr));
  cluster.sim().run();
  ASSERT_TRUE(wr.ok);

  Bytes got;
  TimePs read_at = 0;
  client.read(layout, rcap, static_cast<std::uint32_t>(data.size()),
              [&](dfs::DfsError, Bytes d, TimePs at) {
                got = std::move(d);
                read_at = at;
              });
  cluster.sim().run();
  EXPECT_EQ(got, data);
  EXPECT_GT(read_at, wr.at);
}

TEST(SpinPath, RequestTableExhaustionNacks) {
  ClusterConfig cfg;
  cfg.dfs.req_table_bytes = dfs::kReqDescriptorBytes;  // exactly one slot
  cfg.storage_nodes = 1;
  cfg.clients = 2;
  Cluster cluster(cfg);
  Client c0(cluster, 0), c1(cluster, 1);
  FilePolicy policy;
  const auto& la = cluster.metadata().create("a", 1 * MiB, policy);
  const auto& lb = cluster.metadata().create("b", 1 * MiB, policy);
  const auto capa = cluster.metadata().grant(c0.client_id(), la, auth::Right::kWrite);
  const auto capb = cluster.metadata().grant(c1.client_id(), lb, auth::Right::kWrite);

  // Two concurrent large writes to the same node: the later HH finds the
  // table full and denies the request (client retries later, §III-B.2).
  WriteResult r1, r2;
  c0.write(la, capa, random_bytes(512 * KiB, 13), capture(r1));
  c1.write(lb, capb, random_bytes(512 * KiB, 14), capture(r2));
  cluster.sim().run();

  ASSERT_TRUE(r1.done);
  ASSERT_TRUE(r2.done);
  EXPECT_NE(r1.ok, r2.ok);  // exactly one of the two got the slot
  EXPECT_EQ(cluster.storage_node(0).dfs_state()->table_denials, 1u);
}

TEST(SpinPath, CleanupHandlerReapsAbandonedWrite) {
  ClusterConfig cfg;
  cfg.pspin.cleanup_timeout = us(10);
  Cluster cluster(cfg);
  Client client(cluster, 0);
  const auto& layout = cluster.metadata().create("obj", 64 * KiB, FilePolicy{});
  const auto cap = cluster.metadata().grant(client.client_id(), layout, auth::Right::kWrite);

  // Simulate a client dying mid-write: inject only the first 2 packets of a
  // 10-packet message.
  dfs::DfsHeader hdr;
  hdr.op = dfs::OpType::kWrite;
  hdr.greq_id = client.next_greq();
  hdr.client_node = client.node().id();
  hdr.cap = cap;
  dfs::WriteRequestHeader wrh;
  wrh.dest_addr = layout.targets[0].addr;
  wrh.total_len = 18000;
  auto pkts = dfs::build_request_packets(client.node().id(), layout.targets[0].node,
                                         cluster.network().mtu(), hdr, wrh,
                                         random_bytes(18000, 15));
  ASSERT_GT(pkts.size(), 2u);
  pkts.resize(2);
  client.node().nic().post_message(std::move(pkts));
  cluster.sim().run();

  auto& node = cluster.storage_by_node(layout.targets[0].node);
  EXPECT_EQ(node.pspin().cleanup_runs(), 1u);
  EXPECT_EQ(node.dfs_state()->cleanups, 1u);
  EXPECT_EQ(node.dfs_state()->table.in_use(), 0u);  // dangling slot reclaimed
  EXPECT_EQ(node.pspin().live_messages(), 0u);
  // Host software saw the cleanup event.
  bool saw = false;
  for (const auto& ev : node.host_events()) {
    if (ev.code == dfs::kEvCleanup) saw = true;
  }
  EXPECT_TRUE(saw);
}

TEST(SpinPath, CompletedWriteIsNotReaped) {
  ClusterConfig cfg;
  cfg.pspin.cleanup_timeout = us(10);
  Cluster cluster(cfg);
  Client client(cluster, 0);
  const auto& layout = cluster.metadata().create("obj", 64 * KiB, FilePolicy{});
  const auto cap = cluster.metadata().grant(client.client_id(), layout, auth::Right::kWrite);
  WriteResult r;
  client.write(layout, cap, random_bytes(18000, 16), capture(r));
  cluster.sim().run();
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(cluster.storage_by_node(layout.targets[0].node).pspin().cleanup_runs(), 0u);
}

TEST(SpinPath, ConcurrentWritesFromTwoClients) {
  ClusterConfig cfg;
  cfg.clients = 2;
  Cluster cluster(cfg);
  Client c0(cluster, 0), c1(cluster, 1);
  const auto& l0 = cluster.metadata().create("a", 64 * KiB, FilePolicy{});
  const auto& l1 = cluster.metadata().create("b", 64 * KiB, FilePolicy{});
  const auto cap0 = cluster.metadata().grant(c0.client_id(), l0, auth::Right::kWrite);
  const auto cap1 = cluster.metadata().grant(c1.client_id(), l1, auth::Right::kWrite);

  const Bytes d0 = random_bytes(30000, 17);
  const Bytes d1 = random_bytes(30000, 18);
  WriteResult r0, r1;
  c0.write(l0, cap0, d0, capture(r0));
  c1.write(l1, cap1, d1, capture(r1));
  cluster.sim().run();

  ASSERT_TRUE(r0.ok);
  ASSERT_TRUE(r1.ok);
  EXPECT_EQ(cluster.storage_by_node(l0.targets[0].node).target().read(l0.targets[0].addr, d0.size()),
            d0);
  EXPECT_EQ(cluster.storage_by_node(l1.targets[0].node).target().read(l1.targets[0].addr, d1.size()),
            d1);
}

TEST(SpinPath, UninstalledPspinFallsBackToHostPath) {
  ClusterConfig cfg;
  cfg.install_dfs = false;
  Cluster cluster(cfg);
  auto& node = cluster.storage_node(0);
  // Raw RDMA write straight to the storage target (speed-of-light baseline).
  ClusterConfig ccfg;
  services::Client client(cluster, 0);
  (void)ccfg;
  const auto rkey = node.nic().register_mr(0, 1 * MiB);
  const Bytes data(4096, 0x42);
  bool done = false;
  client.node().nic().post_write(node.id(), 0x100, rkey, data, [&](TimePs) { done = true; });
  cluster.sim().run();
  ASSERT_TRUE(done);
  EXPECT_EQ(node.target().read(0x100, data.size()), data);
}

}  // namespace
}  // namespace nadfs
