// Tests of the networked control plane: open() RPCs against the metadata
// node, layout wire codec, and the full Fig. 1a workflow (query metadata,
// then one-sided data access with the returned capability).
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "services/client.hpp"
#include "services/metadata_node.hpp"

namespace nadfs {
namespace {

using services::Client;
using services::Cluster;
using services::ClusterConfig;
using services::FileLayout;
using services::FilePolicy;
using services::MetadataClient;
using services::MetadataNode;

TEST(LayoutCodec, RoundTripsAllPolicyClasses) {
  for (int kind = 0; kind < 3; ++kind) {
    FileLayout layout;
    layout.object_id = 42;
    layout.size = 123456;
    layout.targets = {{1, 0x1000}, {2, 0x2000}};
    switch (kind) {
      case 0:
        layout.policy.stripe_count = 2;
        layout.policy.stripe_size = 4096;
        break;
      case 1:
        layout.policy.resiliency = dfs::Resiliency::kReplication;
        layout.policy.strategy = dfs::ReplStrategy::kPbt;
        layout.policy.repl_k = 2;
        break;
      case 2:
        layout.policy.resiliency = dfs::Resiliency::kErasureCoding;
        layout.policy.ec_k = 2;
        layout.policy.ec_m = 1;
        layout.parity = {{3, 0x3000}};
        layout.chunk_len = 61728;
        break;
    }
    Bytes buf;
    ByteWriter w(buf);
    layout.serialize(w);
    ByteReader r(buf);
    const auto got = FileLayout::deserialize(r);
    EXPECT_EQ(got.object_id, layout.object_id);
    EXPECT_EQ(got.size, layout.size);
    EXPECT_EQ(got.targets, layout.targets);
    EXPECT_EQ(got.parity, layout.parity);
    EXPECT_EQ(got.chunk_len, layout.chunk_len);
    EXPECT_EQ(got.policy.resiliency, layout.policy.resiliency);
    EXPECT_EQ(got.policy.stripe_count, layout.policy.stripe_count);
    EXPECT_EQ(r.remaining(), 0u);
  }
}

TEST(MetadataNodeRpc, OpenReturnsLayoutAndValidCapability) {
  Cluster cluster;
  MetadataNode meta(cluster);
  Client client(cluster, 0);
  MetadataClient stub(client, meta);
  cluster.metadata().create("/a/b", 64 * KiB, FilePolicy{});

  std::optional<MetadataClient::OpenResult> result;
  TimePs at = 0;
  stub.open("/a/b", auth::Right::kReadWrite, [&](auto r, TimePs t) {
    result = std::move(r);
    at = t;
  });
  cluster.sim().run();

  ASSERT_TRUE(result.has_value());
  EXPECT_GT(at, ns(1000));  // a real network + CPU round trip was paid
  EXPECT_EQ(result->layout.size, 64 * KiB);
  // The minted capability verifies under the DFS-shared key.
  EXPECT_TRUE(cluster.management().authority().verify(
      result->cap, at, auth::Right::kWrite, result->layout.targets[0].addr,
      result->layout.size));
  EXPECT_EQ(meta.lookups_served(), 1u);
}

TEST(MetadataNodeRpc, UnknownNameReturnsNotFound) {
  Cluster cluster;
  MetadataNode meta(cluster);
  Client client(cluster, 0);
  MetadataClient stub(client, meta);

  bool called = false;
  std::optional<MetadataClient::OpenResult> result;
  stub.open("/nope", auth::Right::kRead, [&](auto r, TimePs) {
    called = true;
    result = std::move(r);
  });
  cluster.sim().run();
  EXPECT_TRUE(called);
  EXPECT_FALSE(result.has_value());
}

TEST(MetadataNodeRpc, FullWorkflowOpenThenWriteThenRead) {
  // Fig. 1a end to end: (1)(2) open over the wire, (3) one-sided data
  // access with the returned layout + capability.
  ClusterConfig cfg;
  cfg.storage_nodes = 3;
  Cluster cluster(cfg);
  MetadataNode meta(cluster);
  Client client(cluster, 0);
  MetadataClient stub(client, meta);

  FilePolicy policy;
  policy.resiliency = dfs::Resiliency::kReplication;
  policy.repl_k = 3;
  cluster.metadata().create("/data", 64 * KiB, policy);

  Rng rng(1);
  Bytes data(20000);
  for (auto& b : data) b = rng.next_byte();

  bool wrote = false;
  Bytes got;
  stub.open("/data", auth::Right::kReadWrite, [&](auto r, TimePs) {
    ASSERT_TRUE(r.has_value());
    const auto layout = r->layout;
    const auto cap = r->cap;
    client.write(layout, cap, data, [&, layout, cap](dfs::DfsError err, TimePs) {
      wrote = err == dfs::DfsError::kOk;
      client.read(layout, cap, static_cast<std::uint32_t>(data.size()),
                  [&](dfs::DfsError, Bytes d, TimePs) { got = std::move(d); });
    });
  });
  cluster.sim().run();

  EXPECT_TRUE(wrote);
  EXPECT_EQ(got, data);
}

TEST(MetadataNodeRpc, ConcurrentOpensAreIndependent) {
  Cluster cluster;
  MetadataNode meta(cluster);
  Client client(cluster, 0);
  MetadataClient stub(client, meta);
  cluster.metadata().create("a", 1000, FilePolicy{});
  cluster.metadata().create("b", 2000, FilePolicy{});

  std::uint64_t size_a = 0, size_b = 0;
  stub.open("a", auth::Right::kRead, [&](auto r, TimePs) { size_a = r->layout.size; });
  stub.open("b", auth::Right::kRead, [&](auto r, TimePs) { size_b = r->layout.size; });
  cluster.sim().run();
  EXPECT_EQ(size_a, 1000u);
  EXPECT_EQ(size_b, 2000u);
  EXPECT_EQ(meta.lookups_served(), 2u);
}

}  // namespace
}  // namespace nadfs
