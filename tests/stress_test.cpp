// Randomized whole-system stress: many clients, mixed policies (plain,
// ring/pbt replication, EC), mixed operation sizes, concurrent issue — at
// the end every object's durable state must match the reference model and
// every invariant (slots freed, replicas identical, parity decodable) must
// hold. Runs with a fixed seed per instantiation for reproducibility.
#include <gtest/gtest.h>

#include <map>

#include "common/rng.hpp"
#include "ec/reed_solomon.hpp"
#include "services/client.hpp"
#include "services/cluster.hpp"

namespace nadfs {
namespace {

using services::Client;
using services::Cluster;
using services::ClusterConfig;
using services::FileLayout;
using services::FilePolicy;

struct ObjectModel {
  const FileLayout* layout;
  Bytes expected;
  std::size_t owner;  // client index
};

class SystemStress : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SystemStress, MixedWorkloadConvergesToModel) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed);

  ClusterConfig cfg;
  cfg.storage_nodes = 8;
  cfg.clients = 3;
  Cluster cluster(cfg);
  std::vector<std::unique_ptr<Client>> clients;
  for (unsigned c = 0; c < cfg.clients; ++c) {
    clients.push_back(std::make_unique<Client>(cluster, c));
  }

  // Create 24 objects across all policy classes.
  std::vector<ObjectModel> objects;
  for (int i = 0; i < 24; ++i) {
    FilePolicy policy;
    switch (rng.next_below(4)) {
      case 0:
        break;  // plain
      case 1:
        policy.resiliency = dfs::Resiliency::kReplication;
        policy.strategy = dfs::ReplStrategy::kRing;
        policy.repl_k = static_cast<std::uint8_t>(rng.next_range(2, 5));
        break;
      case 2:
        policy.resiliency = dfs::Resiliency::kReplication;
        policy.strategy = dfs::ReplStrategy::kPbt;
        policy.repl_k = static_cast<std::uint8_t>(rng.next_range(2, 8));
        break;
      case 3:
        policy.resiliency = dfs::Resiliency::kErasureCoding;
        policy.ec_k = static_cast<std::uint8_t>(rng.next_range(2, 4));
        policy.ec_m = static_cast<std::uint8_t>(rng.next_range(1, 3));
        break;
    }
    const std::size_t size = 1 + rng.next_below(96 * KiB);
    ObjectModel obj;
    obj.layout = &cluster.metadata().create("obj" + std::to_string(i), size, policy);
    obj.owner = rng.next_below(cfg.clients);
    objects.push_back(obj);
  }

  // Issue an initial full write on every object, staggered in time.
  unsigned completed = 0;
  unsigned expected_ops = 0;
  for (auto& obj : objects) {
    Bytes data(obj.layout->size);
    for (auto& b : data) b = rng.next_byte();
    obj.expected = data;
    ++expected_ops;
    const TimePs when = rng.next_below(us(50));
    auto* client = clients[obj.owner].get();
    const auto cap =
        cluster.metadata().grant(client->client_id(), *obj.layout, auth::Right::kReadWrite);
    cluster.sim().schedule(when, [client, &obj, cap, data = std::move(data), &completed]() {
      client->write(*obj.layout, cap, data, [&completed](dfs::DfsError err, TimePs) {
        EXPECT_EQ(err, dfs::DfsError::kOk);
        ++completed;
      });
    });
  }
  cluster.sim().run();
  ASSERT_EQ(completed, expected_ops);

  // Overwrite a random subset (plain/replicated objects support offsets).
  for (auto& obj : objects) {
    if (rng.next_below(2) == 0) continue;
    auto* client = clients[obj.owner].get();
    const auto cap =
        cluster.metadata().grant(client->client_id(), *obj.layout, auth::Right::kReadWrite);
    std::uint64_t off = 0;
    std::size_t len = obj.layout->size;
    if (obj.layout->policy.resiliency != dfs::Resiliency::kErasureCoding &&
        obj.layout->size > 2) {
      off = rng.next_below(obj.layout->size / 2);
      len = 1 + rng.next_below(obj.layout->size - off - 1);
    }
    Bytes data(len);
    for (auto& b : data) b = rng.next_byte();
    std::copy(data.begin(), data.end(),
              obj.expected.begin() + static_cast<std::ptrdiff_t>(off));
    if (obj.layout->policy.resiliency == dfs::Resiliency::kErasureCoding) {
      obj.expected = data;
      obj.expected.resize(obj.layout->size, 0);
    }
    ++expected_ops;
    client->write_at(*obj.layout, cap, off, std::move(data),
                     [&completed](dfs::DfsError err, TimePs) {
                       EXPECT_EQ(err, dfs::DfsError::kOk);
                       ++completed;
                     });
  }
  cluster.sim().run();
  ASSERT_EQ(completed, expected_ops);

  // Read a random subset back through the offloaded read path and compare
  // against the model (primary target / chunk 0 for EC objects).
  unsigned reads_ok = 0, reads_issued = 0;
  for (auto& obj : objects) {
    if (rng.next_below(3) != 0) continue;
    auto* client = clients[obj.owner].get();
    const auto cap =
        cluster.metadata().grant(client->client_id(), *obj.layout, auth::Right::kRead);
    std::size_t len = obj.expected.size();
    if (obj.layout->policy.resiliency == dfs::Resiliency::kErasureCoding) {
      len = std::min<std::size_t>(len, static_cast<std::size_t>(obj.layout->chunk_len));
    }
    if (len == 0) continue;
    ++reads_issued;
    client->read(*obj.layout, cap, static_cast<std::uint32_t>(len),
                 [&reads_ok, &obj, len](dfs::DfsError, Bytes data, TimePs) {
                   reads_ok += data == Bytes(obj.expected.begin(),
                                             obj.expected.begin() +
                                                 static_cast<std::ptrdiff_t>(len));
                 });
  }
  cluster.sim().run();
  EXPECT_EQ(reads_ok, reads_issued);

  // ---- verification against the model ----
  for (const auto& obj : objects) {
    const auto& layout = *obj.layout;
    switch (layout.policy.resiliency) {
      case dfs::Resiliency::kNone:
      case dfs::Resiliency::kReplication: {
        for (const auto& coord : layout.targets) {
          EXPECT_EQ(cluster.storage_by_node(coord.node)
                        .target()
                        .read(coord.addr, obj.expected.size()),
                    obj.expected)
              << "object " << layout.object_id << " node " << coord.node;
        }
        break;
      }
      case dfs::Resiliency::kErasureCoding: {
        const auto chunk_len = static_cast<std::size_t>(layout.chunk_len);
        Bytes padded = obj.expected;
        padded.resize(chunk_len * layout.policy.ec_k, 0);
        std::vector<Bytes> chunks(layout.policy.ec_k);
        for (unsigned i = 0; i < layout.policy.ec_k; ++i) {
          chunks[i].assign(padded.begin() + static_cast<std::ptrdiff_t>(i * chunk_len),
                           padded.begin() + static_cast<std::ptrdiff_t>((i + 1) * chunk_len));
          EXPECT_EQ(cluster.storage_by_node(layout.targets[i].node)
                        .target()
                        .read(layout.targets[i].addr, chunk_len),
                    chunks[i])
              << "object " << layout.object_id << " chunk " << i;
        }
        ec::ReedSolomon rs(layout.policy.ec_k, layout.policy.ec_m);
        const auto parity = rs.encode(chunks);
        for (unsigned i = 0; i < layout.policy.ec_m; ++i) {
          EXPECT_EQ(cluster.storage_by_node(layout.parity[i].node)
                        .target()
                        .read(layout.parity[i].addr, chunk_len),
                    parity[i])
              << "object " << layout.object_id << " parity " << i;
        }
        break;
      }
    }
  }

  // ---- invariants ----
  for (std::size_t n = 0; n < cluster.storage_node_count(); ++n) {
    auto& node = cluster.storage_node(n);
    EXPECT_EQ(node.dfs_state()->table.in_use(), 0u) << "leaked slot on node " << n;
    EXPECT_EQ(node.dfs_state()->pool.in_use(), 0u) << "leaked accumulator on node " << n;
    EXPECT_EQ(node.pspin().live_messages(), 0u) << "dangling message on node " << n;
    EXPECT_EQ(node.pspin().cleanup_runs(), 0u) << "spurious cleanup on node " << n;
    EXPECT_EQ(node.dfs_state()->auth_failures, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SystemStress,
                         ::testing::Values(1ull, 2ull, 3ull, 7ull, 42ull, 1337ull),
                         [](const ::testing::TestParamInfo<std::uint64_t>& pinfo) {
                           return "seed" + std::to_string(pinfo.param);
                         });

}  // namespace
}  // namespace nadfs
