// The packet-train module (net/train.hpp) and the paths built on it.
//
//  - Reassembly.*: the host path's reassembler joins what it admitted in
//    seq order and keeps nothing of a rejected duplicate.
//  - ForgedPacketCount.*: one packet declaring 2^32 - 1 packets reaches a
//    CPU-mode node's DFS-request path and its kSend path; the node holds
//    only what arrived, so the run returns and nothing is delivered.
//  - ReadPath.*: the three read-response trains (RDMA READ, the sPIN DFS
//    read and the host DFS read) return exact bytes at the lengths around
//    the MTU where a packet count can be off by one.
//
// scripts/check.sh reruns these suites under two NADFS_CHAOS_SEEDs and in
// the sanitizer tree.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "net/train.hpp"
#include "services/client.hpp"
#include "services/cluster.hpp"
#include "services/host_dfs.hpp"

namespace nadfs {
namespace {

using services::Client;
using services::Cluster;
using services::ClusterConfig;
using services::FilePolicy;
using services::HostDfsService;

constexpr std::size_t kMtu = 2048;  // net::NetworkConfig's default

Bytes random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Bytes out(n);
  for (auto& b : out) b = rng.next_byte();
  return out;
}

// ------------------------------------------------------------ Reassembly

std::vector<net::Packet> send_train(const Bytes& msg) {
  return net::cut(net::packet(1, 2, net::Opcode::kSend, 7, 7), {}, msg, kMtu);
}

TEST(Reassembly, OutOfOrderPacketsJoinInSeqOrder) {
  const Bytes msg = random_bytes(3 * kMtu + 100, 1);
  auto train = send_train(msg);
  ASSERT_EQ(train.size(), 4u);
  net::Reassembly r;
  for (const std::size_t i : {2, 0, 3, 1}) {
    EXPECT_FALSE(r.complete());
    EXPECT_TRUE(r.admit(train[i])) << "seq " << i;
  }
  EXPECT_TRUE(r.complete());
  EXPECT_EQ(r.bytes(), msg.size());
  EXPECT_EQ(r.join(), msg);
}

TEST(Reassembly, DuplicateDoesNotGrowTheStoredBytes) {
  const Bytes msg = random_bytes(2 * kMtu + 1, 2);
  auto train = send_train(msg);
  ASSERT_EQ(train.size(), 3u);
  net::Reassembly r;
  ASSERT_TRUE(r.admit(train[1]));
  net::Packet dup = send_train(msg)[1];
  EXPECT_FALSE(r.admit(dup));
  EXPECT_EQ(r.bytes(), kMtu);
  EXPECT_EQ(r.arrived(), 1u);
  EXPECT_EQ(dup.data.size(), kMtu);  // a rejected packet keeps its payload
  ASSERT_TRUE(r.admit(train[0]));
  ASSERT_TRUE(r.admit(train[2]));
  EXPECT_TRUE(r.complete());
  EXPECT_EQ(r.join(), msg);
}

// ----------------------------------------------------- ForgedPacketCount

/// One packet of `opcode` from `client` to `dst` that declares 2^32 - 1
/// packets.
void post_forged(Client& client, net::NodeId dst, net::Opcode opcode) {
  net::Packet p = net::packet(client.node().id(), dst, opcode, 1, 1);
  p.pkt_count = 0xFFFFFFFFu;
  p.data = Bytes(100, 0x42);
  client.node().nic().post_message({std::move(p)});
}

TEST(ForgedPacketCount, DfsRequestPathHoldsOnlyWhatArrived) {
  // Regression: the host path sized its part list from the first packet's
  // count, so this one packet made sim.run() throw std::bad_alloc (a
  // 96 GiB resize).
  ClusterConfig cfg;
  cfg.storage_nodes = 1;
  Cluster cluster(cfg);
  auto& node = cluster.storage_node(0);
  node.uninstall_dfs();
  HostDfsService host(node, cfg.dfs);
  Client client(cluster, 0);
  post_forged(client, node.id(), net::Opcode::kRdmaWrite);
  EXPECT_NO_THROW(cluster.sim().run());
  EXPECT_EQ(host.requests_handled(), 0u);
  EXPECT_EQ(node.nic().rejected_packets(), 0u);
}

TEST(ForgedPacketCount, SendPathHoldsOnlyWhatArrived) {
  // Regression: the kSend reassembly had the same resize.
  ClusterConfig cfg;
  cfg.storage_nodes = 1;
  Cluster cluster(cfg);
  auto& node = cluster.storage_node(0);
  int delivered = 0;
  node.nic().set_recv_handler([&delivered](net::NodeId, std::uint64_t, Bytes, TimePs) {
    ++delivered;
  });
  Client client(cluster, 0);
  post_forged(client, node.id(), net::Opcode::kSend);
  EXPECT_NO_THROW(cluster.sim().run());
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(node.nic().rejected_packets(), 0u);
}

// -------------------------------------------------------------- ReadPath

enum class ReadVia { kRdmaRead, kSpinDfs, kHostDfs };

const char* via_name(ReadVia via) {
  static const char* const kNames[] = {"rdma_read", "spin_dfs_read", "host_dfs_read"};
  return kNames[static_cast<int>(via)];
}

void PrintTo(ReadVia via, std::ostream* os) { *os << via_name(via); }

class ReadPath : public ::testing::TestWithParam<std::tuple<ReadVia, std::size_t>> {};

TEST_P(ReadPath, ReturnsExactBytes) {
  const auto [via, len] = GetParam();
  ClusterConfig cfg;
  cfg.storage_nodes = 1;
  Cluster cluster(cfg);
  ASSERT_EQ(cluster.network().mtu(), kMtu);
  auto& node = cluster.storage_node(0);
  std::optional<HostDfsService> host;
  if (via == ReadVia::kHostDfs) {
    node.uninstall_dfs();
    host.emplace(node, cfg.dfs);
  }
  Client client(cluster, 0);
  const auto& layout = cluster.metadata().create("a", 64 * KiB, FilePolicy{});
  const Bytes data = random_bytes(len, len);
  node.target().write(layout.targets[0].addr, data);

  int calls = 0;
  Bytes got;
  if (via == ReadVia::kRdmaRead) {
    client.node().nic().post_read(node.id(), layout.targets[0].addr, 0,
                                  static_cast<std::uint32_t>(len), [&](Bytes d, TimePs) {
                                    ++calls;
                                    got = std::move(d);
                                  });
  } else {
    const auto cap = cluster.metadata().grant(client.client_id(), layout, auth::Right::kRead);
    client.read(layout, cap, static_cast<std::uint32_t>(len),
                [&](dfs::DfsError err, Bytes d, TimePs) {
                  ++calls;
                  EXPECT_EQ(err, dfs::DfsError::kOk);
                  got = std::move(d);
                });
  }
  cluster.sim().run();
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(got, data);
  EXPECT_EQ(client.node().nic().rejected_read_packets(), 0u);
}

std::string read_case_name(const ::testing::TestParamInfo<ReadPath::ParamType>& info) {
  return std::string(via_name(std::get<0>(info.param))) + "_" +
         std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(Lengths, ReadPath,
                         ::testing::Combine(::testing::Values(ReadVia::kRdmaRead,
                                                              ReadVia::kSpinDfs,
                                                              ReadVia::kHostDfs),
                                            ::testing::Values(std::size_t{1}, kMtu - 1, kMtu,
                                                              kMtu + 1, 3 * kMtu + 1)),
                         read_case_name);

}  // namespace
}  // namespace nadfs
