// Which packets a storage node lets into a message, and where their bytes
// may land.
//
//  - DuplicatePackets.*: every reassembly point (the PsPIN message table
//    and the NIC's host-path assemblies) counts a message's arrivals by
//    distinct seq. A duplicated packet, a seq at or past the packet count,
//    or a packet count that disagrees with the message's first packet is
//    dropped and counted, never run through a handler or stored.
//  - ExtentBounds.*: a write lands only inside the extent its capability
//    was verified for, on the sPIN and the host path, and the capability
//    check itself cannot be defeated by an address sum that wraps.
//  - MalformedWrite.*, MalformedRpc.*: a request whose headers do not
//    parse (an unknown enum byte, EC fields no RS(k, m) stream has, a
//    truncated RPC) is refused and counted; it never crashes the run and
//    never earns an ack.
//
// scripts/check.sh reruns these suites under two NADFS_CHAOS_SEEDs and in
// the sanitizer tree, where an out-of-range seq stored by index, or a
// parity coordinate read past the end of its list, is reported.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <optional>
#include <ostream>
#include <tuple>
#include <vector>

#include "auth/capability.hpp"
#include "common/rng.hpp"
#include "dfs/wire.hpp"
#include "net/arrivals.hpp"
#include "protocols/rpc.hpp"
#include "services/client.hpp"
#include "services/cluster.hpp"
#include "services/host_dfs.hpp"
#include "services/metadata_node.hpp"

namespace nadfs {
namespace {

using services::Client;
using services::Cluster;
using services::ClusterConfig;
using services::FilePolicy;
using services::HostDfsService;

Bytes random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Bytes out(n);
  for (auto& b : out) b = rng.next_byte();
  return out;
}

/// Capture the control packets (acks and nacks) addressed to a client
/// node into `seen`, in place of the Client's own tracker: the requests
/// these tests post are built by hand.
void capture_control(Client& client, std::vector<net::Packet>& seen) {
  client.node().nic().set_control_handler(
      [&seen](const net::Packet& p, TimePs) { seen.push_back(p); });
}

dfs::DfsHeader write_header(Client& client, const auth::Capability& cap) {
  dfs::DfsHeader hdr;
  hdr.op = dfs::OpType::kWrite;
  hdr.greq_id = client.next_greq();
  hdr.client_node = client.node().id();
  hdr.cap = cap;
  return hdr;
}

void expect_single_control(const std::vector<net::Packet>& seen, net::Opcode opcode,
                           dfs::DfsError err) {
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].opcode, opcode);
  EXPECT_EQ(seen[0].raddr, static_cast<std::uint64_t>(err));
}

// ------------------------------------------------------- DuplicatePackets

TEST(DuplicatePackets, SeqSetAdmitsEachSeqOnceOnBothSidesOfTheInlineMask) {
  // Seqs below 64 use the inline mask, higher ones the sorted list; a
  // message of 200 packets arriving out of order, every packet twice.
  net::SeqSet seen;
  std::vector<std::uint32_t> order;
  for (std::uint32_t s = 0; s < 200; ++s) order.push_back((s * 37) % 200);
  for (const std::uint32_t s : order) EXPECT_TRUE(seen.insert(s)) << "seq " << s;
  for (const std::uint32_t s : order) EXPECT_FALSE(seen.insert(s)) << "seq " << s;
  EXPECT_TRUE(seen.insert(std::numeric_limits<std::uint32_t>::max()));
  EXPECT_FALSE(seen.insert(std::numeric_limits<std::uint32_t>::max()));
}

struct EcOutcome {
  int calls = 0;
  int oks = 0;
  std::vector<Bytes> chunks;  ///< data chunks, then parity chunks
  std::uint64_t rejected = 0;
};

EcOutcome ec_write(bool duplicate) {
  ClusterConfig cfg;
  cfg.storage_nodes = 5;
  if (duplicate) cfg.faults.set_duplicate_rate(1.0);
  Cluster cluster(cfg);
  Client client(cluster, 0);
  FilePolicy policy;
  policy.resiliency = dfs::Resiliency::kErasureCoding;
  policy.ec_k = 3;
  policy.ec_m = 2;
  const auto& layout = cluster.metadata().create("obj", 48 * KiB, policy);
  const auto cap = cluster.metadata().grant(client.client_id(), layout, auth::Right::kWrite);

  EcOutcome out;
  client.write(layout, cap, random_bytes(48 * KiB, 11), [&out](dfs::DfsError err, TimePs) {
    ++out.calls;
    out.oks += err == dfs::DfsError::kOk;
  });
  cluster.sim().run();
  std::vector<dfs::Coord> coords = layout.targets;
  coords.insert(coords.end(), layout.parity.begin(), layout.parity.end());
  for (const auto& c : coords) {
    out.chunks.push_back(cluster.storage_by_node(c.node).target().read(
        c.addr, static_cast<std::size_t>(layout.chunk_len)));
  }
  for (std::size_t i = 0; i < cluster.storage_node_count(); ++i) {
    out.rejected += cluster.storage_node(i).pspin().rejected_packets();
  }
  return out;
}

TEST(DuplicatePackets, SpinEcWriteStoresTheFaultFreeChunks) {
  // Regression: PsPIN counted every copy as a new packet, so a duplicated
  // intermediate parity was XORed in twice and counted as one of the k
  // contributions. The write was still acked kOk, with both parity chunks
  // wrong. With every packet duplicated, each chunk must equal the
  // fault-free run's.
  const EcOutcome clean = ec_write(false);
  const EcOutcome dup = ec_write(true);
  EXPECT_EQ(clean.calls, 1);
  EXPECT_EQ(clean.oks, 1);
  EXPECT_EQ(clean.rejected, 0u);
  EXPECT_EQ(dup.calls, 1);
  EXPECT_EQ(dup.oks, 1);
  EXPECT_GT(dup.rejected, 0u);
  ASSERT_EQ(dup.chunks.size(), 5u);
  for (std::size_t i = 0; i < dup.chunks.size(); ++i) {
    EXPECT_EQ(dup.chunks[i], clean.chunks[i]) << "chunk " << i;
  }
}

TEST(DuplicatePackets, HostDfsWriteStoresExactBytesAndAcksOnce) {
  // Regression: the NIC's host-path reassembly counted copies too, so the
  // request reached the host service before all its packets had, and a
  // 16 KiB write was acked kOk with thousands of its bytes wrong.
  ClusterConfig cfg;
  cfg.storage_nodes = 1;
  cfg.faults.set_duplicate_rate(1.0);
  Cluster cluster(cfg);
  auto& node = cluster.storage_node(0);
  node.uninstall_dfs();
  HostDfsService host(node, cfg.dfs);
  Client client(cluster, 0);
  const auto& layout = cluster.metadata().create("a", 64 * KiB, FilePolicy{});
  const auto cap = cluster.metadata().grant(client.client_id(), layout, auth::Right::kWrite);

  const Bytes data = random_bytes(16 * KiB, 12);
  int calls = 0;
  int oks = 0;
  client.write(layout, cap, data, [&](dfs::DfsError err, TimePs) {
    ++calls;
    oks += err == dfs::DfsError::kOk;
  });
  cluster.sim().run();
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(oks, 1);
  EXPECT_EQ(host.requests_handled(), 1u);
  EXPECT_EQ(node.target().read(layout.targets[0].addr, data.size()), data);
  EXPECT_GT(node.nic().rejected_packets(), 0u);
}

/// A two-packet write to the layout's first extent with two forged packets
/// around its second one: before it, a copy claiming three packets; after
/// it, a seq-9 packet of a two-packet message. Both carry garbage aimed at
/// the start of the extent.
std::vector<net::Packet> forged_write(Client& client, const services::FileLayout& layout,
                                      const auth::Capability& cap, const Bytes& data) {
  dfs::WriteRequestHeader wrh;
  wrh.dest_addr = layout.targets[0].addr;
  wrh.total_len = data.size();
  auto pkts = dfs::build_request_packets(client.node().id(), layout.targets[0].node, 2048,
                                         write_header(client, cap), wrh, data);
  EXPECT_EQ(pkts.size(), 2u);
  net::Packet recount = pkts[1];
  recount.pkt_count = 3;
  recount.raddr = 0;
  recount.data = Bytes(512, 0xEE);
  net::Packet past_end = recount;
  past_end.pkt_count = 2;
  past_end.seq = 9;
  return {pkts[0], recount, pkts[1], past_end};
}

TEST(DuplicatePackets, SpinDropsOutOfRangeSeqAndRecountedPackets) {
  // Regression: PsPIN took the packet count from every packet and counted a
  // seq past it as an arrival, so both forged packets ran the PH and wrote
  // their garbage over the start of an acked write.
  Cluster cluster;
  Client client(cluster, 0);
  std::vector<net::Packet> seen;
  capture_control(client, seen);
  const auto& layout = cluster.metadata().create("a", 64 * KiB, FilePolicy{});
  const auto cap = cluster.metadata().grant(client.client_id(), layout, auth::Right::kWrite);
  const Bytes data = random_bytes(3000, 13);
  client.node().nic().post_message(forged_write(client, layout, cap, data));
  cluster.sim().run();

  auto& node = cluster.storage_by_node(layout.targets[0].node);
  expect_single_control(seen, net::Opcode::kAck, dfs::DfsError::kOk);
  EXPECT_EQ(node.target().read(layout.targets[0].addr, data.size()), data);
  EXPECT_EQ(node.pspin().rejected_packets(), 2u);
  EXPECT_EQ(node.pspin().live_messages(), 0u);
  EXPECT_EQ(node.dfs_state()->table.in_use(), 0u);
}

TEST(DuplicatePackets, HostPathDropsOutOfRangeSeqAndRecountedPackets) {
  // Regression: host-path reassembly stored parts[seq] without checking seq
  // against the packet count (an out-of-bounds write), and a recounted
  // packet left the request waiting forever.
  ClusterConfig cfg;
  cfg.storage_nodes = 1;
  Cluster cluster(cfg);
  auto& node = cluster.storage_node(0);
  node.uninstall_dfs();
  HostDfsService host(node, cfg.dfs);
  Client client(cluster, 0);
  std::vector<net::Packet> seen;
  capture_control(client, seen);
  const auto& layout = cluster.metadata().create("a", 64 * KiB, FilePolicy{});
  const auto cap = cluster.metadata().grant(client.client_id(), layout, auth::Right::kWrite);
  const Bytes data = random_bytes(3000, 14);
  client.node().nic().post_message(forged_write(client, layout, cap, data));
  cluster.sim().run();

  expect_single_control(seen, net::Opcode::kAck, dfs::DfsError::kOk);
  EXPECT_EQ(host.requests_handled(), 1u);
  EXPECT_EQ(node.target().read(layout.targets[0].addr, data.size()), data);
  EXPECT_EQ(node.nic().rejected_packets(), 2u);
  EXPECT_EQ(node.nic().steered_to_host(), 1u);
}

// ----------------------------------------------------------- ExtentBounds

TEST(ExtentBounds, SpinPacketPastTheVerifiedExtentIsDroppedAndNacked) {
  // Regression: the PH trusted each later packet's client-supplied data
  // offset, so a write capability for 12 KiB placed bytes 1 MiB away.
  Cluster cluster;
  Client client(cluster, 0);
  std::vector<net::Packet> seen;
  capture_control(client, seen);
  const auto& layout = cluster.metadata().create("a", 12 * KiB, FilePolicy{});
  const auto cap = cluster.metadata().grant(client.client_id(), layout, auth::Right::kWrite);
  dfs::WriteRequestHeader wrh;
  wrh.dest_addr = layout.targets[0].addr;
  wrh.total_len = 12 * KiB;
  auto pkts = dfs::build_request_packets(client.node().id(), layout.targets[0].node,
                                         cluster.network().mtu(), write_header(client, cap), wrh,
                                         Bytes(12 * KiB, 0x5A));
  ASSERT_GT(pkts.size(), 2u);
  pkts.back().raddr = 1 * MiB;
  const std::size_t stray = pkts.back().data.size();
  client.node().nic().post_message(std::move(pkts));
  cluster.sim().run();

  auto& node = cluster.storage_by_node(layout.targets[0].node);
  expect_single_control(seen, net::Opcode::kNack, dfs::DfsError::kMalformed);
  EXPECT_EQ(node.target().read(layout.targets[0].addr + 1 * MiB, stray), Bytes(stray, 0));
  EXPECT_EQ(node.dfs_state()->malformed_requests, 1u);
  EXPECT_EQ(node.dfs_state()->acks_sent, 0u);
  EXPECT_EQ(node.dfs_state()->table.in_use(), 0u);
}

/// A CPU-mode node whose host service receives one hand-built write: the
/// headers claim 4 KiB, the payload carries 64 KiB.
void expect_host_rejects_long_payload(dfs::WriteRequestHeader wrh) {
  ClusterConfig cfg;
  cfg.storage_nodes = 1;
  Cluster cluster(cfg);
  auto& node = cluster.storage_node(0);
  node.uninstall_dfs();
  HostDfsService host(node, cfg.dfs);
  Client client(cluster, 0);
  std::vector<net::Packet> seen;
  capture_control(client, seen);
  const auto& layout = cluster.metadata().create("a", 4 * KiB, FilePolicy{});
  const auto cap = cluster.metadata().grant(client.client_id(), layout, auth::Right::kWrite);
  wrh.dest_addr = layout.targets[0].addr;
  wrh.total_len = 4 * KiB;
  client.node().nic().post_message(dfs::build_request_packets(
      client.node().id(), node.id(), cluster.network().mtu(), write_header(client, cap), wrh,
      Bytes(64 * KiB, 0x77)));
  cluster.sim().run();

  expect_single_control(seen, net::Opcode::kNack, dfs::DfsError::kMalformed);
  EXPECT_EQ(host.validation_failures(), 1u);
  EXPECT_EQ(node.target().bytes_written(), 0u);
  EXPECT_EQ(node.target().read(layout.targets[0].addr + 4 * KiB, 60 * KiB), Bytes(60 * KiB, 0));
}

TEST(ExtentBounds, HostWriteLongerThanItsVerifiedLengthIsNacked) {
  // Regression: the host service verified the capability over total_len
  // but wrote the whole reassembled payload, past the extent's end.
  expect_host_rejects_long_payload(dfs::WriteRequestHeader{});
}

TEST(ExtentBounds, HostParityContributionLongerThanItsVerifiedLengthIsNacked) {
  // Regression: the parity path had the same gap; with ec_k = 1 the one
  // contribution was aggregated and written whole.
  dfs::WriteRequestHeader wrh;
  wrh.resiliency = dfs::Resiliency::kErasureCoding;
  wrh.role = dfs::EcRole::kParity;
  wrh.ec_k = 1;
  wrh.ec_m = 1;
  wrh.parity_nodes.resize(1);  // an RS(1, 1) header names its one parity node
  expect_host_rejects_long_payload(wrh);
}

TEST(ExtentBounds, CapabilityVerifyDoesNotWrap) {
  // Regression: verify compared addr + len after the sum could wrap, so a
  // huge len passed the end check (and defeated the payload bounds above).
  auth::Key128 key{};
  key[0] = 3;
  const auth::CapabilityAuthority authority(key);
  const auto cap = authority.mint(1, 1, auth::Right::kWrite, 0, 4096, 4096);
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  EXPECT_FALSE(authority.verify(cap, 0, auth::Right::kWrite, 4097, kMax));
  EXPECT_FALSE(authority.verify(cap, 0, auth::Right::kWrite, kMax, 2));
  EXPECT_FALSE(authority.verify(cap, 0, auth::Right::kWrite, 4096, 4097));
  EXPECT_FALSE(authority.verify(cap, 0, auth::Right::kWrite, 8192, 1));
  EXPECT_TRUE(authority.verify(cap, 0, auth::Right::kWrite, 4096, 4096));
  EXPECT_TRUE(authority.verify(cap, 0, auth::Right::kWrite, 8191, 1));
  EXPECT_TRUE(authority.verify(cap, 0, auth::Right::kWrite, 8192, 0));
}

// ------------------------------------------------------- MalformedWrite

struct WrhCase {
  const char* name;
  void (*edit)(dfs::WriteRequestHeader&);
};

/// Turn `wrh` into an EC data-stream header of RS(k, m) with m parity
/// coordinates; each case then breaks one rule.
void make_ec(dfs::WriteRequestHeader& wrh, std::uint8_t k, std::uint8_t m) {
  wrh.resiliency = dfs::Resiliency::kErasureCoding;
  wrh.ec_k = k;
  wrh.ec_m = m;
  wrh.parity_nodes.assign(m, dfs::Coord{0, 0x100000});
}

const WrhCase kWrhCases[] = {
    {"unknown_resiliency",
     [](dfs::WriteRequestHeader& h) { h.resiliency = static_cast<dfs::Resiliency>(3); }},
    {"ec_data_idx_past_k",
     [](dfs::WriteRequestHeader& h) {
       make_ec(h, 3, 2);
       h.data_idx = 3;
     }},
    {"ec_zero_k", [](dfs::WriteRequestHeader& h) { make_ec(h, 0, 2); }},
    {"ec_zero_m", [](dfs::WriteRequestHeader& h) { make_ec(h, 3, 0); }},
    {"ec_over_256_chunks", [](dfs::WriteRequestHeader& h) { make_ec(h, 200, 57); }},
    {"ec_no_parity_coords",
     [](dfs::WriteRequestHeader& h) {
       make_ec(h, 3, 2);
       h.parity_nodes.clear();
     }},
};

void PrintTo(const WrhCase& c, std::ostream* os) { *os << c.name; }

class MalformedWrite : public ::testing::TestWithParam<std::tuple<bool, WrhCase>> {};

TEST_P(MalformedWrite, IsDroppedUnackedAndCounted) {
  // Regression: deserialize took any resiliency byte, so a sPIN or host
  // write with resiliency 3 stored nothing and was acked kOk; and EC fields
  // were never checked, so a bad k, m or data index threw out of the codec
  // (and out of sim.run()), and m parities with no coordinates read past
  // the end of the parity list. Each request carries a valid capability.
  const auto& [host_path, wrh_case] = GetParam();
  ClusterConfig cfg;
  cfg.storage_nodes = 1;
  Cluster cluster(cfg);
  auto& node = cluster.storage_node(0);
  std::optional<HostDfsService> host;
  if (host_path) {
    node.uninstall_dfs();
    host.emplace(node, cfg.dfs);
  }
  Client client(cluster, 0);
  std::vector<net::Packet> seen;
  capture_control(client, seen);
  const auto& layout = cluster.metadata().create("a", 64 * KiB, FilePolicy{});
  const auto cap = cluster.metadata().grant(client.client_id(), layout, auth::Right::kWrite);
  dfs::WriteRequestHeader wrh;
  wrh.dest_addr = layout.targets[0].addr;
  wrh.total_len = 3000;
  wrh_case.edit(wrh);
  client.node().nic().post_message(dfs::build_request_packets(
      client.node().id(), node.id(), cluster.network().mtu(), write_header(client, cap), wrh,
      random_bytes(3000, 21)));
  EXPECT_NO_THROW(cluster.sim().run());

  EXPECT_TRUE(seen.empty());
  EXPECT_EQ(node.target().bytes_written(), 0u);
  if (host_path) {
    EXPECT_EQ(host->validation_failures(), 1u);
    EXPECT_EQ(host->requests_handled(), 1u);
  } else {
    EXPECT_EQ(node.dfs_state()->malformed_requests, 1u);
    EXPECT_EQ(node.dfs_state()->table.in_use(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Cases, MalformedWrite,
                         ::testing::Combine(::testing::Bool(), ::testing::ValuesIn(kWrhCases)),
                         [](const auto& pinfo) {
                           return std::string(std::get<0>(pinfo.param) ? "host_" : "spin_") +
                                  std::get<1>(pinfo.param).name;
                         });

// --------------------------------------------------------- MalformedRpc

/// Send `request` from `client` to `server` as one kSend and run: the
/// first byte of the reply (its status), or -1 when none came back.
int reply_status(Cluster& cluster, Client& client, net::NodeId server, Bytes request) {
  int status = -1;
  client.node().nic().set_recv_handler(
      [&status](net::NodeId, std::uint64_t, Bytes reply, TimePs) {
        status = reply.empty() ? 256 : reply[0];
      });
  client.node().nic().post_send(server, 1, std::move(request));
  cluster.sim().run();
  return status;
}

// Regression: the RPC servers and the metadata node parsed a request with
// no catch, so a 3-byte kSend threw "ByteReader: truncated buffer" out of
// sim.run(). Each now answers with a non-OK status.

TEST(MalformedRpc, RpcServerAnswersATruncatedRequest) {
  Cluster cluster;
  protocols::RpcWrite rpc(cluster);
  Client client(cluster, 0);
  int status = -1;
  EXPECT_NO_THROW(status = reply_status(cluster, client, cluster.storage_node(0).id(), {1, 2, 3}));
  EXPECT_GT(status, 0);
  EXPECT_EQ(rpc.validation_failures(), 1u);
}

TEST(MalformedRpc, RpcRdmaServerAnswersATruncatedRequest) {
  Cluster cluster;
  protocols::RpcRdmaWrite rpc(cluster);
  Client client(cluster, 0);
  int status = -1;
  EXPECT_NO_THROW(status = reply_status(cluster, client, cluster.storage_node(0).id(), {1, 2, 3}));
  EXPECT_GT(status, 0);
  EXPECT_EQ(rpc.validation_failures(), 1u);
}

TEST(MalformedRpc, MetadataNodeAnswersATruncatedRequest) {
  Cluster cluster;
  services::MetadataNode meta(cluster);
  Client client(cluster, 0);
  int status = -1;
  EXPECT_NO_THROW(status = reply_status(cluster, client, meta.id(), {1, 2, 3}));
  EXPECT_GT(status, 0);
}

}  // namespace
}  // namespace nadfs
