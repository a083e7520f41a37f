// Handler-granularity tests of the DFS execution context: drive the
// PsPIN device with hand-built packets against a fake NIC and inspect
// exactly what the handlers emit (NACK shapes, forwards, parity packets,
// read responses) and how they mutate the NIC-resident DFS state.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "dfs/handlers.hpp"
#include "ec/reed_solomon.hpp"
#include "net/network.hpp"
#include "pspin/device.hpp"
#include "sim/simulator.hpp"

namespace nadfs::dfs {
namespace {

/// Minimal NIC: records sends, keeps a byte-array storage target.
class FakeNic : public spin::NicServices {
 public:
  explicit FakeNic(sim::Simulator&) {}

  std::vector<net::Packet> sent;
  Bytes storage = Bytes(1 << 21, 0);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> events;

  sim::Window egress_send(net::Packet pkt, TimePs ready) override {
    sent.push_back(std::move(pkt));
    return {ready, ready + ns(41)};
  }
  TimePs dma_to_storage(std::uint64_t addr, ByteSpan data, TimePs ready) override {
    std::copy(data.begin(), data.end(), storage.begin() + static_cast<std::ptrdiff_t>(addr));
    return ready + ns(250);
  }
  std::pair<Bytes, TimePs> dma_from_storage(std::uint64_t addr, std::size_t len,
                                            TimePs ready) override {
    return {peek_storage(addr, len), ready + ns(250)};
  }
  Bytes peek_storage(std::uint64_t addr, std::size_t len) const {
    return Bytes(storage.begin() + static_cast<std::ptrdiff_t>(addr),
                 storage.begin() + static_cast<std::ptrdiff_t>(addr + len));
  }
  void notify_host(std::uint64_t code, std::uint64_t arg, TimePs) override {
    events.emplace_back(code, arg);
  }
  net::NodeId node_id() const override { return 42; }
};

struct Rig {
  sim::Simulator sim;
  FakeNic nic{sim};
  pspin::PsPinDevice dev{sim};
  std::shared_ptr<DfsState> state;
  auth::Key128 key{};
  std::unique_ptr<auth::CapabilityAuthority> authority;

  Rig() {
    key[0] = 9;
    DfsConfig cfg;
    cfg.key = key;
    state = std::make_shared<DfsState>(cfg, net::NetworkConfig{}.mtu);
    authority = std::make_unique<auth::CapabilityAuthority>(key);
    dev.attach_nic(nic);
    dev.install(make_dfs_context(state));
  }

  auth::Capability cap(auth::Right right = auth::Right::kReadWrite) {
    return authority->mint(1, 1, right, 0, 0, 1 << 20);
  }

  DfsHeader header(OpType op, std::uint64_t greq = 0xABC) {
    DfsHeader h;
    h.op = op;
    h.greq_id = greq;
    h.client_node = 5;
    h.cap = cap();
    return h;
  }

  void deliver(std::vector<net::Packet> pkts) {
    for (auto& p : pkts) {
      p.dst = 42;
      dev.on_packet(std::move(p));
    }
    sim.run();
  }
};

Bytes random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Bytes out(n);
  for (auto& b : out) b = rng.next_byte();
  return out;
}

TEST(DfsHandlers, PlainWriteStoresDataAndAcks) {
  Rig rig;
  WriteRequestHeader wrh;
  wrh.dest_addr = 0x4000;
  wrh.total_len = 5000;
  const Bytes data = random_bytes(5000, 1);
  rig.deliver(build_request_packets(5, 42, 2048, rig.header(OpType::kWrite), wrh, data));

  EXPECT_EQ(rig.nic.peek_storage(0x4000, 5000), data);
  ASSERT_EQ(rig.nic.sent.size(), 1u);
  const auto& ack = rig.nic.sent[0];
  EXPECT_EQ(ack.opcode, net::Opcode::kAck);
  EXPECT_EQ(ack.dst, 5u);           // the client node from the DFS header
  EXPECT_EQ(ack.user_tag, 0xABCu);  // the global request id
  EXPECT_EQ(rig.state->table.in_use(), 0u);
}

TEST(DfsHandlers, NackCarriesRequestIdAndClient) {
  Rig rig;
  WriteRequestHeader wrh;
  wrh.dest_addr = 0x4000;
  wrh.total_len = 100;
  auto hdr = rig.header(OpType::kWrite, 0xDEAD);
  hdr.cap.mac ^= 1;
  rig.deliver(build_request_packets(5, 42, 2048, hdr, wrh, Bytes(100, 1)));

  ASSERT_EQ(rig.nic.sent.size(), 1u);
  EXPECT_EQ(rig.nic.sent[0].opcode, net::Opcode::kNack);
  EXPECT_EQ(rig.nic.sent[0].dst, 5u);
  EXPECT_EQ(rig.nic.sent[0].user_tag, 0xDEADu);
  EXPECT_EQ(rig.state->auth_failures, 1u);
  // Host event queue saw the auth failure with the request id.
  ASSERT_FALSE(rig.nic.events.empty());
  EXPECT_EQ(rig.nic.events[0].first, kEvAuthFailure);
  EXPECT_EQ(rig.nic.events[0].second, 0xDEADu);
}

TEST(DfsHandlers, DeniedRequestDropsAllPayloadsWithoutWriting) {
  Rig rig;
  WriteRequestHeader wrh;
  wrh.dest_addr = 0x4000;
  wrh.total_len = 8000;
  auto hdr = rig.header(OpType::kWrite);
  hdr.cap.extent_len = 1;  // extent check fails
  rig.deliver(build_request_packets(5, 42, 2048, hdr, wrh, random_bytes(8000, 2)));

  EXPECT_EQ(rig.nic.peek_storage(0x4000, 8000), Bytes(8000, 0));
  EXPECT_TRUE(rig.state->denied.empty());  // CH cleaned the marker
  EXPECT_EQ(rig.state->table.in_use(), 0u);
}

TEST(DfsHandlers, RingForwardRewritesHeadersForChild) {
  Rig rig;
  WriteRequestHeader wrh;
  wrh.dest_addr = 0x1000;
  wrh.total_len = 3000;
  wrh.resiliency = Resiliency::kReplication;
  wrh.strategy = ReplStrategy::kRing;
  wrh.virtual_rank = 0;
  wrh.replicas = {{42, 0x1000}, {43, 0x2000}, {44, 0x3000}};
  const Bytes data = random_bytes(3000, 3);
  rig.deliver(build_request_packets(5, 42, 2048, rig.header(OpType::kWrite), wrh, data));

  // Own copy stored.
  EXPECT_EQ(rig.nic.peek_storage(0x1000, 3000), data);
  // Forwards: every packet to the next replica (rank 1, node 43) + ack.
  std::vector<const net::Packet*> forwards;
  for (const auto& p : rig.nic.sent) {
    if (p.opcode == net::Opcode::kRdmaWrite) forwards.push_back(&p);
  }
  ASSERT_EQ(forwards.size(), 2u);  // 3000 B -> 2 packets
  for (const auto* p : forwards) EXPECT_EQ(p->dst, 43u);
  // The forwarded first packet parses as a request for rank 1 at the
  // child's address.
  const auto parsed = parse_request(forwards[0]->data);
  EXPECT_EQ(parsed.wrh.virtual_rank, 1);
  EXPECT_EQ(parsed.wrh.dest_addr, 0x2000u);
  EXPECT_EQ(parsed.wrh.replicas, wrh.replicas);
  EXPECT_EQ(parsed.dfs.greq_id, 0xABCu);
}

TEST(DfsHandlers, PbtRootForwardsToTwoChildren) {
  Rig rig;
  WriteRequestHeader wrh;
  wrh.dest_addr = 0x1000;
  wrh.total_len = 1000;
  wrh.resiliency = Resiliency::kReplication;
  wrh.strategy = ReplStrategy::kPbt;
  wrh.virtual_rank = 0;
  wrh.replicas = {{42, 0x1000}, {50, 0}, {51, 0}, {52, 0}};
  rig.deliver(build_request_packets(5, 42, 2048, rig.header(OpType::kWrite), wrh,
                                    random_bytes(1000, 4)));

  std::set<net::NodeId> dsts;
  for (const auto& p : rig.nic.sent) {
    if (p.opcode == net::Opcode::kRdmaWrite) dsts.insert(p.dst);
  }
  EXPECT_EQ(dsts, (std::set<net::NodeId>{50, 51}));  // children 2r+1, 2r+2
}

TEST(DfsHandlers, EcDataNodeEmitsCorrectIntermediateParities) {
  Rig rig;
  WriteRequestHeader wrh;
  wrh.dest_addr = 0x1000;
  wrh.total_len = 4000;
  wrh.resiliency = Resiliency::kErasureCoding;
  wrh.ec_k = 3;
  wrh.ec_m = 2;
  wrh.role = EcRole::kData;
  wrh.data_idx = 1;
  wrh.parity_nodes = {{60, 0x8000}, {61, 0x9000}};
  const Bytes chunk = random_bytes(4000, 5);
  rig.deliver(build_request_packets(5, 42, 2048, rig.header(OpType::kWrite), wrh, chunk));

  // Reassemble each parity stream and compare against the reference
  // intermediate encode of this chunk.
  ec::ReedSolomon rs(3, 2);
  const auto expect = rs.encode_intermediate(1, chunk);
  for (unsigned p = 0; p < 2; ++p) {
    Bytes stream(4000, 0);
    std::size_t covered = 0;
    for (const auto& pkt : rig.nic.sent) {
      if (pkt.opcode != net::Opcode::kRdmaWrite || pkt.dst != 60 + p) continue;
      std::size_t skip = 0;
      if (pkt.first()) {
        skip = parse_request(pkt.data).header_bytes;
        // Forwarded header says: parity role, parity address.
        const auto parsed = parse_request(pkt.data);
        EXPECT_EQ(parsed.wrh.role, EcRole::kParity);
        EXPECT_EQ(parsed.wrh.dest_addr, wrh.parity_nodes[p].addr);
      }
      std::copy(pkt.data.begin() + static_cast<std::ptrdiff_t>(skip), pkt.data.end(),
                stream.begin() + static_cast<std::ptrdiff_t>(pkt.raddr));
      covered += pkt.data.size() - skip;
    }
    EXPECT_EQ(covered, 4000u);
    EXPECT_EQ(stream, expect[p]) << "parity stream " << p;
  }
}

TEST(DfsHandlers, EcParityNodeAggregatesAndAcksOnce) {
  Rig rig;
  // Two data-node streams (k=2) feeding one parity node (this device).
  const Bytes s0 = random_bytes(3000, 6);
  const Bytes s1 = random_bytes(3000, 7);
  for (unsigned d = 0; d < 2; ++d) {
    WriteRequestHeader wrh;
    wrh.dest_addr = 0xA000;
    wrh.total_len = 3000;
    wrh.resiliency = Resiliency::kErasureCoding;
    wrh.ec_k = 2;
    wrh.ec_m = 1;
    wrh.role = EcRole::kParity;
    wrh.data_idx = static_cast<std::uint8_t>(d);
    wrh.parity_nodes = {{42, 0xA000}};
    auto pkts =
        build_request_packets(static_cast<net::NodeId>(10 + d), 42, 2048,
                              rig.header(OpType::kWrite), wrh, d == 0 ? s0 : s1);
    rig.deliver(std::move(pkts));
  }

  Bytes expect(3000);
  for (std::size_t i = 0; i < expect.size(); ++i) {
    expect[i] = static_cast<std::uint8_t>(s0[i] ^ s1[i]);
  }
  EXPECT_EQ(rig.nic.peek_storage(0xA000, 3000), expect);
  // Exactly ONE ack for the whole parity write (after the k-th stream).
  unsigned acks = 0;
  for (const auto& p : rig.nic.sent) acks += p.opcode == net::Opcode::kAck;
  EXPECT_EQ(acks, 1u);
  EXPECT_EQ(rig.state->pool.in_use(), 0u);
  EXPECT_TRUE(rig.state->agg.empty());
}

TEST(DfsHandlers, ReadStreamsExtentAsResponsePackets) {
  Rig rig;
  const Bytes data = random_bytes(5000, 8);
  std::copy(data.begin(), data.end(), rig.nic.storage.begin() + 0x2000);

  ReadRequestHeader rrh;
  rrh.src_addr = 0x2000;
  rrh.len = 5000;
  rig.deliver(build_request_packets(5, 42, 2048, rig.header(OpType::kRead, 0x77), rrh));

  Bytes got(5000, 0);
  unsigned resp = 0;
  for (const auto& p : rig.nic.sent) {
    if (p.opcode != net::Opcode::kRdmaReadResp) continue;
    ++resp;
    EXPECT_EQ(p.dst, 5u);
    EXPECT_EQ(p.user_tag, 0x77u);
    std::copy(p.data.begin(), p.data.end(),
              got.begin() + static_cast<std::ptrdiff_t>(p.seq) * 2048);
  }
  EXPECT_EQ(resp, 3u);  // ceil(5000/2048)
  EXPECT_EQ(got, data);
}

TEST(DfsHandlers, ReadRejectedWithoutReadRight) {
  Rig rig;
  ReadRequestHeader rrh;
  rrh.src_addr = 0;
  rrh.len = 100;
  auto hdr = rig.header(OpType::kRead);
  hdr.cap = rig.authority->mint(1, 1, auth::Right::kWrite, 0, 0, 1 << 20);  // write-only
  rig.deliver(build_request_packets(5, 42, 2048, hdr, rrh));
  ASSERT_EQ(rig.nic.sent.size(), 1u);
  EXPECT_EQ(rig.nic.sent[0].opcode, net::Opcode::kNack);
}

TEST(DfsHandlers, AccumulatorPoolExhaustionFallsBackCorrectly) {
  Rig rig;
  // Shrink the pool to zero: every aggregation sequence takes the host path
  // but the final parity must still be correct.
  DfsConfig cfg;
  cfg.key = rig.key;
  cfg.accumulator_pool_bytes = 0;
  rig.state = std::make_shared<DfsState>(cfg, net::NetworkConfig{}.mtu);
  rig.dev.uninstall();
  rig.dev.install(make_dfs_context(rig.state));

  const Bytes s0 = random_bytes(2500, 9);
  const Bytes s1 = random_bytes(2500, 10);
  for (unsigned d = 0; d < 2; ++d) {
    WriteRequestHeader wrh;
    wrh.dest_addr = 0xB000;
    wrh.total_len = 2500;
    wrh.resiliency = Resiliency::kErasureCoding;
    wrh.ec_k = 2;
    wrh.ec_m = 1;
    wrh.role = EcRole::kParity;
    wrh.data_idx = static_cast<std::uint8_t>(d);
    wrh.parity_nodes = {{42, 0xB000}};
    rig.deliver(build_request_packets(static_cast<net::NodeId>(10 + d), 42, 2048,
                                      rig.header(OpType::kWrite), wrh, d == 0 ? s0 : s1));
  }
  Bytes expect(2500);
  for (std::size_t i = 0; i < expect.size(); ++i) {
    expect[i] = static_cast<std::uint8_t>(s0[i] ^ s1[i]);
  }
  EXPECT_EQ(rig.nic.peek_storage(0xB000, 2500), expect);
  EXPECT_GT(rig.state->agg_fallbacks, 0u);
  // Host was notified of the fallback.
  bool saw = false;
  for (const auto& [code, arg] : rig.nic.events) saw |= code == kEvAccumulatorFallback;
  EXPECT_TRUE(saw);
}

}  // namespace
}  // namespace nadfs::dfs
