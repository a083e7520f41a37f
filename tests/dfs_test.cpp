// Unit tests for the DFS core: wire codecs (Fig. 3), broadcast tree
// helpers, request table, and accumulator pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <stdexcept>

#include "common/rng.hpp"
#include "dfs/handlers.hpp"
#include "dfs/req_table.hpp"
#include "dfs/wire.hpp"
#include "net/train.hpp"

namespace nadfs::dfs {
namespace {

auth::Capability test_cap() {
  auth::Key128 key{};
  key[0] = 1;
  auth::CapabilityAuthority authority(key);
  return authority.mint(7, 42, auth::Right::kWrite, us(10), 0x1000, 0x9000);
}

DfsHeader test_header(OpType op = OpType::kWrite) {
  DfsHeader h;
  h.op = op;
  h.greq_id = 0xABCDEF0123ull;
  h.client_node = 3;
  h.cap = test_cap();
  return h;
}

// --------------------------------------------------------------- codecs

TEST(Wire, DfsHeaderRoundTrip) {
  const auto h = test_header();
  Bytes buf;
  ByteWriter w(buf);
  h.serialize(w);
  EXPECT_EQ(buf.size(), DfsHeader::kWireBytes);
  ByteReader r(buf);
  const auto got = DfsHeader::deserialize(r);
  EXPECT_EQ(got.op, h.op);
  EXPECT_EQ(got.greq_id, h.greq_id);
  EXPECT_EQ(got.client_node, h.client_node);
  EXPECT_EQ(got.cap.mac, h.cap.mac);
}

TEST(Wire, WrhPlainRoundTrip) {
  WriteRequestHeader wrh;
  wrh.dest_addr = 0x2000;
  wrh.total_len = 12345;
  Bytes buf;
  ByteWriter w(buf);
  wrh.serialize(w);
  EXPECT_EQ(buf.size(), wrh.wire_bytes());
  ByteReader r(buf);
  const auto got = WriteRequestHeader::deserialize(r);
  EXPECT_EQ(got.dest_addr, wrh.dest_addr);
  EXPECT_EQ(got.total_len, wrh.total_len);
  EXPECT_EQ(got.resiliency, Resiliency::kNone);
}

TEST(Wire, WrhReplicationRoundTrip) {
  WriteRequestHeader wrh;
  wrh.dest_addr = 0x2000;
  wrh.total_len = 999;
  wrh.resiliency = Resiliency::kReplication;
  wrh.strategy = ReplStrategy::kPbt;
  wrh.virtual_rank = 2;
  wrh.replicas = {{0, 0x10}, {1, 0x20}, {2, 0x30}, {5, 0x40}};
  Bytes buf;
  ByteWriter w(buf);
  wrh.serialize(w);
  EXPECT_EQ(buf.size(), wrh.wire_bytes());
  ByteReader r(buf);
  const auto got = WriteRequestHeader::deserialize(r);
  EXPECT_EQ(got.strategy, ReplStrategy::kPbt);
  EXPECT_EQ(got.virtual_rank, 2);
  EXPECT_EQ(got.replicas, wrh.replicas);
}

TEST(Wire, WrhErasureCodingRoundTrip) {
  WriteRequestHeader wrh;
  wrh.dest_addr = 0x3000;
  wrh.total_len = 4096;
  wrh.resiliency = Resiliency::kErasureCoding;
  wrh.ec_k = 6;
  wrh.ec_m = 3;
  wrh.role = EcRole::kParity;
  wrh.data_idx = 4;
  wrh.parity_nodes = {{7, 0x100}, {8, 0x200}, {9, 0x300}};
  Bytes buf;
  ByteWriter w(buf);
  wrh.serialize(w);
  ByteReader r(buf);
  const auto got = WriteRequestHeader::deserialize(r);
  EXPECT_EQ(got.ec_k, 6);
  EXPECT_EQ(got.ec_m, 3);
  EXPECT_EQ(got.role, EcRole::kParity);
  EXPECT_EQ(got.data_idx, 4);
  EXPECT_EQ(got.parity_nodes, wrh.parity_nodes);
}

TEST(Wire, ParseRequestWrite) {
  const auto hdr = test_header();
  WriteRequestHeader wrh;
  wrh.dest_addr = 0x1234;
  wrh.total_len = 77;
  Bytes buf;
  ByteWriter w(buf);
  hdr.serialize(w);
  wrh.serialize(w);
  const Bytes data{9, 9, 9};
  w.put_bytes(data);

  const auto parsed = parse_request(buf);
  EXPECT_EQ(parsed.dfs.greq_id, hdr.greq_id);
  EXPECT_EQ(parsed.wrh.dest_addr, 0x1234u);
  EXPECT_EQ(parsed.header_bytes, buf.size() - data.size());
}

TEST(Wire, ParseRequestRead) {
  const auto hdr = test_header(OpType::kRead);
  ReadRequestHeader rrh;
  rrh.src_addr = 0x4000;
  rrh.len = 512;
  Bytes buf;
  ByteWriter w(buf);
  hdr.serialize(w);
  rrh.serialize(w);
  const auto parsed = parse_request(buf);
  EXPECT_EQ(parsed.dfs.op, OpType::kRead);
  EXPECT_EQ(parsed.rrh.src_addr, 0x4000u);
  EXPECT_EQ(parsed.rrh.len, 512u);
}

bool wrh_parses(const WriteRequestHeader& wrh) {
  Bytes buf;
  ByteWriter w(buf);
  wrh.serialize(w);
  ByteReader r(buf);
  try {
    (void)WriteRequestHeader::deserialize(r);
    return true;
  } catch (const std::out_of_range&) {
    return false;
  }
}

TEST(Wire, WrhRejectsUnknownEnumBytesAndInvalidEcParameters) {
  // Regression: any resiliency, strategy or role byte parsed, and so did EC
  // fields no RS(k, m) stream has, which then threw out of the codec or
  // indexed past the parity coordinates. Both now fail like a truncation.
  WriteRequestHeader repl;
  repl.resiliency = Resiliency::kReplication;
  repl.replicas = {{0, 0x10}, {1, 0x20}};
  WriteRequestHeader ec;
  ec.resiliency = Resiliency::kErasureCoding;
  ec.ec_k = 3;
  ec.ec_m = 2;
  ec.data_idx = 2;
  ec.parity_nodes = {{7, 0x100}, {8, 0x200}};
  ASSERT_TRUE(wrh_parses(repl));
  ASSERT_TRUE(wrh_parses(ec));

  auto bad = repl;
  bad.resiliency = static_cast<Resiliency>(3);
  EXPECT_FALSE(wrh_parses(bad));
  bad = repl;
  bad.strategy = static_cast<ReplStrategy>(2);
  EXPECT_FALSE(wrh_parses(bad));
  bad = ec;
  bad.role = static_cast<EcRole>(2);
  EXPECT_FALSE(wrh_parses(bad));
  bad = ec;
  bad.ec_k = 0;
  bad.data_idx = 0;
  EXPECT_FALSE(wrh_parses(bad));
  bad = ec;
  bad.ec_m = 0;
  bad.parity_nodes.clear();
  EXPECT_FALSE(wrh_parses(bad));
  bad = ec;
  bad.data_idx = 3;
  EXPECT_FALSE(wrh_parses(bad));
  bad = ec;
  bad.parity_nodes.pop_back();
  EXPECT_FALSE(wrh_parses(bad));
  bad = ec;
  bad.ec_k = 200;
  bad.ec_m = 57;
  bad.parity_nodes.assign(57, Coord{});
  EXPECT_FALSE(wrh_parses(bad));
  bad.ec_m = 56;
  bad.parity_nodes.pop_back();
  EXPECT_TRUE(wrh_parses(bad));  // k + m == 256 is the largest code
}

TEST(Wire, ParseTruncatedThrows) {
  Bytes buf{1, 2, 3};
  EXPECT_THROW(parse_request(buf), std::out_of_range);
}

// ----------------------------------------------------- packet building
//
// net::cut over one input per test and every size: the DFS write headers
// (build_request_packets), no head at all (the NIC's verbs and the read
// responses), a head that leaves one data byte in packet 0, and a head that
// leaves none.

constexpr std::size_t kMtu = 2048;

Bytes sized_data(std::size_t size) {
  Rng rng(size);
  Bytes data(size);
  for (auto& b : data) b = rng.next_byte();
  return data;
}

/// A train cut from [head | data]: seqs numbered under one packet count,
/// packet 0 leading with `head`, every packet but the last full, and the
/// payloads placed at raddr - `base` reassembling `data` exactly.
void expect_train(const std::vector<net::Packet>& pkts, ByteSpan head, const Bytes& data,
                  std::uint64_t base) {
  ASSERT_FALSE(pkts.empty());
  ASSERT_GE(pkts[0].data.size(), head.size());
  EXPECT_TRUE(std::equal(head.begin(), head.end(), pkts[0].data.begin()));
  Bytes reassembled(data.size(), 0);
  std::size_t covered = 0;
  for (std::size_t i = 0; i < pkts.size(); ++i) {
    const auto& p = pkts[i];
    EXPECT_EQ(p.seq, i);
    EXPECT_EQ(p.pkt_count, pkts.size());
    if (p.last()) {
      EXPECT_LE(p.data.size(), kMtu);
    } else {
      EXPECT_EQ(p.data.size(), kMtu);
    }
    const std::size_t skip = p.first() ? head.size() : 0;
    const std::size_t n = p.data.size() - skip;
    ASSERT_GE(p.raddr, base);
    ASSERT_LE(p.raddr - base + n, data.size());
    std::copy(p.data.begin() + static_cast<std::ptrdiff_t>(skip), p.data.end(),
              reassembled.begin() + static_cast<std::ptrdiff_t>(p.raddr - base));
    covered += n;
  }
  EXPECT_EQ(covered, data.size());
  EXPECT_EQ(reassembled, data);
}

class BuildWritePackets : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BuildWritePackets, CoversDataExactly) {
  const std::size_t size = GetParam();
  const Bytes data = sized_data(size);
  WriteRequestHeader wrh;
  wrh.dest_addr = 0;
  wrh.total_len = size;
  const auto pkts = build_request_packets(1, 2, kMtu, test_header(), wrh, data);

  ASSERT_FALSE(pkts.empty());
  // Only the first packet carries DFS headers (Fig. 3).
  const auto parsed = parse_request(pkts[0].data);
  EXPECT_EQ(parsed.wrh.total_len, size);
  for (const auto& p : pkts) EXPECT_EQ(p.msg_id, test_header().greq_id);
  expect_train(pkts, ByteSpan(pkts[0].data.data(), parsed.header_bytes), data, 0);
}

TEST_P(BuildWritePackets, HeaderlessCutAdvancesFromTheBaseAddress) {
  // The NIC's one-sided writes: raddr runs from the target address, and an
  // empty write is still one (empty) packet.
  const std::size_t size = GetParam();
  const Bytes data = sized_data(size);
  const auto pkts =
      net::cut(net::packet(1, 2, net::Opcode::kRdmaWrite, 77, 5, 0x800, 3), {}, data, kMtu);
  EXPECT_EQ(pkts.size(), size == 0 ? 1 : (size + kMtu - 1) / kMtu);
  for (const auto& p : pkts) {
    EXPECT_EQ(p.msg_id, 77u);
    EXPECT_EQ(p.user_tag, 5u);
    EXPECT_EQ(p.rkey, 3u);
  }
  expect_train(pkts, {}, data, 0x800);
}

TEST_P(BuildWritePackets, HeadOfMtuMinusOneLeavesOneDataByteInPacketZero) {
  const std::size_t size = GetParam();
  const Bytes data = sized_data(size);
  const Bytes head(kMtu - 1, 0xAB);
  const auto pkts = net::cut(net::packet(1, 2, net::Opcode::kSend, 9, 9), head, data, kMtu);
  EXPECT_EQ(pkts[0].data.size(), head.size() + std::min<std::size_t>(size, 1));
  expect_train(pkts, head, data, 0);
}

TEST_P(BuildWritePackets, HeadOfMtuThrows) {
  const Bytes data = sized_data(GetParam());
  EXPECT_THROW(net::cut(net::packet(1, 2, net::Opcode::kSend, 9, 9), Bytes(kMtu, 0), data, kMtu),
               std::length_error);
}

INSTANTIATE_TEST_SUITE_P(Sizes, BuildWritePackets,
                         ::testing::Values(0, 1, 100, 1900, 1950, 2048, 4096, 5000, 10000, 65536),
                         [](const ::testing::TestParamInfo<std::size_t>& pinfo) {
                           return "bytes" + std::to_string(pinfo.param);
                         });

TEST(Wire, ReadPacketIsSinglePacket) {
  ReadRequestHeader rrh;
  rrh.src_addr = 8;
  rrh.len = 100;
  const auto pkts = build_request_packets(1, 2, 2048, test_header(OpType::kRead), rrh);
  ASSERT_EQ(pkts.size(), 1u);
  EXPECT_TRUE(pkts[0].first());
  EXPECT_TRUE(pkts[0].last());
}

// -------------------------------------------------------- broadcast tree

TEST(Broadcast, RingChildren) {
  EXPECT_EQ(broadcast_children(0, 4, ReplStrategy::kRing), (std::vector<std::uint8_t>{1}));
  EXPECT_EQ(broadcast_children(2, 4, ReplStrategy::kRing), (std::vector<std::uint8_t>{3}));
  EXPECT_TRUE(broadcast_children(3, 4, ReplStrategy::kRing).empty());
  EXPECT_TRUE(broadcast_children(0, 1, ReplStrategy::kRing).empty());
}

TEST(Broadcast, PbtChildren) {
  EXPECT_EQ(broadcast_children(0, 7, ReplStrategy::kPbt), (std::vector<std::uint8_t>{1, 2}));
  EXPECT_EQ(broadcast_children(1, 7, ReplStrategy::kPbt), (std::vector<std::uint8_t>{3, 4}));
  EXPECT_EQ(broadcast_children(2, 6, ReplStrategy::kPbt), (std::vector<std::uint8_t>{5}));
  EXPECT_TRUE(broadcast_children(3, 7, ReplStrategy::kPbt).empty());
}

class BroadcastCoverage
    : public ::testing::TestWithParam<std::tuple<ReplStrategy, std::uint8_t>> {};

TEST_P(BroadcastCoverage, EveryRankReachedExactlyOnce) {
  // The tree rooted at rank 0 must reach ranks 1..k-1 exactly once — the
  // invariant that makes the client-driven broadcast write each replica
  // exactly once.
  const auto [strategy, k] = GetParam();
  std::vector<int> reached(k, 0);
  reached[0] = 1;
  for (std::uint8_t r = 0; r < k; ++r) {
    for (const auto child : broadcast_children(r, k, strategy)) {
      ASSERT_LT(child, k);
      reached[child]++;
    }
  }
  for (unsigned r = 0; r < k; ++r) EXPECT_EQ(reached[r], 1) << "rank " << r;
}

INSTANTIATE_TEST_SUITE_P(
    Trees, BroadcastCoverage,
    ::testing::Combine(::testing::Values(ReplStrategy::kRing, ReplStrategy::kPbt),
                       ::testing::Values(std::uint8_t{1}, std::uint8_t{2}, std::uint8_t{3},
                                         std::uint8_t{5}, std::uint8_t{8}, std::uint8_t{16})),
    [](const ::testing::TestParamInfo<std::tuple<ReplStrategy, std::uint8_t>>& pinfo) {
      return std::string(repl_strategy_name(std::get<0>(pinfo.param))) + "_k" +
             std::to_string(std::get<1>(pinfo.param));
    });

TEST(Broadcast, DepthFormulas) {
  EXPECT_EQ(broadcast_depth(1, ReplStrategy::kRing), 0u);
  EXPECT_EQ(broadcast_depth(4, ReplStrategy::kRing), 3u);
  EXPECT_EQ(broadcast_depth(8, ReplStrategy::kRing), 7u);
  EXPECT_EQ(broadcast_depth(2, ReplStrategy::kPbt), 1u);
  EXPECT_EQ(broadcast_depth(4, ReplStrategy::kPbt), 2u);
  EXPECT_EQ(broadcast_depth(8, ReplStrategy::kPbt), 3u);
}

// ----------------------------------------------------------- req table

TEST(ReqTable, CapacityMatchesPaper) {
  // 6 MiB at 77 B per descriptor -> ~82 K concurrent writes (§III-B.2).
  ReqTable table(6 * MiB);
  EXPECT_EQ(table.capacity(), (6 * MiB) / 77);
  EXPECT_GT(table.capacity(), 81000u);
  EXPECT_LT(table.capacity(), 82000u);
}

TEST(ReqTable, AllocReleaseRecycles) {
  ReqTable table(77 * 2);  // two slots
  auto a = table.alloc();
  auto b = table.alloc();
  ASSERT_TRUE(a && b);
  EXPECT_NE(*a, *b);
  EXPECT_FALSE(table.alloc().has_value());
  EXPECT_EQ(table.denials(), 1u);
  table.release(*a);
  auto c = table.alloc();
  ASSERT_TRUE(c);
  EXPECT_EQ(*c, *a);  // slot recycled
}

TEST(ReqTable, DoubleReleaseIsIgnored) {
  // Regression: a second release of the same slot used to push it onto the
  // free list twice (the same descriptor handed to two writes) and
  // underflow in_use_ (a size_t), wrecking high_water_.
  ReqTable table(77 * 2);
  auto a = table.alloc();
  auto b = table.alloc();
  ASSERT_TRUE(a && b);
  table.release(*a);
  EXPECT_EQ(table.in_use(), 1u);
  table.release(*a);  // double release: ignored + counted
  EXPECT_EQ(table.in_use(), 1u);
  EXPECT_EQ(table.bad_releases(), 1u);
  // The freed slot is handed out exactly once.
  auto c = table.alloc();
  ASSERT_TRUE(c);
  EXPECT_EQ(*c, *a);
  EXPECT_FALSE(table.alloc().has_value());
  EXPECT_EQ(table.in_use(), 2u);
  EXPECT_EQ(table.high_water(), 2u);
}

TEST(ReqTable, ReleaseOfNeverIssuedSlotIsIgnored) {
  ReqTable table(77 * 4);
  (void)table.alloc();
  table.release(99);  // never allocated
  EXPECT_EQ(table.in_use(), 1u);
  EXPECT_EQ(table.bad_releases(), 1u);
}

TEST(ReqTable, HighWaterTracksPeak) {
  ReqTable table(77 * 8);
  std::vector<std::uint32_t> slots;
  for (int i = 0; i < 5; ++i) slots.push_back(*table.alloc());
  EXPECT_EQ(table.high_water(), 5u);
  for (const auto s : slots) table.release(s);
  EXPECT_EQ(table.in_use(), 0u);
  EXPECT_EQ(table.high_water(), 5u);
  (void)table.alloc();
  EXPECT_EQ(table.high_water(), 5u);
}

// ------------------------------------------------------ accumulator pool

TEST(AccumulatorPool, SizedByPacketBuffers) {
  AccumulatorPool pool(1 * MiB, 2048);
  EXPECT_EQ(pool.total(), 512u);
}

TEST(AccumulatorPool, ExhaustionCountsFailures) {
  AccumulatorPool pool(4096, 2048);  // two accumulators
  auto a = pool.alloc(100);
  auto b = pool.alloc(200);
  ASSERT_TRUE(a && b);
  EXPECT_FALSE(pool.alloc(100).has_value());
  EXPECT_EQ(pool.failures(), 1u);
  pool.release(*a);
  EXPECT_TRUE(pool.alloc(100).has_value());
}

TEST(AccumulatorPool, BuffersZeroedOnAlloc) {
  AccumulatorPool pool(4096, 2048);
  auto a = pool.alloc(64);
  pool.buffer(*a)[5] = 0xFF;
  pool.release(*a);
  auto b = pool.alloc(64);
  EXPECT_EQ(*a, *b);  // recycled
  EXPECT_EQ(pool.buffer(*b)[5], 0);
}

TEST(AccumulatorPool, OversizeAllocationIsDenied) {
  // Regression: alloc(len) with len > acc_bytes_ used to hand out a buffer
  // larger than the per-accumulator budget the pool's capacity math
  // (total_ = pool_bytes / acc_bytes) assumes. It must count as a failure
  // so the handler takes the CPU-aggregation fallback.
  AccumulatorPool pool(4096, 2048);
  EXPECT_FALSE(pool.alloc(2049).has_value());
  EXPECT_EQ(pool.failures(), 1u);
  EXPECT_EQ(pool.in_use(), 0u);
  // Exactly acc_bytes is fine.
  EXPECT_TRUE(pool.alloc(2048).has_value());
}

TEST(AccumulatorPool, DoubleReleaseIsIgnored) {
  AccumulatorPool pool(4096, 2048);
  auto a = pool.alloc(64);
  auto b = pool.alloc(64);
  ASSERT_TRUE(a && b);
  pool.release(*a);
  pool.release(*a);
  EXPECT_EQ(pool.in_use(), 1u);
  auto c = pool.alloc(64);
  ASSERT_TRUE(c);
  EXPECT_EQ(*c, *a);
  EXPECT_FALSE(pool.alloc(64).has_value());  // pool genuinely full again
}

TEST(AccumulatorPool, ZeroByteAccumulatorPoolIsEmpty) {
  AccumulatorPool pool(0, 2048);
  EXPECT_EQ(pool.total(), 0u);
  EXPECT_FALSE(pool.alloc(10).has_value());
}

}  // namespace
}  // namespace nadfs::dfs
