// Unit tests of the RDMA NIC model: verbs semantics (WRITE/READ/SEND),
// rkey protection, transport acks, triggered-WQE chains
// (the HyperLoop substrate), and the host-facing hooks.
#include <gtest/gtest.h>

#include <algorithm>

#include "net/network.hpp"
#include "rdma/nic.hpp"
#include "sim/simulator.hpp"
#include "storage/target.hpp"

namespace nadfs::rdma {
namespace {

struct Rig {
  sim::Simulator sim;
  net::Network net{sim};
  storage::Target mem_a{sim};
  storage::Target mem_b{sim};
  storage::Target mem_c{sim};
  Nic a{sim, net, mem_a};
  Nic b{sim, net, mem_b};
  Nic c{sim, net, mem_c};
};

TEST(RdmaNic, WriteLandsAndAcks) {
  Rig rig;
  const auto rkey = rig.b.register_mr(0, 1 * MiB);
  Bytes data(5000, 0x42);
  TimePs done = 0;
  rig.a.post_write(rig.b.id(), 0x100, rkey, data, [&](TimePs at) { done = at; });
  rig.sim.run();
  EXPECT_GT(done, 0u);
  EXPECT_EQ(rig.mem_b.read(0x100, data.size()), data);
}

TEST(RdmaNic, WriteAckArrivesAfterRoundTrip) {
  Rig rig;
  const auto rkey = rig.b.register_mr(0, 1 * MiB);
  TimePs done = 0;
  rig.a.post_write(rig.b.id(), 0, rkey, Bytes(100, 1), [&](TimePs at) { done = at; });
  rig.sim.run();
  // Must cover two network traversals plus PCIe both ways.
  const TimePs one_way = 2 * rig.net.config().link_latency + rig.net.config().switch_latency;
  EXPECT_GT(done, 2 * one_way);
}

TEST(RdmaNic, InvalidRkeyNacksAndDropsData) {
  Rig rig;
  (void)rig.b.register_mr(0, 1024);
  bool nacked = false;
  rig.a.set_control_handler([&](const net::Packet& pkt, TimePs) {
    nacked = pkt.opcode == net::Opcode::kNack;
  });
  rig.a.post_write(rig.b.id(), 0x10000, 12345, Bytes(100, 1), [](TimePs) {});
  rig.sim.run();
  EXPECT_TRUE(nacked);
  EXPECT_EQ(rig.mem_b.bytes_written(), 0u);
}

TEST(RdmaNic, RkeyBoundsChecked) {
  Rig rig;
  const auto rkey = rig.b.register_mr(0x1000, 0x100);
  EXPECT_TRUE(rig.b.rkey_valid(rkey, 0x1000, 0x100));
  EXPECT_FALSE(rig.b.rkey_valid(rkey, 0xFFF, 2));
  EXPECT_FALSE(rig.b.rkey_valid(rkey, 0x10FF, 2));
  EXPECT_FALSE(rig.b.rkey_valid(999, 0x1000, 1));
  EXPECT_TRUE(rig.b.rkey_valid(0, 0xDEAD0000, 64));  // internal bypass key
}

TEST(RdmaNic, ReadReturnsRemoteData) {
  Rig rig;
  Bytes data(10000);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<std::uint8_t>(i * 3);
  rig.mem_b.write(0x200, data);
  const auto rkey = rig.b.register_mr(0, 1 * MiB);

  Bytes got;
  rig.a.post_read(rig.b.id(), 0x200, rkey, static_cast<std::uint32_t>(data.size()),
                  [&](Bytes d, TimePs) { got = std::move(d); });
  rig.sim.run();
  EXPECT_EQ(got, data);
}

TEST(RdmaNic, ReadUnderDuplicateFaultsReturnsExactBytes) {
  // Regression: every response packet used to count as an arrival, so
  // duplicated packets completed an 8 KiB read after half its packets, with
  // zeros where the rest belonged. With every packet duplicated (the read
  // request too, so two response trains come back), the read must complete
  // exactly once with the remote bytes.
  Rig rig;
  net::FaultPlan plan;
  plan.set_duplicate_rate(1.0);
  rig.net.install_faults(plan);
  Bytes data(8 * KiB);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<std::uint8_t>(i * 7 + 1);
  rig.mem_b.write(0x400, data);
  const auto rkey = rig.b.register_mr(0, 1 * MiB);

  int calls = 0;
  Bytes got;
  rig.a.post_read(rig.b.id(), 0x400, rkey, static_cast<std::uint32_t>(data.size()),
                  [&](Bytes d, TimePs) {
                    ++calls;
                    got = std::move(d);
                  });
  rig.sim.run();
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(got, data);
  // Two trains of two copies each: one copy of each seq completes the read;
  // every other packet is either rejected (read still pending) or late.
  const std::uint64_t pkts = (data.size() + rig.net.mtu() - 1) / rig.net.mtu();
  EXPECT_GT(rig.a.rejected_read_packets(), 0u);
  EXPECT_EQ(rig.a.rejected_read_packets() + rig.a.late_read_packets(), 3 * pkts);
}

TEST(RdmaNic, SendDeliversAssembledMessage) {
  Rig rig;
  Bytes msg(7000, 0x7C);
  net::NodeId from = net::kInvalidNode;
  std::uint64_t tag = 0;
  Bytes got;
  rig.b.set_recv_handler([&](net::NodeId src, std::uint64_t t, Bytes data, TimePs) {
    from = src;
    tag = t;
    got = std::move(data);
  });
  rig.a.post_send(rig.b.id(), 0xBEEF, msg);
  rig.sim.run();
  EXPECT_EQ(from, rig.a.id());
  EXPECT_EQ(tag, 0xBEEFu);
  EXPECT_EQ(got, msg);
}

TEST(RdmaNic, WriteNotifyFiresOnceWithTotals) {
  Rig rig;
  int notifies = 0;
  std::uint64_t total = 0;
  std::uint64_t raddr = 0;
  rig.b.set_write_notify([&](net::NodeId, std::uint64_t, std::uint64_t, std::uint64_t addr,
                             std::uint64_t len, TimePs) {
    ++notifies;
    raddr = addr;
    total = len;
  });
  rig.a.post_write(rig.b.id(), 0x300, 0, Bytes(6000, 2), [](TimePs) {});
  rig.sim.run();
  EXPECT_EQ(notifies, 1);
  EXPECT_EQ(raddr, 0x300u);
  EXPECT_EQ(total, 6000u);
}

TEST(RdmaNic, TriggeredChainForwardsThroughRing) {
  // a -> b -(trigger)-> c, tail c acks back to a: the HyperLoop mechanism.
  Rig rig;
  Nic::TriggeredWrite t_b;
  t_b.trigger_tag = 42;
  t_b.next_dst = rig.c.id();
  t_b.next_raddr = 0x500;
  rig.b.post_triggered_write(t_b);

  Nic::TriggeredWrite t_c;
  t_c.trigger_tag = 42;
  t_c.ack_to = rig.a.id();
  t_c.ack_tag = 0xACE;
  rig.c.post_triggered_write(t_c);

  bool acked = false;
  rig.a.set_control_handler([&](const net::Packet& pkt, TimePs) {
    acked = pkt.opcode == net::Opcode::kAck && pkt.user_tag == 0xACE;
  });

  Bytes data(3000, 0x99);
  rig.a.post_write(rig.b.id(), 0x500, 0, data, [](TimePs) {}, 42);
  rig.sim.run();

  EXPECT_TRUE(acked);
  EXPECT_EQ(rig.mem_b.read(0x500, data.size()), data);
  EXPECT_EQ(rig.mem_c.read(0x500, data.size()), data);
  EXPECT_EQ(rig.b.armed_triggers(), 0u);  // one-shot
}

TEST(RdmaNic, TriggerOnlyFiresOnMatchingTag) {
  Rig rig;
  Nic::TriggeredWrite trig;
  trig.trigger_tag = 7;
  trig.next_dst = rig.c.id();
  trig.next_raddr = 0;
  rig.b.post_triggered_write(trig);

  rig.a.post_write(rig.b.id(), 0, 0, Bytes(100, 1), [](TimePs) {}, 8);  // wrong tag
  rig.sim.run();
  EXPECT_EQ(rig.b.armed_triggers(), 1u);
  EXPECT_EQ(rig.mem_c.bytes_written(), 0u);
}

TEST(RdmaNic, PostControlReachesControlHandler) {
  Rig rig;
  net::Opcode got = net::Opcode::kSend;
  std::uint64_t tag = 0;
  rig.b.set_control_handler([&](const net::Packet& pkt, TimePs) {
    got = pkt.opcode;
    tag = pkt.user_tag;
  });
  rig.a.post_control(rig.b.id(), net::Opcode::kAck, 0x1234);
  rig.sim.run();
  EXPECT_EQ(got, net::Opcode::kAck);
  EXPECT_EQ(tag, 0x1234u);
}

TEST(RdmaNic, ExpectReadResponseAssemblesStream) {
  Rig rig;
  Bytes got;
  rig.a.expect_read_response(0x55, 5000, [&](Bytes d, TimePs) { got = std::move(d); });
  // Remote side streams three response packets.
  Bytes full(5000);
  for (std::size_t i = 0; i < full.size(); ++i) full[i] = static_cast<std::uint8_t>(i);
  std::size_t off = 0;
  std::uint32_t seq = 0;
  const auto count = static_cast<std::uint32_t>((full.size() + 2047) / 2048);
  while (off < full.size()) {
    net::Packet p;
    p.src = rig.b.id();
    p.dst = rig.a.id();
    p.opcode = net::Opcode::kRdmaReadResp;
    p.seq = seq++;
    p.pkt_count = count;
    p.user_tag = 0x55;
    const std::size_t n = std::min<std::size_t>(2048, full.size() - off);
    p.data.assign(full.begin() + static_cast<std::ptrdiff_t>(off),
                  full.begin() + static_cast<std::ptrdiff_t>(off + n));
    off += n;
    rig.net.inject(std::move(p));
  }
  rig.sim.run();
  EXPECT_EQ(got, full);
}

TEST(RdmaNic, ReadResponseOutsideTheReadIsRejected) {
  // A response packet whose seq or bytes fall outside the expected read
  // must neither write past the buffer nor count toward completion. Two
  // reads: 4096 bytes (2 full packets) gets an empty seq 2 that starts
  // exactly at its end; 5000 bytes gets a full-MTU last packet, 1144 bytes
  // past its end.
  Rig rig;
  struct Read {
    std::uint64_t tag;
    Bytes full;
    Bytes got;
    int calls = 0;
  };
  Read reads[] = {{0x66, Bytes(4096), {}}, {0x77, Bytes(5000), {}}};
  for (auto& r : reads) {
    for (std::size_t i = 0; i < r.full.size(); ++i) {
      r.full[i] = static_cast<std::uint8_t>(i + r.tag);
    }
    rig.a.expect_read_response(r.tag, static_cast<std::uint32_t>(r.full.size()),
                               [&r](Bytes d, TimePs) {
                                 ++r.calls;
                                 r.got = std::move(d);
                               });
  }
  const auto resp = [&](const Read& r, std::uint32_t seq, std::size_t n) {
    net::Packet p;
    p.src = rig.b.id();
    p.dst = rig.a.id();
    p.opcode = net::Opcode::kRdmaReadResp;
    p.seq = seq;
    p.user_tag = r.tag;
    p.data.assign(n, 0xEE);
    const std::size_t off = std::min<std::size_t>(seq * 2048, r.full.size());
    std::copy_n(r.full.begin() + static_cast<std::ptrdiff_t>(off),
                std::min(n, r.full.size() - off), p.data.begin());
    rig.net.inject(std::move(p));
  };
  resp(reads[0], 2, 0);     // seq past the 2 expected packets
  resp(reads[1], 2, 2048);  // the last packet, longer than the 904 bytes left
  resp(reads[0], 0, 2048);
  resp(reads[0], 1, 2048);
  resp(reads[1], 0, 2048);
  resp(reads[1], 1, 2048);
  resp(reads[1], 2, 904);
  rig.sim.run();
  for (const auto& r : reads) {
    EXPECT_EQ(r.calls, 1) << "tag " << r.tag;
    EXPECT_EQ(r.got, r.full) << "tag " << r.tag;
  }
  EXPECT_EQ(rig.a.rejected_read_packets(), 2u);
  EXPECT_EQ(rig.a.late_read_packets(), 0u);
}

TEST(RdmaNic, ConcurrentWritesFromTwoInitiators) {
  Rig rig;
  const auto rkey = rig.c.register_mr(0, 1 * MiB);
  int done = 0;
  rig.a.post_write(rig.c.id(), 0x0, rkey, Bytes(4000, 0xA1), [&](TimePs) { ++done; });
  rig.b.post_write(rig.c.id(), 0x4000, rkey, Bytes(4000, 0xB2), [&](TimePs) { ++done; });
  rig.sim.run();
  EXPECT_EQ(done, 2);
  EXPECT_EQ(rig.mem_c.read(0, 1)[0], 0xA1);
  EXPECT_EQ(rig.mem_c.read(0x4000, 1)[0], 0xB2);
}

TEST(RdmaNic, HostEventDelivery) {
  Rig rig;
  std::uint64_t code = 0;
  rig.b.set_host_event_handler([&](std::uint64_t c, std::uint64_t, TimePs) { code = c; });
  rig.b.notify_host(77, 1, rig.sim.now());
  rig.sim.run();
  EXPECT_EQ(code, 77u);
}

}  // namespace
}  // namespace nadfs::rdma
