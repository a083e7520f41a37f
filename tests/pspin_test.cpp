// Unit tests of the PsPIN device model against a fake NIC: ordering
// guarantees (HH before PHs, CH after all PHs), the calibrated ingress
// pipeline, the record-then-replay cost model, egress command-queue
// stalling, storage fences, the cleanup-handler extension, and rejection
// of invalid configurations.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>

#include "pspin/device.hpp"
#include "sim/simulator.hpp"
#include "spin/handler.hpp"
#include "spin/nic_services.hpp"

namespace nadfs::pspin {
namespace {

using spin::HandlerCtx;
using spin::HandlerType;

/// NIC stub: infinite-rate egress with recorded sends, fixed-latency DMA.
class FakeNic : public spin::NicServices {
 public:
  explicit FakeNic(sim::Simulator& simulator) : sim_(simulator) {}

  struct SentRecord {
    net::Packet pkt;
    TimePs ready;
  };
  std::vector<SentRecord> sent;
  std::vector<std::pair<std::uint64_t, TimePs>> events;
  TimePs egress_serialization = ns(41);  // ~2 KiB at 400 Gbit/s
  TimePs dma_latency = ns(250);
  Bytes storage = Bytes(1 << 20, 0);

  sim::Window egress_send(net::Packet pkt, TimePs ready) override {
    const TimePs start = std::max(ready, wire_busy_);
    const TimePs end = start + egress_serialization;
    wire_busy_ = end;
    sent.push_back(SentRecord{std::move(pkt), ready});
    return {start, end};
  }
  TimePs dma_to_storage(std::uint64_t addr, Bytes data, TimePs ready) override {
    std::copy(data.begin(), data.end(), storage.begin() + static_cast<std::ptrdiff_t>(addr));
    return ready + dma_latency;
  }
  std::pair<Bytes, TimePs> dma_from_storage(std::uint64_t addr, std::size_t len,
                                            TimePs ready) override {
    return {peek_storage(addr, len), ready + dma_latency};
  }
  Bytes peek_storage(std::uint64_t addr, std::size_t len) override {
    return Bytes(storage.begin() + static_cast<std::ptrdiff_t>(addr),
                 storage.begin() + static_cast<std::ptrdiff_t>(addr + len));
  }
  void notify_host(std::uint64_t code, std::uint64_t arg, TimePs when) override {
    events.emplace_back(code, when);
    (void)arg;
  }
  net::NodeId node_id() const override { return 9; }

 private:
  sim::Simulator& sim_;
  TimePs wire_busy_ = 0;
};

net::Packet make_packet(std::uint64_t msg, std::uint32_t seq, std::uint32_t count,
                        std::size_t payload = 2048) {
  net::Packet p;
  p.src = 1;
  p.dst = 9;
  p.opcode = net::Opcode::kRdmaWrite;
  p.msg_id = msg;
  p.seq = seq;
  p.pkt_count = count;
  p.data.assign(payload, 0xAA);
  return p;
}

struct Trace {
  std::vector<std::string> order;  // "HH", "PH0", "CH", ...
};

spin::ExecutionContext tracing_context(std::shared_ptr<Trace> trace, std::uint32_t hh_cycles = 200,
                                       std::uint32_t ph_cycles = 90,
                                       std::uint32_t ch_cycles = 100) {
  spin::ExecutionContext ctx;
  ctx.state = trace;
  ctx.state_bytes = 64;
  ctx.header_handler = [trace, hh_cycles](HandlerCtx& c, const net::Packet&) {
    trace->order.push_back("HH");
    c.charge(100, hh_cycles);
  };
  ctx.payload_handler = [trace, ph_cycles](HandlerCtx& c, const net::Packet& p) {
    trace->order.push_back("PH" + std::to_string(p.seq));
    c.charge(50, ph_cycles);
  };
  ctx.completion_handler = [trace, ch_cycles](HandlerCtx& c, const net::Packet&) {
    trace->order.push_back("CH");
    c.charge(60, ch_cycles);
  };
  ctx.cleanup_handler = [trace](HandlerCtx& c, const spin::MessageKey&) {
    trace->order.push_back("CLEANUP");
    c.charge(40, 80);
    c.notify_host(99, 0);
  };
  return ctx;
}

struct Rig {
  sim::Simulator sim;
  FakeNic nic{sim};
  PsPinDevice dev{sim};
  std::shared_ptr<Trace> trace = std::make_shared<Trace>();

  explicit Rig(PsPinConfig cfg = {}) : dev(sim, cfg) {
    dev.attach_nic(nic);
    dev.install(tracing_context(trace));
  }
};

TEST(PsPinDevice, InstallRejectsOversizedState) {
  sim::Simulator sim;
  PsPinDevice dev(sim);
  spin::ExecutionContext ctx;
  ctx.state_bytes = dev.nic_memory_bytes() + 1;
  EXPECT_FALSE(dev.install(std::move(ctx)));
  EXPECT_FALSE(dev.installed());
  // Paper budget: 4x1 MiB L1 + 4 MiB L2 = 8 MiB.
  EXPECT_EQ(dev.nic_memory_bytes(), 8 * MiB);
}

TEST(PsPinDevice, SinglePacketRunsAllThreeHandlers) {
  Rig rig;
  rig.dev.on_packet(make_packet(1, 0, 1));
  rig.sim.run();
  EXPECT_EQ(rig.trace->order, (std::vector<std::string>{"HH", "PH0", "CH"}));
}

TEST(PsPinDevice, HhBeforePhsChBeforeNone) {
  Rig rig;
  for (std::uint32_t s = 0; s < 5; ++s) rig.dev.on_packet(make_packet(1, s, 5));
  rig.sim.run();
  ASSERT_EQ(rig.trace->order.size(), 7u);
  EXPECT_EQ(rig.trace->order.front(), "HH");
  EXPECT_EQ(rig.trace->order.back(), "CH");
}

TEST(PsPinDevice, IngressPipelineMatchesFig7) {
  // 2 KiB packet: 32 + 2 + 43 cycles of pipeline + 1 ns dispatch before the
  // HH starts; HH of 200 cycles ends ~278 ns after arrival.
  Rig rig;
  rig.dev.on_packet(make_packet(1, 0, 1));
  rig.sim.run();
  const auto& stats = rig.dev.stats();
  EXPECT_NEAR(stats.duration_ns(HandlerType::kHeader).mean(), 200.0, 1.0);
  // The wire-visible effect: the CH's ack would leave after pipeline + HH +
  // PH + CH. Not directly observable here, but total handler time is.
  EXPECT_NEAR(stats.duration_ns(HandlerType::kPayload).mean(), 90.0, 1.0);
}

TEST(PsPinDevice, ChargedCyclesBecomeDuration) {
  Rig rig;
  rig.dev.on_packet(make_packet(1, 0, 1, 500));
  rig.sim.run();
  const auto& stats = rig.dev.stats();
  EXPECT_DOUBLE_EQ(stats.duration_ns(HandlerType::kHeader).mean(), 200.0);
  EXPECT_DOUBLE_EQ(stats.instructions(HandlerType::kHeader).mean(), 100.0);
  EXPECT_DOUBLE_EQ(stats.ipc(HandlerType::kHeader), 0.5);
}

TEST(PsPinDevice, MessagesSpreadAcrossClusters) {
  // Two concurrent messages map to different clusters, so their handlers
  // run on disjoint HPU pools.
  Rig rig;
  for (std::uint64_t m = 1; m <= 8; ++m) rig.dev.on_packet(make_packet(m, 0, 1));
  rig.sim.run();
  EXPECT_EQ(rig.dev.stats().duration_ns(HandlerType::kHeader).count(), 8u);
  EXPECT_EQ(rig.dev.live_messages(), 0u);
}

TEST(PsPinDevice, EgressQueueStallsSends) {
  // A handler issuing many sends back-to-back must stall once the command
  // queue (depth 4 here) is full: duration ≈ charged + queue-drain time.
  PsPinConfig cfg;
  cfg.egress_queue_depth = 4;
  sim::Simulator sim;
  FakeNic nic(sim);
  PsPinDevice dev(sim, cfg);
  dev.attach_nic(nic);

  spin::ExecutionContext ctx;
  ctx.state_bytes = 0;
  ctx.header_handler = [](HandlerCtx& c, const net::Packet&) { c.charge(1, 1); };
  ctx.completion_handler = [](HandlerCtx& c, const net::Packet&) { c.charge(1, 1); };
  ctx.payload_handler = [](HandlerCtx& c, const net::Packet&) {
    c.charge(10, 10);
    for (int i = 0; i < 12; ++i) {
      net::Packet out;
      out.dst = 2;
      out.data.assign(2048, 0);
      c.send(std::move(out));
    }
  };
  dev.install(std::move(ctx));
  dev.on_packet(make_packet(1, 0, 1));
  sim.run();

  // 12 sends, queue depth 4, wire 41 ns each: the handler must wait for
  // ~8 wire slots => duration well above the 10 charged cycles.
  const double ph = dev.stats().duration_ns(HandlerType::kPayload).mean();
  EXPECT_GT(ph, 8 * 41.0 * 0.8);
  EXPECT_EQ(nic.sent.size(), 12u);
}

TEST(PsPinDevice, StorageFenceDelaysSubsequentCommands) {
  // CH: DMA then fence then send — the ack send must leave after the DMA
  // completes (persistence guarantee §III-B.1).
  sim::Simulator sim;
  FakeNic nic(sim);
  nic.dma_latency = us(3);
  PsPinDevice dev(sim);
  dev.attach_nic(nic);

  spin::ExecutionContext ctx;
  ctx.header_handler = [](HandlerCtx& c, const net::Packet&) { c.charge(1, 1); };
  ctx.payload_handler = [](HandlerCtx& c, const net::Packet& p) {
    c.charge(1, 1);
    c.dma_to_storage(0, p.data);
  };
  ctx.completion_handler = [](HandlerCtx& c, const net::Packet&) {
    c.charge(1, 1);
    c.storage_fence();
    net::Packet ack;
    ack.dst = 1;
    ack.opcode = net::Opcode::kAck;
    c.send(std::move(ack));
  };
  dev.install(std::move(ctx));
  dev.on_packet(make_packet(1, 0, 1));
  sim.run();

  ASSERT_EQ(nic.sent.size(), 1u);
  EXPECT_GE(nic.sent[0].ready, us(3));  // waited for the 3 us DMA
}

TEST(PsPinDevice, FunctionalDataReachesStorage) {
  sim::Simulator sim;
  FakeNic nic(sim);
  PsPinDevice dev(sim);
  dev.attach_nic(nic);

  spin::ExecutionContext ctx;
  ctx.header_handler = [](HandlerCtx& c, const net::Packet&) { c.charge(1, 1); };
  ctx.completion_handler = [](HandlerCtx& c, const net::Packet&) { c.charge(1, 1); };
  ctx.payload_handler = [](HandlerCtx& c, const net::Packet& p) {
    c.charge(1, 1);
    c.dma_to_storage(100 + p.seq * 2048, p.data);
  };
  dev.install(std::move(ctx));
  for (std::uint32_t s = 0; s < 3; ++s) {
    auto p = make_packet(1, s, 3);
    std::fill(p.data.begin(), p.data.end(), static_cast<std::uint8_t>(s + 1));
    dev.on_packet(std::move(p));
  }
  sim.run();
  EXPECT_EQ(nic.storage[100], 1);
  EXPECT_EQ(nic.storage[100 + 2048], 2);
  EXPECT_EQ(nic.storage[100 + 4096], 3);
}

TEST(PsPinDevice, ReadStorageBlocksReplay) {
  sim::Simulator sim;
  FakeNic nic(sim);
  nic.dma_latency = us(5);
  nic.storage[7] = 0x77;
  PsPinDevice dev(sim);
  dev.attach_nic(nic);

  Bytes seen;
  spin::ExecutionContext ctx;
  ctx.header_handler = [](HandlerCtx& c, const net::Packet&) { c.charge(1, 1); };
  ctx.payload_handler = [](HandlerCtx& c, const net::Packet&) { c.charge(1, 1); };
  ctx.completion_handler = [&seen](HandlerCtx& c, const net::Packet&) {
    c.charge(1, 1);
    seen = c.read_storage(7, 1);  // functional data available immediately
    net::Packet resp;
    resp.dst = 1;
    c.send(std::move(resp));
  };
  dev.install(std::move(ctx));
  dev.on_packet(make_packet(1, 0, 1));
  sim.run();
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], 0x77);
  ASSERT_EQ(nic.sent.size(), 1u);
  EXPECT_GE(nic.sent[0].ready, us(5));  // replay waited for the DMA read
}

TEST(PsPinDevice, CleanupReapsAbandonedMessage) {
  PsPinConfig cfg;
  cfg.cleanup_timeout = us(10);
  Rig rig(cfg);
  rig.dev.on_packet(make_packet(1, 0, 4));  // header of a 4-packet message
  rig.dev.on_packet(make_packet(1, 1, 4));  // one payload... then silence
  rig.sim.run();
  EXPECT_EQ(rig.dev.cleanup_runs(), 1u);
  EXPECT_EQ(rig.dev.live_messages(), 0u);
  EXPECT_EQ(rig.trace->order.back(), "CLEANUP");
  // Cleanup raised a host event.
  ASSERT_FALSE(rig.nic.events.empty());
  EXPECT_EQ(rig.nic.events.back().first, 99u);
}

TEST(PsPinDevice, ActivityPushesCleanupDeadline) {
  PsPinConfig cfg;
  cfg.cleanup_timeout = us(10);
  Rig rig(cfg);
  rig.dev.on_packet(make_packet(1, 0, 3));
  // Keep the message alive with a packet at t=8 us, then abandon it.
  rig.sim.schedule(us(8), [&] { rig.dev.on_packet(make_packet(1, 1, 3)); });
  rig.sim.run();
  EXPECT_EQ(rig.dev.cleanup_runs(), 1u);
  // Reaped at ~18 us (8 + 10), not at 10 us.
  EXPECT_GE(rig.sim.now(), us(18));
}

TEST(PsPinDevice, CompletedMessageNotReaped) {
  PsPinConfig cfg;
  cfg.cleanup_timeout = us(10);
  Rig rig(cfg);
  for (std::uint32_t s = 0; s < 3; ++s) rig.dev.on_packet(make_packet(1, s, 3));
  rig.sim.run();
  EXPECT_EQ(rig.dev.cleanup_runs(), 0u);
}

TEST(PsPinDevice, ZeroTimeoutDisablesCleanup) {
  PsPinConfig cfg;
  cfg.cleanup_timeout = 0;
  Rig rig(cfg);
  rig.dev.on_packet(make_packet(1, 0, 4));
  rig.sim.run();
  EXPECT_EQ(rig.dev.cleanup_runs(), 0u);
  EXPECT_EQ(rig.dev.live_messages(), 1u);  // dangling, as §VII warns
}

TEST(PsPinDevice, UninstallStopsProcessing) {
  Rig rig;
  rig.dev.uninstall();
  rig.dev.on_packet(make_packet(1, 0, 1));
  rig.sim.run();
  EXPECT_TRUE(rig.trace->order.empty());
}

TEST(PsPinDevice, PayloadBytesAccounting) {
  Rig rig;
  for (std::uint32_t s = 0; s < 4; ++s) rig.dev.on_packet(make_packet(1, s, 4, 1000));
  rig.sim.run();
  EXPECT_EQ(rig.dev.payload_bytes_processed(), 4000u);
  EXPECT_GT(rig.dev.last_handler_end(), 0u);
}

// ------------------------------------------------------ config validation

/// Building a device from `cfg` must throw std::invalid_argument naming
/// `field`.
void expect_rejected(const PsPinConfig& cfg, const std::string& field) {
  sim::Simulator sim;
  try {
    PsPinDevice dev(sim, cfg);
    ADD_FAILURE() << "config with bad " << field << " was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
  }
}

TEST(PsPinDevice, RejectsZeroClusters) {
  PsPinConfig cfg;
  cfg.num_clusters = 0;  // on_packet would take next_cluster_ % 0
  expect_rejected(cfg, "num_clusters");
}

TEST(PsPinDevice, RejectsZeroHpusPerCluster) {
  PsPinConfig cfg;
  cfg.hpus_per_cluster = 0;  // run_handler would pick from an empty pool
  expect_rejected(cfg, "hpus_per_cluster");
}

TEST(PsPinDevice, RejectsZeroCycle) {
  PsPinConfig cfg;
  cfg.cycle = 0;
  expect_rejected(cfg, "cycle");
}

TEST(PsPinDevice, RejectsNonPositivePacketBufferWidth) {
  PsPinConfig cfg;
  cfg.pkt_buffer_bytes_per_cycle = 0.0;
  expect_rejected(cfg, "pkt_buffer_bytes_per_cycle");
}

TEST(PsPinDevice, RejectsNonPositiveL1CopyWidth) {
  PsPinConfig cfg;
  cfg.l1_copy_bytes_per_cycle = -1.0;
  expect_rejected(cfg, "l1_copy_bytes_per_cycle");
}

TEST(PsPinDevice, RejectsZeroEgressQueueDepth) {
  PsPinConfig cfg;
  cfg.egress_queue_depth = 0;  // a zero-depth queue could never take a send
  expect_rejected(cfg, "egress_queue_depth");
}

TEST(HandlerStatsTest, ResetClears) {
  HandlerStats stats;
  stats.record(HandlerType::kPayload, ns(100), 50);
  EXPECT_EQ(stats.duration_ns(HandlerType::kPayload).count(), 1u);
  stats.reset();
  EXPECT_EQ(stats.duration_ns(HandlerType::kPayload).count(), 0u);
  EXPECT_DOUBLE_EQ(stats.ipc(HandlerType::kPayload), 0.0);
}

}  // namespace
}  // namespace nadfs::pspin
