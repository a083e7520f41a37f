// Unit tests of the HandlerCtx record-then-replay contract: cost charging,
// command cycle offsets, borrowed and owned DMA sources, and the command
// buffer a device lends to each run.
#include <gtest/gtest.h>

#include "common/log.hpp"
#include "common/units.hpp"
#include "spin/handler.hpp"

namespace nadfs::spin {
namespace {

TEST(HandlerCtx, ChargesAccumulate) {
  HandlerCtx ctx(1, 0, 0);
  ctx.charge(10, 20);
  ctx.charge(5, 7);
  ctx.charge_per_byte(100, 3, 4);
  EXPECT_EQ(ctx.instr(), 10u + 5 + 300);
  EXPECT_EQ(ctx.cycles(), 20u + 7 + 400);
}

TEST(HandlerCtx, CommandsRecordIssueOffsets) {
  HandlerCtx ctx(1, 0, 0);
  ctx.charge(0, 100);
  net::Packet p;
  p.dst = 2;
  ctx.send(std::move(p));           // at cycle 100
  ctx.charge(0, 50);
  ctx.dma_to_storage(0x10, {1, 2}); // at cycle 150
  ctx.charge(0, 25);
  ctx.storage_fence();              // at cycle 175
  ctx.notify_host(7, 8);            // at cycle 175

  const auto& cmds = ctx.commands();
  ASSERT_EQ(cmds.size(), 4u);
  EXPECT_EQ(cmds[0].kind, HandlerCtx::Cmd::Kind::kSend);
  EXPECT_EQ(cmds[0].cycle_offset, 100u);
  EXPECT_EQ(cmds[1].kind, HandlerCtx::Cmd::Kind::kDma);
  EXPECT_EQ(cmds[1].cycle_offset, 150u);
  EXPECT_EQ(cmds[1].addr, 0x10u);
  EXPECT_EQ(Bytes(cmds[1].data.begin(), cmds[1].data.end()), (Bytes{1, 2}));
  EXPECT_EQ(cmds[2].kind, HandlerCtx::Cmd::Kind::kFence);
  EXPECT_EQ(cmds[2].cycle_offset, 175u);
  EXPECT_EQ(cmds[3].kind, HandlerCtx::Cmd::Kind::kNotify);
  EXPECT_EQ(cmds[3].code, 7u);
  EXPECT_EQ(cmds[3].arg, 8u);
}

TEST(HandlerCtx, DmaBorrowsASpanAndOwnsHandedOverBytes) {
  HandlerCtx ctx(1, 0, 0);
  const Bytes packet_buffer{7, 8, 9};
  ctx.dma_to_storage(0x20, ByteSpan(packet_buffer).subspan(1));
  Bytes parity{4, 5};
  const std::uint8_t* parity_bytes = parity.data();
  ctx.dma_to_storage(0x30, std::move(parity));
  for (int i = 0; i < 64; ++i) ctx.storage_fence();  // grow the command buffer

  const auto& cmds = ctx.commands();
  // The borrowed command points into the caller's buffer: nothing copied.
  EXPECT_EQ(cmds[0].data.data(), packet_buffer.data() + 1);
  EXPECT_EQ(cmds[0].data.size(), 2u);
  EXPECT_TRUE(cmds[0].owned.empty());
  // The owned bytes moved into the command and stay put as it moves.
  EXPECT_EQ(cmds[1].data.data(), parity_bytes);
  EXPECT_EQ(Bytes(cmds[1].data.begin(), cmds[1].data.end()), (Bytes{4, 5}));
}

TEST(HandlerCtx, LentCommandBufferComesBackEmptyWithItsCapacity) {
  std::vector<HandlerCtx::Cmd> buffer;
  buffer.reserve(8);
  const HandlerCtx::Cmd* storage = buffer.data();
  HandlerCtx ctx(1, 0, 0, std::move(buffer));
  ctx.notify_host(1, 2);
  ctx.storage_fence();
  ASSERT_EQ(ctx.commands().size(), 2u);
  EXPECT_EQ(ctx.commands().data(), storage);  // recorded into the lent buffer

  const auto back = ctx.take_commands();
  EXPECT_TRUE(back.empty());
  EXPECT_EQ(back.data(), storage);
  EXPECT_GE(back.capacity(), 8u);
}

TEST(HandlerCtx, EnvironmentAccessors) {
  HandlerCtx ctx(9, nadfs::us(3), 17);
  EXPECT_EQ(ctx.self(), 9u);
  EXPECT_EQ(ctx.now_ps(), nadfs::us(3));
  EXPECT_EQ(ctx.flow_slot(), 17u);
}

TEST(HandlerTypes, Names) {
  EXPECT_STREQ(handler_type_name(HandlerType::kHeader), "HH");
  EXPECT_STREQ(handler_type_name(HandlerType::kPayload), "PH");
  EXPECT_STREQ(handler_type_name(HandlerType::kCompletion), "CH");
}

TEST(MessageKeyTest, EqualityAndHash) {
  const MessageKey a{1, 100};
  const MessageKey b{1, 100};
  const MessageKey c{2, 100};
  const MessageKey d{1, 101};
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(a, d);
  MessageKeyHash h;
  EXPECT_EQ(h(a), h(b));
  EXPECT_NE(h(a), h(c));
}

TEST(Log, LevelGating) {
  const auto prev = log_level();
  set_log_level(LogLevel::kWarn);
  EXPECT_EQ(log_level(), LogLevel::kWarn);
  // Below-threshold calls are no-ops (no crash, no output assertions here).
  log(LogLevel::kDebug, "suppressed %d", 1);
  log(LogLevel::kError, "emitted %s", "x");
  set_log_level(prev);
}

TEST(Log, FormatHelper) {
  EXPECT_EQ(detail::log_format("a=%d b=%s", 7, "z"), "a=7 b=z");
  EXPECT_EQ(detail::log_format("plain"), "plain");
}

}  // namespace
}  // namespace nadfs::spin
