#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sim/resource.hpp"
#include "sim/simulator.hpp"

namespace nadfs::sim {
namespace {

TEST(Simulator, StartsAtZero) {
  Simulator s;
  EXPECT_EQ(s.now(), 0u);
  EXPECT_EQ(s.pending_events(), 0u);
}

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator s;
  std::vector<int> order;
  s.schedule(ns(30), [&] { order.push_back(3); });
  s.schedule(ns(10), [&] { order.push_back(1); });
  s.schedule(ns(20), [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), ns(30));
}

TEST(Simulator, TieBreaksInSchedulingOrder) {
  Simulator s;
  std::vector<int> order;
  s.schedule(ns(5), [&] { order.push_back(1); });
  s.schedule(ns(5), [&] { order.push_back(2); });
  s.schedule(ns(5), [&] { order.push_back(3); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, TieBreaksAcrossInterleavedTimes) {
  // Determinism regression for the heap rewrite: same-time events fire in
  // scheduling order even when insertions interleave many distinct times
  // in non-monotonic order.
  Simulator s;
  std::vector<std::pair<TimePs, int>> fired;
  int id = 0;
  for (const TimePs t : {ns(30), ns(10), ns(30), ns(20), ns(10), ns(30), ns(20), ns(10)}) {
    const int my_id = id++;
    s.schedule(t, [&fired, t, my_id] { fired.emplace_back(t, my_id); });
  }
  s.run();
  const std::vector<std::pair<TimePs, int>> expect = {
      {ns(10), 1}, {ns(10), 4}, {ns(10), 7}, {ns(20), 3},
      {ns(20), 6}, {ns(30), 0}, {ns(30), 2}, {ns(30), 5}};
  EXPECT_EQ(fired, expect);
}

TEST(Simulator, TiesScheduledFromCallbacksRunAfterEarlierTies) {
  // An event scheduled *during* execution for the current time runs after
  // all previously scheduled events at that time (its seq is larger).
  Simulator s;
  std::vector<int> order;
  s.schedule(ns(5), [&] {
    order.push_back(0);
    s.schedule(0, [&] { order.push_back(3); });
  });
  s.schedule(ns(5), [&] { order.push_back(1); });
  s.schedule(ns(5), [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Simulator, RandomizedScheduleExecutesInTimeThenSeqOrder) {
  // Pseudo-random times, verified against a reference sort on
  // (time, insertion index) — the exact contract components rely on.
  Simulator s;
  std::vector<std::pair<TimePs, int>> fired;
  std::vector<std::pair<TimePs, int>> expect;
  std::uint32_t lcg = 12345;
  for (int i = 0; i < 500; ++i) {
    lcg = lcg * 1664525u + 1013904223u;
    const auto t = static_cast<TimePs>(lcg % 64);  // few distinct times: many ties
    expect.emplace_back(t, i);
    s.schedule(t, [&fired, t, i] { fired.emplace_back(t, i); });
  }
  std::stable_sort(expect.begin(), expect.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  s.run();
  EXPECT_EQ(fired, expect);
  EXPECT_EQ(s.executed_events(), 500u);
}

TEST(EventFn, LargeCaptureFallsBackToHeap) {
  // Captures beyond the inline buffer must still work (heap fallback).
  Simulator s;
  std::array<std::uint64_t, 16> big{};  // 128 B > EventFn::kInlineBytes
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = i + 1;
  std::uint64_t sum = 0;
  s.schedule(ns(1), [big, &sum] {
    for (const auto v : big) sum += v;
  });
  s.run();
  EXPECT_EQ(sum, 136u);
}

TEST(EventFn, MoveOnlyCaptureWorksInline) {
  Simulator s;
  auto p = std::make_unique<int>(7);
  int got = 0;
  s.schedule(ns(1), [p = std::move(p), &got] { got = *p; });
  s.run();
  EXPECT_EQ(got, 7);
}

TEST(Simulator, NestedScheduling) {
  Simulator s;
  int hits = 0;
  s.schedule(ns(1), [&] {
    ++hits;
    s.schedule(ns(1), [&] {
      ++hits;
      s.schedule(ns(1), [&] { ++hits; });
    });
  });
  s.run();
  EXPECT_EQ(hits, 3);
  EXPECT_EQ(s.now(), ns(3));
}

TEST(Simulator, RejectsPastEvents) {
  Simulator s;
  s.schedule(ns(10), [&] { EXPECT_THROW(s.schedule_at(ns(5), [] {}), std::logic_error); });
  s.run();
}

TEST(Simulator, RejectsPastEventsFromTopLevel) {
  // Scheduling in the past is a hard error outside callbacks too, and the
  // failed call must leave the queue untouched.
  Simulator s;
  s.schedule(ns(10), [] {});
  s.run();
  ASSERT_EQ(s.now(), ns(10));
  EXPECT_THROW(s.schedule_at(ns(9), [] {}), std::logic_error);
  EXPECT_EQ(s.pending_events(), 0u);
  EXPECT_EQ(s.executed_events(), 1u);
  // The simulator is still fully usable after the rejected call.
  int hits = 0;
  s.schedule_at(ns(10), [&] { ++hits; });  // exactly "now" is allowed
  s.schedule_at(ns(20), [&] { ++hits; });
  s.run();
  EXPECT_EQ(hits, 2);
  EXPECT_EQ(s.now(), ns(20));
}

TEST(Simulator, RejectsPastEventsAfterRunUntilAdvancesClock) {
  // run_until moves now() forward even with no event at the deadline;
  // an event before that synthetic now must still be rejected.
  Simulator s;
  s.run_until(ns(100));
  EXPECT_EQ(s.now(), ns(100));
  EXPECT_THROW(s.schedule_at(ns(99), [] {}), std::logic_error);
  EXPECT_THROW(s.schedule(TimePs{0} - ns(1), [] {}), std::logic_error);  // delay underflow wraps
  EXPECT_EQ(s.pending_events(), 0u);
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator s;
  int hits = 0;
  s.schedule(ns(10), [&] { ++hits; });
  s.schedule(ns(20), [&] { ++hits; });
  s.schedule(ns(30), [&] { ++hits; });
  s.run_until(ns(20));
  EXPECT_EQ(hits, 2);
  EXPECT_EQ(s.now(), ns(20));
  EXPECT_EQ(s.pending_events(), 1u);
  s.run();
  EXPECT_EQ(hits, 3);
}

TEST(Simulator, StepReturnsFalseWhenDrained) {
  Simulator s;
  s.schedule(0, [] {});
  EXPECT_TRUE(s.step());
  EXPECT_FALSE(s.step());
}

TEST(Simulator, ExecutedEventCount) {
  Simulator s;
  for (int i = 0; i < 5; ++i) s.schedule(ns(i), [] {});
  s.run();
  EXPECT_EQ(s.executed_events(), 5u);
}

// ------------------------------------------------------------ FifoServer

TEST(FifoServer, SerializesBackToBack) {
  Simulator s;
  FifoServer srv(s, Bandwidth::from_gbps(400.0));  // 20 ps/B
  const auto w1 = srv.reserve(1000);
  const auto w2 = srv.reserve(1000);
  EXPECT_EQ(w1.start, 0u);
  EXPECT_EQ(w1.end, 20000u);
  EXPECT_EQ(w2.start, w1.end);
  EXPECT_EQ(w2.end, 40000u);
}

TEST(FifoServer, HonorsEarliest) {
  Simulator s;
  FifoServer srv(s, Bandwidth::from_gbps(400.0));
  const auto w = srv.reserve(100, ns(10));
  EXPECT_EQ(w.start, ns(10));
}

TEST(FifoServer, GapThenBusy) {
  Simulator s;
  FifoServer srv(s, Bandwidth::from_gbps(400.0));
  const auto w1 = srv.reserve(1000, ns(100));
  const auto w2 = srv.reserve(1000, ns(50));  // wants earlier but queue is ahead
  EXPECT_EQ(w2.start, w1.end);
}

TEST(FifoServer, ReserveTime) {
  Simulator s;
  FifoServer srv(s, Bandwidth::from_gbps(1.0));
  const auto w = srv.reserve_time(ns(7));
  EXPECT_EQ(w.end - w.start, ns(7));
}

TEST(FifoServer, TracksTotalBytes) {
  Simulator s;
  FifoServer srv(s, Bandwidth::from_gbps(400.0));
  srv.reserve(10);
  srv.reserve(20);
  EXPECT_EQ(srv.total_bytes(), 30u);
}

}  // namespace
}  // namespace nadfs::sim
