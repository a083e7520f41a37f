// Differential calendar harness: proves the two contiguous reservation
// calendars return exactly what the structures they replaced returned.
//
//   EgressSlotsDifferential — pspin::EgressSlots (end-sorted array, drained
//     prefix cursor, walk down from the latest end) against the retained
//     erase/scan/nth_element of the old PsPinDevice::egress_accept, at
//     queue depths 1, 4, 16 and 256.
//   GapServerDifferential — the vector-backed sim::GapServer against the
//     retained std::map-backed one.
//
// Both references live in sim_reference_calendars.hpp. Each suite drives
// the new calendar and its reference in lockstep through seeded randomized
// operation sequences — out-of-order queries, clock advances that drain
// part or all of the calendar, tied and zero-length reservations, queries
// behind the clock — and compares every result and every size. All times
// sit on a coarse grid so ties and exact-fit gaps are common.
//
// Seeds fold in NADFS_CHAOS_SEED (default 1); scripts/check.sh reruns both
// suites under seeds 1 and 7 and under ASan/UBSan. Every failure prints the
// seed (and depth) that replays it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "pspin/device.hpp"
#include "sim/resource.hpp"
#include "sim/simulator.hpp"
#include "sim_reference_calendars.hpp"

namespace nadfs {
namespace {

constexpr TimePs kTick = 64;  // time grid, ps

std::vector<std::uint64_t> seeds() {
  const char* env = std::getenv("NADFS_CHAOS_SEED");
  const std::uint64_t base = env != nullptr && *env != '\0' ? std::strtoull(env, nullptr, 10) : 1;
  return {base, base * 1000003 + 1, base * 1000003 + 2};
}

// ------------------------------------------------------------ EgressSlots

struct EgressRunStats {
  std::size_t max_live = 0;
  std::uint64_t stalls = 0;  ///< accepts that returned later than `want`
};

/// One seeded run at queue depth `depth`: rounds of a send burst (the
/// backlog grows past the depth) followed by a clock jump that drains part
/// or all of it. Sends follow PsPinDevice::replay: accept, then record the
/// slot from the accepted time to the wire end.
EgressRunStats run_egress(std::uint64_t seed, unsigned depth) {
  pspin::EgressSlots slots(depth);
  pspin::ReferenceEgressSlots ref(depth);
  Rng rng(seed * 31 + depth);
  EgressRunStats stats;
  TimePs now = 0;
  TimePs wire_free = 0;  // the egress wire drains sends back to back
  TimePs last_end = 0;

  const auto check_in_flight = [&](TimePs t) {
    EXPECT_EQ(slots.in_flight(t), ref.in_flight(t)) << "in_flight(" << t << "), now=" << now;
  };

  for (int round = 0; round < 8 && !::testing::Test::HasFailure(); ++round) {
    const std::uint64_t burst = 200 + rng.next_below(1200);
    for (std::uint64_t i = 0; i < burst && !::testing::Test::HasFailure(); ++i) {
      if (rng.next_below(4) == 0) now += kTick * rng.next_below(4);
      if (rng.next_below(8) == 0) check_in_flight(now + kTick * rng.next_below(4096));

      // Handler cursors run ahead of the dispatch clock, out of order, and
      // now and then behind it.
      TimePs want = now + kTick * rng.next_below(2048);
      if (rng.next_below(16) == 0) want = now - std::min(now, kTick * rng.next_below(64));

      slots.drain(now);
      const TimePs got = slots.accept(want);
      const TimePs expected = ref.accept(want, now);
      EXPECT_EQ(got, expected) << "accept(" << want << "), now=" << now << ", send " << i
                               << " of round " << round;
      EXPECT_EQ(slots.live(), ref.size()) << "live slots, now=" << now;
      if (got > want) ++stats.stalls;

      TimePs end = 0;
      switch (rng.next_below(8)) {
        case 0:  // zero-length: covers nothing, drains at once
          end = got;
          break;
        case 1:  // short, may already be drained when it lands behind now
          end = got + kTick * (1 + rng.next_below(4));
          break;
        case 2:  // tied with the previous send's drain time
          end = std::max(got + kTick, last_end);
          break;
        default:  // behind the wire backlog
          wire_free = std::max(wire_free, got) + kTick * (1 + rng.next_below(16));
          end = wire_free;
          break;
      }
      slots.add(got, end);
      ref.add(got, end);
      // A slot added behind the clock counts until the next drain.
      if (got < now) check_in_flight(got);
      last_end = end;
      stats.max_live = std::max(stats.max_live, ref.size());
    }
    // Drain part of the backlog, all of it, or nothing.
    const TimePs backlog = wire_free > now ? wire_free - now : 0;
    switch (rng.next_below(3)) {
      case 0:
        now += backlog / 2 / kTick * kTick;
        break;
      case 1:
        now += backlog + kTick;
        break;
      default:
        break;
    }
    check_in_flight(now);
    check_in_flight(now - std::min(now, kTick));
  }
  return stats;
}

class EgressSlotsDifferential : public ::testing::TestWithParam<unsigned> {};

TEST_P(EgressSlotsDifferential, MatchesScanAndNthElement) {
  const unsigned depth = GetParam();
  for (const std::uint64_t seed : seeds()) {
    SCOPED_TRACE(::testing::Message() << "seed=" << seed << " depth=" << depth);
    const EgressRunStats stats = run_egress(seed, depth);
    if (HasFailure()) return;
    // The run must have reached the regime it is meant to test.
    EXPECT_GT(stats.max_live, depth);
    EXPECT_GT(stats.stalls, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Depths, EgressSlotsDifferential, ::testing::Values(1u, 4u, 16u, 256u));

TEST(EgressSlots, WalkStopsAtTheDepthThCoveringEnd) {
  // Depth 2, covering ends {30, 30, 50} at want=10 plus a slot issued after
  // want: the send waits for the (3 - 2 + 1)-th completion, the tied 30.
  pspin::EgressSlots slots(2);
  slots.add(0, 30);
  slots.add(5, 50);
  slots.add(20, 60);  // issued after want: skipped
  slots.add(10, 30);
  EXPECT_EQ(slots.accept(10), 30u);
  EXPECT_EQ(slots.accept(55), 55u);  // only the slot issued at 20 covers 55
  slots.drain(30);
  EXPECT_EQ(slots.live(), 2u);
  EXPECT_EQ(slots.accept(25), 50u);
  EXPECT_EQ(slots.in_flight(25), 2u);
}

// -------------------------------------------------------------- GapServer

/// One seeded run: plans, commits (including commits of stale plans that
/// now overlap later reservations), reserves by time and by bytes,
/// zero-length jobs, and clock advances, comparing every window and the
/// calendar's horizon and size after each step.
void run_gap(std::uint64_t seed) {
  sim::Simulator sim;
  const Bandwidth rate = Bandwidth::from_gbytes_per_sec(1000.0 / kTick);  // kTick ps per byte
  sim::GapServer gap(sim, rate);
  sim::ReferenceGapServer ref(sim, rate);
  Rng rng(seed);
  std::optional<sim::Window> stale;
  std::size_t max_intervals = 0;

  const auto same = [](const sim::Window& a, const sim::Window& b) {
    return a.start == b.start && a.end == b.end;
  };

  for (int step = 0; step < 40000 && !::testing::Test::HasFailure(); ++step) {
    const TimePs now = sim.now();
    const std::uint64_t op = rng.next_below(100);
    // Ready times: mostly near the clock, sometimes far ahead (leaving
    // holes), sometimes behind it (clamped to now).
    TimePs earliest = now + kTick * rng.next_below(256);
    if (rng.next_below(8) == 0) earliest = now + kTick * rng.next_below(16384);
    if (rng.next_below(16) == 0) earliest = now - std::min(now, kTick * rng.next_below(64));
    const TimePs duration = rng.next_below(8) == 0 ? 0 : kTick * (1 + rng.next_below(32));

    if (op < 4) {
      sim.run_until(now + kTick * rng.next_below(256));
    } else if (op < 5) {
      sim.run_until(now + kTick * rng.next_below(65536));  // drain most of it
    } else if (op < 25) {
      const auto a = gap.plan_time(duration, earliest);
      const auto b = ref.plan_time(duration, earliest);
      EXPECT_TRUE(same(a, b)) << "plan_time(" << duration << ", " << earliest << "): [" << a.start
                              << "," << a.end << ") vs [" << b.start << "," << b.end << ")";
      if (rng.next_below(2) == 0) stale = b;
    } else if (op < 30) {
      if (stale) {  // may overlap or touch windows reserved since
        gap.commit(*stale);
        ref.commit(*stale);
        stale.reset();
      }
    } else if (op < 80) {
      const auto a = gap.reserve_time(duration, earliest);
      const auto b = ref.reserve_time(duration, earliest);
      EXPECT_TRUE(same(a, b)) << "reserve_time(" << duration << ", " << earliest << "): ["
                              << a.start << "," << a.end << ") vs [" << b.start << "," << b.end
                              << ")";
    } else if (op < 90) {
      const std::size_t bytes = rng.next_below(8) == 0 ? 0 : 1 + rng.next_below(32);
      const auto a = gap.plan(bytes, earliest);
      const auto b = ref.plan(bytes, earliest);
      EXPECT_TRUE(same(a, b)) << "plan(" << bytes << ", " << earliest << ")";
      gap.commit(a);
      ref.commit(b);
    } else {
      const std::size_t bytes = rng.next_below(8) == 0 ? 0 : 1 + rng.next_below(32);
      const auto a = gap.reserve(bytes, earliest);
      const auto b = ref.reserve(bytes, earliest);
      EXPECT_TRUE(same(a, b)) << "reserve(" << bytes << ", " << earliest << ")";
    }
    EXPECT_EQ(gap.horizon(), ref.horizon()) << "horizon at step " << step << ", now=" << now;
    EXPECT_EQ(gap.interval_count(), ref.interval_count())
        << "interval_count at step " << step << ", now=" << now;
    max_intervals = std::max(max_intervals, ref.interval_count());
  }
  // Gaps must have formed, or the run tested an append-only FIFO.
  EXPECT_GT(max_intervals, 16u);
}

TEST(GapServerDifferential, MatchesMapCalendar) {
  for (const std::uint64_t seed : seeds()) {
    SCOPED_TRACE(::testing::Message() << "seed=" << seed);
    run_gap(seed);
    if (HasFailure()) return;
  }
}

}  // namespace
}  // namespace nadfs
