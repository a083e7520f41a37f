#include <gtest/gtest.h>

#include "sim/simulator.hpp"
#include "storage/target.hpp"

namespace nadfs::storage {
namespace {

TEST(Target, WriteReadRoundTrip) {
  sim::Simulator sim;
  Target t(sim);
  Bytes data{1, 2, 3, 4, 5};
  t.write(100, data);
  EXPECT_EQ(t.read(100, 5), data);
}

TEST(Target, UnwrittenReadsZero) {
  sim::Simulator sim;
  Target t(sim);
  EXPECT_EQ(t.read(0, 4), (Bytes{0, 0, 0, 0}));
}

TEST(Target, CrossPageWrite) {
  sim::Simulator sim;
  Target t(sim);
  Bytes data(10000);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<std::uint8_t>(i);
  t.write(4000, data);  // spans three 4 KiB pages
  EXPECT_EQ(t.read(4000, 10000), data);
  // Neighbouring bytes untouched.
  EXPECT_EQ(t.read(3999, 1), Bytes{0});
}

TEST(Target, OverlappingWritesLastWins) {
  sim::Simulator sim;
  Target t(sim);
  t.write(0, Bytes(8, 0xAA));
  t.write(4, Bytes(8, 0xBB));
  const auto got = t.read(0, 12);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(got[i], 0xAA);
  for (int i = 4; i < 12; ++i) EXPECT_EQ(got[i], 0xBB);
}

TEST(Target, IngestBandwidthTiming) {
  sim::Simulator sim;
  TargetConfig cfg;
  cfg.ingest = Bandwidth::from_gbytes_per_sec(1.0);  // 1000 ps/B
  Target t(sim, cfg);
  const TimePs d1 = t.write(0, Bytes(1000, 0));
  const TimePs d2 = t.write(1000, Bytes(1000, 0));
  EXPECT_EQ(d1, TimePs{1000 * 1000});
  EXPECT_EQ(d2, d1 + 1000 * 1000);  // serialized behind the first
}

TEST(Target, EarliestDelaysDurability) {
  sim::Simulator sim;
  Target t(sim);
  const TimePs d = t.write(0, Bytes(10, 0), us(5));
  EXPECT_GE(d, us(5));
}

TEST(Target, CapacityEnforced) {
  sim::Simulator sim;
  TargetConfig cfg;
  cfg.capacity = 1024;
  Target t(sim, cfg);
  EXPECT_NO_THROW(t.write(0, Bytes(1024, 1)));
  EXPECT_THROW(t.write(1, Bytes(1024, 1)), std::out_of_range);
  EXPECT_THROW(t.read(1020, 8), std::out_of_range);
}

TEST(Target, BytesWrittenAccounting) {
  sim::Simulator sim;
  Target t(sim);
  t.write(0, Bytes(100, 0));
  t.write(0, Bytes(50, 0));
  EXPECT_EQ(t.bytes_written(), 150u);
}

// ------------------------------------------ trim tombstone regressions
//
// The tombstone range set lives in Target (not the engine), keyed by start
// address and non-overlapping. These pin the merge/split edge cases that a
// future map rewrite is most likely to get wrong.

TEST(Target, TrimAdjacentRangesMergeIntoOne) {
  sim::Simulator sim;
  Target t(sim);
  t.write(4096, Bytes(8192, 0x5A));
  // Two trims that abut exactly at 8192: the set must behave as one
  // contiguous [4096, 12288) range, including across the seam.
  t.trim(4096, 4096);
  t.trim(8192, 4096);
  EXPECT_TRUE(t.trimmed(4096, 8192));
  EXPECT_TRUE(t.trimmed(8190, 4));  // straddles the merge seam
  EXPECT_FALSE(t.trimmed(12288, 1));
  EXPECT_FALSE(t.trimmed(4095, 1));
  // Trimmed bytes read back zero.
  EXPECT_EQ(t.read(8190, 4), (Bytes{0, 0, 0, 0}));
}

TEST(Target, TrimPartialOverlapReTrimExtendsTheRange) {
  sim::Simulator sim;
  Target t(sim);
  t.write(0, Bytes(16384, 0x11));
  t.trim(1024, 4096);  // [1024, 5120)
  // Overlapping re-trim that starts inside and ends past the first range.
  t.trim(4096, 4096);  // extends to [1024, 8192)
  EXPECT_TRUE(t.trimmed(1024, 7168));
  EXPECT_FALSE(t.trimmed(8192, 1));
  // Re-trim fully inside an existing range is a no-op for coverage.
  t.trim(2048, 1024);
  EXPECT_TRUE(t.trimmed(1024, 7168));
  // And one that starts before and ends inside extends the left edge.
  t.trim(512, 1024);  // [512, 8192)
  EXPECT_TRUE(t.trimmed(512, 7680));
  EXPECT_FALSE(t.trimmed(511, 1));
}

TEST(Target, WriteRevivesAcrossMergedRanges) {
  sim::Simulator sim;
  Target t(sim);
  t.write(0, Bytes(12288, 0x77));
  t.trim(0, 4096);
  t.trim(4096, 4096);
  t.trim(8192, 4096);  // one merged [0, 12288) range
  ASSERT_TRUE(t.trimmed(0, 12288));
  // A write spanning the middle of the merged range punches a hole,
  // leaving live bytes flanked by two surviving tombstones.
  t.write(2048, Bytes(8192, 0xC3));
  EXPECT_FALSE(t.trimmed(2048, 8192));
  EXPECT_TRUE(t.trimmed(0, 2048));
  EXPECT_TRUE(t.trimmed(10240, 2048));
  EXPECT_TRUE(t.trimmed(1024, 4096));  // query overlapping hole + tombstone
  EXPECT_EQ(t.read(2048, 4), Bytes(4, 0xC3));
  EXPECT_EQ(t.read(0, 4), Bytes(4, 0));       // left tombstone zeroed
  EXPECT_EQ(t.read(10240, 4), Bytes(4, 0));   // right tombstone zeroed
}

TEST(Target, TrimAccountingAndZeroLenTrim) {
  sim::Simulator sim;
  Target t(sim);
  t.write(0, Bytes(4096, 0xEE));
  const TimePs d0 = t.trim(0, 0);  // zero-length: priced, no tombstone
  EXPECT_FALSE(t.trimmed(0, 1));
  EXPECT_EQ(t.bytes_trimmed(), 0u);
  const TimePs d1 = t.trim(0, 4096, d0);
  EXPECT_GE(d1, d0);
  EXPECT_EQ(t.bytes_trimmed(), 4096u);
}

TEST(Target, BoundsDoNotWrap) {
  // Regression: each check summed `addr + len`, so a range ending past
  // 2^64 wrapped below the capacity and reached the bytes at address 0.
  sim::Simulator sim;
  Target t(sim);
  const std::uint64_t addr = ~std::uint64_t{0} - 7;  // 2^64 - 8
  EXPECT_THROW(t.write(addr, Bytes(16, 0xAB)), std::out_of_range);
  EXPECT_THROW(t.trim(addr, 16), std::out_of_range);
  EXPECT_THROW(t.read(addr, 16), std::out_of_range);
  EXPECT_THROW(t.read_at(addr, 16), std::out_of_range);
  EXPECT_EQ(t.bytes_written(), 0u);
  EXPECT_FALSE(t.trimmed(0, 8));
  EXPECT_EQ(t.read(0, 8), Bytes(8, 0));
  // The last byte of the capacity stays addressable, the next one does not.
  EXPECT_NO_THROW(t.write(t.capacity() - 1, Bytes(1, 1)));
  EXPECT_THROW(t.write(t.capacity(), Bytes(1, 1)), std::out_of_range);
}

}  // namespace
}  // namespace nadfs::storage
