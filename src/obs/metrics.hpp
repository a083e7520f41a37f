// Observability: metric instruments + hierarchical registry.
//
// Design rules (see DESIGN.md §3c):
//  - Instruments are *intrusive*: obs::Counter wraps the owning struct's
//    uint64 cell in place, so existing call sites (`++c`, `c += n`, printf
//    casts, EXPECT_EQ against integers) compile unchanged and the legacy
//    accessor APIs stay valid as thin views over the same cells.
//  - The registry never owns values; it holds (name -> pointer/functor)
//    views registered at wiring time. Nothing on the simulation hot path
//    touches the registry, so attaching it cannot perturb event order,
//    RNG draws, or digests (digest-neutrality).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace nadfs::obs {

/// Monotonic counter. Drop-in replacement for a `std::uint64_t` struct
/// member: increments, compound adds, and implicit reads all behave like
/// the raw integer did.
class Counter {
 public:
  constexpr Counter() = default;
  constexpr Counter(std::uint64_t v) : v_(v) {}  // NOLINT(google-explicit-constructor)

  Counter& operator++() {
    ++v_;
    return *this;
  }
  Counter& operator+=(std::uint64_t n) {
    v_ += n;
    return *this;
  }
  void inc(std::uint64_t n = 1) { v_ += n; }
  std::uint64_t value() const { return v_; }
  operator std::uint64_t() const { return v_; }  // NOLINT

  /// Registry view of the raw cell.
  const std::uint64_t* cell() const { return &v_; }

 private:
  std::uint64_t v_ = 0;
};

/// Counting-quantile sketch over simulated durations (picoseconds).
///
/// Log-linear (HDR-style) buckets: 48 power-of-two major buckets in
/// nanoseconds, each subdivided into 32 linear sub-buckets, so any
/// quantile is recovered with a bounded ~3% relative error. Recording is a few integer ops and
/// allocates nothing; buckets are plain counts, so sketches merge (and
/// MetricsAccumulator merges their snapshots across sweep points)
/// commutatively.
class QuantileSketch {
 public:
  static constexpr std::size_t kMajor = 48;
  static constexpr std::size_t kSub = 32;
  static constexpr std::size_t kBuckets = kMajor * kSub;

  void record(std::uint64_t dur_ps) {
    ++count_;
    sum_ps_ += dur_ps;
    if (count_ == 1 || dur_ps < min_ps_) min_ps_ = dur_ps;
    if (dur_ps > max_ps_) max_ps_ = dur_ps;
    ++buckets_[index_of(dur_ps)];
  }

  void merge(const QuantileSketch& other) {
    if (other.count_ == 0) return;
    if (count_ == 0 || other.min_ps_ < min_ps_) min_ps_ = other.min_ps_;
    if (other.max_ps_ > max_ps_) max_ps_ = other.max_ps_;
    count_ += other.count_;
    sum_ps_ += other.sum_ps_;
    for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
  }

  std::uint64_t count() const { return count_; }
  std::uint64_t sum_ps() const { return sum_ps_; }
  std::uint64_t min_ps() const { return count_ ? min_ps_ : 0; }
  std::uint64_t max_ps() const { return max_ps_; }
  std::uint64_t bucket(std::size_t i) const { return i < kBuckets ? buckets_[i] : 0; }

  /// Quantile in picoseconds (q in [0,1]): linear interpolation within
  /// the crossing sub-bucket, clamped to the observed [min, max].
  std::uint64_t quantile_ps(double q) const {
    return quantile_of(buckets_, count_, min_ps_, max_ps_, q);
  }

  /// The quantile routine behind quantile_ps(), over a sketch's parts:
  /// the kBuckets sub-bucket counts of `count` samples and their observed
  /// [min_ps, max_ps]. bench/report.hpp derives BENCH percentiles from
  /// merged metric snapshots through it.
  static std::uint64_t quantile_of(std::span<const std::uint64_t, kBuckets> buckets,
                                   std::uint64_t count, std::uint64_t min_ps,
                                   std::uint64_t max_ps, double q) {
    if (count == 0) return 0;
    const double target = q * static_cast<double>(count);
    double cum = 0.0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      if (buckets[i] == 0) continue;
      const double prev = cum;
      cum += static_cast<double>(buckets[i]);
      if (cum < target) continue;
      const double lo = bucket_lo_ns(i);
      const double hi = bucket_hi_ns(i);
      double frac = (target - prev) / static_cast<double>(buckets[i]);
      if (frac < 0.0) frac = 0.0;
      if (frac > 1.0) frac = 1.0;
      const auto ps = static_cast<std::uint64_t>((lo + (hi - lo) * frac) * 1000.0 + 0.5);
      // The true quantile always lies inside the observed range; clamping
      // makes degenerate (single-value) distributions exact.
      return ps < min_ps ? min_ps : (ps > max_ps ? max_ps : ps);
    }
    return max_ps;
  }

  /// Sub-bucket index: major = floor(log2(ns)), then 32 equal slices of
  /// [2^major, 2^{major+1}). ns in {0, 1} land in bucket 0.
  static std::size_t index_of(std::uint64_t dur_ps) {
    const std::uint64_t ns = dur_ps / 1000;
    if (ns == 0) return 0;
    std::size_t major = 0;
    for (std::uint64_t v = ns; v >>= 1;) ++major;
    if (major >= kMajor) return kBuckets - 1;
    const std::uint64_t base = std::uint64_t{1} << major;
    const std::size_t sub = static_cast<std::size_t>((ns - base) * kSub / base);
    return major * kSub + sub;
  }

  /// Lower/upper bound of sub-bucket i in (fractional) nanoseconds.
  static double bucket_lo_ns(std::size_t i) {
    if (i == 0) return 0.0;
    const std::size_t major = i / kSub;
    const std::size_t sub = i % kSub;
    const double base = static_cast<double>(std::uint64_t{1} << major);
    return base * (static_cast<double>(kSub + sub)) / static_cast<double>(kSub);
  }
  static double bucket_hi_ns(std::size_t i) {
    const std::size_t major = i / kSub;
    const std::size_t sub = i % kSub;
    const double base = static_cast<double>(std::uint64_t{1} << major);
    return base * (static_cast<double>(kSub + sub + 1)) / static_cast<double>(kSub);
  }

 private:
  std::uint64_t count_ = 0;
  std::uint64_t sum_ps_ = 0;
  std::uint64_t min_ps_ = 0;
  std::uint64_t max_ps_ = 0;
  std::uint64_t buckets_[kBuckets] = {};
};

/// Central name -> instrument view. Names are hierarchical dotted paths
/// ("node3.dfs.acks_sent"); snapshots iterate in sorted name order so
/// exports are deterministic. Registering is wiring-time work; sampling
/// reads the live cells.
class MetricRegistry {
 public:
  /// Register a counter cell (an obs::Counter member).
  void counter(std::string name, const Counter& c) { counter_cell(std::move(name), c.cell()); }
  /// Register a raw uint64 counter cell (legacy private members exposed
  /// through accessors keep their type; the registry views the cell).
  void counter_cell(std::string name, const std::uint64_t* cell);
  /// Register a polled gauge (queue depth, pool occupancy, ...).
  void gauge(std::string name, std::function<long long()> fn);
  /// Register a quantile sketch; flattened into `.count`, `.sum_ps`,
  /// `.min_ps`, `.max_ps` and nonzero `.s<i>` sub-bucket entries in
  /// snapshots (bench/report.hpp merges them and derives p50/p99).
  void sketch(std::string name, const QuantileSketch& s);

  /// Drop every instrument whose name starts with `prefix` — used when a
  /// bound component (a Client, an uninstalled DFS service) goes away
  /// before the registry does.
  void remove_prefix(std::string_view prefix);

  /// Flat, sorted (name -> integer) view of every instrument right now.
  std::map<std::string, long long> snapshot() const;

  /// Snapshot as a flat JSON object, one `"name": value` pair per line,
  /// sorted by name. Round-trips exactly through obs::parse_flat_object.
  void export_json(std::ostream& os) const;
  std::string to_json() const;

  std::size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    enum class Kind { kCounter, kGauge, kSketch } kind;
    const std::uint64_t* cell = nullptr;
    std::function<long long()> fn;
    const QuantileSketch* sketch = nullptr;
  };
  std::map<std::string, Entry> entries_;
};

}  // namespace nadfs::obs
