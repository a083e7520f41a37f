// Sweep execution + reporting, shared by the fig*_ harness (bench/harness.hpp)
// and the self-contained micro benches: a thread pool with ordered result
// collection, the BENCH_<name>.json machine-readable summary writer, and
// the strict read-back check benches run on their own report.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "obs/json.hpp"

namespace nadfs::bench {

/// Process-wide accumulator for per-point cluster metric snapshots
/// (obs::MetricRegistry::snapshot()). Each sweep point's flat
/// (name -> value) map is summed in; addition is commutative, so the
/// totals are independent of thread scheduling and SweepReport::finish can
/// embed them in BENCH_<name>.json without breaking parallel/serial output
/// equivalence.
class MetricsAccumulator {
 public:
  static MetricsAccumulator& instance() {
    static MetricsAccumulator acc;
    return acc;
  }

  void add(const std::map<std::string, long long>& snapshot) {
    const std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, value] : snapshot) sums_[name] += value;
    ++snapshots_;
  }

  std::map<std::string, long long> totals() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return sums_;
  }

  std::size_t snapshots() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return snapshots_;
  }

 private:
  mutable std::mutex mu_;
  std::map<std::string, long long> sums_;
  std::size_t snapshots_ = 0;
};

/// Executes independent sweep points on a thread pool with ordered result
/// collection. Each point must be self-contained — it builds its own
/// Cluster/Simulator, so every point is deterministic regardless of which
/// thread runs it or in what order points complete; results are returned
/// indexed by point, so parallel output is byte-identical to a serial run.
///
/// Thread count: explicit argument > NADFS_BENCH_THREADS env var >
/// std::thread::hardware_concurrency(). NADFS_BENCH_THREADS=1 forces the
/// serial path (useful for A/B-ing output equivalence).
///
/// This is the supported way to use several cores: one simulator per
/// point, each single-threaded. A single run has no intra-run parallelism
/// (DESIGN.md §3f explains why).
class SweepRunner {
 public:
  explicit SweepRunner(unsigned threads = 0) {
    if (threads == 0) {
      if (const char* env = std::getenv("NADFS_BENCH_THREADS")) {
        threads = static_cast<unsigned>(std::strtoul(env, nullptr, 10));
      }
    }
    if (threads == 0) threads = std::thread::hardware_concurrency();
    threads_ = threads ? threads : 1;
  }

  unsigned threads() const { return threads_; }

  template <typename R>
  std::vector<R> run(const std::vector<std::function<R()>>& points) {
    std::vector<R> results(points.size());
    const auto workers = static_cast<unsigned>(
        std::min<std::size_t>(threads_, points.size()));
    if (workers <= 1) {
      for (std::size_t i = 0; i < points.size(); ++i) results[i] = points[i]();
      return results;
    }
    std::atomic<std::size_t> next{0};
    std::exception_ptr error;
    std::mutex error_mu;
    auto work = [&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= points.size()) return;
        try {
          results[i] = points[i]();
        } catch (...) {
          const std::lock_guard<std::mutex> lock(error_mu);
          if (!error) error = std::current_exception();
        }
      }
    };
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned t = 0; t < workers; ++t) pool.emplace_back(work);
    for (auto& th : pool) th.join();
    if (error) std::rethrow_exception(error);
    return results;
  }

 private:
  unsigned threads_ = 1;
};

/// Wall-clock accounting for one bench binary plus a machine-readable
/// summary written to BENCH_<name>.json in the working directory (the CSV
/// rows mirror the "CSV:" stdout lines).
class SweepReport {
 public:
  explicit SweepReport(std::string name)
      : name_(std::move(name)), start_(std::chrono::steady_clock::now()) {}

  void add_csv(std::string line) { csv_.push_back(std::move(line)); }

  double elapsed_ms() const {
    return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start_)
        .count();
  }

  /// Prints the wall-clock line and writes BENCH_<name>.json.
  void finish(unsigned threads, std::size_t points) const {
    const double wall_ms = elapsed_ms();
    std::printf("\nwall-clock: %.1f ms for %zu sweep points on %u thread%s\n", wall_ms, points,
                threads, threads == 1 ? "" : "s");
    const std::string path = "BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
      return;
    }
    std::fprintf(f, "{\n  \"name\": \"%s\",\n  \"threads\": %u,\n  \"points\": %zu,\n",
                 name_.c_str(), threads, points);
    std::fprintf(f, "  \"wall_ms\": %.3f,\n  \"rows\": [", wall_ms);
    for (std::size_t i = 0; i < csv_.size(); ++i) {
      std::fprintf(f, "%s\n    \"%s\"", i ? "," : "", json_escape(csv_[i]).c_str());
    }
    std::fprintf(f, "%s],\n", csv_.empty() ? "" : "\n  ");
    // Summed cluster-metric snapshots across every measured point (empty
    // object when the bench never harvested a cluster). Quantile-sketch
    // families additionally get derived .p50_ns/.p99_ns entries — summing
    // sub-bucket counts across snapshots yields a valid merged sketch, so
    // the percentiles cover every measured point.
    const auto& acc = MetricsAccumulator::instance();
    auto totals = acc.totals();
    add_sketch_percentiles(totals);
    std::fprintf(f, "  \"metric_snapshots\": %zu,\n  \"metrics\": {", acc.snapshots());
    std::size_t i = 0;
    for (const auto& [metric, value] : totals) {
      std::fprintf(f, "%s\n    \"%s\": %lld", i++ ? "," : "", json_escape(metric).c_str(), value);
    }
    std::fprintf(f, "%s}\n}\n", totals.empty() ? "" : "\n  ");
    std::fclose(f);
    std::printf("JSON: %s\n", path.c_str());
  }

 private:
  /// Derive p50/p99 (in ns) for every quantile-sketch family in `totals`
  /// and insert them as "<base>.p50_ns"/"<base>.p99_ns". A family is a
  /// "<base>.count" entry with a "<base>.max_ps" sibling (only
  /// MetricRegistry's sketch flattening emits that pair); its buckets are
  /// the nonzero "<base>.s<i>" entries.
  static void add_sketch_percentiles(std::map<std::string, long long>& totals) {
    std::vector<std::pair<std::string, std::pair<long long, long long>>> derived;
    for (const auto& [name, count] : totals) {
      const std::string_view suffix = ".count";
      if (name.size() <= suffix.size() ||
          name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
        continue;
      }
      const std::string base = name.substr(0, name.size() - suffix.size());
      if (count <= 0 || totals.find(base + ".max_ps") == totals.end()) continue;
      std::vector<std::pair<std::size_t, long long>> sub;
      for (const auto& [sname, svalue] : totals) {
        if (sname.size() <= base.size() + 2 || sname.compare(0, base.size(), base) != 0 ||
            sname[base.size()] != '.' || sname[base.size() + 1] != 's') {
          continue;
        }
        const std::string idx = sname.substr(base.size() + 2);
        if (idx.empty() || idx.find_first_not_of("0123456789") != std::string::npos) continue;
        sub.emplace_back(static_cast<std::size_t>(std::strtoull(idx.c_str(), nullptr, 10)),
                         svalue);
      }
      std::sort(sub.begin(), sub.end());
      derived.emplace_back(base, std::make_pair(sketch_percentile_ns(sub, count, 0.50),
                                                sketch_percentile_ns(sub, count, 0.99)));
    }
    for (const auto& [base, p] : derived) {
      totals[base + ".p50_ns"] = p.first;
      totals[base + ".p99_ns"] = p.second;
    }
  }

  /// Percentile from sorted (sub-bucket index, count) pairs of an
  /// obs::QuantileSketch: major = i/32 is the log2(ns) bucket, the 32
  /// slices of [2^major, 2^{major+1}) ns are linear.
  static long long sketch_percentile_ns(const std::vector<std::pair<std::size_t, long long>>& sub,
                                        long long count, double q) {
    constexpr std::size_t kSub = 32;
    const double target = q * static_cast<double>(count);
    double cum = 0.0;
    for (const auto& [i, c] : sub) {
      if (c <= 0) continue;
      const double prev = cum;
      cum += static_cast<double>(c);
      if (cum < target) continue;
      const std::size_t major = i / kSub;
      const std::size_t slice = i % kSub;
      const double base = static_cast<double>(std::uint64_t{1} << major);
      const double lo = i == 0 ? 0.0
                               : base * static_cast<double>(kSub + slice) /
                                     static_cast<double>(kSub);
      const double hi =
          base * static_cast<double>(kSub + slice + 1) / static_cast<double>(kSub);
      const double frac =
          std::min(1.0, std::max(0.0, (target - prev) / static_cast<double>(c)));
      return static_cast<long long>(lo + (hi - lo) * frac + 0.5);
    }
    return 0;
  }

  static std::string json_escape(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      out.push_back(c);
    }
    return out;
  }

  std::string name_;
  std::chrono::steady_clock::time_point start_;
  std::vector<std::string> csv_;
};

/// Reopen a BENCH_<name>.json this process just wrote and read it back the
/// way a consumer would: strict obs::json_parse, a non-empty "rows" array,
/// and at least `min_rows` rows starting with each given prefix (e.g.
/// {"workloads_knee,", 2}). Prints the first failure to stderr and returns
/// false, so a bench can exit non-zero on a malformed report.
inline bool validate_report(const std::string& path,
                            const std::vector<std::pair<std::string, std::size_t>>& min_rows) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "FAIL: cannot reopen %s\n", path.c_str());
    return false;
  }
  std::stringstream ss;
  ss << in.rdbuf();
  std::string err;
  const auto doc = obs::json_parse(ss.str(), &err);
  if (!doc) {
    std::fprintf(stderr, "FAIL: %s is not valid JSON: %s\n", path.c_str(), err.c_str());
    return false;
  }
  const auto* rows = doc->find("rows");
  if (!rows || rows->kind != obs::JsonValue::Kind::kArray || rows->arr.empty()) {
    std::fprintf(stderr, "FAIL: %s has no rows\n", path.c_str());
    return false;
  }
  std::string counts;
  for (const auto& [prefix, min] : min_rows) {
    std::size_t n = 0;
    for (const auto& row : rows->arr) {
      if (row.kind == obs::JsonValue::Kind::kString && row.str.rfind(prefix, 0) == 0) ++n;
    }
    if (n < min) {
      std::fprintf(stderr, "FAIL: %s has %zu '%s' rows, expected >= %zu\n", path.c_str(), n,
                   prefix.c_str(), min);
      return false;
    }
    counts += (counts.empty() ? "" : ", ") + std::to_string(n) + " '" + prefix + "'";
  }
  std::printf("validated %s: %zu rows (%s)\n", path.c_str(), rows->arr.size(), counts.c_str());
  return true;
}

}  // namespace nadfs::bench
