// Sweep execution + reporting, shared by every bench: a thread pool with
// ordered result collection, the BENCH_<name>.json machine-readable summary
// writer, and the strict read-back check benches run on their own report.
#pragma once

#include <algorithm>
#include <array>
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
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace nadfs::bench {

/// A cluster's flat (name -> value) metric map,
/// obs::MetricRegistry::snapshot().
using Snapshot = std::map<std::string, long long>;

/// Merges the metric snapshots of one report's sweep points: counters and
/// quantile-sketch buckets sum, a sketch's `.max_ps` merges as a max and
/// its `.min_ps` as a min over the snapshots whose sketch recorded samples
/// (an empty sketch reports 0). Every merge is commutative, so the totals
/// do not depend on which thread ran which point, and SweepReport::finish
/// can embed them in BENCH_<name>.json without breaking parallel/serial
/// output equivalence.
class MetricsAccumulator {
 public:
  void add(const Snapshot& snapshot) {
    for (const auto& [name, value] : snapshot) {
      long long& total = totals_[name];
      if (sketch_count(snapshot, name, ".max_ps") != nullptr) {
        total = std::max(total, value);
      } else if (const long long* count = sketch_count(snapshot, name, ".min_ps")) {
        if (*count > 0) total = has_min_.insert(name).second ? value : std::min(total, value);
      } else {
        total += value;
      }
    }
    ++snapshots_;
  }

  /// The merged totals plus "<base>.p50_ns"/"<base>.p99_ns" for every
  /// quantile-sketch family with samples, read off the merged sketch by
  /// obs::QuantileSketch::quantile_of.
  Snapshot totals() const {
    constexpr std::string_view kCount = ".count";
    Snapshot out = totals_;
    for (const auto& [name, count] : totals_) {
      if (count <= 0 || !name.ends_with(kCount)) continue;
      const std::string base = name.substr(0, name.size() - kCount.size());
      const auto min_ps = totals_.find(base + ".min_ps");
      const auto max_ps = totals_.find(base + ".max_ps");
      if (min_ps == totals_.end() || max_ps == totals_.end()) continue;
      std::array<std::uint64_t, obs::QuantileSketch::kBuckets> buckets{};
      const std::string sub = base + ".s";
      for (auto it = totals_.lower_bound(sub); it != totals_.end() && it->first.starts_with(sub);
           ++it) {
        const std::string idx = it->first.substr(sub.size());
        if (idx.empty() || idx.find_first_not_of("0123456789") != std::string::npos) continue;
        const auto i = std::strtoull(idx.c_str(), nullptr, 10);
        if (i < buckets.size()) buckets[i] = static_cast<std::uint64_t>(it->second);
      }
      const auto ns = [&](double q) {
        const std::uint64_t ps = obs::QuantileSketch::quantile_of(
            buckets, static_cast<std::uint64_t>(count), static_cast<std::uint64_t>(min_ps->second),
            static_cast<std::uint64_t>(max_ps->second), q);
        return static_cast<long long>((ps + 500) / 1000);
      };
      out[base + ".p50_ns"] = ns(0.50);
      out[base + ".p99_ns"] = ns(0.99);
    }
    return out;
  }

  std::size_t snapshots() const { return snapshots_; }

 private:
  /// The "<base>.count" of the sketch family `name` belongs to when `name`
  /// is "<base><suffix>" and `snapshot` holds that count; else nullptr.
  static const long long* sketch_count(const Snapshot& snapshot, const std::string& name,
                                       std::string_view suffix) {
    if (!name.ends_with(suffix)) return nullptr;
    const auto it = snapshot.find(name.substr(0, name.size() - suffix.size()) + ".count");
    return it == snapshot.end() ? nullptr : &it->second;
  }

  Snapshot totals_;
  std::set<std::string> has_min_;  ///< `.min_ps` entries holding a real min
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

/// Wall-clock accounting for one sweep plus a machine-readable summary
/// written to BENCH_<name>.json in the working directory (the CSV rows
/// mirror the "CSV:" stdout lines).
class SweepReport {
 public:
  explicit SweepReport(std::string name)
      : name_(std::move(name)), start_(std::chrono::steady_clock::now()) {}

  void add_csv(std::string line) { csv_.push_back(std::move(line)); }
  /// Merges one cluster's snapshot into this report's "metrics" block.
  void add_metrics(const Snapshot& snapshot) { metrics_.add(snapshot); }

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
    // Merged cluster-metric snapshots of this report's points (empty object
    // when none harvested a cluster), with the percentiles of every merged
    // quantile sketch.
    const auto totals = metrics_.totals();
    std::fprintf(f, "  \"metric_snapshots\": %zu,\n  \"metrics\": {", metrics_.snapshots());
    std::size_t i = 0;
    for (const auto& [metric, value] : totals) {
      std::fprintf(f, "%s\n    \"%s\": %lld", i++ ? "," : "", json_escape(metric).c_str(), value);
    }
    std::fprintf(f, "%s}\n}\n", totals.empty() ? "" : "\n  ");
    std::fclose(f);
    std::printf("JSON: %s\n", path.c_str());
  }

 private:
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
  MetricsAccumulator metrics_;
};

inline void print_header(const char* title, const char* paper_ref) {
  std::printf("\n================================================================\n");
  std::printf("%s\n(reproduces %s)\n", title, paper_ref);
  std::printf("================================================================\n");
}

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
