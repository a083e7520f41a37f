// Goodput vs offered load per storage backend (DESIGN.md §3h).
//
// The paper assumes the storage medium digests data at network bandwidth
// or higher; this sweep measures what happens when it doesn't. The same
// open-loop write-heavy workload is offered to three backends, each under
// both data planes (sPIN-offloaded handlers vs host-CPU DFS service — does
// NIC offload still win when storage pushes back?):
//
//   linerate    the paper's model (64 GB/s ingest) — network-bound knee
//   nvmm        finite device (1 GB/s) + per-op media latency
//   betree      Bε-tree/LSM on the *same* 1 GB/s device; flush+compaction
//               traffic competes with foreground ops for the device budget
//
// nvmm and betree share one device model, so their divergence isolates the
// index: the betree initially *out-carries* nvmm (writes ack at WAL-durable
// while flush work is deferred — the LSM absorbing bursts), then saturates
// once the flush+compaction backlog fills the buffer and foreground writes
// stall. The bench asserts the betree knee is non-degenerate (saturation
// occurs inside the sweep) and attributable to that backlog: compaction
// bytes and stall counts/time are nonzero at the saturated point and grow
// strictly past the knee.
//
// After writing BENCH_storage_engine.json the bench re-reads and validates
// it with the strict obs JSON parser.
#include "bench/report.hpp"
#include "services/host_dfs.hpp"
#include "storage/engine/engine.hpp"
#include "workload/workload.hpp"

using namespace nadfs;
using namespace nadfs::bench;

namespace {

struct Variant {
  const char* name;
  storage::EngineKind kind;
  bool offload = true;  ///< sPIN handlers vs host-CPU DFS service
};

constexpr Variant kVariants[] = {
    {"spin-linerate", storage::EngineKind::kLineRate, true},
    {"spin-nvmm", storage::EngineKind::kNvmm, true},
    {"spin-betree", storage::EngineKind::kBetaTree, true},
    {"host-linerate", storage::EngineKind::kLineRate, false},
    {"host-nvmm", storage::EngineKind::kNvmm, false},
    {"host-betree", storage::EngineKind::kBetaTree, false},
};

/// nvmm and betree run the identical device model so the knee gap between
/// them isolates the index's amplification; only kBetaTree reads the
/// memtable/buffer/fanout knobs.
storage::TargetConfig target_config(storage::EngineKind kind) {
  storage::TargetConfig t;
  t.engine.kind = kind;
  t.engine.device_bandwidth = Bandwidth::from_gbytes_per_sec(1.0);
  t.engine.write_latency = ns(500);
  t.engine.read_latency = ns(300);
  t.engine.memtable_bytes = 16 * KiB;
  t.engine.buffer_capacity = 64 * KiB;
  t.engine.fanout = 4;
  return t;
}

struct Point {
  double offered_gbps = 0;
  double goodput_gbps = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  // Engine counters summed over the cluster's nodes for this point alone
  // (each point runs a fresh cluster, so the snapshot is the point total).
  long long flush_bytes = 0;
  long long compact_bytes = 0;  ///< compaction read + write device traffic
  long long stalls = 0;
  long long stall_us = 0;  ///< total buffer-full stall time, µs
  Snapshot metrics;
};

long long sum_suffix(const Snapshot& snap, const std::string& suffix) {
  long long total = 0;
  for (const auto& [name, value] : snap) {
    if (name.size() > suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
      total += value;
    }
  }
  return total;
}

Point run_point(const Variant& v, double offered_gbps) {
  services::ClusterConfig cfg;
  cfg.storage_nodes = 5;
  cfg.clients = 4;
  cfg.install_dfs = v.offload;
  // line-rate keeps the default TargetConfig — the exact pre-engine model.
  if (v.kind != storage::EngineKind::kLineRate) {
    cfg.per_node_target = {target_config(v.kind)};
  }
  services::Cluster cluster(cfg);
  std::vector<std::unique_ptr<services::HostDfsService>> host;
  if (!v.offload) {
    for (std::size_t i = 0; i < cluster.storage_node_count(); ++i) {
      host.push_back(std::make_unique<services::HostDfsService>(cluster.storage_node(i), cfg.dfs));
    }
  }

  workload::TenantSpec tenant;
  tenant.name = v.name;
  tenant.objects = 24;
  tenant.object_size = 256 * KiB;
  tenant.io_bytes = 16 * KiB;
  tenant.zipf_s = 0.99;
  // Write-heavy: compaction pressure scales with ingested bytes.
  tenant.mix.write = 0.70;
  tenant.mix.read = 0.30;
  tenant.mix.append = 0.0;
  tenant.mix.stat = 0.0;

  workload::EngineConfig ecfg;
  ecfg.users = 1'000'000;
  ecfg.client_slots = cfg.clients;
  ecfg.rate_ops_per_s = offered_gbps * 1e9 / (8.0 * static_cast<double>(tenant.io_bytes));
  ecfg.duration = ms(1);
  ecfg.diurnal_amplitude = 0.0;
  ecfg.seed = 42;

  workload::Engine engine(cluster, ecfg, {tenant});
  engine.run();

  const auto& s = engine.stats();
  Point p;
  p.offered_gbps = s.offered_gbps(ecfg.duration);
  p.goodput_gbps = s.goodput_gbps(ecfg.duration);
  p.completed = s.completed;
  p.failed = s.failed;
  p.metrics = cluster.metrics().snapshot();
  p.flush_bytes = sum_suffix(p.metrics, ".storage.engine.flush_bytes");
  p.compact_bytes = sum_suffix(p.metrics, ".storage.engine.compact_read_bytes") +
                    sum_suffix(p.metrics, ".storage.engine.compact_write_bytes");
  p.stalls = sum_suffix(p.metrics, ".storage.engine.stalls");
  p.stall_us = sum_suffix(p.metrics, ".storage.engine.stall_ps") / 1'000'000;
  return p;
}

/// Knee: the last sweep point still completing >= 90% of its offered
/// payload. Falls back to the best-goodput point when even the lightest
/// load is inefficient.
std::size_t knee_index(const std::vector<Point>& pts) {
  std::size_t knee = 0;
  double best = 0.0;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    if (pts[i].goodput_gbps > best) {
      best = pts[i].goodput_gbps;
      knee = i;
    }
  }
  for (std::size_t i = pts.size(); i-- > 0;) {
    if (pts[i].offered_gbps > 0 && pts[i].goodput_gbps >= 0.9 * pts[i].offered_gbps) {
      return i;
    }
  }
  return knee;
}

}  // namespace

int main() {
  print_header("Goodput vs offered load per storage backend",
               "§III storage assumption relaxed: line-rate | NVMM | Bε-tree");

  const std::vector<double> offered = {2, 4, 8, 16, 32, 64, 128};

  SweepReport report("storage_engine");
  SweepRunner runner;
  char csv[192];
  std::size_t total_points = 0;
  std::map<std::string, std::vector<Point>> by_variant;

  for (const auto& v : kVariants) {
    std::vector<std::function<Point()>> points;
    points.reserve(offered.size());
    for (const double gbps : offered) {
      points.push_back([&v, gbps] { return run_point(v, gbps); });
    }
    const auto pts = runner.run(points);
    total_points += pts.size();
    by_variant[v.name] = pts;

    std::printf("%-10s %12s %12s %8s %12s %12s %8s %10s\n", v.name, "offered Gb/s",
                "goodput Gb/s", "ok", "flush B", "compact B", "stalls", "stall us");
    for (const Point& p : pts) {
      std::printf("%-10s %12.2f %12.2f %8llu %12lld %12lld %8lld %10lld\n", "", p.offered_gbps,
                  p.goodput_gbps, static_cast<unsigned long long>(p.completed), p.flush_bytes,
                  p.compact_bytes, p.stalls, p.stall_us);
      std::snprintf(csv, sizeof csv, "storage_engine,%s,%.3f,%.3f,%llu,%llu,%lld,%lld,%lld,%lld",
                    v.name, p.offered_gbps, p.goodput_gbps,
                    static_cast<unsigned long long>(p.completed),
                    static_cast<unsigned long long>(p.failed), p.flush_bytes, p.compact_bytes,
                    p.stalls, p.stall_us);
      std::printf("CSV:%s\n", csv);
      report.add_csv(csv);
      report.add_metrics(p.metrics);
    }
    const std::size_t k = knee_index(pts);
    std::printf("%-10s knee at %.2f Gb/s offered (goodput %.2f Gb/s)\n\n", v.name,
                pts[k].offered_gbps, pts[k].goodput_gbps);
    std::snprintf(csv, sizeof csv, "storage_engine_knee,%s,%.3f,%.3f", v.name,
                  pts[k].offered_gbps, pts[k].goodput_gbps);
    std::printf("CSV:%s\n", csv);
    report.add_csv(csv);
  }

  report.finish(runner.threads(), total_points);
  if (!validate_report("BENCH_storage_engine.json", {{"storage_engine_knee,", 6}})) return 1;

  // --- knee attribution checks -------------------------------------------
  // (1) Non-degenerate: the betree backend must actually saturate inside
  // the sweep — at the heaviest offered load it completes < 90% of its
  // offered payload (otherwise the sweep never reached the knee and the
  // "knee" row is vacuous).
  const auto& bt = by_variant["spin-betree"];
  const Point& bt_knee = bt[knee_index(bt)];
  const Point& bt_last = bt.back();
  bool ok = true;
  if (bt_last.goodput_gbps >= 0.9 * bt_last.offered_gbps) {
    std::fprintf(stderr, "FAIL: betree never saturated (%.2f of %.2f Gb/s at max load)\n",
                 bt_last.goodput_gbps, bt_last.offered_gbps);
    ok = false;
  }
  // (2) Attributable to compaction: at the saturated point the device is
  // demonstrably shared with background work — flushes happened, compaction
  // moved bytes, and foreground writes stalled (with measurable stall time)
  // on a full buffer behind the flush backlog.
  if (bt_last.flush_bytes <= 0 || bt_last.compact_bytes <= 0 || bt_last.stalls <= 0 ||
      bt_last.stall_us <= 0) {
    std::fprintf(stderr,
                 "FAIL: no compaction contention at max load (flush=%lld compact=%lld "
                 "stalls=%lld stall_us=%lld)\n",
                 bt_last.flush_bytes, bt_last.compact_bytes, bt_last.stalls, bt_last.stall_us);
    ok = false;
  }
  // (3) The backlog grows past the knee: compaction device traffic and
  // stalls at max load strictly exceed their values at the knee point —
  // the goodput loss tracks the background work, not an unrelated limit.
  if (bt_last.compact_bytes <= bt_knee.compact_bytes || bt_last.stalls <= bt_knee.stalls) {
    std::fprintf(stderr,
                 "FAIL: compaction backlog did not grow past the knee (compact %lld -> %lld, "
                 "stalls %lld -> %lld)\n",
                 bt_knee.compact_bytes, bt_last.compact_bytes, bt_knee.stalls, bt_last.stalls);
    ok = false;
  }
  if (ok) {
    std::printf("knee attribution OK: betree saturates past %.2f Gb/s with growing compaction "
                "traffic (%lld -> %lld B) and %lld write stalls (%lld us blocked)\n",
                bt_knee.offered_gbps, bt_knee.compact_bytes, bt_last.compact_bytes,
                bt_last.stalls, bt_last.stall_us);
  }
  return ok ? 0 : 1;
}
