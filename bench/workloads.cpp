// Goodput vs offered load under the workload engine, per protocol variant.
//
// An open-loop (Poisson) multi-op workload sweeps the offered load; goodput
// is the payload the cluster actually completed. Under light load goodput
// tracks the offered line; past saturation it flattens — the knee. The
// bench identifies the knee per variant (last sweep point that still
// completes >= 90% of its offered payload) and emits it as its own CSV row.
//
// Variants:
//   spin-plain   sPIN-offloaded handlers, plain layouts
//   spin-repl3   sPIN-offloaded, 3-way replication (3x internal traffic)
//   spin-ec32    sPIN-offloaded, RS(3,2) erasure coding
//   host-plain   host-CPU DFS service (no offload), plain layouts
//
// NADFS_BENCH_SMOKE=1 shrinks the sweep (2 variants, 3 points, short
// horizon) for CI. After writing BENCH_workloads.json the bench re-reads
// and validates it with the strict obs JSON parser — a malformed report
// fails the run, not the consumer.
#include <cstdlib>

#include "bench/report.hpp"
#include "services/host_dfs.hpp"
#include "workload/workload.hpp"

using namespace nadfs;
using namespace nadfs::bench;

namespace {

using services::FilePolicy;

struct Variant {
  const char* name;
  FilePolicy policy;
  bool offload = true;
};

std::vector<Variant> variants(bool smoke) {
  FilePolicy plain;
  FilePolicy repl3;
  repl3.resiliency = dfs::Resiliency::kReplication;
  repl3.repl_k = 3;
  FilePolicy ec32;
  ec32.resiliency = dfs::Resiliency::kErasureCoding;
  ec32.ec_k = 3;
  ec32.ec_m = 2;
  if (smoke) return {{"spin-plain", plain, true}, {"host-plain", plain, false}};
  return {{"spin-plain", plain, true},
          {"spin-repl3", repl3, true},
          {"spin-ec32", ec32, true},
          {"host-plain", plain, false}};
}

struct Point {
  double offered_gbps = 0;
  double goodput_gbps = 0;
  std::uint64_t offered_ops = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  Snapshot metrics;
};

Point run_point(const Variant& v, double offered_gbps, bool smoke) {
  services::ClusterConfig cfg;
  cfg.storage_nodes = 5;  // enough for repl_k=3 and RS(3,2)
  cfg.clients = 4;
  cfg.install_dfs = v.offload;
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
  tenant.policy = v.policy;
  tenant.io_bytes = 16 * KiB;
  tenant.zipf_s = 0.99;
  // EC objects are whole-object writes: no append stream for that tenant.
  if (v.policy.resiliency == dfs::Resiliency::kErasureCoding) {
    tenant.mix.append = 0.0;
    tenant.mix.write = 0.45;
  }

  workload::EngineConfig ecfg;
  ecfg.users = 1'000'000;
  ecfg.client_slots = cfg.clients;
  // offered_gbps -> ops/s at io_bytes per op.
  ecfg.rate_ops_per_s = offered_gbps * 1e9 / (8.0 * static_cast<double>(tenant.io_bytes));
  ecfg.duration = smoke ? us(200) : ms(1);
  ecfg.diurnal_amplitude = 0.0;
  ecfg.seed = 42;

  workload::Engine engine(cluster, ecfg, {tenant});
  engine.run();

  const auto& s = engine.stats();
  Point p;
  p.offered_gbps = s.offered_gbps(ecfg.duration);
  p.goodput_gbps = s.goodput_gbps(ecfg.duration);
  p.offered_ops = s.offered;
  p.completed = s.completed;
  p.failed = s.failed;
  p.metrics = cluster.metrics().snapshot();
  return p;
}

/// Knee: the last sweep point still completing >= 90% of its offered
/// payload; saturation begins past it. Falls back to the best-goodput point
/// when even the lightest load is inefficient.
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
  const bool smoke = std::getenv("NADFS_BENCH_SMOKE") != nullptr;
  print_header("Goodput vs offered load (workload engine), per variant",
               "open-loop Poisson arrivals; knee = last point >= 90% efficient");

  const std::vector<double> offered =
      smoke ? std::vector<double>{5, 20, 80}
            : std::vector<double>{2, 5, 10, 20, 40, 80, 160, 320, 640, 1280};
  const auto vars = variants(smoke);

  SweepReport report("workloads");
  SweepRunner runner;
  char csv[160];
  std::size_t total_points = 0;

  for (const auto& v : vars) {
    std::vector<std::function<Point()>> points;
    points.reserve(offered.size());
    for (const double gbps : offered) {
      points.push_back([&v, gbps, smoke] { return run_point(v, gbps, smoke); });
    }
    const auto pts = runner.run(points);
    total_points += pts.size();

    std::printf("%-12s %12s %12s %10s %10s %8s\n", v.name, "offered Gb/s", "goodput Gb/s",
                "ops", "ok", "failed");
    for (const Point& p : pts) {
      std::printf("%-12s %12.2f %12.2f %10llu %10llu %8llu\n", "", p.offered_gbps,
                  p.goodput_gbps, static_cast<unsigned long long>(p.offered_ops),
                  static_cast<unsigned long long>(p.completed),
                  static_cast<unsigned long long>(p.failed));
      std::snprintf(csv, sizeof csv, "workloads,%s,%.3f,%.3f,%llu,%llu,%llu", v.name,
                    p.offered_gbps, p.goodput_gbps, static_cast<unsigned long long>(p.offered_ops),
                    static_cast<unsigned long long>(p.completed),
                    static_cast<unsigned long long>(p.failed));
      std::printf("CSV:%s\n", csv);
      report.add_csv(csv);
      report.add_metrics(p.metrics);
    }
    const std::size_t k = knee_index(pts);
    std::printf("%-12s knee at %.2f Gb/s offered (goodput %.2f Gb/s)\n\n", v.name,
                pts[k].offered_gbps, pts[k].goodput_gbps);
    std::snprintf(csv, sizeof csv, "workloads_knee,%s,%.3f,%.3f", v.name, pts[k].offered_gbps,
                  pts[k].goodput_gbps);
    std::printf("CSV:%s\n", csv);
    report.add_csv(csv);
  }

  report.finish(runner.threads(), total_points);
  if (!validate_report("BENCH_workloads.json", {{"workloads_knee,", 2}})) return 1;
  return 0;
}
