// Cluster elasticity: time-to-rejoin, rebalance convergence, and the
// goodput dip under a rolling restart.
//
// Three sections, each a row family in BENCH_elasticity.json:
//   elasticity_rejoin,<downtime_us>,<detect_us>,<rejoin_us>
//       kill one storage node, restart it after <downtime>; detect = kill
//       -> failure-detector verdict, rejoin = restart -> alive again after
//       the confirmation probes.
//   elasticity_rebalance,<budget_kib>,<converge_us>,<moves>,<moved_kib>
//       pile every extent onto one node, then measure how long the
//       background rebalancer needs to bring the skew below threshold
//       under a given per-tick byte budget.
//   elasticity_rolling,<goodput_gbps>,<dip_pct>,<avg_rejoin_us>,<ok>,<failed>
//       rolling restart of every storage node under a sustained open-loop
//       workload; the dip is read off the engine's goodput timeline
//       (deepest interior bucket vs the best one).
//
// NADFS_BENCH_SMOKE=1 shrinks every sweep for CI. After writing the report
// the bench re-reads it with the strict obs JSON parser — a malformed
// report fails the run, not the consumer.
#include <cstdlib>

#include "bench/report.hpp"
#include "common/rng.hpp"
#include "services/rebalancer.hpp"
#include "workload/workload.hpp"

using namespace nadfs;
using namespace nadfs::bench;

namespace {

Bytes pattern_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Bytes out(n);
  for (auto& b : out) b = rng.next_byte();
  return out;
}

// ------------------------------------------------------- time-to-rejoin

struct RejoinPoint {
  TimePs downtime = 0;
  TimePs detect_latency = 0;  ///< kill -> on_failure
  TimePs rejoin_latency = 0;  ///< restart -> on_rejoin
  Snapshot metrics;
};

RejoinPoint run_rejoin(TimePs downtime) {
  services::ClusterConfig cfg;
  cfg.storage_nodes = 5;
  cfg.clients = 1;
  services::Cluster cluster(cfg);
  services::Client prober(cluster, 0);
  services::FailureDetector detector(cluster, prober);

  const net::NodeId victim = cluster.storage_node(0).id();
  const TimePs kill_at = us(20);
  const TimePs restart_time = kill_at + downtime;
  net::FaultPlan plan;
  plan.kill_node(victim, kill_at);
  plan.restart_at(victim, restart_time);
  cluster.network().install_faults(plan);
  cluster.sim().schedule_at(restart_time, [&cluster, victim] {
    cluster.storage_by_node(victim).restart_dfs();
  });

  TimePs detected_at = 0, rejoined_at = 0;
  detector.set_on_failure([&](net::NodeId, TimePs at) {
    if (detected_at == 0) detected_at = at;
  });
  detector.set_on_rejoin([&](net::NodeId, TimePs at) { rejoined_at = at; });
  detector.start();
  cluster.sim().run_until(restart_time + us(200));
  detector.stop();
  cluster.sim().run();

  RejoinPoint p;
  p.downtime = downtime;
  p.detect_latency = detected_at > kill_at ? detected_at - kill_at : 0;
  p.rejoin_latency = rejoined_at > restart_time ? rejoined_at - restart_time : 0;
  p.metrics = cluster.metrics().snapshot();
  return p;
}

// -------------------------------------------------- rebalance convergence

struct RebalancePoint {
  std::uint64_t budget = 0;  ///< bytes_per_tick
  TimePs converge = 0;       ///< start -> skew below threshold
  std::uint64_t moves = 0;
  std::uint64_t moved_bytes = 0;
  bool converged = false;
  Snapshot metrics;
};

RebalancePoint run_rebalance(std::uint64_t bytes_per_tick, unsigned objects) {
  services::ClusterConfig cfg;
  cfg.storage_nodes = 4;
  cfg.clients = 2;
  services::Cluster cluster(cfg);
  services::Client writer(cluster, 0);
  services::Client mover(cluster, 1);
  mover.set_timeout(us(50));
  auto& meta = cluster.metadata();

  // All extents on node 0: hold everyone else during the writes.
  for (std::size_t i = 1; i < cluster.storage_node_count(); ++i) {
    meta.hold_from_placement(cluster.storage_node(i).id());
  }
  const std::size_t size = 64 * KiB;
  for (unsigned i = 0; i < objects; ++i) {
    const auto& l = meta.create("r" + std::to_string(i), size, services::FilePolicy{});
    const auto cap = meta.grant(writer.client_id(), l, auth::Right::kWrite);
    writer.write(l, cap, pattern_bytes(size, i), [](dfs::DfsError, TimePs) {});
    cluster.sim().run();
  }
  for (std::size_t i = 1; i < cluster.storage_node_count(); ++i) {
    meta.release_hold(cluster.storage_node(i).id());
  }

  services::RebalancerConfig rcfg;
  rcfg.interval = us(20);
  rcfg.skew_threshold = 64 * KiB;
  rcfg.bytes_per_tick = bytes_per_tick;
  services::Rebalancer rebalancer(cluster, mover, rcfg);
  const TimePs start = cluster.sim().now();
  rebalancer.start();

  // Poll from outside the event loop until the skew drops under the
  // threshold (or a generous deadline passes).
  const TimePs step = us(10);
  const TimePs deadline = start + ms(20);
  TimePs t = start;
  while (rebalancer.skew() > rcfg.skew_threshold && t < deadline) {
    t += step;
    cluster.sim().run_until(t);
  }
  const bool converged = rebalancer.skew() <= rcfg.skew_threshold;
  const TimePs converged_at = cluster.sim().now();
  rebalancer.stop();
  cluster.sim().run();

  RebalancePoint p;
  p.budget = bytes_per_tick;
  p.converge = converged_at > start ? converged_at - start : 0;
  p.moves = rebalancer.moves();
  p.moved_bytes = rebalancer.moved_bytes();
  p.converged = converged;
  p.metrics = cluster.metrics().snapshot();
  return p;
}

// ------------------------------------------------- rolling-restart dip

struct RollingPoint {
  double goodput_gbps = 0;
  double dip_pct = 0;         ///< deepest interior goodput bucket vs best
  TimePs avg_rejoin = 0;      ///< mean restart -> alive latency
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t rejoins = 0;
  Snapshot metrics;
};

RollingPoint run_rolling(bool smoke) {
  services::ClusterConfig cfg;
  cfg.storage_nodes = 4;
  cfg.clients = 4;  // 0-1 workload slots, 2 prober, 3 mover
  services::Cluster cluster(cfg);
  services::Client prober(cluster, 2);
  services::Client mover(cluster, 3);
  mover.set_timeout(us(50));

  services::FailureDetector detector(cluster, prober);
  services::RebalancerConfig rcfg;
  rcfg.interval = us(50);
  rcfg.skew_threshold = 256 * KiB;
  services::Rebalancer rebalancer(cluster, mover, rcfg);
  rebalancer.set_detector(&detector);

  std::vector<TimePs> rejoined;
  detector.set_on_rejoin([&](net::NodeId, TimePs at) { rejoined.push_back(at); });

  const std::size_t restarts_n = smoke ? 2 : cluster.storage_node_count();
  const TimePs spacing = us(350);
  const TimePs downtime = us(150);
  net::FaultPlan plan;
  std::vector<TimePs> restart_times;
  for (std::size_t i = 0; i < restarts_n; ++i) {
    const net::NodeId node = cluster.storage_node(i).id();
    const TimePs kill_at = us(150) + static_cast<TimePs>(i) * spacing;
    plan.kill_node(node, kill_at);
    plan.restart_at(node, kill_at + downtime);
    restart_times.push_back(kill_at + downtime);
  }
  cluster.network().install_faults(plan);
  for (std::size_t i = 0; i < restarts_n; ++i) {
    const net::NodeId node = cluster.storage_node(i).id();
    cluster.sim().schedule_at(restart_times[i], [&cluster, node] {
      cluster.storage_by_node(node).restart_dfs();
    });
  }

  detector.start();
  rebalancer.start();
  const TimePs horizon = us(150) + static_cast<TimePs>(restarts_n) * spacing + us(100);
  cluster.sim().schedule_at(horizon + us(400), [&] {
    rebalancer.stop();
    detector.stop();
  });

  workload::TenantSpec tenant;
  tenant.name = "roll";
  tenant.objects = 8;
  tenant.object_size = 64 * KiB;
  tenant.policy.resiliency = dfs::Resiliency::kReplication;
  tenant.policy.repl_k = 2;
  tenant.io_bytes = 4 * KiB;
  tenant.mix.read = 0.5;
  tenant.mix.write = 0.5;
  tenant.mix.append = 0.0;
  tenant.mix.stat = 0.0;
  workload::EngineConfig ecfg;
  ecfg.users = 1000;
  ecfg.client_slots = 2;
  ecfg.rate_ops_per_s = 2e5;
  ecfg.duration = horizon;
  ecfg.goodput_window = us(100);
  ecfg.seed = 42;
  ecfg.retries = 1;
  ecfg.timeout = us(40);
  workload::Engine engine(cluster, ecfg, {tenant});
  engine.run();

  const auto& s = engine.stats();
  RollingPoint p;
  p.metrics = cluster.metrics().snapshot();
  p.goodput_gbps = s.goodput_gbps(ecfg.duration);
  p.completed = s.completed;
  p.failed = s.failed;
  p.rejoins = detector.rejoins();
  // Dip: deepest interior timeline bucket relative to the best bucket
  // (edges excluded — they are partially filled by ramp-up/drain).
  const auto& tl = s.goodput_timeline;
  if (tl.size() > 2) {
    std::uint64_t best = 0, worst = ~0ull;
    for (std::size_t i = 1; i + 1 < tl.size(); ++i) {
      best = std::max(best, tl[i]);
      worst = std::min(worst, tl[i]);
    }
    if (best > 0) p.dip_pct = 100.0 * (1.0 - static_cast<double>(worst) / best);
  }
  if (!rejoined.empty() && rejoined.size() == restart_times.size()) {
    TimePs sum = 0;
    for (std::size_t i = 0; i < rejoined.size(); ++i) {
      sum += rejoined[i] > restart_times[i] ? rejoined[i] - restart_times[i] : 0;
    }
    p.avg_rejoin = sum / rejoined.size();
  }
  return p;
}

}  // namespace

int main() {
  const bool smoke = std::getenv("NADFS_BENCH_SMOKE") != nullptr;
  print_header("Cluster elasticity: rejoin latency, rebalance convergence, rolling restart",
               "detector confirmation probes + budgeted background migration");

  SweepReport report("elasticity");
  SweepRunner runner;
  char csv[192];
  std::size_t total_points = 0;

  // Time-to-rejoin vs downtime.
  const std::vector<TimePs> downtimes =
      smoke ? std::vector<TimePs>{us(150)} : std::vector<TimePs>{us(150), us(300), us(600)};
  {
    std::vector<std::function<RejoinPoint()>> points;
    for (const TimePs d : downtimes) points.push_back([d] { return run_rejoin(d); });
    const auto pts = runner.run(points);
    total_points += pts.size();
    std::printf("%-12s %12s %12s %12s\n", "rejoin", "downtime us", "detect us", "rejoin us");
    for (const auto& p : pts) {
      std::printf("%-12s %12.1f %12.1f %12.1f\n", "", to_us(p.downtime), to_us(p.detect_latency),
                  to_us(p.rejoin_latency));
      std::snprintf(csv, sizeof csv, "elasticity_rejoin,%.1f,%.1f,%.1f", to_us(p.downtime),
                    to_us(p.detect_latency), to_us(p.rejoin_latency));
      std::printf("CSV:%s\n", csv);
      report.add_csv(csv);
      report.add_metrics(p.metrics);
    }
  }

  // Rebalance convergence vs per-tick byte budget.
  const unsigned objects = smoke ? 4 : 8;
  const std::vector<std::uint64_t> budgets =
      smoke ? std::vector<std::uint64_t>{128 * KiB}
            : std::vector<std::uint64_t>{64 * KiB, 128 * KiB, 256 * KiB};
  {
    std::vector<std::function<RebalancePoint()>> points;
    for (const auto b : budgets) {
      points.push_back([b, objects] { return run_rebalance(b, objects); });
    }
    const auto pts = runner.run(points);
    total_points += pts.size();
    std::printf("\n%-12s %12s %12s %8s %10s\n", "rebalance", "budget KiB", "converge us", "moves",
                "moved KiB");
    for (const auto& p : pts) {
      if (!p.converged) {
        std::fprintf(stderr, "FAIL: rebalance with budget %llu KiB did not converge\n",
                     static_cast<unsigned long long>(p.budget / KiB));
        return 1;
      }
      std::printf("%-12s %12llu %12.1f %8llu %10llu\n", "",
                  static_cast<unsigned long long>(p.budget / KiB), to_us(p.converge),
                  static_cast<unsigned long long>(p.moves),
                  static_cast<unsigned long long>(p.moved_bytes / KiB));
      std::snprintf(csv, sizeof csv, "elasticity_rebalance,%llu,%.1f,%llu,%llu",
                    static_cast<unsigned long long>(p.budget / KiB), to_us(p.converge),
                    static_cast<unsigned long long>(p.moves),
                    static_cast<unsigned long long>(p.moved_bytes / KiB));
      std::printf("CSV:%s\n", csv);
      report.add_csv(csv);
      report.add_metrics(p.metrics);
    }
  }

  // Rolling restart under load.
  {
    const RollingPoint p = run_rolling(smoke);
    ++total_points;
    std::printf("\n%-12s %12s %10s %14s %8s %8s\n", "rolling", "goodput Gb/s", "dip %",
                "avg rejoin us", "ok", "failed");
    std::printf("%-12s %12.2f %10.1f %14.1f %8llu %8llu\n", "", p.goodput_gbps, p.dip_pct,
                to_us(p.avg_rejoin), static_cast<unsigned long long>(p.completed),
                static_cast<unsigned long long>(p.failed));
    std::snprintf(csv, sizeof csv, "elasticity_rolling,%.3f,%.1f,%.1f,%llu,%llu", p.goodput_gbps,
                  p.dip_pct, to_us(p.avg_rejoin), static_cast<unsigned long long>(p.completed),
                  static_cast<unsigned long long>(p.failed));
    std::printf("CSV:%s\n", csv);
    report.add_csv(csv);
    report.add_metrics(p.metrics);
    if (p.completed == 0 || p.rejoins == 0) {
      std::fprintf(stderr, "FAIL: rolling restart completed %llu ops, %llu rejoins\n",
                   static_cast<unsigned long long>(p.completed),
                   static_cast<unsigned long long>(p.rejoins));
      return 1;
    }
  }

  report.finish(runner.threads(), total_points);
  if (!validate_report("BENCH_elasticity.json", {{"elasticity_rejoin,", 1},
                                                      {"elasticity_rebalance,", 1},
                                                      {"elasticity_rolling,", 1}})) return 1;
  return 0;
}
