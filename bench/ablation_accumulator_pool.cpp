// Ablation: parity-accumulator pool size vs host-fallback rate
// (paper §VI-B.3, DESIGN.md §5).
//
// Parity nodes aggregate per-packet accumulator buffers allocated from a
// fixed on-NIC pool; when the pool is empty the aggregation falls back to
// the host. With interleaved client transmission, accumulator lifetimes are
// short (contributions from the k data nodes arrive close together), so a
// modest pool suffices; a starved pool pushes work back to the CPU.
//
// Each pool size is an independent sweep point on the SweepRunner pool;
// rows are mirrored into BENCH_ablation_accumulator_pool.json.
#include "bench/harness.hpp"

using namespace nadfs;
using namespace nadfs::bench;

namespace {

struct Point {
  std::size_t pool = 0;
  std::uint64_t fallbacks = 0;
  std::uint64_t on_nic = 0;
  double latency_ns = 0;
  bool ok = false;
};

Point run(std::size_t pool_bytes) {
  ClusterConfig cfg;
  cfg.storage_nodes = 5;
  cfg.dfs.accumulator_pool_bytes = pool_bytes;
  Cluster cluster(cfg);
  Client client(cluster, 0);
  FilePolicy policy;
  policy.resiliency = dfs::Resiliency::kErasureCoding;
  policy.ec_k = 3;
  policy.ec_m = 2;

  Point p;
  p.pool = pool_bytes;
  // A burst of 8 concurrent 128 KiB EC writes.
  unsigned done = 0;
  for (int w = 0; w < 8; ++w) {
    const auto& layout = cluster.metadata().create("f" + std::to_string(w), 128 * KiB, policy);
    const auto cap = cluster.metadata().grant(client.client_id(), layout, auth::Right::kWrite);
    client.write(layout, cap, random_bytes(128 * KiB, w), [&](dfs::DfsError err, TimePs at) {
      done += err == dfs::DfsError::kOk;
      p.latency_ns = std::max(p.latency_ns, to_ns(at));
    });
  }
  cluster.sim().run();
  p.ok = done == 8;
  for (std::size_t n = 0; n < cluster.storage_node_count(); ++n) {
    auto* st = cluster.storage_node(n).dfs_state();
    p.fallbacks += st->agg_fallbacks;
    p.on_nic += st->pool.high_water();
  }
  return p;
}

}  // namespace

int main() {
  print_header("Ablation: accumulator pool size vs CPU-fallback aggregation",
               "paper Section VI-B.3");

  const std::vector<std::size_t> pools = {std::size_t{0}, 8 * std::size_t{2048},
                                          32 * std::size_t{2048}, 128 * std::size_t{2048},
                                          1 * MiB};

  SweepReport report("ablation_accumulator_pool");
  SweepRunner runner;
  std::vector<std::function<Point()>> points;
  points.reserve(pools.size());
  for (const std::size_t pool : pools) {
    points.push_back([pool] { return run(pool); });
  }
  const auto rows = runner.run(points);

  std::printf("%12s %12s %14s %16s %8s\n", "pool", "buffers", "fallback seqs",
              "burst makespan", "correct");
  char csv[128];
  for (const Point& p : rows) {
    std::printf("%12s %12zu %14llu %13.0f ns %8s\n", format_size(p.pool).c_str(), p.pool / 2048,
                static_cast<unsigned long long>(p.fallbacks), p.latency_ns,
                p.ok ? "yes" : "NO");
    std::snprintf(csv, sizeof csv, "ablation_pool,%zu,%llu,%.0f,%d", p.pool,
                  static_cast<unsigned long long>(p.fallbacks), p.latency_ns, p.ok ? 1 : 0);
    std::printf("CSV:%s\n", csv);
    report.add_csv(csv);
  }
  std::printf("\nReading: parity content stays correct in every configuration (the\n"
              "fallback path aggregates on the host); the pool only determines how\n"
              "much aggregation stays on the NIC.\n");
  report.finish(runner.threads(), rows.size());
  return 0;
}
