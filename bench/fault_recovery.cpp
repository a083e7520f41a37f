// Fault recovery: time-to-detect and time-to-rebuild after a storage-node
// kill, swept over object size (hence chunk size) and RS(k, m).
//
// Each point builds a fresh cluster, writes an erasure-coded object, kills
// one parity node, and lets the heartbeat failure detector (§VI-B
// "monitoring service") notice and drive RecoveryManager::rebuild via
// auto_rebuild — the same detector-driven pipeline the chaos tests
// exercise, here measured instead of asserted. Detection time is dominated
// by the probe cadence (probe_interval * fail_after); rebuild time scales
// with chunk size (k chunk reads + decode + spare write).
//
// Rows are mirrored into BENCH_fault_recovery.json.
#include "bench/harness.hpp"
#include "services/failure_detector.hpp"

using namespace nadfs;
using namespace nadfs::bench;

namespace {

struct Row {
  unsigned k = 0, m = 0;
  std::size_t size = 0;
  std::size_t chunk = 0;
  bool ok = false;
  double detect_ns = 0.0;   // kill -> detector marks the node failed
  double rebuild_ns = 0.0;  // detection -> repaired layout published
};

Row run_point(unsigned k, unsigned m, std::size_t size) {
  Row r;
  r.k = k;
  r.m = m;
  r.size = size;

  services::ClusterConfig cfg;
  cfg.storage_nodes = k + m + 2;  // room for a spare after the kill
  cfg.clients = 2;
  services::Cluster cluster(cfg);
  services::Client writer(cluster, 0);
  services::Client prober(cluster, 1);
  services::RecoveryManager recovery(cluster, writer);

  FilePolicy policy;
  policy.resiliency = dfs::Resiliency::kErasureCoding;
  policy.ec_k = static_cast<std::uint8_t>(k);
  policy.ec_m = static_cast<std::uint8_t>(m);
  const auto& layout = cluster.metadata().create("bench", size, policy);
  const auto cap = cluster.metadata().grant(writer.client_id(), layout, auth::Right::kWrite);
  r.chunk = layout.chunk_len;

  bool wrote = false;
  writer.write(layout, cap, random_bytes(size, 42), [&](dfs::DfsError err, TimePs) {
    wrote = err == dfs::DfsError::kOk;
  });
  cluster.sim().run();
  if (!wrote) return r;

  const net::NodeId victim = layout.parity[0].node;
  const TimePs kill_at = cluster.sim().now() + us(1);
  cluster.network().faults().kill_node(victim, kill_at);

  writer.set_timeout(us(50));
  services::FailureDetector detector(cluster, prober);
  TimePs rebuilt_at = 0;
  bool rebuilt = false;
  detector.auto_rebuild(recovery, "bench",
                        [&](std::optional<services::FileLayout> l, TimePs at) {
                          rebuilt = l.has_value();
                          rebuilt_at = at;
                        });
  detector.start();
  cluster.sim().run_until(kill_at + ms(10));
  detector.stop();
  cluster.sim().run();

  if (!rebuilt || detector.failed_at(victim) == 0) return r;
  r.ok = true;
  r.detect_ns = to_ns(detector.failed_at(victim) - kill_at);
  r.rebuild_ns = to_ns(rebuilt_at - detector.failed_at(victim));
  return r;
}

}  // namespace

int main() {
  print_header("Fault recovery: time-to-detect / time-to-rebuild vs size and RS(k, m)",
               "the §VI-B monitoring-plus-recovery path, measured");

  struct Scheme {
    unsigned k, m;
  };
  const std::vector<Scheme> schemes = {{3, 2}, {4, 2}, {6, 3}};
  const std::vector<std::size_t> sizes = {48 * KiB, 192 * KiB, 768 * KiB};

  SweepReport report("fault_recovery");
  SweepRunner runner;
  std::vector<std::function<Row()>> points;
  points.reserve(schemes.size() * sizes.size());
  for (const auto& s : schemes) {
    for (const std::size_t size : sizes) {
      points.push_back([s, size] { return run_point(s.k, s.m, size); });
    }
  }
  const auto rows = runner.run(points);

  std::printf("%8s %10s %10s %12s %14s\n", "RS(k,m)", "size", "chunk", "detect", "rebuild");
  char csv[128];
  for (const Row& r : rows) {
    if (!r.ok) {
      std::printf("RS(%u,%u) %10s: FAILED\n", r.k, r.m, size_label(r.size).c_str());
      continue;
    }
    std::printf("RS(%u,%u) %10s %10s %10.0fns %12.0fns\n", r.k, r.m,
                size_label(r.size).c_str(), size_label(r.chunk).c_str(), r.detect_ns,
                r.rebuild_ns);
    std::snprintf(csv, sizeof csv, "fault_recovery,%u,%u,%zu,%zu,%.0f,%.0f", r.k, r.m, r.size,
                  r.chunk, r.detect_ns, r.rebuild_ns);
    std::printf("CSV:%s\n", csv);
    report.add_csv(csv);
  }
  report.finish(runner.threads(), rows.size());
  return 0;
}
