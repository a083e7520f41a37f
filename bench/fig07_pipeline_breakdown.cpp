// Fig. 7 — Packet processing overheads in PsPIN for a 2 KiB packet:
// packet-buffer DMA, hardware scheduling, L1 copy, HPU dispatch, and the
// request-validation handler. Printed from the device configuration and
// cross-checked against a measured single-packet write on the simulator.
#include "bench/harness.hpp"
#include "dfs/costs.hpp"
#include "pspin/device.hpp"

using namespace nadfs;
using namespace nadfs::bench;

int main() {
  print_header("PsPIN per-packet pipeline breakdown (2 KiB packet)", "Fig. 7 of the paper");

  pspin::PsPinConfig cfg;
  const std::size_t pkt = 2048;
  const double buf_cycles = static_cast<double>(pkt) / cfg.pkt_buffer_bytes_per_cycle;
  const double l1_cycles = static_cast<double>(pkt) / cfg.l1_copy_bytes_per_cycle;

  std::printf("%-34s %10s\n", "stage", "cycles");
  std::printf("%-34s %10.0f   (paper: 32)\n", "copy into packet buffer", buf_cycles);
  std::printf("%-34s %10u   (paper: 2)\n", "hardware scheduler", cfg.sched_cycles);
  std::printf("%-34s %10.0f   (paper: 43)\n", "copy into cluster L1", l1_cycles);
  std::printf("%-34s %10.0f   (paper: 1 ns)\n", "schedule to idle HPU",
              static_cast<double>(cfg.hpu_dispatch) / 1e3);
  std::printf("%-34s %10u   (paper: 200)\n", "DFS request-validation handler",
              dfs::cost::kHhCycles);
  SweepReport report("fig07_pipeline_breakdown");
  char csv[96];
  std::snprintf(csv, sizeof csv, "fig07,%.0f,%u,%.0f,%.0f,%u", buf_cycles, cfg.sched_cycles,
                l1_cycles, static_cast<double>(cfg.hpu_dispatch) / 1e3, dfs::cost::kHhCycles);
  std::printf("CSV:%s\n", csv);
  report.add_csv(csv);

  // Cross-check: measured on the full stack. A single-packet validated
  // write's HH completes one pipeline + one HH after arrival.
  ClusterConfig ccfg;
  ccfg.storage_nodes = 1;
  Cluster cluster(ccfg);
  Client client(cluster, 0);
  const auto& layout = cluster.metadata().create("x", 4 * KiB, FilePolicy{});
  const auto cap = cluster.metadata().grant(client.client_id(), layout, auth::Right::kWrite);
  protocols::SpinWrite spin;
  spin.write(client, layout, cap, random_bytes(1500, 1), [](dfs::DfsError, TimePs) {});
  cluster.sim().run();
  const auto& stats = cluster.storage_node(0).pspin().stats();
  std::printf("\nmeasured HH duration on the full stack: %.0f ns (config sum: %u)\n",
              stats.duration_ns(spin::HandlerType::kHeader).mean(), dfs::cost::kHhCycles);
  std::snprintf(csv, sizeof csv, "fig07_measured_hh,%.0f",
                stats.duration_ns(spin::HandlerType::kHeader).mean());
  report.add_csv(csv);
  report.finish(/*threads=*/1, 2);
  return 0;
}
