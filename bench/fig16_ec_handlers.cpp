// Fig. 16 (left) + Table II — EC handler running times, instruction counts
// and IPC for RS(3,2) and RS(6,3) (data-node encode handlers), with the
// per-handler budgets. Fig. 16 (right) — HPUs needed to sustain 400/200
// Gbit/s as a function of average handler duration.
//
// The two handler-stat collections run as SweepRunner points; the HPU
// table is analytic (microseconds). Both sections' CSV rows land in
// BENCH_fig16_ec_handlers.json.
#include "analysis/models.hpp"
#include "bench/harness.hpp"

using namespace nadfs;
using namespace nadfs::bench;

namespace {

pspin::HandlerStats collect(std::uint8_t k, std::uint8_t m) {
  ClusterConfig cfg;
  cfg.storage_nodes = k + m;
  Cluster cluster(cfg);
  Client client(cluster, 0);
  FilePolicy policy;
  policy.resiliency = dfs::Resiliency::kErasureCoding;
  policy.ec_k = k;
  policy.ec_m = m;
  for (unsigned w = 0; w < 4; ++w) {
    const auto& layout =
        cluster.metadata().create("f" + std::to_string(w), 256 * KiB, policy);
    const auto cap = cluster.metadata().grant(client.client_id(), layout, auth::Right::kWrite);
    client.write(layout, cap, random_bytes(256 * KiB, w), [](dfs::DfsError, TimePs) {});
  }
  cluster.sim().run();
  // Data-node handlers: node 0 is the first data target of every file.
  return cluster.storage_node(0).pspin().stats();
}

struct Row {
  unsigned k = 0, m = 0;
  pspin::HandlerStats stats;
};

}  // namespace

int main() {
  print_header("EC handler statistics and HPU requirements",
               "Fig. 16 and Table II of the paper");

  analysis::HpuBudgetModel budget;
  std::printf("per-handler budget with 32 HPUs, 2 KiB packets: %s @400G, %s @200G\n\n",
              format_time(budget.handler_budget(Bandwidth::from_gbps(400.0), 32)).c_str(),
              format_time(budget.handler_budget(Bandwidth::from_gbps(200.0), 32)).c_str());

  SweepReport report("fig16_ec_handlers");
  SweepRunner runner;
  std::vector<std::function<Row()>> points;
  for (const auto& [k, m] : {std::pair<unsigned, unsigned>{3, 2}, {6, 3}}) {
    points.push_back([k = k, m = m] {
      return Row{k, m, collect(static_cast<std::uint8_t>(k), static_cast<std::uint8_t>(m))};
    });
  }
  const auto rows = runner.run(points);
  std::size_t csv_rows = 0;

  std::printf("%-10s %22s %22s %22s\n", "", "HH ns/instr/IPC", "PH ns/instr/IPC",
              "CH ns/instr/IPC");
  char csv[192];
  for (const Row& r : rows) {
    const auto& stats = r.stats;
    std::printf("RS(%u,%u)  ", r.k, r.m);
    for (const auto type : {spin::HandlerType::kHeader, spin::HandlerType::kPayload,
                            spin::HandlerType::kCompletion}) {
      std::printf("  %7.0f/%7.0f/%4.2f", stats.duration_ns(type).mean(),
                  stats.instructions(type).mean(), stats.ipc(type));
    }
    std::printf("\n");
    std::snprintf(csv, sizeof csv, "table2,rs%u%u,%.0f,%.0f,%.0f,%.0f,%.0f,%.0f,%.2f,%.2f,%.2f",
                  r.k, r.m, stats.duration_ns(spin::HandlerType::kHeader).mean(),
                  stats.duration_ns(spin::HandlerType::kPayload).mean(),
                  stats.duration_ns(spin::HandlerType::kCompletion).mean(),
                  stats.instructions(spin::HandlerType::kHeader).mean(),
                  stats.instructions(spin::HandlerType::kPayload).mean(),
                  stats.instructions(spin::HandlerType::kCompletion).mean(),
                  stats.ipc(spin::HandlerType::kHeader), stats.ipc(spin::HandlerType::kPayload),
                  stats.ipc(spin::HandlerType::kCompletion));
    std::printf("CSV:%s\n", csv);
    report.add_csv(csv);
    ++csv_rows;
  }
  std::printf("\nPaper's Table II: RS(3,2) PH 16681 ns / 11672 instr / 0.70;\n"
              "                  RS(6,3) PH 23018 ns / 16028 instr / 0.70.\n");

  std::printf("\nHPUs needed to sustain line rate vs average handler duration\n");
  std::printf("%16s %10s %10s\n", "handler (ns)", "@400G", "@200G");
  for (const TimePs dur :
       {ns(100), ns(500), ns(1310), ns(5000), ns(16681), ns(23018), ns(40000)}) {
    const unsigned h400 = budget.hpus_needed(Bandwidth::from_gbps(400.0), dur);
    const unsigned h200 = budget.hpus_needed(Bandwidth::from_gbps(200.0), dur);
    std::printf("%16s %10u %10u\n", format_time(dur).c_str(), h400, h200);
    std::snprintf(csv, sizeof csv, "fig16_hpus,%.0f,%u,%u", to_ns(dur), h400, h200);
    std::printf("CSV:%s\n", csv);
    report.add_csv(csv);
    ++csv_rows;
  }
  std::printf("\nPaper's check: RS(6,3) handlers (~23 us) need ~512 HPUs for 400 Gbit/s;\n"
              "PsPIN's modular cluster design scales out to that configuration.\n");
  report.finish(runner.threads(), csv_rows);
  return 0;
}
