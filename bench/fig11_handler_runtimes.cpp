// Fig. 11 + Table I — Handler running times (HH/PH/CH) for writes without
// replication (k=1), with sPIN-Ring (k=4), and with sPIN-PBT (k=4), under
// saturating load, with the per-handler cycle budgets for 400 and
// 200 Gbit/s line rates; plus instruction counts and achieved IPC.
#include "analysis/models.hpp"
#include "bench/harness.hpp"

using namespace nadfs;
using namespace nadfs::bench;

namespace {

FilePolicy policy_for(dfs::ReplStrategy strategy, std::uint8_t k) {
  FilePolicy p;
  if (k <= 1) return p;
  p.resiliency = dfs::Resiliency::kReplication;
  p.strategy = strategy;
  p.repl_k = k;
  return p;
}

struct Row {
  const char* label;
  pspin::HandlerStats stats;
};

pspin::HandlerStats collect(dfs::ReplStrategy strategy, std::uint8_t k) {
  ClusterConfig cfg;
  cfg.storage_nodes = std::max<unsigned>(k, 1);
  cfg.clients = 4;
  Cluster cluster(cfg);
  std::vector<std::unique_ptr<Client>> clients;
  for (unsigned c = 0; c < 4; ++c) clients.push_back(std::make_unique<Client>(cluster, c));
  // Saturating 512 KiB writes, all with node 0 as primary.
  const auto policy = policy_for(strategy, k);
  for (unsigned c = 0; c < 4; ++c) {
    for (unsigned w = 0; w < 4; ++w) {
      const auto& layout = cluster.metadata().create(
          "f" + std::to_string(c) + "_" + std::to_string(w), 512 * KiB, policy);
      const auto cap =
          cluster.metadata().grant(clients[c]->client_id(), layout, auth::Right::kWrite);
      clients[c]->write(layout, cap, random_bytes(512 * KiB, c * 10 + w),
                        [](dfs::DfsError, TimePs) {});
    }
  }
  cluster.sim().run();
  return cluster.storage_node(0).pspin().stats();
}

void print_stats(const char* label, const pspin::HandlerStats& stats) {
  std::printf("%-12s", label);
  for (const auto type :
       {spin::HandlerType::kHeader, spin::HandlerType::kPayload, spin::HandlerType::kCompletion}) {
    const auto& d = stats.duration_ns(type);
    std::printf("  %6.0f/%6.0f/%6.0f", d.min(), d.median(), d.max());
  }
  std::printf("\n");
  std::printf("%-12s", "  instr/IPC");
  for (const auto type :
       {spin::HandlerType::kHeader, spin::HandlerType::kPayload, spin::HandlerType::kCompletion}) {
    std::printf("  %9.0f / %4.2f     ", stats.instructions(type).mean(), stats.ipc(type));
  }
  std::printf("\n");
}

}  // namespace

int main() {
  print_header("Handler running times and statistics under replication",
               "Fig. 11 and Table I of the paper");

  analysis::HpuBudgetModel budget;
  std::printf("per-handler budget with 32 HPUs, 2 KiB packets: %s @400G, %s @200G\n\n",
              format_time(budget.handler_budget(Bandwidth::from_gbps(400.0), 32)).c_str(),
              format_time(budget.handler_budget(Bandwidth::from_gbps(200.0), 32)).c_str());

  std::printf("%-12s  %-22s %-22s %-22s\n", "", "HH min/med/max (ns)", "PH min/med/max (ns)",
              "CH min/med/max (ns)");

  SweepReport report("fig11_handler_runtimes");
  SweepRunner runner;
  const std::vector<std::pair<const char*, std::function<pspin::HandlerStats()>>> configs = {
      {"k=1", [] { return collect(dfs::ReplStrategy::kRing, 1); }},
      {"k=4, Ring", [] { return collect(dfs::ReplStrategy::kRing, 4); }},
      {"k=4, PBT", [] { return collect(dfs::ReplStrategy::kPbt, 4); }},
  };
  std::vector<std::function<Row()>> points;
  for (const auto& [label, fn] : configs) {
    points.push_back([label = label, fn = fn] { return Row{label, fn()}; });
  }
  const auto rows = runner.run(points);
  char csv[192];
  for (const auto& row : rows) {
    print_stats(row.label, row.stats);
    std::snprintf(csv, sizeof csv, "table1,%s,%.0f,%.0f,%.0f,%.0f,%.0f,%.0f,%.2f,%.2f,%.2f",
                  row.label, row.stats.duration_ns(spin::HandlerType::kHeader).mean(),
                  row.stats.duration_ns(spin::HandlerType::kPayload).mean(),
                  row.stats.duration_ns(spin::HandlerType::kCompletion).mean(),
                  row.stats.instructions(spin::HandlerType::kHeader).mean(),
                  row.stats.instructions(spin::HandlerType::kPayload).mean(),
                  row.stats.instructions(spin::HandlerType::kCompletion).mean(),
                  row.stats.ipc(spin::HandlerType::kHeader),
                  row.stats.ipc(spin::HandlerType::kPayload),
                  row.stats.ipc(spin::HandlerType::kCompletion));
    std::printf("CSV:%s\n", csv);
    report.add_csv(csv);
  }

  std::printf("\nPaper's Table I for comparison (duration ns / instructions / IPC):\n"
              "  k=1:       HH 211/120/0.57  PH   92/ 55/0.60  CH  107/66/0.62\n"
              "  k=4, Ring: HH 212/120/0.57  PH  193/105/0.54  CH  146/65/0.44\n"
              "  k=4, PBT:  HH 214/120/0.56  PH 2106/130/0.06  CH 1487/82/0.06\n"
              "Key effect: PBT payload handlers collapse to IPC ~0.06 because each\n"
              "ingress packet needs two egress packets and handlers stall on the\n"
              "egress command queue; ring handlers stay under the 400G budget.\n");
  report.finish(runner.threads(), rows.size());
  return 0;
}
