// Handler-timeline observability: attach a span tracer to the cluster, run
// a replicated write and an erasure-coded write, export a Chrome trace (load
// the JSON in chrome://tracing or ui.perfetto.dev), and print a per-node
// summary of the HPU handler runs.
//
//   $ ./build/examples/handler_timeline [output.json]
#include <cstdio>
#include <fstream>
#include <map>
#include <string>

#include "common/rng.hpp"
#include "obs/span.hpp"
#include "services/client.hpp"
#include "services/cluster.hpp"

using namespace nadfs;
using namespace nadfs::services;

int main(int argc, char** argv) {
  const char* out_path = argc > 1 ? argv[1] : "/tmp/nadfs_trace.json";

  ClusterConfig cfg;
  cfg.storage_nodes = 5;
  Cluster cluster(cfg);
  Client client(cluster, 0);

  obs::SpanTracer trace;
  cluster.set_tracer(&trace);

  // Workload: one 128 KiB ring-replicated write and one 128 KiB RS(3,2)
  // erasure-coded write.
  Rng rng(1);
  Bytes data(128 * KiB);
  for (auto& b : data) b = rng.next_byte();

  FilePolicy repl;
  repl.resiliency = dfs::Resiliency::kReplication;
  repl.strategy = dfs::ReplStrategy::kRing;
  repl.repl_k = 3;
  const auto& obj_r = cluster.metadata().create("replicated", 128 * KiB, repl);
  const auto cap_r = cluster.metadata().grant(client.client_id(), obj_r, auth::Right::kWrite);
  client.write(obj_r, cap_r, data, [](dfs::DfsError, TimePs) {});

  FilePolicy ec;
  ec.resiliency = dfs::Resiliency::kErasureCoding;
  ec.ec_k = 3;
  ec.ec_m = 2;
  const auto& obj_e = cluster.metadata().create("coded", 128 * KiB, ec);
  const auto cap_e = cluster.metadata().grant(client.client_id(), obj_e, auth::Right::kWrite);
  client.write(obj_e, cap_e, data, [](dfs::DfsError, TimePs) {});

  const TimePs end = cluster.sim().run();

  // Summaries from the handler spans (the trace also holds every other
  // layer's spans).
  struct NodeSummary {
    TimePs busy = 0;
    std::size_t runs = 0;
  };
  std::map<std::uint32_t, NodeSummary> per_node;
  std::size_t runs = 0;
  for (const auto& s : trace.spans()) {
    if (std::string(s.cat) != "handler") continue;
    per_node[s.node].busy += s.end_ps - s.start_ps;
    per_node[s.node].runs++;
    ++runs;
  }
  std::printf("simulated %s, %zu handler executions recorded (%zu spans in all)\n",
              format_time(end).c_str(), runs, trace.size());
  std::printf("%8s %10s %14s %16s\n", "node", "handlers", "HPU busy", "avg utilization*");
  for (const auto& [node, s] : per_node) {
    // 32 HPUs per device; utilization over the whole run window.
    const double util =
        static_cast<double>(s.busy) / (32.0 * static_cast<double>(end)) * 100.0;
    std::printf("%8u %10zu %14s %14.2f %%\n", node, s.runs, format_time(s.busy).c_str(), util);
  }
  std::printf("(* of 32 HPUs over the full run)\n");

  std::ofstream out(out_path);
  trace.export_chrome_json(out);
  std::printf("\nChrome trace written to %s — open in chrome://tracing or\n"
              "https://ui.perfetto.dev to see the per-HPU timeline.\n",
              out_path);
  return 0;
}
