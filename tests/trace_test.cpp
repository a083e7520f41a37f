// Tests of the cross-layer span tracer and its device integration.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

#include "common/rng.hpp"
#include "obs/json.hpp"
#include "obs/span.hpp"
#include "services/client.hpp"
#include "services/cluster.hpp"

namespace nadfs {
namespace {

using services::Client;
using services::Cluster;
using services::ClusterConfig;
using services::FilePolicy;

TEST(SpanTracer, DeviceIntegrationRecordsEveryHandler) {
  Cluster cluster;
  Client client(cluster, 0);
  obs::SpanTracer tracer;
  const auto& layout = cluster.metadata().create("o", 64 * KiB, FilePolicy{});
  auto& node = cluster.storage_by_node(layout.targets[0].node);
  node.pspin().set_span_tracer(&tracer);
  const auto cap = cluster.metadata().grant(client.client_id(), layout, auth::Right::kWrite);

  Rng rng(1);
  Bytes data(10000);
  for (auto& b : data) b = rng.next_byte();
  client.write(layout, cap, data, [](dfs::DfsError, TimePs) {});
  cluster.sim().run();

  // 10000 B -> 5 packets: 1 HH + 5 PH + 1 CH = 7 handler executions, each
  // on lane cluster*1000 + hpu of the target's device.
  std::map<std::string, unsigned> runs;
  for (const auto& s : tracer.spans()) {
    if (std::string(s.cat) != "handler") continue;
    ++runs[s.name];
    EXPECT_EQ(s.node, node.id());
    EXPECT_LT(s.start_ps, s.end_ps);
    EXPECT_LT(s.lane / 1000, 4u);
    EXPECT_LT(s.lane % 1000, 8u);
  }
  EXPECT_EQ(runs, (std::map<std::string, unsigned>{{"CH", 1}, {"HH", 1}, {"PH", 5}}));
}

/// Schema check for the Chrome trace-event export: a strict-JSON object
/// with displayTimeUnit + traceEvents; "M" metadata events name processes
/// and threads, "X" complete events carry ts/dur and the correlation args.
void validate_chrome_trace(const std::string& json) {
  std::string err;
  const auto doc = obs::json_parse(json, &err);
  ASSERT_TRUE(doc.has_value()) << err;
  ASSERT_TRUE(doc->is_object());
  ASSERT_NE(doc->find("displayTimeUnit"), nullptr);
  EXPECT_EQ(doc->find("displayTimeUnit")->str, "ns");
  const auto* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  unsigned metadata = 0, complete = 0;
  for (const auto& ev : events->arr) {
    ASSERT_TRUE(ev.is_object());
    const auto* ph = ev.find("ph");
    ASSERT_NE(ph, nullptr);
    ASSERT_NE(ev.find("pid"), nullptr);
    ASSERT_NE(ev.find("tid"), nullptr);
    if (ph->str == "M") {
      ++metadata;
      ASSERT_NE(ev.find("args"), nullptr);
      EXPECT_NE(ev.find("args")->find("name"), nullptr);
    } else {
      ASSERT_EQ(ph->str, "X");
      ++complete;
      ASSERT_NE(ev.find("ts"), nullptr);
      ASSERT_NE(ev.find("dur"), nullptr);
      ASSERT_NE(ev.find("name"), nullptr);
      const auto* args = ev.find("args");
      ASSERT_NE(args, nullptr);
      EXPECT_NE(args->find("corr"), nullptr);
    }
  }
  EXPECT_GT(metadata, 0u);
  EXPECT_GT(complete, 0u);
}

TEST(SpanTracer, ChromeExportIsSchemaValid) {
  obs::SpanTracer tracer;
  tracer.set_node_label(3, "storage0");
  tracer.record({3, obs::kLaneNicDma, "dma", "post_write", 42, 9, 0, 4096, ns(10), ns(50)});
  tracer.record({3, 2005, "handler", "PH", 42, 9, 1, 55, ns(60), ns(90)});
  tracer.record({3, obs::kLaneAck, "net", "ack", 42, 9, 0, 0, ns(95), ns(95)});  // instant
  validate_chrome_trace(tracer.to_chrome_json());
  EXPECT_EQ(tracer.spans_for(42).size(), 3u);
  EXPECT_EQ(tracer.spans_for(7).size(), 0u);
  EXPECT_EQ(obs::SpanTracer::lane_name(obs::kLaneUplink), "uplink");
  EXPECT_EQ(obs::SpanTracer::lane_name(2005), "hpu c2/5");
}

TEST(SpanTracer, WholeSystemWriteCorrelatesAcrossLayers) {
  // One replicated write, tracer attached cluster-wide: the client op span
  // and every NIC/network/HPU/ack span it caused share the op's greq as
  // their correlation id — the whole Fig. 2 path is one query away.
  ClusterConfig cfg;
  cfg.storage_nodes = 3;
  Cluster cluster(cfg);
  obs::SpanTracer tracer;
  cluster.set_tracer(&tracer);
  Client client(cluster, 0);

  FilePolicy policy;
  policy.resiliency = dfs::Resiliency::kReplication;
  policy.repl_k = 3;
  const auto& layout = cluster.metadata().create("o", 16 * KiB, policy);
  const auto cap = cluster.metadata().grant(client.client_id(), layout, auth::Right::kWrite);
  bool ok = false;
  client.write(layout, cap, Bytes(10000, 5), [&](dfs::DfsError err, TimePs) {
    ok = err == dfs::DfsError::kOk;
  });
  cluster.sim().run();
  ASSERT_TRUE(ok);

  // The op span exists and carries the greq every other layer tagged.
  std::uint64_t greq = 0;
  for (const auto& s : tracer.spans()) {
    if (s.lane == obs::kLaneClientOp) greq = s.corr;
  }
  ASSERT_NE(greq, 0u);
  const auto chain = tracer.spans_for(greq);
  std::set<std::uint32_t> lanes;
  std::set<std::uint32_t> handler_nodes;
  for (const auto& s : chain) {
    lanes.insert(s.lane);
    if (s.lane < 9000) handler_nodes.insert(s.node);
    EXPECT_LE(s.start_ps, s.end_ps);
  }
  EXPECT_TRUE(lanes.count(obs::kLaneClientOp));
  EXPECT_TRUE(lanes.count(obs::kLaneNicDma));   // client NIC DMA
  EXPECT_TRUE(lanes.count(obs::kLaneUplink));   // node -> switch
  EXPECT_TRUE(lanes.count(obs::kLaneDownlink)); // switch -> node
  EXPECT_TRUE(lanes.count(obs::kLaneEgress));   // handler egress commands
  EXPECT_TRUE(lanes.count(obs::kLaneAck));      // DFS acks back at the client
  // Ring replication k=3: handlers ran on all three storage nodes.
  EXPECT_EQ(handler_nodes.size(), 3u);
  validate_chrome_trace(tracer.to_chrome_json());

  // Detaching stops recording.
  cluster.set_tracer(nullptr);
  const auto before = tracer.size();
  client.write(layout, cap, Bytes(1000, 6), [](dfs::DfsError, TimePs) {});
  cluster.sim().run();
  EXPECT_EQ(tracer.size(), before);
}

}  // namespace
}  // namespace nadfs
