// Tests of the handler-execution trace sink and its device integration.
#include <gtest/gtest.h>

#include <sstream>

#include <set>

#include "common/rng.hpp"
#include "obs/json.hpp"
#include "obs/span.hpp"
#include "pspin/trace.hpp"
#include "services/client.hpp"
#include "services/cluster.hpp"

namespace nadfs {
namespace {

using services::Client;
using services::Cluster;
using services::ClusterConfig;
using services::FilePolicy;

TEST(TraceSink, RecordsAndAggregates) {
  pspin::TraceSink sink;
  sink.record({1, 0, 3, spin::HandlerType::kHeader, 7, 0, 120, ns(100), ns(311)});
  sink.record({1, 0, 4, spin::HandlerType::kPayload, 7, 1, 55, ns(300), ns(392)});
  EXPECT_EQ(sink.size(), 2u);
  EXPECT_EQ(sink.busy_time(), ns(211) + ns(92));
  sink.clear();
  EXPECT_EQ(sink.size(), 0u);
}

TEST(TraceSink, ChromeJsonShape) {
  pspin::TraceSink sink;
  sink.record({2, 1, 5, spin::HandlerType::kCompletion, 9, 3, 66, us(1), us(2)});
  std::ostringstream out;
  sink.export_chrome_json(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"CH\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\":2"), std::string::npos);
  EXPECT_NE(json.find("\"tid\":1005"), std::string::npos);
  EXPECT_NE(json.find("\"instr\":66"), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(TraceSink, EmptyExportIsValid) {
  pspin::TraceSink sink;
  std::ostringstream out;
  sink.export_chrome_json(out);
  EXPECT_EQ(out.str(), "{\"traceEvents\":[]}");
}

TEST(TraceSink, DeviceIntegrationRecordsEveryHandler) {
  Cluster cluster;
  Client client(cluster, 0);
  pspin::TraceSink sink;
  const auto& layout = cluster.metadata().create("o", 64 * KiB, FilePolicy{});
  cluster.storage_by_node(layout.targets[0].node).pspin().set_trace(&sink);
  const auto cap = cluster.metadata().grant(client.client_id(), layout, auth::Right::kWrite);

  Rng rng(1);
  Bytes data(10000);
  for (auto& b : data) b = rng.next_byte();
  client.write(layout, cap, data, [](dfs::DfsError, TimePs) {});
  cluster.sim().run();

  // 10000 B -> 5 packets: 1 HH + 5 PH + 1 CH = 7 handler executions.
  ASSERT_EQ(sink.size(), 7u);
  unsigned hh = 0, ph = 0, ch = 0;
  for (const auto& r : sink.records()) {
    EXPECT_LT(r.start, r.end);
    EXPECT_LT(r.cluster, 4u);
    EXPECT_LT(r.hpu, 8u);
    switch (r.type) {
      case spin::HandlerType::kHeader: ++hh; break;
      case spin::HandlerType::kPayload: ++ph; break;
      case spin::HandlerType::kCompletion: ++ch; break;
    }
  }
  EXPECT_EQ(hh, 1u);
  EXPECT_EQ(ph, 5u);
  EXPECT_EQ(ch, 1u);
}

TEST(TraceSink, ExportParsesAsStrictJson) {
  pspin::TraceSink sink;
  sink.record({1, 0, 3, spin::HandlerType::kHeader, 7, 0, 120, ns(100), ns(311)});
  sink.record({1, 2, 4, spin::HandlerType::kPayload, 7, 1, 55, ns(300), ns(392)});
  std::ostringstream out;
  sink.export_chrome_json(out);
  std::string err;
  EXPECT_TRUE(obs::json_valid(out.str(), &err)) << err;
}

// ---------------------------------------------- cross-layer span tracer

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
  if constexpr (!obs::kObsEnabled) {
    GTEST_SKIP() << "span hooks compiled out (NADFS_OBS=OFF)";
  }
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

TEST(TraceSink, DetachedDeviceRecordsNothing) {
  Cluster cluster;
  Client client(cluster, 0);
  pspin::TraceSink sink;
  const auto& layout = cluster.metadata().create("o", 8 * KiB, FilePolicy{});
  auto& node = cluster.storage_by_node(layout.targets[0].node);
  node.pspin().set_trace(&sink);
  node.pspin().set_trace(nullptr);  // detach again
  const auto cap = cluster.metadata().grant(client.client_id(), layout, auth::Right::kWrite);
  client.write(layout, cap, Bytes(1024, 1), [](dfs::DfsError, TimePs) {});
  cluster.sim().run();
  EXPECT_EQ(sink.size(), 0u);
}

}  // namespace
}  // namespace nadfs
