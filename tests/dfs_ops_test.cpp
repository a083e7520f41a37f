// DFS op-surface compliance suite.
//
// Exercises the full name-based op surface (create/delete/stat/append/list)
// and the extent primitives (trim/stat_extent) against the typed wire-error
// contract from dfs/wire.hpp: every failure carries a DfsError, never an
// ambiguous sentinel. The same assertions run against both data-plane twins
// where they differ — sPIN-offloaded handlers and the host-CPU service.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <optional>

#include "obs/span.hpp"
#include "services/client.hpp"
#include "services/host_dfs.hpp"

namespace nadfs {
namespace {

using dfs::DfsError;
using services::Client;
using services::Cluster;
using services::ClusterConfig;
using services::FilePolicy;
using services::OpCb;
using services::ReadCb;

Bytes fill(std::size_t n, std::uint8_t v) { return Bytes(n, v); }

// ------------------------------------------------------------- create

TEST(DfsOps, CreateThenCreateReportsExists) {
  Cluster cluster;
  Client client(cluster, 0);
  EXPECT_EQ(client.create("a/obj", 4 * KiB, {}), DfsError::kOk);
  EXPECT_EQ(client.create("a/obj", 4 * KiB, {}), DfsError::kExists);
  // The collision did not clobber the original entry.
  EXPECT_NE(cluster.metadata().lookup("a/obj"), nullptr);
}

TEST(DfsOps, CreateRejectsBadPolicyAsBadArg) {
  Cluster cluster;
  Client client(cluster, 0);
  FilePolicy striped_repl;  // striping composes only with plain layouts
  striped_repl.resiliency = dfs::Resiliency::kReplication;
  striped_repl.repl_k = 2;
  striped_repl.stripe_count = 4;
  EXPECT_EQ(client.create("bad", 64 * KiB, striped_repl), DfsError::kBadArg);
  EXPECT_EQ(cluster.metadata().lookup("bad"), nullptr);
  // A rejected create leaves the name free.
  EXPECT_EQ(client.create("bad", 64 * KiB, {}), DfsError::kOk);
}

TEST(DfsOps, ListIsSortedAndPrefixFiltered) {
  Cluster cluster;
  Client client(cluster, 0);
  for (const char* name : {"tenant/b", "tenant/a", "other/z", "tenant/c"}) {
    ASSERT_EQ(client.create(name, 4 * KiB, {}), DfsError::kOk);
  }
  const auto under = client.list("tenant/");
  EXPECT_EQ(under, (std::vector<std::string>{"tenant/a", "tenant/b", "tenant/c"}));
  const auto all = client.list("");
  EXPECT_EQ(all.size(), 4u);
  EXPECT_TRUE(std::is_sorted(all.begin(), all.end()));
}

// ------------------------------------------------------------- stat/append

TEST(DfsOps, StatUnknownNameDoesNotExist) {
  Cluster cluster;
  Client client(cluster, 0);
  const auto info = client.stat("ghost");
  EXPECT_FALSE(info.exists);
  EXPECT_EQ(info.length, 0u);
}

TEST(DfsOps, StatReflectsLengthAfterAppend) {
  Cluster cluster;
  Client client(cluster, 0);
  ASSERT_EQ(client.create("f", 64 * KiB, {}), DfsError::kOk);
  const auto& layout = *cluster.metadata().lookup("f");
  const auto cap = cluster.metadata().grant(client.client_id(), layout, auth::Right::kReadWrite);

  EXPECT_EQ(client.stat("f").length, 0u);
  DfsError err = DfsError::kTimeout;
  client.append("f", cap, fill(1000, 0x11), OpCb([&](DfsError e, TimePs) { err = e; }));
  cluster.sim().run();
  EXPECT_EQ(err, DfsError::kOk);
  EXPECT_EQ(client.stat("f").length, 1000u);

  client.append("f", cap, fill(500, 0x22), OpCb([&](DfsError e, TimePs) { err = e; }));
  cluster.sim().run();
  EXPECT_EQ(err, DfsError::kOk);
  const auto info = client.stat("f");
  EXPECT_EQ(info.length, 1500u);
  EXPECT_EQ(info.size, 64 * KiB);  // capacity unchanged by appends
}

TEST(DfsOps, AppendToUnknownNameIsNotFound) {
  Cluster cluster;
  Client client(cluster, 0);
  ASSERT_EQ(client.create("real", 4 * KiB, {}), DfsError::kOk);
  const auto& layout = *cluster.metadata().lookup("real");
  const auto cap = cluster.metadata().grant(client.client_id(), layout, auth::Right::kReadWrite);
  DfsError err = DfsError::kOk;
  client.append("ghost", cap, fill(100, 1), OpCb([&](DfsError e, TimePs) { err = e; }));
  cluster.sim().run();
  EXPECT_EQ(err, DfsError::kNotFound);
}

TEST(DfsOps, AppendPastCapacityIsBadArg) {
  Cluster cluster;
  Client client(cluster, 0);
  ASSERT_EQ(client.create("f", 4096, {}), DfsError::kOk);
  const auto& layout = *cluster.metadata().lookup("f");
  const auto cap = cluster.metadata().grant(client.client_id(), layout, auth::Right::kReadWrite);

  DfsError err = DfsError::kTimeout;
  client.append("f", cap, fill(3000, 1), OpCb([&](DfsError e, TimePs) { err = e; }));
  cluster.sim().run();
  EXPECT_EQ(err, DfsError::kOk);
  client.append("f", cap, fill(3000, 2), OpCb([&](DfsError e, TimePs) { err = e; }));
  cluster.sim().run();
  EXPECT_EQ(err, DfsError::kBadArg);
  EXPECT_EQ(client.stat("f").length, 3000u);  // failed reserve did not advance the tail
}

TEST(DfsOps, AppendOnErasureCodedLayoutIsBadArg) {
  ClusterConfig cfg;
  cfg.storage_nodes = 6;
  Cluster cluster(cfg);
  Client client(cluster, 0);
  FilePolicy ec;
  ec.resiliency = dfs::Resiliency::kErasureCoding;
  ec.ec_k = 3;
  ec.ec_m = 2;
  ASSERT_EQ(client.create("ec", 48000, ec), DfsError::kOk);
  const auto& layout = *cluster.metadata().lookup("ec");
  const auto cap = cluster.metadata().grant(client.client_id(), layout, auth::Right::kReadWrite);
  DfsError err = DfsError::kOk;
  client.append("ec", cap, fill(100, 1), OpCb([&](DfsError e, TimePs) { err = e; }));
  cluster.sim().run();
  EXPECT_EQ(err, DfsError::kBadArg);  // EC objects are whole-object writes
}

TEST(DfsOps, ConcurrentAppendsReserveDisjointExtentsInIssueOrder) {
  ClusterConfig cfg;
  cfg.clients = 2;
  Cluster cluster(cfg);
  Client a(cluster, 0);
  Client b(cluster, 1);
  ASSERT_EQ(a.create("log", 64 * KiB, {}), DfsError::kOk);
  const auto& layout = *cluster.metadata().lookup("log");
  const auto cap_a = cluster.metadata().grant(a.client_id(), layout, auth::Right::kReadWrite);
  const auto cap_b = cluster.metadata().grant(b.client_id(), layout, auth::Right::kReadWrite);

  // Both appends are in flight before the simulator runs: the metadata
  // reservation (not wire arrival order) serializes them.
  const std::uint32_t len = 2048;
  DfsError err_a = DfsError::kTimeout, err_b = DfsError::kTimeout;
  a.append("log", cap_a, fill(len, 0xA1), OpCb([&](DfsError e, TimePs) { err_a = e; }));
  b.append("log", cap_b, fill(len, 0xB2), OpCb([&](DfsError e, TimePs) { err_b = e; }));
  cluster.sim().run();
  EXPECT_EQ(err_a, DfsError::kOk);
  EXPECT_EQ(err_b, DfsError::kOk);
  EXPECT_EQ(a.stat("log").length, 2 * len);

  // Neither append clobbered the other: the bytes sit at the reserved
  // offsets, in reservation order.
  Bytes back;
  a.read(layout, cap_a, 2 * len,
         ReadCb([&](DfsError e, Bytes d, TimePs) {
           EXPECT_EQ(e, DfsError::kOk);
           back = std::move(d);
         }));
  cluster.sim().run();
  ASSERT_EQ(back.size(), 2 * len);
  EXPECT_TRUE(std::all_of(back.begin(), back.begin() + len,
                          [](std::uint8_t v) { return v == 0xA1; }));
  EXPECT_TRUE(std::all_of(back.begin() + len, back.end(),
                          [](std::uint8_t v) { return v == 0xB2; }));
}

// ------------------------------------------------------------- delete

TEST(DfsOps, DeleteUnknownNameIsNotFound) {
  Cluster cluster;
  Client client(cluster, 0);
  ASSERT_EQ(client.create("real", 4 * KiB, {}), DfsError::kOk);
  const auto& layout = *cluster.metadata().lookup("real");
  const auto cap = cluster.metadata().grant(client.client_id(), layout, auth::Right::kReadWrite);
  DfsError err = DfsError::kOk;
  client.remove("ghost", cap, OpCb([&](DfsError e, TimePs) { err = e; }));
  cluster.sim().run();
  EXPECT_EQ(err, DfsError::kNotFound);
}

TEST(DfsOps, DeleteThenReadFailsTypedNotFound) {
  Cluster cluster;
  Client client(cluster, 0);
  ASSERT_EQ(client.create("f", 4 * KiB, {}), DfsError::kOk);
  const auto layout = *cluster.metadata().lookup("f");  // keep a copy past the remove
  const auto cap = cluster.metadata().grant(client.client_id(), layout, auth::Right::kReadWrite);

  bool wrote = false;
  client.write(layout, cap, fill(4 * KiB, 0x5A), OpCb([&](DfsError e, TimePs) {
                 wrote = (e == DfsError::kOk);
               }));
  cluster.sim().run();
  ASSERT_TRUE(wrote);

  DfsError rm = DfsError::kTimeout;
  client.remove("f", cap, OpCb([&](DfsError e, TimePs) { rm = e; }));
  cluster.sim().run();
  EXPECT_EQ(rm, DfsError::kOk);
  EXPECT_FALSE(client.stat("f").exists);

  // The storage extents are tombstoned: a read through the stale layout
  // fails with the typed error, not with a buffer that could pass for data.
  DfsError err = DfsError::kOk;
  bool done = false;
  client.read(layout, cap, 4 * KiB, ReadCb([&](DfsError e, Bytes d, TimePs) {
                done = true;
                err = e;
                EXPECT_TRUE(d.empty());
              }));
  cluster.sim().run();
  EXPECT_TRUE(done);
  EXPECT_EQ(err, DfsError::kNotFound);
}

TEST(DfsOps, DeleteFreesTheNameForRecreate) {
  Cluster cluster;
  Client client(cluster, 0);
  ASSERT_EQ(client.create("f", 4 * KiB, {}), DfsError::kOk);
  const auto& layout = *cluster.metadata().lookup("f");
  const auto cap = cluster.metadata().grant(client.client_id(), layout, auth::Right::kReadWrite);
  DfsError rm = DfsError::kTimeout;
  client.remove("f", cap, OpCb([&](DfsError e, TimePs) { rm = e; }));
  cluster.sim().run();
  ASSERT_EQ(rm, DfsError::kOk);
  EXPECT_EQ(client.create("f", 8 * KiB, {}), DfsError::kOk);
  EXPECT_EQ(client.stat("f").size, 8 * KiB);
}

// ------------------------------------------------------- typed-error plane

FilePolicy striped_policy() {
  FilePolicy p;
  p.stripe_count = 4;
  return p;
}

TEST(DfsOps, ZeroLengthReadIsTypedBadArgWithoutWireTraffic) {
  for (const FilePolicy& policy : {FilePolicy{}, striped_policy()}) {
    SCOPED_TRACE(policy.stripe_count);
    Cluster cluster;
    Client client(cluster, 0);
    ASSERT_EQ(client.create("f", 64 * KiB, policy), DfsError::kOk);
    const auto& layout = *cluster.metadata().lookup("f");
    const auto cap = cluster.metadata().grant(client.client_id(), layout, auth::Right::kRead);

    const auto events_before = cluster.sim().executed_events();
    std::optional<DfsError> err;
    client.read_at(layout, cap, 8 * KiB, 0, [&](DfsError e, Bytes, TimePs) { err = e; });
    ASSERT_TRUE(err.has_value());  // completes inline: nothing to wait for
    EXPECT_EQ(*err, DfsError::kBadArg);
    cluster.sim().run();
    EXPECT_EQ(cluster.sim().executed_events(), events_before);  // nothing hit the wire
  }
}

TEST(DfsOps, ZeroLengthStripedWriteCompletesOkAtOnce) {
  // The write spans no stripe unit: it completes kOk inline, like a fan-in
  // of zero sub-writes, instead of waiting for acks that never come.
  Cluster cluster;
  Client client(cluster, 0);
  ASSERT_EQ(client.create("f", 64 * KiB, striped_policy()), DfsError::kOk);
  const auto& layout = *cluster.metadata().lookup("f");
  ASSERT_TRUE(layout.striped());
  const auto cap = cluster.metadata().grant(client.client_id(), layout, auth::Right::kWrite);

  const auto events_before = cluster.sim().executed_events();
  std::optional<DfsError> err;
  TimePs at = std::numeric_limits<TimePs>::max();
  client.write_at(layout, cap, 8 * KiB, Bytes{}, [&](DfsError e, TimePs t) {
    err = e;
    at = t;
  });
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(*err, DfsError::kOk);
  EXPECT_EQ(at, cluster.sim().now());
  cluster.sim().run();
  EXPECT_EQ(cluster.sim().executed_events(), events_before);
}

TEST(DfsOps, DeniedWriteCarriesTypedDenied) {
  Cluster cluster;
  Client client(cluster, 0);
  ASSERT_EQ(client.create("f", 4 * KiB, {}), DfsError::kOk);
  const auto& layout = *cluster.metadata().lookup("f");
  const auto ro = cluster.metadata().grant(client.client_id(), layout, auth::Right::kRead);
  DfsError err = DfsError::kOk;
  client.write(layout, ro, fill(4 * KiB, 1), OpCb([&](DfsError e, TimePs) { err = e; }));
  cluster.sim().run();
  EXPECT_EQ(err, DfsError::kDenied);
}

// Regression for the empty-buffer failure sentinel: a genuinely all-zero
// object used to read back as a buffer of zeros while a *failed* read
// returned an empty buffer — distinguishable only by length, and not at all
// for zero-length requests. With typed completions the two cases differ in
// the error code, with the payload intact in the success case.
TEST(DfsOps, EmptyObjectReadIsOkFailedReadIsTyped) {
  Cluster cluster;
  Client client(cluster, 0);
  ASSERT_EQ(client.create("zeros", 4 * KiB, {}), DfsError::kOk);
  const auto layout = *cluster.metadata().lookup("zeros");
  const auto cap = cluster.metadata().grant(client.client_id(), layout, auth::Right::kReadWrite);

  bool wrote = false;
  client.write(layout, cap, fill(4 * KiB, 0x00), OpCb([&](DfsError e, TimePs) {
                 wrote = (e == DfsError::kOk);
               }));
  cluster.sim().run();
  ASSERT_TRUE(wrote);

  // Success: kOk with 4 KiB of zeros — the zeros are data, not a sentinel.
  DfsError err = DfsError::kTimeout;
  Bytes data;
  client.read(layout, cap, 4 * KiB, ReadCb([&](DfsError e, Bytes d, TimePs) {
                err = e;
                data = std::move(d);
              }));
  cluster.sim().run();
  EXPECT_EQ(err, DfsError::kOk);
  ASSERT_EQ(data.size(), 4 * KiB);
  EXPECT_TRUE(std::all_of(data.begin(), data.end(), [](std::uint8_t v) { return v == 0; }));

  // Failure (tombstoned extent): typed kNotFound, never a zero buffer.
  DfsError trim = DfsError::kTimeout;
  client.trim_extent(layout.targets[0], cap, layout.size,
                     OpCb([&](DfsError e, TimePs) { trim = e; }));
  cluster.sim().run();
  ASSERT_EQ(trim, DfsError::kOk);
  err = DfsError::kOk;
  client.read(layout, cap, 4 * KiB, ReadCb([&](DfsError e, Bytes d, TimePs) {
                err = e;
                EXPECT_TRUE(d.empty());
              }));
  cluster.sim().run();
  EXPECT_EQ(err, DfsError::kNotFound);
}

// --------------------------------------------------- extent primitives

TEST(DfsOps, TrimTombstonesAndWriteRevivesTheExtent) {
  Cluster cluster;
  Client client(cluster, 0);
  ASSERT_EQ(client.create("f", 4 * KiB, {}), DfsError::kOk);
  const auto& layout = *cluster.metadata().lookup("f");
  const auto cap = cluster.metadata().grant(client.client_id(), layout, auth::Right::kReadWrite);
  const auto& coord = layout.targets[0];

  DfsError err = DfsError::kTimeout;
  client.stat_extent(coord, cap, layout.size, OpCb([&](DfsError e, TimePs) { err = e; }));
  cluster.sim().run();
  EXPECT_EQ(err, DfsError::kOk);  // live before any trim

  client.trim_extent(coord, cap, layout.size, OpCb([&](DfsError e, TimePs) { err = e; }));
  cluster.sim().run();
  ASSERT_EQ(err, DfsError::kOk);
  client.stat_extent(coord, cap, layout.size, OpCb([&](DfsError e, TimePs) { err = e; }));
  cluster.sim().run();
  EXPECT_EQ(err, DfsError::kNotFound);  // tombstoned

  // A fresh write hole-punches the tombstone; the extent reads again.
  bool wrote = false;
  client.write_extent(coord, cap, fill(4 * KiB, 0x7E), OpCb([&](DfsError e, TimePs) {
                        wrote = (e == DfsError::kOk);
                      }));
  cluster.sim().run();
  ASSERT_TRUE(wrote);
  client.stat_extent(coord, cap, layout.size, OpCb([&](DfsError e, TimePs) { err = e; }));
  cluster.sim().run();
  EXPECT_EQ(err, DfsError::kOk);
  Bytes back;
  client.read(layout, cap, 4 * KiB, ReadCb([&](DfsError e, Bytes d, TimePs) {
                EXPECT_EQ(e, DfsError::kOk);
                back = std::move(d);
              }));
  cluster.sim().run();
  EXPECT_EQ(back, fill(4 * KiB, 0x7E));
}

TEST(DfsOps, ExtentTrimAndStatAreNotCountedAsWrites) {
  Cluster cluster;
  obs::SpanTracer tracer;
  cluster.set_tracer(&tracer);
  Client client(cluster, 0);
  ASSERT_EQ(client.create("f", 4 * KiB, {}), DfsError::kOk);
  const auto layout = *cluster.metadata().lookup("f");  // keep a copy past the remove
  const auto cap = cluster.metadata().grant(client.client_id(), layout, auth::Right::kReadWrite);

  DfsError wrote = DfsError::kTimeout, stat = DfsError::kTimeout, rm = DfsError::kTimeout;
  client.write(layout, cap, fill(4 * KiB, 0x3C), OpCb([&](DfsError e, TimePs) { wrote = e; }));
  cluster.sim().run();
  client.stat_extent(layout.targets[0], cap, layout.size,
                     OpCb([&](DfsError e, TimePs) { stat = e; }));
  cluster.sim().run();
  client.remove("f", cap, OpCb([&](DfsError e, TimePs) { rm = e; }));  // one trim
  cluster.sim().run();
  ASSERT_EQ(wrote, DfsError::kOk);
  ASSERT_EQ(stat, DfsError::kOk);
  ASSERT_EQ(rm, DfsError::kOk);

  // Only the write is a write: one latency sample, and the client-op spans
  // carry each op's own name.
  if constexpr (!obs::kObsEnabled) GTEST_SKIP() << "span and sketch hooks compiled out";
  EXPECT_EQ(client.write_latency_sketch().count(), 1u);
  std::vector<std::string> ops;
  for (const auto& span : tracer.spans()) {
    if (span.lane == obs::kLaneClientOp) ops.emplace_back(span.name);
  }
  EXPECT_EQ(ops, (std::vector<std::string>{"write", "stat", "trim"}));
}

// ------------------------------------------------- host-CPU service twin

TEST(DfsOps, HostPathMatchesTypedErrorContract) {
  ClusterConfig cfg;
  cfg.install_dfs = false;  // host-CPU DFS service instead of NIC handlers
  Cluster cluster(cfg);
  std::vector<std::unique_ptr<services::HostDfsService>> host;
  for (std::size_t i = 0; i < cluster.storage_node_count(); ++i) {
    host.push_back(std::make_unique<services::HostDfsService>(cluster.storage_node(i), cfg.dfs));
  }
  Client client(cluster, 0);
  ASSERT_EQ(client.create("f", 4 * KiB, {}), DfsError::kOk);
  const auto& layout = *cluster.metadata().lookup("f");
  const auto cap = cluster.metadata().grant(client.client_id(), layout, auth::Right::kReadWrite);
  const auto& coord = layout.targets[0];

  // write -> stat_extent live -> trim -> stat/read kNotFound, same contract
  // as the offloaded path.
  DfsError err = DfsError::kTimeout;
  client.write(layout, cap, fill(4 * KiB, 0x33), OpCb([&](DfsError e, TimePs) { err = e; }));
  cluster.sim().run();
  ASSERT_EQ(err, DfsError::kOk);
  client.stat_extent(coord, cap, layout.size, OpCb([&](DfsError e, TimePs) { err = e; }));
  cluster.sim().run();
  EXPECT_EQ(err, DfsError::kOk);
  client.trim_extent(coord, cap, layout.size, OpCb([&](DfsError e, TimePs) { err = e; }));
  cluster.sim().run();
  ASSERT_EQ(err, DfsError::kOk);
  client.stat_extent(coord, cap, layout.size, OpCb([&](DfsError e, TimePs) { err = e; }));
  cluster.sim().run();
  EXPECT_EQ(err, DfsError::kNotFound);
  err = DfsError::kOk;
  client.read(layout, cap, 4 * KiB, ReadCb([&](DfsError e, Bytes, TimePs) { err = e; }));
  cluster.sim().run();
  EXPECT_EQ(err, DfsError::kNotFound);

  // Typed denial on the host path too.
  const auto ro = cluster.metadata().grant(client.client_id(), layout, auth::Right::kRead);
  err = DfsError::kOk;
  client.write(layout, ro, fill(4 * KiB, 1), OpCb([&](DfsError e, TimePs) { err = e; }));
  cluster.sim().run();
  EXPECT_EQ(err, DfsError::kDenied);
}

}  // namespace
}  // namespace nadfs
