// Chaos suite: whole-cluster runs under injected faults.
//
// These tests tie the PR together: seeded fault plans (net/fault.hpp),
// client op deadlines + retries (services/client), the heartbeat failure
// detector, and the EC recovery manager. Each seeded scenario is executed
// twice and must produce bit-identical digests — determinism under failure
// is a tested property, not an aspiration.
//
// The seed comes from NADFS_CHAOS_SEED (default 1); scripts/check.sh reruns
// the suite with a second seed, so assertions must hold for *any* seed, and
// anything seed-dependent (exact drop counts, exact detection times) is
// folded into the digest rather than pinned. The workload-engine runs at
// the end are the exception: they use fixed engine seeds and pin their
// whole result.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <ostream>

#include "common/rng.hpp"
#include "services/failure_detector.hpp"
#include "storage/engine/betree.hpp"
#include "workload/workload.hpp"

namespace nadfs {
namespace {

using services::Client;
using services::Cluster;
using services::ClusterConfig;
using services::FailureDetector;
using services::FilePolicy;
using services::RecoveryManager;

std::uint64_t chaos_seed() {
  const char* env = std::getenv("NADFS_CHAOS_SEED");
  if (env == nullptr || *env == '\0') return 1;
  return std::strtoull(env, nullptr, 10);
}

Bytes random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Bytes out(n);
  for (auto& b : out) b = rng.next_byte();
  return out;
}

/// FNV-1a over everything observable in a run; two same-seed runs must agree.
struct Digest {
  std::uint64_t h = 1469598103934665603ull;
  void u8(std::uint8_t b) {
    h ^= b;
    h *= 1099511628211ull;
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void bytes(const Bytes& b) {
    u64(b.size());
    for (auto x : b) u8(x);
  }
  void counters(const net::FaultCounters& fc) {
    u64(fc.tx_drops);
    u64(fc.rx_drops);
    u64(fc.random_drops);
    u64(fc.duplicates);
    u64(fc.corruptions);
  }
  void client(const Client& c) {
    u64(c.op_timeouts());
    u64(c.timeout_retries());
    u64(c.deny_retries());
  }
};

/// On failure, print the fault and client counters so a broken seeded run
/// is diagnosable from the ctest log alone.
void dump_if_failed(Cluster& cluster, Client* writer, Client* prober) {
  if (!::testing::Test::HasFailure()) return;
  const auto& fc = cluster.network().fault_counters();
  std::printf("[chaos] seed=%llu tx_drops=%llu rx_drops=%llu random_drops=%llu "
              "duplicates=%llu corruptions=%llu\n",
              (unsigned long long)chaos_seed(), (unsigned long long)fc.tx_drops,
              (unsigned long long)fc.rx_drops, (unsigned long long)fc.random_drops,
              (unsigned long long)fc.duplicates, (unsigned long long)fc.corruptions);
  for (Client* c : {writer, prober}) {
    if (c == nullptr) continue;
    std::printf("[chaos] client %llu: op_timeouts=%llu timeout_retries=%llu "
                "deny_retries=%llu late_acks=%llu stray_nacks=%llu pending=%zu\n",
                (unsigned long long)c->client_id(), (unsigned long long)c->op_timeouts(),
                (unsigned long long)c->timeout_retries(), (unsigned long long)c->deny_retries(),
                (unsigned long long)c->tracker().late_acks(),
                (unsigned long long)c->tracker().stray_nacks(), c->tracker().pending_count());
  }
}

/// Systematic plain read of an EC layout: fetch the k data chunks directly
/// and concatenate (EC data chunks *are* the bytes; parity is extra).
Bytes ec_plain_read(Cluster& cluster, Client& client, const services::FileLayout& layout) {
  const auto k = layout.targets.size();
  std::vector<Bytes> parts(k);
  for (std::size_t i = 0; i < k; ++i) {
    const auto& coord = layout.targets[i];
    const auto cap =
        cluster.management().grant(client.client_id(), layout.object_id, auth::Right::kRead, 0,
                                   coord.addr, layout.chunk_len);
    client.read_extent(coord, cap, static_cast<std::uint32_t>(layout.chunk_len),
                       [&parts, i](Bytes d, TimePs) { parts[i] = std::move(d); });
  }
  cluster.sim().run();
  Bytes out;
  out.reserve(k * layout.chunk_len);
  for (auto& p : parts) out.insert(out.end(), p.begin(), p.end());
  out.resize(layout.size);
  return out;
}

// ------------------------------------------------------- client timeouts

TEST(ClientTimeout, DeadlineCancelsWriteAndStragglerAcksAreLate) {
  // 64 KiB takes ~2.6 us to even serialize, so a 500 ns deadline always
  // fires first; the storage node still completes each attempt and its ack
  // arrives after the cancel — the late_acks counter makes that visible.
  Cluster cluster;
  Client client(cluster, 0);
  const auto& layout = cluster.metadata().create("obj", 64 * KiB, FilePolicy{});
  const auto cap = cluster.metadata().grant(client.client_id(), layout, auth::Right::kWrite);
  client.set_timeout(ns(500));
  client.set_retry_policy(2, us(5));

  bool done = false, ok = true;
  client.write(layout, cap, random_bytes(64 * KiB, 3), [&](bool o, TimePs) {
    done = true;
    ok = o;
  });
  cluster.sim().run();

  EXPECT_TRUE(done);
  EXPECT_FALSE(ok);  // every attempt timed out
  EXPECT_EQ(client.op_timeouts(), 3u);      // initial + 2 retries
  EXPECT_EQ(client.timeout_retries(), 2u);
  EXPECT_EQ(client.deny_retries(), 0u);
  EXPECT_EQ(client.tracker().late_acks(), 3u);  // one straggler per attempt
  EXPECT_EQ(client.tracker().stray_nacks(), 0u);
  EXPECT_EQ(client.tracker().pending_count(), 0u);
  dump_if_failed(cluster, &client, nullptr);
}

TEST(ClientTimeout, DenyAndTimeoutRetriesAreAttributedSeparately) {
  // A read-only capability NACKs every write attempt: all retries are
  // deny-retries, none are timeout-retries, even with a deadline armed.
  Cluster cluster;
  Client client(cluster, 0);
  const auto& layout = cluster.metadata().create("obj", 4096, FilePolicy{});
  const auto ro = cluster.metadata().grant(client.client_id(), layout, auth::Right::kRead);
  client.set_timeout(us(100));  // far beyond the NACK round-trip
  client.set_retry_policy(2, us(1));

  bool done = false, ok = true;
  client.write(layout, ro, random_bytes(4096, 5), [&](bool o, TimePs) {
    done = true;
    ok = o;
  });
  cluster.sim().run();

  EXPECT_TRUE(done);
  EXPECT_FALSE(ok);
  EXPECT_EQ(client.deny_retries(), 2u);
  EXPECT_EQ(client.timeout_retries(), 0u);
  EXPECT_EQ(client.op_timeouts(), 0u);
  EXPECT_EQ(client.tracker().stray_nacks(), 0u);  // every NACK found its op
  EXPECT_EQ(client.tracker().pending_count(), 0u);
  dump_if_failed(cluster, &client, nullptr);
}

TEST(ClientTimeout, LinkFlapIsRiddenOutByTimeoutRetry) {
  // The target's link is down for the first attempt; the deadline fires,
  // backoff waits past the outage, and the retry lands. The op's final
  // verdict is success — the flap costs one timeout-retry, nothing else.
  Cluster cluster;
  Client client(cluster, 0);
  const auto& layout = cluster.metadata().create("obj", 4096, FilePolicy{});
  const auto cap = cluster.metadata().grant(client.client_id(), layout, auth::Right::kReadWrite);
  const TimePs t0 = cluster.sim().now();
  cluster.network().faults().link_down(layout.targets[0].node, t0, t0 + us(40));
  client.set_timeout(us(20));
  client.set_retry_policy(2, us(30));  // first retry waits 30 us -> lands at ~50 us

  const Bytes data = random_bytes(4096, 7);
  bool done = false, ok = false;
  client.write(layout, cap, data, [&](bool o, TimePs) {
    done = true;
    ok = o;
  });
  cluster.sim().run();

  EXPECT_TRUE(done);
  EXPECT_TRUE(ok);
  EXPECT_EQ(client.op_timeouts(), 1u);
  EXPECT_EQ(client.timeout_retries(), 1u);
  EXPECT_EQ(client.deny_retries(), 0u);
  EXPECT_GE(cluster.network().fault_counters().rx_drops, 1u);  // attempt 1's packets
  EXPECT_EQ(client.tracker().pending_count(), 0u);

  // The write really landed: read it back.
  Bytes got;
  client.read(layout, cap, 4096, [&](Bytes d, TimePs) { got = std::move(d); });
  cluster.sim().run();
  EXPECT_EQ(got, data);
  dump_if_failed(cluster, &client, nullptr);
}

TEST(ClientTimeout, ReadFromDeadNodeDrainsToEmptyBuffer) {
  // Reads against a killed node exhaust their retries and complete with an
  // unambiguous empty buffer (zero-length reads are rejected up front).
  Cluster cluster;
  Client client(cluster, 0);
  const auto& layout = cluster.metadata().create("obj", 4096, FilePolicy{});
  const auto cap = cluster.metadata().grant(client.client_id(), layout, auth::Right::kReadWrite);
  bool wrote = false;
  client.write(layout, cap, random_bytes(4096, 9), [&](bool o, TimePs) { wrote = o; });
  cluster.sim().run();
  ASSERT_TRUE(wrote);

  EXPECT_THROW(client.read_extent(layout.targets[0], cap, 0, [](Bytes, TimePs) {}),
               std::invalid_argument);

  cluster.network().faults().kill_node(layout.targets[0].node, cluster.sim().now());
  client.set_timeout(us(10));
  client.set_retry_policy(1, us(5));
  std::optional<Bytes> got;
  client.read(layout, cap, 4096, [&](Bytes d, TimePs) { got = std::move(d); });
  cluster.sim().run();

  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->empty());
  EXPECT_EQ(client.op_timeouts(), 2u);
  EXPECT_EQ(client.timeout_retries(), 1u);
  EXPECT_EQ(client.node().nic().pending_read_count(), 0u);
  dump_if_failed(cluster, &client, nullptr);
}

// ------------------------------------------------- the acceptance scenario

// Kill a storage node mid-EC-write; the detector (not a hand-built failed
// set) notices, a degraded read still returns the object, rebuild
// republishes the layout, and a plain read of the repaired layout returns
// the original bytes. Returns a digest of everything observable.
std::uint64_t run_kill_mid_write_scenario(std::uint64_t seed) {
  ClusterConfig cfg;
  cfg.storage_nodes = 7;
  cfg.clients = 2;
  Cluster cluster(cfg);
  Client writer(cluster, 0);
  Client prober(cluster, 1);
  RecoveryManager recovery(cluster, writer);

  FilePolicy policy;
  policy.resiliency = dfs::Resiliency::kErasureCoding;
  policy.ec_k = 3;
  policy.ec_m = 2;
  const std::size_t size = 48000;
  const auto& layout = cluster.metadata().create("obj", size, policy);
  const auto cap = cluster.metadata().grant(writer.client_id(), layout, auth::Right::kReadWrite);
  const Bytes data = random_bytes(size, 42);  // payload is seed-independent

  // v1 lands cleanly.
  bool v1_ok = false;
  writer.write(layout, cap, data, [&](bool ok, TimePs) { v1_ok = ok; });
  cluster.sim().run();
  EXPECT_TRUE(v1_ok);
  const TimePs t0 = cluster.sim().now();

  // Schedule the kill mid-v2: jittered by the chaos seed, but always before
  // the victim parity node can finish aggregating (>= ~2 us in), so v2
  // deterministically loses its 5th ack. A parity victim keeps v1 and the
  // failed v2 byte-identical on every surviving chunk (v2 rewrites the same
  // bytes), so recovery has one consistent object to reason about.
  Rng jitter(seed);
  net::FaultPlan plan;
  plan.set_seed(seed);
  const net::NodeId victim = layout.parity[0].node;
  const TimePs kill_at = t0 + ns(200) + jitter.next_below(us(1));
  plan.kill_node(victim, kill_at);
  cluster.network().install_faults(plan);

  writer.set_timeout(us(30));
  writer.set_retry_policy(2, us(10));
  bool v2_done = false, v2_ok = true;
  writer.write(layout, cap, data, [&](bool ok, TimePs) {
    v2_done = true;
    v2_ok = ok;
  });

  // Detector-driven recovery: the failed set fed to degraded_read/rebuild
  // is the detector's own view.
  FailureDetector detector(cluster, prober);
  TimePs detected_at = 0, rebuilt_at = 0;
  std::optional<Bytes> degraded;
  std::optional<services::FileLayout> repaired;
  detector.set_on_failure([&](net::NodeId node, TimePs at) {
    EXPECT_EQ(node, victim);
    if (detected_at != 0) return;
    detected_at = at;
    recovery.degraded_read(*cluster.metadata().lookup("obj"), detector.failed(),
                           [&](std::optional<Bytes> d, TimePs) {
                             degraded = std::move(d);
                             recovery.rebuild("obj", detector.failed(),
                                              [&](std::optional<services::FileLayout> l,
                                                  TimePs t) {
                                                repaired = std::move(l);
                                                rebuilt_at = t;
                                              });
                           });
  });
  detector.start();
  cluster.sim().run_until(t0 + ms(5));
  detector.stop();
  cluster.sim().run();

  // The in-flight write failed (after timeout retries), but the object
  // survived the node.
  EXPECT_TRUE(v2_done);
  EXPECT_FALSE(v2_ok);
  EXPECT_GE(writer.op_timeouts(), 1u);
  EXPECT_EQ(writer.timeout_retries(), 2u);
  EXPECT_GT(detected_at, kill_at);
  EXPECT_TRUE(degraded.has_value());
  EXPECT_TRUE(repaired.has_value());
  if (!degraded.has_value() || !repaired.has_value()) {
    dump_if_failed(cluster, &writer, &prober);
    return 0;  // the EXPECTs above already failed the test
  }
  EXPECT_EQ(*degraded, data);
  EXPECT_GT(rebuilt_at, detected_at);
  for (const auto& c : repaired->targets) EXPECT_NE(c.node, victim);
  for (const auto& c : repaired->parity) EXPECT_NE(c.node, victim);

  // Plain (non-degraded) read of the republished layout returns the bytes.
  const auto* current = cluster.metadata().lookup("obj");
  EXPECT_TRUE(current != nullptr);
  const Bytes plain = ec_plain_read(cluster, writer, *current);
  EXPECT_EQ(plain, data);

  // Quiesce: no orphaned request state anywhere on the client side.
  EXPECT_EQ(writer.tracker().pending_count(), 0u);
  EXPECT_EQ(prober.tracker().pending_count(), 0u);
  EXPECT_EQ(writer.node().nic().pending_read_count(), 0u);
  EXPECT_EQ(prober.node().nic().pending_read_count(), 0u);

  Digest d;
  d.bytes(plain);
  d.bytes(*degraded);
  d.u64(detected_at);
  d.u64(rebuilt_at);
  d.u64(kill_at);
  d.client(writer);
  d.client(prober);
  d.u64(writer.tracker().late_acks());
  d.u64(prober.tracker().late_acks());
  d.u64(detector.probes_sent());
  d.u64(detector.probes_missed());
  d.counters(cluster.network().fault_counters());
  d.u64(cluster.sim().executed_events());
  dump_if_failed(cluster, &writer, &prober);
  return d.h;
}

TEST(Chaos, KillNodeMidEcWriteDetectorDrivenRecovery) {
  const std::uint64_t seed = chaos_seed();
  const auto first = run_kill_mid_write_scenario(seed);
  const auto second = run_kill_mid_write_scenario(seed);
  EXPECT_EQ(first, second) << "same seed must replay identically (seed " << seed << ")";
}

// --------------------- satellite: death with a non-empty write buffer
//
// Every storage node runs the Bε-tree engine with a small memtable and a
// finite device, so flush/compaction jobs are routinely in flight and the
// engine buffers unflushed bytes in RAM. The victim is killed while its
// write buffer is provably non-empty (a fence probe at the kill instant
// asserts it) — the exact state a crash would lose on real hardware.
// Recovery must rebuild the chunk from the surviving replicas, nothing may
// hang, and the whole episode must replay bit-identically.
std::uint64_t run_kill_mid_compaction_scenario(std::uint64_t seed) {
  ClusterConfig cfg;
  cfg.storage_nodes = 7;
  cfg.clients = 2;
  storage::TargetConfig tcfg;
  tcfg.engine.kind = storage::EngineKind::kBetaTree;
  tcfg.engine.device_bandwidth = Bandwidth::from_gbytes_per_sec(1.0);
  tcfg.engine.memtable_bytes = 4 * KiB;
  tcfg.engine.fanout = 2;
  cfg.per_node_target = {tcfg};
  Cluster cluster(cfg);
  Client writer(cluster, 0);
  Client prober(cluster, 1);
  RecoveryManager recovery(cluster, writer);

  FilePolicy policy;
  policy.resiliency = dfs::Resiliency::kErasureCoding;
  policy.ec_k = 3;
  policy.ec_m = 2;
  const std::size_t size = 48000;
  const auto& layout = cluster.metadata().create("obj", size, policy);
  const auto cap = cluster.metadata().grant(writer.client_id(), layout, auth::Right::kReadWrite);
  const Bytes data = random_bytes(size, 42);

  bool v1_ok = false;
  writer.write(layout, cap, data, [&](bool ok, TimePs) { v1_ok = ok; });
  cluster.sim().run();
  EXPECT_TRUE(v1_ok) << "seed " << seed;
  const TimePs t0 = cluster.sim().now();

  // v1 left a sub-memtable tail in every engine's active buffer, and v2's
  // packets pile more on top while its flushes are still queued on the
  // slow device — the victim dies mid-backlog whatever the jitter says.
  Rng jitter(seed);
  net::FaultPlan plan;
  plan.set_seed(seed);
  const net::NodeId victim = layout.parity[0].node;
  const TimePs kill_at = t0 + us(1) + jitter.next_below(us(1));
  plan.kill_node(victim, kill_at);
  cluster.network().install_faults(plan);

  auto& victim_engine =
      dynamic_cast<storage::BetaTreeEngine&>(cluster.storage_by_node(victim).target().engine());
  std::uint64_t buffered_at_kill = 0;
  std::uint64_t backlog_at_kill = 0;
  cluster.sim().schedule_at(kill_at, [&] {
    buffered_at_kill = victim_engine.buffered_bytes();
    backlog_at_kill = victim_engine.backlog_runs();
  });

  writer.set_timeout(us(60));
  writer.set_retry_policy(2, us(10));
  bool v2_done = false, v2_ok = true;
  writer.write(layout, cap, data, [&](bool ok, TimePs) {
    v2_done = true;
    v2_ok = ok;
  });

  // Probes share the device with flush/compaction backlogs on *healthy*
  // nodes, so the heartbeat deadline must ride out a busy device window —
  // a 10 us probe timeout would false-suspect a node mid-flush.
  services::FailureDetectorConfig fd_cfg;
  fd_cfg.probe_interval = us(60);
  fd_cfg.probe_timeout = us(50);
  FailureDetector detector(cluster, prober, fd_cfg);
  TimePs detected_at = 0, rebuilt_at = 0;
  std::optional<services::FileLayout> repaired;
  detector.set_on_failure([&](net::NodeId node, TimePs at) {
    EXPECT_EQ(node, victim) << "seed " << seed;
    if (detected_at != 0) return;
    detected_at = at;
    recovery.rebuild("obj", detector.failed(),
                     [&](std::optional<services::FileLayout> l, TimePs t) {
                       repaired = std::move(l);
                       rebuilt_at = t;
                     });
  });
  detector.start();
  cluster.sim().run_until(t0 + ms(5));
  detector.stop();
  cluster.sim().run();  // must drain — flush/compaction chains terminate

  // The victim died holding unflushed writes.
  EXPECT_GT(buffered_at_kill, 0u) << "seed " << seed;
  // The in-flight v2 lost the victim's ack and failed after retries, but
  // the object rebuilt onto the survivors.
  EXPECT_TRUE(v2_done) << "seed " << seed;
  EXPECT_FALSE(v2_ok) << "seed " << seed;
  EXPECT_GT(detected_at, kill_at) << "seed " << seed;
  EXPECT_TRUE(repaired.has_value()) << "seed " << seed;
  if (!repaired.has_value()) {
    dump_if_failed(cluster, &writer, &prober);
    return 0;
  }
  EXPECT_GT(rebuilt_at, detected_at) << "seed " << seed;
  for (const auto& c : repaired->targets) EXPECT_NE(c.node, victim);
  for (const auto& c : repaired->parity) EXPECT_NE(c.node, victim);

  const auto* current = cluster.metadata().lookup("obj");
  EXPECT_TRUE(current != nullptr);
  const Bytes plain = ec_plain_read(cluster, writer, *current);
  EXPECT_EQ(plain, data) << "seed " << seed;

  // Quiesce: nothing pending anywhere on the client side.
  EXPECT_EQ(writer.tracker().pending_count(), 0u);
  EXPECT_EQ(prober.tracker().pending_count(), 0u);
  EXPECT_EQ(writer.node().nic().pending_read_count(), 0u);
  EXPECT_EQ(prober.node().nic().pending_read_count(), 0u);

  Digest d;
  d.bytes(plain);
  d.u64(buffered_at_kill);
  d.u64(backlog_at_kill);
  d.u64(victim_engine.flushes());
  d.u64(victim_engine.compactions());
  d.u64(victim_engine.stalls());
  d.u64(detected_at);
  d.u64(rebuilt_at);
  d.u64(kill_at);
  d.client(writer);
  d.client(prober);
  d.counters(cluster.network().fault_counters());
  d.u64(cluster.sim().executed_events());
  dump_if_failed(cluster, &writer, &prober);
  return d.h;
}

TEST(Chaos, KillWithBufferedWritesMidCompactionRebuildsDeterministically) {
  const std::uint64_t seed = chaos_seed();
  const auto first = run_kill_mid_compaction_scenario(seed);
  const auto second = run_kill_mid_compaction_scenario(seed);
  EXPECT_EQ(first, second) << "same seed must replay identically (seed " << seed << ")";
}

// ------------------------------------------ satellite: death mid-rebuild

TEST(Chaos, RebuildDropsBelowKMidCollectAndReportsLossWithoutHanging) {
  // Two nodes die; while the rebuild is *collecting* chunks a third node
  // (one being read from) dies mid-transfer. Only 2 of k=3 chunks remain:
  // the collect must fall back, find no candidates, and report nullopt —
  // not hang on the never-completing read.
  ClusterConfig cfg;
  cfg.storage_nodes = 7;
  cfg.clients = 2;
  Cluster cluster(cfg);
  Client writer(cluster, 0);
  Client prober(cluster, 1);
  RecoveryManager recovery(cluster, writer);

  FilePolicy policy;
  policy.resiliency = dfs::Resiliency::kErasureCoding;
  policy.ec_k = 3;
  policy.ec_m = 2;
  const std::size_t size = 600000;  // 200 KB chunks: ~4 us on the wire
  const auto& layout = cluster.metadata().create("obj", size, policy);
  const auto cap = cluster.metadata().grant(writer.client_id(), layout, auth::Right::kWrite);
  bool wrote = false;
  writer.write(layout, cap, random_bytes(size, 42), [&](bool ok, TimePs) { wrote = ok; });
  cluster.sim().run();
  ASSERT_TRUE(wrote);
  const TimePs t0 = cluster.sim().now();

  // Recovery reads get a real deadline; no retries, so a dead source maps
  // straight to the empty-buffer fallback path.
  writer.set_timeout(us(50));
  writer.set_retry_policy(0, us(10));

  cluster.network().faults().kill_node(layout.targets[0].node, t0 + us(1));
  cluster.network().faults().kill_node(layout.parity[1].node, t0 + us(1));

  FailureDetector detector(cluster, prober);
  bool rebuild_started = false, rebuild_done = false;
  std::optional<services::FileLayout> result;
  detector.set_on_failure([&](net::NodeId, TimePs at) {
    if (detector.failed().size() != 2 || rebuild_started) return;
    rebuild_started = true;
    // The collect now streams from targets[1], targets[2] and parity[0];
    // kill one of them 1 us in, mid-transfer. This runs from event
    // context (a detector callback), so the plan edit goes through
    // mutate_faults.
    cluster.network().mutate_faults([&layout, at](net::FaultPlan& plan) {
      plan.kill_node(layout.targets[1].node, at + us(1));
    });
    recovery.rebuild("obj", detector.failed(), [&](std::optional<services::FileLayout> l,
                                                   TimePs) {
      rebuild_done = true;
      result = std::move(l);
    });
  });
  detector.start();
  cluster.sim().run_until(t0 + ms(5));
  detector.stop();
  cluster.sim().run();

  EXPECT_TRUE(rebuild_started);
  EXPECT_TRUE(rebuild_done);                 // did not hang
  EXPECT_FALSE(result.has_value());          // < k chunks: unrecoverable
  EXPECT_GE(writer.op_timeouts(), 1u);       // the severed read timed out
  EXPECT_EQ(writer.tracker().pending_count(), 0u);
  EXPECT_EQ(writer.node().nic().pending_read_count(), 0u);
  EXPECT_EQ(prober.node().nic().pending_read_count(), 0u);
  dump_if_failed(cluster, &writer, &prober);
}

// ---------------------------------------------------- seeded rate storms

std::uint64_t run_drop_storm(std::uint64_t seed) {
  ClusterConfig cfg;
  cfg.storage_nodes = 5;
  Cluster cluster(cfg);
  Client client(cluster, 0);

  net::FaultPlan plan;
  plan.set_drop_rate(0.05);
  plan.set_seed(seed);
  cluster.network().install_faults(plan);

  FilePolicy policy;
  policy.resiliency = dfs::Resiliency::kReplication;
  policy.repl_k = 3;
  const auto& layout = cluster.metadata().create("obj", 200 * KiB, policy);
  const auto cap = cluster.metadata().grant(client.client_id(), layout, auth::Right::kWrite);
  client.set_timeout(us(100));
  client.set_retry_policy(5, us(20));

  bool done = false, ok = false;
  client.write(layout, cap, random_bytes(200 * KiB, 11), [&](bool o, TimePs) {
    done = true;
    ok = o;
  });
  cluster.sim().run();

  // Whether the op ultimately lands is the seed's business; termination and
  // clean quiesce are not.
  EXPECT_TRUE(done);
  EXPECT_GT(cluster.network().fault_counters().random_drops, 0u);
  EXPECT_EQ(client.tracker().pending_count(), 0u);

  Digest d;
  d.u8(ok ? 1 : 0);
  d.client(client);
  d.u64(client.tracker().late_acks());
  d.u64(client.tracker().stray_nacks());
  d.counters(cluster.network().fault_counters());
  d.u64(cluster.sim().executed_events());
  d.u64(cluster.sim().now());
  dump_if_failed(cluster, &client, nullptr);
  return d.h;
}

TEST(Chaos, SeededDropStormIsDeterministic) {
  const std::uint64_t seed = chaos_seed();
  EXPECT_EQ(run_drop_storm(seed), run_drop_storm(seed));
}

std::uint64_t run_corruption_storm(std::uint64_t seed) {
  ClusterConfig cfg;
  cfg.storage_nodes = 3;
  Cluster cluster(cfg);
  Client client(cluster, 0);

  net::FaultPlan plan;
  plan.set_corrupt_rate(1.0);  // every payload-carrying packet loses a byte
  plan.set_seed(seed);
  cluster.network().install_faults(plan);

  const auto& layout = cluster.metadata().create("obj", 32 * KiB, FilePolicy{});
  const auto cap = cluster.metadata().grant(client.client_id(), layout, auth::Right::kWrite);
  client.set_timeout(us(50));
  client.set_retry_policy(2, us(10));

  bool done = false, ok = false;
  client.write(layout, cap, random_bytes(32 * KiB, 13), [&](bool o, TimePs) {
    done = true;
    ok = o;
  });
  cluster.sim().run();

  EXPECT_TRUE(done);
  EXPECT_GT(cluster.network().fault_counters().corruptions, 0u);
  EXPECT_EQ(client.tracker().pending_count(), 0u);

  Digest d;
  d.u8(ok ? 1 : 0);
  d.client(client);
  d.counters(cluster.network().fault_counters());
  std::uint64_t malformed = 0, auth_failures = 0;
  for (std::size_t n = 0; n < cluster.storage_node_count(); ++n) {
    malformed += cluster.storage_node(n).dfs_state()->malformed_requests;
    auth_failures += cluster.storage_node(n).dfs_state()->auth_failures;
  }
  // Disjoint books: corrupted bytes either break parsing (malformed) or
  // land in a field the MAC covers (auth failure), never both at once.
  d.u64(malformed);
  d.u64(auth_failures);
  d.u64(cluster.sim().executed_events());
  dump_if_failed(cluster, &client, nullptr);
  return d.h;
}

TEST(Chaos, CorruptionStormIsDeterministicAndCounted) {
  const std::uint64_t seed = chaos_seed();
  EXPECT_EQ(run_corruption_storm(seed), run_corruption_storm(seed));
}

TEST(Chaos, WedgedAggregationStateIsReapedByStateGc) {
  // Kill a data node mid-EC-write: the parity nodes' per-seq accumulators
  // (pool slots), fallback buffers and per-greq stream progress wait for a
  // contribution that will never arrive. Device-level cleanup cannot touch
  // them — only the storage-side TTL reaper (DfsState::gc) can, and after
  // it runs the wedged ring must be fully drained: pool empty, tables
  // empty, and the reap booked under reaped_requests.
  const std::uint64_t seed = chaos_seed();
  ClusterConfig cfg;
  cfg.storage_nodes = 7;
  Cluster cluster(cfg);
  Client writer(cluster, 0);

  FilePolicy policy;
  policy.resiliency = dfs::Resiliency::kErasureCoding;
  policy.ec_k = 3;
  policy.ec_m = 2;
  const std::size_t size = 48000;
  const auto& layout = cluster.metadata().create("obj", size, policy);
  const auto cap = cluster.metadata().grant(writer.client_id(), layout, auth::Right::kWrite);

  Rng jitter(seed);
  net::FaultPlan plan;
  plan.set_seed(seed);
  const net::NodeId victim = layout.targets[0].node;
  const TimePs kill_at = ns(200) + jitter.next_below(us(1));
  plan.kill_node(victim, kill_at);
  cluster.network().install_faults(plan);

  writer.set_timeout(us(30));
  bool done = false, ok = true;
  writer.write(layout, cap, random_bytes(size, 42), [&](bool o, TimePs) {
    done = true;
    ok = o;
  });
  cluster.sim().run();
  EXPECT_TRUE(done);
  EXPECT_FALSE(ok);

  // Quiesced with no GC: the parity nodes are wedged — live aggregation
  // entries holding pool accumulators that nothing will ever release.
  std::size_t wedged_entries = 0, wedged_accs = 0;
  for (const auto& coord : layout.parity) {
    auto* st = cluster.storage_by_node(coord.node).dfs_state();
    wedged_entries += st->agg.size() + st->parity_msgs_done.size();
    wedged_accs += st->pool.in_use();
  }
  EXPECT_GT(wedged_entries, 0u);
  EXPECT_GT(wedged_accs, 0u);

  // Run the reaper past the TTL; the queue must drain (the Periodic is
  // stopped) and every wedged entry must be gone.
  cluster.start_state_gc(/*interval=*/us(50), /*ttl=*/us(100));
  cluster.sim().run_until(cluster.sim().now() + us(500));
  cluster.stop_state_gc();
  cluster.sim().run();

  std::uint64_t reaped = 0;
  for (std::size_t n = 0; n < cluster.storage_node_count(); ++n) {
    auto* st = cluster.storage_node(n).dfs_state();
    EXPECT_EQ(st->agg.size(), 0u);
    EXPECT_EQ(st->host_agg.size(), 0u);
    EXPECT_EQ(st->parity_msgs_done.size(), 0u);
    EXPECT_EQ(st->pool.in_use(), 0u);
    reaped += st->reaped_requests;
  }
  EXPECT_GE(reaped, wedged_entries);

  // The drained node is reusable: a fresh EC write against the surviving
  // placement succeeds with pool slots recycled from the reap.
  services::FilePolicy fresh = policy;
  const auto& layout2 = cluster.metadata().create("obj2", size, fresh);
  bool retry_ok = false;
  bool usable = true;
  for (const auto& t : layout2.targets) usable &= t.node != victim;
  for (const auto& p : layout2.parity) usable &= p.node != victim;
  if (usable) {
    const auto cap2 = cluster.metadata().grant(writer.client_id(), layout2, auth::Right::kWrite);
    writer.set_timeout(0);
    writer.write(layout2, cap2, random_bytes(size, 43), [&](bool o, TimePs) { retry_ok = o; });
    cluster.sim().run();
    EXPECT_TRUE(retry_ok);
  }
}

// ------------------------------------------------ satellite: typed chaos

// Kill the storage node mid-append. The reservation was handed out by the
// metadata service before the data plane saw a byte, so the append fails
// *typed* (kTimeout after retries — a dead node never NACKs) and leaves a
// hole at the reserved offset; nothing hangs and no request state leaks.
std::uint64_t run_kill_mid_append_scenario(std::uint64_t seed) {
  ClusterConfig cfg;
  cfg.storage_nodes = 4;
  Cluster cluster(cfg);
  Client writer(cluster, 0);

  EXPECT_EQ(writer.create("log", 256 * KiB, FilePolicy{}), dfs::DfsError::kOk) << "seed " << seed;
  const auto& layout = *cluster.metadata().lookup("log");
  const auto cap = cluster.metadata().grant(writer.client_id(), layout, auth::Right::kReadWrite);

  // First append lands cleanly and establishes the tail.
  dfs::DfsError err = dfs::DfsError::kTimeout;
  writer.append("log", cap, random_bytes(64 * KiB, 42),
                services::OpCb([&](dfs::DfsError e, TimePs) { err = e; }));
  cluster.sim().run();
  EXPECT_EQ(err, dfs::DfsError::kOk) << "seed " << seed;
  EXPECT_EQ(writer.stat("log").length, 64 * KiB);
  const TimePs t0 = cluster.sim().now();

  // Kill the (single) target mid-transfer of the second append: 64 KiB
  // takes ~2.6 us to serialize, the jittered kill always lands inside.
  Rng jitter(seed);
  net::FaultPlan plan;
  plan.set_seed(seed);
  const TimePs kill_at = t0 + ns(200) + jitter.next_below(us(1));
  plan.kill_node(layout.targets[0].node, kill_at);
  cluster.network().install_faults(plan);

  writer.set_timeout(us(30));
  writer.set_retry_policy(1, us(10));
  bool done = false;
  dfs::DfsError append_err = dfs::DfsError::kOk;
  TimePs failed_at = 0;
  writer.append("log", cap, random_bytes(64 * KiB, 43),
                services::OpCb([&](dfs::DfsError e, TimePs at) {
                  done = true;
                  append_err = e;
                  failed_at = at;
                }));
  cluster.sim().run_until(t0 + ms(1));
  cluster.sim().run();

  // Typed failure, not a hang and not a silent bool: the dead node never
  // acks, so after the retry budget the client reports kTimeout.
  EXPECT_TRUE(done) << "seed " << seed;
  EXPECT_EQ(append_err, dfs::DfsError::kTimeout) << "seed " << seed;
  EXPECT_GE(writer.op_timeouts(), 1u);
  EXPECT_EQ(writer.timeout_retries(), 1u);
  // The reservation advanced the tail before the data plane failed — the
  // hole is honest metadata, not corruption.
  EXPECT_EQ(writer.stat("log").length, 128 * KiB);

  // Quiesce: no orphaned request state on the client.
  EXPECT_EQ(writer.tracker().pending_count(), 0u);
  EXPECT_EQ(writer.node().nic().pending_read_count(), 0u);

  Digest d;
  d.u64(static_cast<std::uint64_t>(append_err));
  d.u64(failed_at);
  d.u64(kill_at);
  d.client(writer);
  d.u64(writer.tracker().late_acks());
  d.counters(cluster.network().fault_counters());
  d.u64(cluster.sim().executed_events());
  dump_if_failed(cluster, &writer, nullptr);
  return d.h;
}

TEST(Chaos, KillMidAppendFailsTypedAndQuiesces) {
  const std::uint64_t seed = chaos_seed();
  const auto first = run_kill_mid_append_scenario(seed);
  if (::testing::Test::HasFatalFailure()) return;
  const auto second = run_kill_mid_append_scenario(seed);
  EXPECT_EQ(first, second) << "same seed must replay identically (seed " << seed << ")";
}

// Delete racing a rebuild. An operator-initiated rebuild of "obj" is
// collecting chunks when a remove lands: the trims tombstone the extents
// and drop the namespace entry. Whichever phase the rebuild is in, it must
// finish with nullopt — update_layout returns kNotFound for a deleted name
// (the typed twin of the old throw), so the rebuild cannot resurrect the
// entry — and the remove itself completes kOk.
std::uint64_t run_delete_during_rebuild_scenario(std::uint64_t seed) {
  ClusterConfig cfg;
  cfg.storage_nodes = 7;
  cfg.clients = 2;
  Cluster cluster(cfg);
  Client writer(cluster, 0);
  Client remover(cluster, 1);
  RecoveryManager recovery(cluster, writer);

  FilePolicy policy;
  policy.resiliency = dfs::Resiliency::kErasureCoding;
  policy.ec_k = 3;
  policy.ec_m = 2;
  const std::size_t size = 48000;
  cluster.metadata().create("obj", size, policy);
  const auto layout = *cluster.metadata().lookup("obj");  // copy survives the remove
  const auto wcap = cluster.metadata().grant(writer.client_id(), layout, auth::Right::kReadWrite);
  const auto rcap = cluster.metadata().grant(remover.client_id(), layout, auth::Right::kReadWrite);

  bool v1_ok = false;
  writer.write(layout, wcap, random_bytes(size, 42), [&](bool ok, TimePs) { v1_ok = ok; });
  cluster.sim().run();
  EXPECT_TRUE(v1_ok) << "seed " << seed;
  const TimePs t0 = cluster.sim().now();

  // Operator-initiated rebuild (suspected node, hand-built failed set) and
  // a jittered concurrent remove; the race lands in different rebuild
  // phases on different seeds, the outcome contract is phase-independent.
  bool rebuild_done = false;
  std::optional<services::FileLayout> repaired;
  recovery.rebuild("obj", {layout.targets[0].node},
                   [&](std::optional<services::FileLayout> l, TimePs) {
                     rebuild_done = true;
                     repaired = std::move(l);
                   });

  Rng jitter(seed);
  bool remove_done = false;
  dfs::DfsError remove_err = dfs::DfsError::kTimeout;
  cluster.sim().schedule(jitter.next_below(us(2)), [&] {
    remover.remove("obj", rcap, services::OpCb([&](dfs::DfsError e, TimePs) {
                     remove_done = true;
                     remove_err = e;
                   }));
  });
  cluster.sim().run_until(t0 + ms(5));
  cluster.sim().run();

  // The remove won the namespace: all nodes are live so every trim acked.
  EXPECT_TRUE(remove_done) << "seed " << seed;
  EXPECT_EQ(remove_err, dfs::DfsError::kOk) << "seed " << seed;
  // The rebuild finished but could not resurrect the deleted entry.
  EXPECT_TRUE(rebuild_done) << "seed " << seed;
  EXPECT_FALSE(repaired.has_value()) << "seed " << seed;
  EXPECT_EQ(cluster.metadata().lookup("obj"), nullptr);
  EXPECT_FALSE(writer.stat("obj").exists);

  // The data plane agrees with the namespace: the original extents are
  // tombstoned, so a read through the stale layout fails typed.
  dfs::DfsError read_err = dfs::DfsError::kOk;
  writer.read_extent(layout.targets[1], wcap, 1024,
                     services::ReadCb([&](dfs::DfsError e, Bytes d, TimePs) {
                       read_err = e;
                       EXPECT_TRUE(d.empty());
                     }));
  cluster.sim().run();
  EXPECT_EQ(read_err, dfs::DfsError::kNotFound) << "seed " << seed;

  // Quiesce: nothing pending on either client (the rebuild's reads and
  // writes all completed or failed fast on typed NACKs).
  EXPECT_EQ(writer.tracker().pending_count(), 0u);
  EXPECT_EQ(remover.tracker().pending_count(), 0u);
  EXPECT_EQ(writer.node().nic().pending_read_count(), 0u);
  EXPECT_EQ(remover.node().nic().pending_read_count(), 0u);

  Digest d;
  d.u64(static_cast<std::uint64_t>(remove_err));
  d.u64(static_cast<std::uint64_t>(read_err));
  d.u64(repaired.has_value() ? 1 : 0);
  d.client(writer);
  d.client(remover);
  d.u64(writer.tracker().late_acks());
  d.u64(remover.tracker().late_acks());
  d.u64(cluster.sim().executed_events());
  dump_if_failed(cluster, &writer, &remover);
  return d.h;
}

TEST(Chaos, DeleteDuringRebuildDoesNotResurrect) {
  const std::uint64_t seed = chaos_seed();
  const auto first = run_delete_during_rebuild_scenario(seed);
  if (::testing::Test::HasFatalFailure()) return;
  const auto second = run_delete_during_rebuild_scenario(seed);
  EXPECT_EQ(first, second) << "same seed must replay identically (seed " << seed << ")";
}


// ------------------------------------------------- pinned workload runs

struct SysResult {
  std::uint64_t digest = 0;
  std::uint64_t offered = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  TimePs last_completion = 0;
  std::uint64_t executed = 0;

  bool operator==(const SysResult& o) const {
    return digest == o.digest && offered == o.offered && completed == o.completed &&
           failed == o.failed && last_completion == o.last_completion && executed == o.executed;
  }
};

std::ostream& operator<<(std::ostream& os, const SysResult& r) {
  return os << "{0x" << std::hex << r.digest << std::dec << ", " << r.offered << ", "
            << r.completed << ", " << r.failed << ", " << r.last_completion << ", " << r.executed
            << "}";
}

/// Replicated multi-tenant open-loop workload, optionally with a storage
/// node killed mid-run through Network::mutate_faults from event context.
/// Covers the fault-edit path and the open-loop pre-draw end to end.
SysResult run_chaos_workload(std::uint64_t seed, bool kill_node) {
  ClusterConfig cc;
  cc.storage_nodes = 4;
  cc.clients = 2;
  Cluster cluster(cc);

  workload::EngineConfig ecfg;
  ecfg.users = 1000;
  ecfg.client_slots = 2;
  ecfg.rate_ops_per_s = 4e5;
  ecfg.duration = us(400);
  ecfg.seed = seed;
  workload::TenantSpec tenant;
  tenant.name = "t";
  tenant.objects = 8;
  tenant.object_size = 32 * KiB;
  tenant.io_bytes = 2 * KiB;
  tenant.policy.resiliency = dfs::Resiliency::kReplication;
  tenant.policy.repl_k = 2;
  workload::Engine engine(cluster, ecfg, {tenant});
  if (kill_node) {
    const net::NodeId victim = cluster.storage_node(1).id();
    cluster.sim().schedule_at(us(120), [&cluster, victim] {
      cluster.network().mutate_faults([&cluster, victim](net::FaultPlan& plan) {
        plan.kill_node(victim, cluster.sim().now() + us(1));
      });
    });
  }
  engine.run();

  SysResult r;
  r.digest = engine.digest();
  r.offered = engine.stats().offered;
  r.completed = engine.stats().completed;
  r.failed = engine.stats().failed;
  r.last_completion = engine.stats().last_completion;
  r.executed = cluster.sim().executed_events();
  return r;
}

// The whole result is pinned, not only replayed: a schedule change that
// alters any op's outcome or completion time, or the number of events
// executed, fails here even when two runs of it agree.
TEST(Chaos, WorkloadWithMidRunKillIsPinned) {
  const std::map<std::uint64_t, SysResult> pinned = {
      {1, {0xe3052607523a14d8ull, 159, 119, 0, 401275408, 1683}},
      {7, {0x9d3d0d0f24bedf7dull, 161, 125, 0, 398568805, 1740}},
  };
  for (const auto& [seed, want] : pinned) {
    const auto got = run_chaos_workload(seed, /*kill_node=*/true);
    EXPECT_LT(got.completed, got.offered) << "the kill must strand ops (seed " << seed << ")";
    EXPECT_EQ(got, want) << "seed " << seed;
  }
}

TEST(Chaos, MixedWorkloadIsPinnedAcrossSeeds) {
  const std::map<std::uint64_t, SysResult> pinned = {
      {1, {0x41063856bfe3457bull, 159, 159, 0, 401275408, 1921}},
      {7, {0x02c81eca0527ebafull, 161, 161, 0, 399378206, 1954}},
      {13, {0x20354b8fe311e360ull, 141, 141, 0, 398267106, 1602}},
  };
  for (const auto& [seed, want] : pinned) {
    EXPECT_EQ(run_chaos_workload(seed, /*kill_node=*/false), want) << "seed " << seed;
  }
}

}  // namespace
}  // namespace nadfs
