// Storage-engine subsystem suite (DESIGN.md §3h).
//
// Three layers of assurance:
//  - StorageEngine.*: unit behaviour of each backend (factory, NVMM
//    timing, per-node selection in a cluster).
//  - BetaTree.*: the write-optimized engine's moving parts — memtable
//    freeze/flush, fanout-triggered compaction, range-delete shadowing,
//    buffer-full stalls, the memory compaction outputs retain — plus
//    cluster-level digest determinism.
//  - EngineEquivalence.*: the refactor-safety nets. The line-rate engine
//    is compared op-for-op against an inline re-implementation of the
//    pre-engine Target (same GapServer use, flat byte oracle), and the
//    Bε-tree's functional behaviour is differential-tested against a flat
//    in-memory oracle under randomized workloads.
//
// scripts/check.sh reruns this binary under NADFS_CHAOS_SEED={1,7}; the
// randomized suites fold the seed in and print it on failure.
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>

#include "common/rng.hpp"
#include "services/client.hpp"
#include "services/cluster.hpp"
#include "sim/simulator.hpp"
#include "storage/engine/betree.hpp"
#include "storage/engine/engine.hpp"
#include "storage/target.hpp"

namespace nadfs::storage {
namespace {

std::uint64_t env_seed() {
  const char* env = std::getenv("NADFS_CHAOS_SEED");
  return env != nullptr && *env != '\0' ? std::strtoull(env, nullptr, 10) : 1;
}

Bytes random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Bytes out(n);
  for (auto& b : out) b = rng.next_byte();
  return out;
}

EngineConfig betree_config() {
  EngineConfig cfg;
  cfg.kind = EngineKind::kBetaTree;
  cfg.device_bandwidth = Bandwidth::from_gbytes_per_sec(1.0);  // 1000 ps/B
  cfg.memtable_bytes = 4 * KiB;
  cfg.buffer_capacity = 12 * KiB;
  cfg.fanout = 2;
  return cfg;
}

// ------------------------------------------------------------ StorageEngine

TEST(StorageEngine, FactoryProducesEveryKind) {
  sim::Simulator sim;
  const Bandwidth ingest = Bandwidth::from_gbytes_per_sec(64.0);
  for (const EngineKind kind :
       {EngineKind::kLineRate, EngineKind::kNvmm, EngineKind::kBetaTree}) {
    EngineConfig cfg;
    cfg.kind = kind;
    const auto engine = make_engine(sim, cfg, ingest);
    ASSERT_NE(engine, nullptr);
    EXPECT_EQ(engine->kind(), kind);
    EXPECT_STREQ(engine->name(), engine_kind_name(kind));
  }
}

TEST(StorageEngine, NvmmChargesBandwidthAndLatency) {
  sim::Simulator sim;
  TargetConfig tcfg;
  tcfg.engine.kind = EngineKind::kNvmm;
  tcfg.engine.device_bandwidth = Bandwidth::from_gbytes_per_sec(1.0);  // 1000 ps/B
  tcfg.engine.write_latency = ns(300);
  tcfg.engine.read_latency = ns(200);
  Target t(sim, tcfg);

  // 1000 B at 1 GB/s = 1 us on the device, plus media latency.
  const TimePs d1 = t.write(0, Bytes(1000, 0xAB));
  EXPECT_EQ(d1, us(1) + ns(300));
  // Second write queues behind the first on the shared device budget.
  const TimePs d2 = t.write(1000, Bytes(1000, 0xCD));
  EXPECT_EQ(d2, us(2) + ns(300));
  // Reads share the same budget: this read starts after both writes.
  const auto r = t.read_at(0, 1000, 0);
  EXPECT_EQ(r.ready, us(3) + ns(200));
  EXPECT_EQ(r.data, Bytes(1000, 0xAB));
  // Functional read is free and identical.
  EXPECT_EQ(t.read(1000, 1000), Bytes(1000, 0xCD));
}

TEST(StorageEngine, PerNodeEngineSelectionInCluster) {
  services::ClusterConfig cfg;
  cfg.storage_nodes = 4;
  TargetConfig line;  // default kLineRate
  TargetConfig betree;
  betree.engine = betree_config();
  cfg.per_node_target = {line, betree};
  services::Cluster cluster(cfg);

  for (unsigned i = 0; i < 4; ++i) {
    const auto& engine = cluster.storage_node(i).target().engine();
    const EngineKind want = i % 2 == 0 ? EngineKind::kLineRate : EngineKind::kBetaTree;
    EXPECT_EQ(engine.kind(), want) << "node " << i;
  }
  // The heterogeneous cluster still serves a replicated write + read.
  services::Client client(cluster, 0);
  services::FilePolicy policy;
  policy.resiliency = dfs::Resiliency::kReplication;
  policy.repl_k = 3;
  const auto& layout = cluster.metadata().create("f", 8 * KiB, policy);
  const auto cap =
      cluster.metadata().grant(client.client_id(), layout, auth::Right::kReadWrite);
  const Bytes data = random_bytes(8 * KiB, 5);
  bool ok = false;
  client.write(layout, cap, data, [&](bool w, TimePs) { ok = w; });
  cluster.sim().run();
  ASSERT_TRUE(ok);
  Bytes back;
  client.read(layout, cap, 8 * KiB, services::ReadCb([&](dfs::DfsError e, Bytes d, TimePs) {
                EXPECT_EQ(e, dfs::DfsError::kOk);
                back = std::move(d);
              }));
  cluster.sim().run();
  EXPECT_EQ(back, data);
}

TEST(StorageEngine, MetricsExposeAmplificationAndOccupancy) {
  sim::Simulator sim;
  TargetConfig tcfg;
  tcfg.engine = betree_config();
  Target t(sim, tcfg);
  obs::MetricRegistry reg;
  t.bind_metrics(reg, "node0.storage");

  const Bytes chunk = random_bytes(4 * KiB, 11);
  for (int i = 0; i < 8; ++i) t.write(static_cast<std::uint64_t>(i) * 4 * KiB, chunk);
  sim.run();
  t.read_at(0, 4 * KiB, sim.now());

  const auto snap = reg.snapshot();
  EXPECT_GT(snap.at("node0.storage.engine.flushes"), 0);
  EXPECT_GT(snap.at("node0.storage.engine.write_amp_x100"), 100);  // > 1x: WAL + flush
  EXPECT_GE(snap.at("node0.storage.engine.read_amp_x100"), 0);
  EXPECT_GE(snap.at("node0.storage.engine.backlog_runs"), 0);
  EXPECT_GE(snap.at("node0.storage.engine.buffer_bytes"), 0);
  EXPECT_EQ(snap.at("node0.storage.bytes_written"), 8 * 4 * KiB);
}

// ---------------------------------------------------------------- BetaTree

TEST(BetaTree, MemtableFreezesAndFlushesToLevelZero) {
  sim::Simulator sim;
  TargetConfig tcfg;
  tcfg.engine = betree_config();
  Target t(sim, tcfg);
  auto& eng = dynamic_cast<BetaTreeEngine&>(t.engine());

  const Bytes a = random_bytes(4 * KiB, 1);
  t.write(0, a);  // exactly one memtable: freeze + flush start
  EXPECT_EQ(eng.buffered_bytes(), 4 * KiB);
  EXPECT_EQ(eng.flushes(), 1u);
  sim.run();  // flush commit drains the buffer into L0
  EXPECT_EQ(eng.buffered_bytes(), 0u);
  EXPECT_EQ(eng.backlog_runs(), 1u);
  EXPECT_GE(eng.level_count(), 1u);
  EXPECT_EQ(t.read(0, 4 * KiB), a);  // served from the on-device run
}

TEST(BetaTree, FanoutTriggersCompactionIntoNextLevel) {
  sim::Simulator sim;
  TargetConfig tcfg;
  tcfg.engine = betree_config();  // fanout = 2
  Target t(sim, tcfg);
  auto& eng = dynamic_cast<BetaTreeEngine&>(t.engine());

  // Four disjoint memtables -> two L0 compactions -> two L1 runs.
  for (int i = 0; i < 4; ++i) {
    t.write(static_cast<std::uint64_t>(i) * 4 * KiB, random_bytes(4 * KiB, 100 + i));
    sim.run();
  }
  EXPECT_EQ(eng.flushes(), 4u);
  EXPECT_GE(eng.compactions(), 2u);
  EXPECT_GT(eng.compact_read_bytes(), 0u);
  EXPECT_GT(eng.compact_write_bytes(), 0u);
  // Every byte still reads back correctly after the merges.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(t.read(static_cast<std::uint64_t>(i) * 4 * KiB, 4 * KiB),
              random_bytes(4 * KiB, 100 + i))
        << "extent " << i;
  }
}

TEST(BetaTree, NewestWriteShadowsOlderRunsAndTombstones) {
  sim::Simulator sim;
  TargetConfig tcfg;
  tcfg.engine = betree_config();
  Target t(sim, tcfg);

  const Bytes v1 = Bytes(4 * KiB, 0x11);
  const Bytes v2 = Bytes(4 * KiB, 0x22);
  t.write(0, v1);
  sim.run();  // v1 flushed on-device
  t.trim(0, 4 * KiB);  // range-delete message shadows it
  EXPECT_EQ(t.read(0, 4 * KiB), Bytes(4 * KiB, 0));
  EXPECT_TRUE(t.trimmed(0, 4 * KiB));
  t.write(0, v2);  // newest shadows the tombstone
  EXPECT_EQ(t.read(0, 4 * KiB), v2);
  EXPECT_FALSE(t.trimmed(0, 4 * KiB));
  sim.run();  // flush everything; order must survive the merges
  EXPECT_EQ(t.read(0, 4 * KiB), v2);
  // Partial overwrite on top of flushed data: head from v2, tail new.
  t.write(2 * KiB, Bytes(4 * KiB, 0x33));
  EXPECT_EQ(t.read(0, 2 * KiB), Bytes(2 * KiB, 0x22));
  EXPECT_EQ(t.read(2 * KiB, 4 * KiB), Bytes(4 * KiB, 0x33));
}

TEST(BetaTree, BufferOverCapacityStallsWrites) {
  sim::Simulator sim;
  TargetConfig tcfg;
  tcfg.engine = betree_config();
  tcfg.engine.device_bandwidth = Bandwidth::from_gbytes_per_sec(0.1);  // 10 ns/B: slow
  tcfg.engine.buffer_capacity = 6 * KiB;
  Target t(sim, tcfg);
  auto& eng = dynamic_cast<BetaTreeEngine&>(t.engine());

  // Burst far past the buffer without letting flush commits run.
  TimePs last = 0;
  for (int i = 0; i < 6; ++i) {
    last = t.write(static_cast<std::uint64_t>(i) * 4 * KiB, Bytes(4 * KiB, 0x5A));
  }
  EXPECT_GT(eng.buffered_bytes(), tcfg.engine.buffer_capacity);
  EXPECT_GT(eng.stalls(), 0u);
  EXPECT_GT(eng.stall_ps(), 0u);
  sim.run();
  EXPECT_EQ(eng.buffered_bytes(), 0u);  // backlog drains once events run
  EXPECT_GT(last, 0u);
}

TEST(BetaTree, ReadAmplificationChargedPerRunTouched) {
  sim::Simulator sim;
  TargetConfig tcfg;
  tcfg.engine = betree_config();
  tcfg.engine.fanout = 16;  // keep runs unmerged so the read spans many
  Target t(sim, tcfg);
  auto& eng = dynamic_cast<BetaTreeEngine&>(t.engine());

  // Three flushed runs, each holding a third of the range.
  for (int i = 0; i < 3; ++i) {
    t.write(static_cast<std::uint64_t>(i) * 4 * KiB, random_bytes(4 * KiB, 50 + i));
    sim.run();
  }
  ASSERT_EQ(eng.backlog_runs(), 3u);
  const TimePs t0 = sim.now();
  const auto r = t.read_at(0, 12 * KiB, t0);
  // 12 KiB of device payload from 3 distinct runs: bandwidth charge plus
  // one read latency per run touched.
  EXPECT_EQ(r.ready, t0 + tcfg.engine.device_bandwidth.transfer_time(12 * KiB) +
                         3 * tcfg.engine.read_latency);
  EXPECT_EQ(eng.compact_read_bytes(), 0u);
}

TEST(BetaTree, CompactionOutputsRetainOnlyTheirLogicalBytes) {
  // A partial-overwrite storm: 16 KiB writes, each later punched by small
  // overwrites, so flushed runs hold slices that share a write's buffer
  // with bytes a newer write shadows. Once merged, the compaction outputs
  // must keep alive exactly their logical bytes, not the shadowed rest.
  sim::Simulator sim;
  TargetConfig tcfg;
  tcfg.engine = betree_config();
  tcfg.engine.memtable_bytes = 32 * KiB;
  Target t(sim, tcfg);
  auto& eng = dynamic_cast<BetaTreeEngine&>(t.engine());
  constexpr std::size_t kSpan = 256 * KiB;
  Bytes oracle(kSpan, 0);
  Rng rng(env_seed() * 31 + 5);
  for (int round = 0; round < 48; ++round) {
    const std::uint64_t base = rng.next_below(kSpan / (16 * KiB)) * 16 * KiB;
    const Bytes whole = random_bytes(16 * KiB, 900 + static_cast<std::uint64_t>(round));
    t.write(base, whole, sim.now());
    std::copy(whole.begin(), whole.end(), oracle.begin() + static_cast<std::ptrdiff_t>(base));
    for (int punch = 0; punch < 3; ++punch) {
      const std::uint64_t addr = rng.next_below(kSpan - KiB);
      const std::size_t len = 1 + static_cast<std::size_t>(rng.next_below(KiB));
      const Bytes small = random_bytes(len, rng.next());
      t.write(addr, small, sim.now());
      std::copy(small.begin(), small.end(), oracle.begin() + static_cast<std::ptrdiff_t>(addr));
    }
  }
  sim.run();
  ASSERT_GE(eng.level_count(), 2u);
  const auto r = eng.retained_bytes();
  EXPECT_GT(r.logical, 0u);
  EXPECT_EQ(r.held, r.logical);
  EXPECT_EQ(t.read(0, kSpan), oracle);
}

std::uint64_t betree_cluster_digest(std::uint64_t seed) {
  services::ClusterConfig cfg;
  cfg.storage_nodes = 4;
  TargetConfig tcfg;
  tcfg.engine = betree_config();
  cfg.per_node_target = {tcfg};
  services::Cluster cluster(cfg);
  services::Client client(cluster, 0);
  services::FilePolicy policy;
  policy.resiliency = dfs::Resiliency::kReplication;
  policy.strategy = dfs::ReplStrategy::kPbt;
  policy.repl_k = 4;
  const std::size_t size = 24 * KiB + 13;
  const auto& layout = cluster.metadata().create("o", size, policy);
  const auto cap =
      cluster.metadata().grant(client.client_id(), layout, auth::Right::kReadWrite);
  bool ok = false;
  client.write(layout, cap, random_bytes(size, seed), [&](bool w, TimePs) { ok = w; });
  const TimePs end = cluster.sim().run();
  EXPECT_TRUE(ok) << "seed " << seed;

  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= static_cast<unsigned char>(v >> (8 * i));
      h *= 1099511628211ull;
    }
  };
  mix(end);
  mix(cluster.sim().executed_events());
  for (const auto& coord : layout.targets) {
    for (const auto b : cluster.storage_by_node(coord.node).target().read(coord.addr, size)) {
      h ^= b;
      h *= 1099511628211ull;
    }
  }
  return h;
}

TEST(BetaTree, ClusterDigestIsReproducible) {
  const std::uint64_t seed = env_seed();
  const auto first = betree_cluster_digest(seed);
  const auto second = betree_cluster_digest(seed);
  EXPECT_EQ(first, second) << "seed " << seed;
}

TEST(BetaTree, ClusterDigestPinned) {
  // Pinned for the two seeds scripts/check.sh runs: the replicated write
  // lands on four Bε-tree engines whose background flushes and compactions
  // are simulator events; a change that moves the final time, the event
  // count or the replica bytes folded into the digest fails here.
  const std::uint64_t seed = env_seed();
  const std::map<std::uint64_t, std::uint64_t> pinned = {{1, 0x5084d5ef06208096ull},
                                                          {7, 0x2ec2670517a0af8aull}};
  const auto digest = betree_cluster_digest(seed);
  if (const auto it = pinned.find(seed); it != pinned.end()) {
    EXPECT_EQ(digest, it->second) << "seed " << seed << std::hex << " digest 0x" << digest;
  }
}

// ------------------------------------------------------- EngineEquivalence

/// The pre-engine Target's timing model, re-implemented inline: one
/// GapServer at the ingest bandwidth, write = reserve(bytes), trim/read
/// free. The functional store is a flat byte array.
struct LegacyModel {
  explicit LegacyModel(sim::Simulator& sim, Bandwidth ingest_rate, std::size_t span)
      : ingest(sim, ingest_rate), bytes(span, 0) {}

  TimePs write(std::uint64_t addr, ByteSpan data, TimePs earliest) {
    std::copy(data.begin(), data.end(), bytes.begin() + static_cast<std::ptrdiff_t>(addr));
    return ingest.reserve(data.size(), earliest).end;
  }
  TimePs trim(std::uint64_t addr, std::uint64_t len, TimePs earliest) {
    std::fill(bytes.begin() + static_cast<std::ptrdiff_t>(addr),
              bytes.begin() + static_cast<std::ptrdiff_t>(addr + len), 0);
    return ingest.reserve(0, earliest).end;
  }
  Bytes read(std::uint64_t addr, std::size_t len) const {
    return Bytes(bytes.begin() + static_cast<std::ptrdiff_t>(addr),
                 bytes.begin() + static_cast<std::ptrdiff_t>(addr + len));
  }

  sim::GapServer ingest;
  Bytes bytes;
};

TEST(EngineEquivalence, LineRateMatchesLegacyTargetOpForOp) {
  const std::uint64_t seed = env_seed() * 1000003 + 17;
  constexpr std::size_t kSpan = 256 * KiB;
  sim::Simulator sim;
  TargetConfig tcfg;
  tcfg.ingest = Bandwidth::from_gbytes_per_sec(4.0);
  Target t(sim, tcfg);
  sim::Simulator legacy_sim;
  LegacyModel legacy(legacy_sim, tcfg.ingest, kSpan);

  Rng rng(seed);
  TimePs clock = 0;
  for (int op = 0; op < 400; ++op) {
    const std::uint64_t addr = rng.next_below(kSpan - 8 * KiB);
    const std::size_t len = 1 + static_cast<std::size_t>(rng.next_below(8 * KiB));
    clock += rng.next_below(us(1));
    const auto pick = rng.next_below(4);
    if (pick == 0) {
      // Trim through the engine only (Target::trim adds tombstone
      // bookkeeping the legacy model never had; the engine timing is the
      // comparable surface).
      const TimePs a = t.engine().trim(addr, len, clock);
      const TimePs b = legacy.trim(addr, len, clock);
      ASSERT_EQ(a, b) << "op " << op << " trim, seed " << seed;
    } else if (pick == 1) {
      const auto got = t.read_at(addr, len, clock);
      ASSERT_EQ(got.ready, clock) << "op " << op << " read_at, seed " << seed;
      ASSERT_EQ(got.data, legacy.read(addr, len)) << "op " << op << ", seed " << seed;
    } else {
      const Bytes data = random_bytes(len, seed + static_cast<std::uint64_t>(op));
      const TimePs a = t.write(addr, data, clock);
      const TimePs b = legacy.write(addr, data, clock);
      ASSERT_EQ(a, b) << "op " << op << " write, seed " << seed;
    }
  }
  // Full-span functional sweep.
  ASSERT_EQ(t.read(0, kSpan), legacy.read(0, kSpan)) << "seed " << seed;
  // The line-rate engine must not have scheduled a single event: digests
  // that fold executed_events stay pinned.
  EXPECT_EQ(sim.executed_events(), 0u);
  sim.run();
  EXPECT_EQ(sim.executed_events(), 0u);
}

/// Differential oracle for the Bε-tree: a flat byte array that applies
/// writes and trims instantly. After every op the engine must agree with it
/// over the whole span through `read` and over the op's range through
/// `read_at` (the priced data-plane read), while flushes and compactions
/// are in flight. Fanout 2 with a 4 KiB memtable builds several levels, and
/// random 1 B..4 KiB writes split extents that earlier splits produced, so
/// every compaction merges slices of slices.
TEST(EngineEquivalence, BetaTreeMatchesFlatOracleRandomized) {
  const std::uint64_t seed = env_seed() * 2654435761 + 99;
  constexpr std::size_t kSpan = 128 * KiB;
  sim::Simulator sim;
  TargetConfig tcfg;
  tcfg.engine = betree_config();
  Target t(sim, tcfg);
  auto& eng = dynamic_cast<BetaTreeEngine&>(t.engine());
  Bytes oracle(kSpan, 0);
  const auto expect = [&oracle](std::uint64_t addr, std::size_t len) {
    return Bytes(oracle.begin() + static_cast<std::ptrdiff_t>(addr),
                 oracle.begin() + static_cast<std::ptrdiff_t>(addr + len));
  };

  Rng rng(seed);
  for (int op = 0; op < 600; ++op) {
    const std::uint64_t addr = rng.next_below(kSpan - 4 * KiB);
    const std::size_t len = 1 + static_cast<std::size_t>(rng.next_below(4 * KiB));
    const auto pick = rng.next_below(8);
    if (pick == 0) {
      t.trim(addr, len, sim.now());
      std::fill(oracle.begin() + static_cast<std::ptrdiff_t>(addr),
                oracle.begin() + static_cast<std::ptrdiff_t>(addr + len), 0);
    } else if (pick == 1) {
      sim.run();  // drain flush/compaction backlog mid-workload
    } else {
      const Bytes data = random_bytes(len, seed ^ (static_cast<std::uint64_t>(op) << 20));
      t.write(addr, data, sim.now());
      std::copy(data.begin(), data.end(),
                oracle.begin() + static_cast<std::ptrdiff_t>(addr));
    }
    ASSERT_EQ(t.read(0, kSpan), oracle) << "op " << op << ", seed " << seed;
    ASSERT_EQ(t.read_at(addr, len, sim.now()).data, expect(addr, len))
        << "op " << op << ", seed " << seed;
  }
  sim.run();
  ASSERT_EQ(t.read(0, kSpan), oracle) << "seed " << seed;
  EXPECT_GE(eng.level_count(), 3u) << "seed " << seed;
}

/// Same randomized workload twice: identical durability times, identical
/// event counts — the Bε-tree's background machinery is deterministic.
TEST(EngineEquivalence, BetaTreeRandomizedTimingDigestIsReproducible) {
  const std::uint64_t seed = env_seed() * 7919 + 3;
  const auto run_once = [seed] {
    constexpr std::size_t kSpan = 64 * KiB;
    sim::Simulator sim;
    TargetConfig tcfg;
    tcfg.engine = betree_config();
    Target t(sim, tcfg);
    Rng rng(seed);
    std::uint64_t h = 1469598103934665603ull;
    const auto mix = [&h](std::uint64_t v) {
      for (int i = 0; i < 8; ++i) {
        h ^= static_cast<unsigned char>(v >> (8 * i));
        h *= 1099511628211ull;
      }
    };
    for (int op = 0; op < 300; ++op) {
      const std::uint64_t addr = rng.next_below(kSpan - 4 * KiB);
      const std::size_t len = 1 + static_cast<std::size_t>(rng.next_below(4 * KiB));
      if (rng.next_below(6) == 0) {
        mix(t.trim(addr, len, sim.now()));
      } else {
        mix(t.write(addr, random_bytes(len, seed + static_cast<std::uint64_t>(op)),
                    sim.now()));
      }
      if (op % 50 == 49) sim.run();
    }
    mix(sim.run());
    mix(sim.executed_events());
    for (const auto b : t.read(0, kSpan)) {
      h ^= b;
      h *= 1099511628211ull;
    }
    return h;
  };
  const std::uint64_t digest = run_once();
  EXPECT_EQ(digest, run_once()) << "seed " << seed;
  // Pinned for the two seeds scripts/check.sh runs: a change to the engine
  // that moves any durability time, event count or byte read back fails
  // here even when it is reproducible.
  const std::map<std::uint64_t, std::uint64_t> pinned = {{1, 0x2bca73b4403ec8bcull},
                                                          {7, 0xf0eaa64ef39dd998ull}};
  if (const auto it = pinned.find(env_seed()); it != pinned.end()) {
    EXPECT_EQ(digest, it->second) << "seed " << seed;
  }
}

}  // namespace
}  // namespace nadfs::storage
