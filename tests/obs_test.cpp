// Tests of the observability subsystem (src/obs): metric instruments and
// registry round-trips, the strict JSON reader, the sim-time sampler, the
// cross-layer span tracer, and — the property everything else leans on —
// digest-neutrality: attaching the tracer and reading the registry must
// not change what a run computes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

#include "bench/report.hpp"
#include "common/rng.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "obs/span.hpp"
#include "services/client.hpp"
#include "services/cluster.hpp"

namespace nadfs {
namespace {

using services::Client;
using services::Cluster;
using services::ClusterConfig;
using services::FilePolicy;

Bytes random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Bytes out(n);
  for (auto& b : out) b = rng.next_byte();
  return out;
}

// ----------------------------------------------------------- instruments

TEST(ObsCounter, BehavesLikeTheRawInteger) {
  obs::Counter c;
  EXPECT_EQ(c, 0u);
  ++c;
  c += 4;
  c.inc();
  EXPECT_EQ(c, 6u);
  EXPECT_EQ(c.value(), 6u);
  const std::uint64_t as_int = c;  // implicit read, like the uint64 it replaced
  EXPECT_EQ(as_int, 6u);
  EXPECT_EQ(*c.cell(), 6u);
}

TEST(ObsSketch, IndexOfClampsBothEnds) {
  using S = obs::QuantileSketch;
  // Below 2 ns everything shares bucket 0; 2 ns opens major 1.
  EXPECT_EQ(S::index_of(0), 0u);
  EXPECT_EQ(S::index_of(999), 0u);
  EXPECT_EQ(S::index_of(ns(1)), 0u);
  EXPECT_EQ(S::index_of(ns(2) - 1), 0u);
  EXPECT_EQ(S::index_of(ns(2)), S::kSub);
  // The top of the range and anything past it land in the last bucket
  // instead of indexing out of range.
  const std::uint64_t top_ns = (std::uint64_t{1} << S::kMajor) - 1;
  EXPECT_EQ(S::index_of(top_ns * 1000), S::kBuckets - 1);
  EXPECT_EQ(S::index_of((top_ns + 1) * 1000), S::kBuckets - 1);
  EXPECT_EQ(S::index_of(~0ull), S::kBuckets - 1);
  // In range, a duration lies inside the bounds of its own sub-bucket.
  for (std::uint64_t v = 2; v < top_ns; v = v * 3 + 1) {
    const std::size_t i = S::index_of(v * 1000);
    EXPECT_LE(S::bucket_lo_ns(i), static_cast<double>(v)) << v << " ns";
    EXPECT_LT(static_cast<double>(v), S::bucket_hi_ns(i)) << v << " ns";
  }
}

TEST(ObsSketch, QuantileWithinOneSubBucketOfExactAndClamped) {
  obs::QuantileSketch s;
  if constexpr (!obs::kObsEnabled) {
    // NADFS_OBS=OFF: record() compiles to a no-op by design.
    s.record(ns(1));
    EXPECT_EQ(s.count(), 0u);
    GTEST_SKIP() << "sketches compiled out (NADFS_OBS=OFF)";
  }
  // Log-uniform durations from 100 ns to ~1 ms, whole nanoseconds.
  Rng rng(5);
  std::vector<std::uint64_t> samples;
  for (int i = 0; i < 20000; ++i) {
    const double exponent = 2.0 + 4.0 * rng.next_double();
    samples.push_back(static_cast<std::uint64_t>(std::pow(10.0, exponent)) * 1000);
  }
  for (const auto v : samples) s.record(v);
  std::sort(samples.begin(), samples.end());
  EXPECT_EQ(s.count(), samples.size());
  EXPECT_EQ(s.min_ps(), samples.front());
  EXPECT_EQ(s.max_ps(), samples.back());
  for (const double q : {0.01, 0.1, 0.5, 0.9, 0.99, 0.999}) {
    const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(samples.size())));
    const std::uint64_t exact = samples[rank - 1];
    const std::size_t i = obs::QuantileSketch::index_of(exact);
    const double width_ps =
        (obs::QuantileSketch::bucket_hi_ns(i) - obs::QuantileSketch::bucket_lo_ns(i)) * 1000.0;
    const double got = static_cast<double>(s.quantile_ps(q));
    EXPECT_LE(std::abs(got - static_cast<double>(exact)), width_ps) << "q " << q;
  }
  // The extremes are clamped to the observed range ...
  EXPECT_EQ(s.quantile_ps(0.0), s.min_ps());
  EXPECT_EQ(s.quantile_ps(1.0), s.max_ps());
  // ... which makes a single-valued distribution exact at every quantile,
  // though its sub-bucket is ~2 us wide.
  obs::QuantileSketch one;
  for (int i = 0; i < 3; ++i) one.record(123'456'789);
  for (const double q : {0.0, 0.5, 0.99, 1.0}) EXPECT_EQ(one.quantile_ps(q), 123'456'789u);
}

TEST(ObsSketch, MergeEqualsRecordingTheUnion) {
  obs::QuantileSketch a, b, both;
  if constexpr (!obs::kObsEnabled) {
    a.record(ns(1));
    EXPECT_EQ(a.count(), 0u);
    GTEST_SKIP() << "sketches compiled out (NADFS_OBS=OFF)";
  }
  Rng rng(11);
  for (int i = 0; i < 500; ++i) {
    const std::uint64_t v = ns(50) + rng.next_below(us(20));
    a.record(v);
    both.record(v);
  }
  for (int i = 0; i < 300; ++i) {
    const std::uint64_t v = us(5) + rng.next_below(ms(2));
    b.record(v);
    both.record(v);
  }
  const auto same = [](const obs::QuantileSketch& x, const obs::QuantileSketch& y) {
    if (x.count() != y.count() || x.sum_ps() != y.sum_ps() || x.min_ps() != y.min_ps() ||
        x.max_ps() != y.max_ps()) {
      return false;
    }
    for (std::size_t i = 0; i < obs::QuantileSketch::kBuckets; ++i) {
      if (x.bucket(i) != y.bucket(i)) return false;
    }
    return x.quantile_ps(0.5) == y.quantile_ps(0.5) && x.quantile_ps(0.99) == y.quantile_ps(0.99);
  };
  obs::QuantileSketch merged = a;
  merged.merge(b);
  EXPECT_TRUE(same(merged, both));
  // Order does not matter, and merging into or from an empty sketch is the
  // identity.
  obs::QuantileSketch reversed;
  reversed.merge(b);
  reversed.merge(a);
  EXPECT_TRUE(same(reversed, both));
  merged.merge(obs::QuantileSketch{});
  EXPECT_TRUE(same(merged, both));
}

TEST(ObsSketch, BenchAccumulatorMergesSnapshotsLikeTheSketch) {
  // Two sweep points with disjoint latency ranges, plus one whose sketch
  // stayed empty: the BENCH totals must be those of QuantileSketch::merge —
  // buckets summed, min and max merged as such — and so must the derived
  // percentiles.
  obs::QuantileSketch a, b, empty;
  if constexpr (!obs::kObsEnabled) GTEST_SKIP() << "sketches compiled out (NADFS_OBS=OFF)";
  Rng rng(12);
  for (int i = 0; i < 400; ++i) a.record(us(2) + rng.next_below(us(8)));
  for (int i = 0; i < 100; ++i) b.record(us(40) + rng.next_below(us(200)));
  bench::MetricsAccumulator acc;
  for (const obs::QuantileSketch* s : {&a, &empty, &b}) {
    obs::MetricRegistry reg;
    reg.sketch("lat", *s);
    acc.add(reg.snapshot());
  }
  obs::QuantileSketch merged = a;
  merged.merge(b);
  const auto totals = acc.totals();
  const auto as_ll = [](std::uint64_t v) { return static_cast<long long>(v); };
  EXPECT_EQ(totals.at("lat.count"), as_ll(merged.count()));
  EXPECT_EQ(totals.at("lat.min_ps"), as_ll(merged.min_ps()));
  EXPECT_EQ(totals.at("lat.max_ps"), as_ll(merged.max_ps()));
  EXPECT_EQ(totals.at("lat.p50_ns"), as_ll((merged.quantile_ps(0.50) + 500) / 1000));
  EXPECT_EQ(totals.at("lat.p99_ns"), as_ll((merged.quantile_ps(0.99) + 500) / 1000));
}

// -------------------------------------------------------------- registry

TEST(ObsRegistry, SnapshotAndJsonRoundTrip) {
  obs::MetricRegistry reg;
  obs::Counter acks;
  std::uint64_t raw_cell = 0;
  obs::QuantileSketch lat;
  int depth = 0;
  reg.counter("node1.dfs.acks", acks);
  reg.counter_cell("node1.nic.raw", &raw_cell);
  reg.gauge("node1.queue_depth", [&depth] { return static_cast<long long>(depth); });
  reg.sketch("client0.latency", lat);

  acks += 3;
  raw_cell = 7;
  depth = 42;
  lat.record(us(2));

  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.at("node1.dfs.acks"), 3);
  EXPECT_EQ(snap.at("node1.nic.raw"), 7);
  EXPECT_EQ(snap.at("node1.queue_depth"), 42);
  if constexpr (obs::kObsEnabled) {
    EXPECT_EQ(snap.at("client0.latency.count"), 1);
    EXPECT_EQ(snap.at("client0.latency.sum_ps"), static_cast<long long>(us(2)));
    const auto bucket = "client0.latency.s" + std::to_string(obs::QuantileSketch::index_of(us(2)));
    EXPECT_EQ(snap.at(bucket), 1);
  } else {
    EXPECT_EQ(snap.at("client0.latency.count"), 0);  // record() compiled out
  }

  // The JSON export parses back to exactly the snapshot.
  std::string err;
  const auto parsed = obs::parse_flat_object(reg.to_json(), &err);
  ASSERT_TRUE(parsed.has_value()) << err;
  EXPECT_EQ(*parsed, snap);
}

TEST(ObsRegistry, RemovePrefixDropsOnlyThatSubtree) {
  obs::MetricRegistry reg;
  obs::Counter a, b;
  reg.counter("client1.retries", a);
  reg.counter("client10.retries", b);  // shares the string prefix "client1"
  reg.counter("net.drops", b);
  reg.remove_prefix("client1.");
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.count("client1.retries"), 0u);
  EXPECT_EQ(snap.count("client10.retries"), 1u);
  EXPECT_EQ(snap.count("net.drops"), 1u);
}

TEST(ObsRegistry, ClientBindsAndUnbindsItself) {
  Cluster cluster;
  const auto before = cluster.metrics().size();
  {
    Client client(cluster, 0);
    const auto snap = cluster.metrics().snapshot();
    const std::string prefix = "client" + std::to_string(client.client_id());
    EXPECT_EQ(snap.count(prefix + ".retries_performed"), 1u);
    EXPECT_EQ(snap.count(prefix + ".pending_ops"), 1u);
    EXPECT_EQ(snap.count(prefix + ".write_latency_q.count"), 1u);
  }
  // Destroyed client removed its subtree; nothing dangles.
  EXPECT_EQ(cluster.metrics().size(), before);
}

// ----------------------------------------------------------- JSON reader

TEST(ObsJson, AcceptsValidDocuments) {
  EXPECT_TRUE(obs::json_valid("{}"));
  EXPECT_TRUE(obs::json_valid("[1, 2.5, -3e2, \"a\\u00e9b\", true, null, {\"k\":[]}]"));
  const auto doc = obs::json_parse("{\"a\": {\"b\": [1, 2]}, \"c\": \"x\"}");
  ASSERT_TRUE(doc.has_value());
  ASSERT_NE(doc->find("a"), nullptr);
  EXPECT_EQ(doc->find("a")->find("b")->arr.size(), 2u);
  EXPECT_EQ(doc->find("c")->str, "x");
  EXPECT_EQ(doc->find("missing"), nullptr);
}

TEST(ObsJson, RejectsInvalidDocuments) {
  EXPECT_FALSE(obs::json_valid(""));
  EXPECT_FALSE(obs::json_valid("{"));
  EXPECT_FALSE(obs::json_valid("{} trailing"));
  EXPECT_FALSE(obs::json_valid("{'single': 1}"));
  EXPECT_FALSE(obs::json_valid("[1,]"));
  EXPECT_FALSE(obs::json_valid("01"));
  EXPECT_FALSE(obs::json_valid("\"bad \\x escape\""));
  std::string err;
  EXPECT_FALSE(obs::json_valid("[1, }", &err));
  EXPECT_FALSE(err.empty());
}

TEST(ObsJson, FlatObjectRejectsNonIntegers) {
  EXPECT_TRUE(obs::parse_flat_object("{\"a\": 1, \"b\": -2}").has_value());
  EXPECT_FALSE(obs::parse_flat_object("{\"a\": 1.5}").has_value());
  EXPECT_FALSE(obs::parse_flat_object("{\"a\": \"x\"}").has_value());
  EXPECT_FALSE(obs::parse_flat_object("[1]").has_value());
}

// --------------------------------------------------------------- sampler

TEST(ObsSampler, SamplesOnCadenceAndExports) {
  sim::Simulator sim;
  obs::Sampler sampler(sim);
  int depth = 0;
  sampler.add_probe("depth", [&depth] { return static_cast<double>(depth); });
  sampler.start(us(10));
  sim.schedule(us(25), [&depth] { depth = 5; });
  sim.run_until(us(45));
  sampler.stop();
  sim.run();

  ASSERT_EQ(sampler.rows().size(), 4u);  // t = 10, 20, 30, 40 us
  EXPECT_EQ(sampler.rows()[0].t_ps, us(10));
  EXPECT_EQ(sampler.rows()[1].v[0], 0.0);
  EXPECT_EQ(sampler.rows()[2].v[0], 5.0);

  std::ostringstream csv;
  sampler.export_csv(csv);
  EXPECT_EQ(csv.str().substr(0, 11), "t_ns,depth\n");

  std::ostringstream json;
  sampler.export_json(json);
  std::string err;
  const auto doc = obs::json_parse(json.str(), &err);
  ASSERT_TRUE(doc.has_value()) << err;
  EXPECT_EQ(doc->find("series")->arr.size(), 2u);
  EXPECT_EQ(doc->find("rows")->arr.size(), 4u);
}

// ---------------------------------------------------- digest-neutrality

/// Everything observable about a seeded replicated+EC workload, including
/// the executed-event count (the strictest neutrality witness).
std::uint64_t run_workload_digest(bool traced) {
  ClusterConfig cfg;
  cfg.storage_nodes = 5;
  cfg.clients = 2;
  Cluster cluster(cfg);
  obs::SpanTracer tracer;
  if (traced) cluster.set_tracer(&tracer);

  Client c0(cluster, 0);
  Client c1(cluster, 1);
  FilePolicy repl;
  repl.resiliency = dfs::Resiliency::kReplication;
  repl.repl_k = 3;
  FilePolicy ec;
  ec.resiliency = dfs::Resiliency::kErasureCoding;
  ec.ec_k = 3;
  ec.ec_m = 2;

  const auto& l0 = cluster.metadata().create("r", 20000, repl);
  const auto& l1 = cluster.metadata().create("e", 30000, ec);
  const auto cap0 = cluster.metadata().grant(c0.client_id(), l0, auth::Right::kWrite);
  const auto cap1 = cluster.metadata().grant(c1.client_id(), l1, auth::Right::kWrite);

  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= static_cast<std::uint8_t>(v >> (8 * i));
      h *= 1099511628211ull;
    }
  };
  c0.write(l0, cap0, random_bytes(20000, 7), [&](dfs::DfsError err, TimePs at) {
    mix(err == dfs::DfsError::kOk);
    mix(at);
  });
  c1.write(l1, cap1, random_bytes(30000, 9), [&](dfs::DfsError err, TimePs at) {
    mix(err == dfs::DfsError::kOk);
    mix(at);
  });
  cluster.sim().run();

  if (traced) {
    // Reading the registry mid-flight is the documented usage; fold a
    // snapshot read in so the test covers it, but never into the digest.
    EXPECT_GT(cluster.metrics().snapshot().size(), 0u);
    if constexpr (obs::kObsEnabled) {
      EXPECT_GT(tracer.size(), 0u);
    }
  }
  for (std::size_t n = 0; n < cluster.storage_node_count(); ++n) {
    mix(cluster.storage_node(n).target().bytes_written());
    mix(cluster.storage_node(n).dfs_state()->acks_sent);
    mix(cluster.storage_node(n).dfs_state()->cleanups);
  }
  mix(cluster.sim().now());
  mix(cluster.sim().executed_events());
  return h;
}

TEST(ObsNeutrality, TracerAndRegistryDoNotPerturbTheRun) {
  // Span tracing and metric registration/reads add zero simulator events
  // and zero RNG draws, so the full digest — executed_events included —
  // is identical with the whole stack attached. (The sampler is the
  // documented exception: its Periodic ticks add events; see DESIGN.md
  // §3c.) With cmake -DNADFS_OBS=OFF the same property holds trivially:
  // the hooks compile out and this test still passes both ways.
  EXPECT_EQ(run_workload_digest(false), run_workload_digest(true));
}

}  // namespace
}  // namespace nadfs
