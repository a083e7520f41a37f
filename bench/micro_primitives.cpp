// Micro-benchmarks (google-benchmark) of the compute primitives the
// handlers and the simulator are built on: GF(2^8) arithmetic, Reed-Solomon
// encode/decode, SipHash capability MACs, the event queue, packetization,
// and the GapServer reservation allocator. After the google-benchmark
// suite, two standalone sweeps run: a calendar-queue-vs-heap goodput sweep
// writing BENCH_event_queue.json (the PR 2 acceptance artifact), and a GF
// kernel-tier sweep writing BENCH_gf256.json (the PR 3 acceptance artifact:
// fused multi-parity RS encode vs the PR 1 per-coefficient SSSE3 loop).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>

#include "auth/capability.hpp"
#include "auth/siphash.hpp"
#include "bench/report.hpp"
#include "common/rng.hpp"
#include "dfs/wire.hpp"
#include "ec/gf256.hpp"
#include "ec/reed_solomon.hpp"
#include "obs/sampler.hpp"
#include "obs/span.hpp"
#include "services/client.hpp"
#include "services/cluster.hpp"
#include "sim/calendar_queue.hpp"
#include "sim/resource.hpp"
#include "sim/simulator.hpp"
#include "tests/sim_reference_heap.hpp"

namespace {

using namespace nadfs;

Bytes random_bytes(std::size_t n, std::uint64_t seed = 1) {
  Rng rng(seed);
  Bytes out(n);
  for (auto& b : out) b = rng.next_byte();
  return out;
}

// ----------------------------------------------------------- GF(2^8)

void BM_GfMulTable(benchmark::State& state) {
  const auto& gf = ec::Gf256::instance();
  Rng rng(1);
  std::uint8_t a = rng.next_byte(), b = rng.next_byte();
  for (auto _ : state) {
    benchmark::DoNotOptimize(gf.mul(a, b));
    a = static_cast<std::uint8_t>(a + 1);
    b = static_cast<std::uint8_t>(b + 3);
  }
}
BENCHMARK(BM_GfMulTable);

// Region kernel (runtime-selected: ssse3/avx2/gfni) vs the 256x256-table
// scalar path the handler cost model charges. The 2048 span is the
// per-packet EC accumulate; acceptance floor is >= 4x at that size.
void BM_GfMulAddVector(benchmark::State& state) {
  const auto& gf = ec::Gf256::instance();
  const auto n = static_cast<std::size_t>(state.range(0));
  Bytes dst = random_bytes(n, 1);
  const Bytes src = random_bytes(n, 2);
  state.SetLabel(gf.kernel_name());
  for (auto _ : state) {
    gf.mul_add(dst, src, 0x1D);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_GfMulAddVector)->Arg(2048)->Arg(64 * 1024)->Arg(1024 * 1024);

void BM_GfMulAddScalar(benchmark::State& state) {
  const auto& gf = ec::Gf256::instance();
  const auto n = static_cast<std::size_t>(state.range(0));
  Bytes dst = random_bytes(n, 1);
  const Bytes src = random_bytes(n, 2);
  for (auto _ : state) {
    gf.mul_add_scalar(dst, src, 0x1D);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_GfMulAddScalar)->Arg(2048)->Arg(64 * 1024)->Arg(1024 * 1024);

void BM_GfMulIntoVector(benchmark::State& state) {
  const auto& gf = ec::Gf256::instance();
  const auto n = static_cast<std::size_t>(state.range(0));
  Bytes dst(n);
  const Bytes src = random_bytes(n, 2);
  state.SetLabel(gf.kernel_name());
  for (auto _ : state) {
    gf.mul_into(dst, src, 0x1D);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_GfMulIntoVector)->Arg(2048)->Arg(64 * 1024);

// -------------------------------------------------------- Reed-Solomon

void BM_RsEncode(benchmark::State& state) {
  const auto k = static_cast<unsigned>(state.range(0));
  const auto m = static_cast<unsigned>(state.range(1));
  const std::size_t chunk = static_cast<std::size_t>(state.range(2));
  ec::ReedSolomon rs(k, m);
  std::vector<Bytes> data;
  for (unsigned i = 0; i < k; ++i) data.push_back(random_bytes(chunk, i));
  for (auto _ : state) {
    auto parity = rs.encode(data);
    benchmark::DoNotOptimize(parity.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(chunk * k));
}
BENCHMARK(BM_RsEncode)
    ->Args({3, 2, 64 * 1024})
    ->Args({6, 3, 64 * 1024})
    ->Args({6, 3, 1024 * 1024})
    ->Args({12, 4, 64 * 1024});

void BM_RsDecodeWorstCase(benchmark::State& state) {
  // All m data chunks lost: full matrix-inversion recovery path.
  const auto k = static_cast<unsigned>(state.range(0));
  const auto m = static_cast<unsigned>(state.range(1));
  const std::size_t chunk = 64 * 1024;
  ec::ReedSolomon rs(k, m);
  std::vector<Bytes> data;
  for (unsigned i = 0; i < k; ++i) data.push_back(random_bytes(chunk, i));
  const auto parity = rs.encode(data);
  std::vector<std::pair<unsigned, Bytes>> present;
  for (unsigned i = m; i < k; ++i) present.emplace_back(i, data[i]);
  for (unsigned i = 0; i < m; ++i) present.emplace_back(k + i, parity[i]);
  for (auto _ : state) {
    auto out = rs.decode(present);
    benchmark::DoNotOptimize(out->data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(chunk * k));
}
BENCHMARK(BM_RsDecodeWorstCase)->Args({3, 2})->Args({6, 3});

void BM_RsEncodeIntermediate(benchmark::State& state) {
  // The per-packet work of a sPIN-TriEC data node.
  ec::ReedSolomon rs(6, 3);
  const Bytes pkt = random_bytes(2048);
  for (auto _ : state) {
    auto inter = rs.encode_intermediate(2, pkt);
    benchmark::DoNotOptimize(inter.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 2048);
}
BENCHMARK(BM_RsEncodeIntermediate);

// ------------------------------------------------------------- SipHash

void BM_SipHash(benchmark::State& state) {
  auth::Key128 key{};
  for (std::size_t i = 0; i < key.size(); ++i) key[i] = static_cast<std::uint8_t>(i);
  const auto msg = random_bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(auth::siphash24(key, msg));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_SipHash)->Arg(48)->Arg(2048)->Arg(64 * 1024);

void BM_CapabilityVerify(benchmark::State& state) {
  auth::Key128 key{};
  key[3] = 7;
  auth::CapabilityAuthority authority(key);
  const auto cap = authority.mint(1, 2, auth::Right::kWrite, 0, 0, 1 << 20);
  for (auto _ : state) {
    benchmark::DoNotOptimize(authority.verify(cap, 0, auth::Right::kWrite, 64, 4096));
  }
}
BENCHMARK(BM_CapabilityVerify);

// ------------------------------------------------------- event engine

void BM_EventQueueChurn(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    int depth = 0;
    std::function<void()> chain = [&] {
      if (++depth < 1000) sim.schedule(1, chain);
    };
    sim.schedule(1, chain);
    sim.run();
    benchmark::DoNotOptimize(depth);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 1000);
}
BENCHMARK(BM_EventQueueChurn);

// Wide queue: many pending events with interleaved deadlines, the shape the
// NIC/link schedulers produce under load (vs Churn's depth-1 queue).
void BM_EventQueueWide(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < n; ++i) {
      // Deliberately non-monotonic insertion order.
      sim.schedule(static_cast<TimePs>((i * 2654435761u) % (n * 16)), [&sum] { ++sum; });
    }
    sim.run();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EventQueueWide)->Arg(1024)->Arg(64 * 1024);

void BM_GapServerReserve(benchmark::State& state) {
  sim::Simulator sim;
  for (auto _ : state) {
    sim::GapServer srv(sim, Bandwidth::from_gbps(400.0));
    for (int i = 0; i < 256; ++i) {
      benchmark::DoNotOptimize(srv.reserve(2048, static_cast<TimePs>(i % 7) * 1000));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 256);
}
BENCHMARK(BM_GapServerReserve);

// ------------------------------------------------------ packetization

void BM_BuildWritePackets(benchmark::State& state) {
  const auto size = static_cast<std::size_t>(state.range(0));
  const auto data = random_bytes(size);
  dfs::DfsHeader hdr;
  hdr.greq_id = 1;
  dfs::WriteRequestHeader wrh;
  wrh.total_len = size;
  for (auto _ : state) {
    auto pkts = dfs::build_request_packets(0, 1, 2048, hdr, wrh, data);
    benchmark::DoNotOptimize(pkts.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(size));
}
BENCHMARK(BM_BuildWritePackets)->Arg(4 * 1024)->Arg(256 * 1024);

// ------------------------------------- event-queue goodput sweep (PR 2)
//
// Head-to-head goodput of the calendar queue vs the retained PR 1 binary
// heap (tests/sim_reference_heap.hpp) on identical operation sequences:
// fill to N pending, steady-state churn (pop one, run it, push it back as
// its own successor), full drain. Both queue the simulator's real payload,
// a sim::EventFn, so the rates include moving callables around. Both
// structures pop the exact same (when, seq) order — proven by
// tests/sim_queue_differential_test.cpp — so the per-phase op rates are
// directly comparable, and a per-run checksum over popped entries (and the
// ids their callables fold in when they run) double-checks it here at
// bench scale. Acceptance: >= 2x total ops/s at 1e6 pending (uniform).

struct QueuePhaseRates {
  double fill_mops = 0.0;   // pushes/s during fill, in millions
  double churn_mops = 0.0;  // pops+pushes/s at steady state
  double drain_mops = 0.0;  // pops/s during drain
  double total_mops = 0.0;  // all ops / total wall time
  std::uint64_t checksum = 0;
};

/// Timestamp sequence shared by both queues. Uniform: fill times spread
/// evenly over ~N ns (mean gap 1 ns). Bursty: clusters of 1024 near-tie
/// events (ps-scale gaps) ~1 us apart — the shape a NIC scheduler under
/// load produces.
class DelayModel {
 public:
  DelayModel(bool bursty, std::size_t n, std::uint64_t seed)
      : bursty_(bursty), span_(static_cast<TimePs>(n) * ns(1)), rng_(seed) {}

  TimePs next_fill() {
    if (!bursty_) return rng_.next_below(span_);
    if (++in_cluster_ == 1024) {
      in_cluster_ = 0;
      base_ += us(1);
    }
    return base_ + rng_.next_below(ns(4));
  }

  TimePs next_churn() { return bursty_ ? rng_.next_below(ns(4)) : rng_.next_below(us(1)); }

 private:
  bool bursty_;
  TimePs span_;
  Rng rng_;
  TimePs base_ = 0;
  std::size_t in_cluster_ = 0;
};

template <typename Queue>
QueuePhaseRates run_queue_goodput(std::size_t n, std::size_t churn_ops, bool bursty) {
  using Clock = std::chrono::steady_clock;
  const auto mops = [](std::size_t ops, Clock::duration d) {
    return static_cast<double>(ops) / std::chrono::duration<double>(d).count() / 1e6;
  };

  Queue q;
  DelayModel delays(bursty, n, /*seed=*/0x5EED);
  QueuePhaseRates r;
  const auto fold = [&r](std::uint64_t v) { r.checksum = r.checksum * 1099511628211ull + v; };

  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < n; ++i) {
    const auto id = static_cast<std::uint64_t>(i);
    q.push(delays.next_fill(), sim::EventFn{[&fold, id] { fold(id); }});
  }
  const auto t1 = Clock::now();
  // Steady state: pop the earliest, run it and reschedule it relative to
  // itself — the hold model of a running simulation (every event spawns
  // the next).
  for (std::size_t i = 0; i < churn_ops / 2; ++i) {
    auto e = q.pop();
    fold(e.when ^ e.seq);
    e.payload();
    q.push(e.when + delays.next_churn(), std::move(e.payload));
  }
  const auto t2 = Clock::now();
  while (!q.empty()) {
    auto e = q.pop();
    fold(e.when ^ e.seq);
    e.payload();
  }
  const auto t3 = Clock::now();

  r.fill_mops = mops(n, t1 - t0);
  r.churn_mops = mops(churn_ops, t2 - t1);
  r.drain_mops = mops(n, t3 - t2);
  r.total_mops = mops(n + churn_ops + n, t3 - t0);
  return r;
}

void run_event_queue_sweep() {
  bench::SweepReport report("event_queue");
  std::printf("\nevent-queue goodput: calendar queue vs PR 1 binary heap\n");
  std::printf("%-9s %-8s %9s | %10s %10s %10s %10s\n", "queue", "dist", "pending", "fill_Mops",
              "churn_Mops", "drain_Mops", "total_Mops");

  const std::size_t churn_ops = 2'000'000;
  std::size_t points = 0;
  for (const bool bursty : {false, true}) {
    for (const std::size_t n : {std::size_t{1'000'000}, std::size_t{4'000'000}}) {
      const auto cal = run_queue_goodput<sim::CalendarQueue<sim::EventFn>>(n, churn_ops, bursty);
      const auto heap =
          run_queue_goodput<sim::ReferenceEventHeap<sim::EventFn>>(n, churn_ops, bursty);
      if (cal.checksum != heap.checksum) {
        std::fprintf(stderr, "FATAL: calendar/heap pop orders diverged (dist=%s n=%zu)\n",
                     bursty ? "bursty" : "uniform", n);
        std::exit(1);
      }
      const char* dist = bursty ? "bursty" : "uniform";
      for (const auto& [name, r] :
           {std::pair<const char*, const QueuePhaseRates&>{"calendar", cal}, {"heap", heap}}) {
        std::printf("%-9s %-8s %9zu | %10.2f %10.2f %10.2f %10.2f\n", name, dist, n, r.fill_mops,
                    r.churn_mops, r.drain_mops, r.total_mops);
        char csv[160];
        std::snprintf(csv, sizeof csv, "%s,%s,%zu,%.3f,%.3f,%.3f,%.3f", name, dist, n,
                      r.fill_mops, r.churn_mops, r.drain_mops, r.total_mops);
        report.add_csv(csv);
        ++points;
      }
      const double speedup = cal.total_mops / heap.total_mops;
      std::printf("%-9s %-8s %9zu | %10.2fx\n", "speedup", dist, n, speedup);
      char csv[96];
      std::snprintf(csv, sizeof csv, "speedup,%s,%zu,%.3f", dist, n, speedup);
      report.add_csv(csv);
    }
  }
  report.finish(/*threads=*/1, points);  // serial on purpose: clean timings
}

// --------------------------------- GF kernel-tier sweep (PR 3)
//
// Per-tier mul_add bandwidth for every supported kernel tier, plus the
// RS(10,4) @ 2 KiB-chunk head-to-head the PR 3 acceptance gate reads:
// fused multi-parity encode on the best tier vs the PR 1-style
// per-coefficient SSSE3 loop (zero-fill parity, then one full pass over
// the data per parity row). Acceptance: fused/best >= 1.5x. Writes
// BENCH_gf256.json.

double time_gbps(std::size_t bytes_per_iter, const std::function<void()>& body) {
  using Clock = std::chrono::steady_clock;
  // Warm up, then run for ~80 ms of wall time.
  body();
  std::size_t iters = 0;
  const auto t0 = Clock::now();
  Clock::duration elapsed{};
  do {
    body();
    ++iters;
    elapsed = Clock::now() - t0;
  } while (elapsed < std::chrono::milliseconds(80));
  const double secs = std::chrono::duration<double>(elapsed).count();
  return static_cast<double>(bytes_per_iter) * static_cast<double>(iters) / secs / 1e9;
}

void run_gf256_sweep() {
  bench::SweepReport report("gf256");
  std::printf("\nGF(2^8) kernel tiers: mul_add bandwidth + fused RS(10,4) encode\n");
  std::printf("%-22s %-8s %10s | %10s\n", "op", "tier", "bytes", "GB/s");
  std::size_t points = 0;

  const ec::Gf256::Kernel all[] = {ec::Gf256::Kernel::kScalar, ec::Gf256::Kernel::kSsse3,
                                   ec::Gf256::Kernel::kAvx2, ec::Gf256::Kernel::kGfni};
  for (const auto tier : all) {
    if (!ec::Gf256::kernel_supported(tier)) {
      std::printf("%-22s %-8s %10s | %10s\n", "mul_add", ec::Gf256::kernel_name(tier), "-",
                  "skip");
      continue;
    }
    const auto gf = std::make_unique<ec::Gf256>(tier);
    for (const std::size_t n : {std::size_t{2048}, std::size_t{64 * 1024}}) {
      Bytes dst = random_bytes(n, 1);
      const Bytes src = random_bytes(n, 2);
      const double gbps = time_gbps(n, [&] { gf->mul_add(dst, src, 0x1D); });
      std::printf("%-22s %-8s %10zu | %10.2f\n", "mul_add", gf->kernel_name(), n, gbps);
      char csv[96];
      std::snprintf(csv, sizeof csv, "mul_add,%s,%zu,%.3f", gf->kernel_name(), n, gbps);
      report.add_csv(csv);
      ++points;
    }
  }

  // RS(10,4), 2 KiB chunks. Fused path: ReedSolomon::encode (mul_into_multi
  // then mul_add_multi) on the process-best tier. Baseline: the PR 1 encode
  // shape — zero-filled parity, one per-coefficient mul_add pass per parity
  // row — pinned to SSSE3 (the best tier PR 1 had).
  constexpr unsigned k = 10, m = 4;
  constexpr std::size_t chunk = 2048;
  ec::ReedSolomon rs(k, m);
  std::vector<Bytes> data;
  for (unsigned i = 0; i < k; ++i) data.push_back(random_bytes(chunk, 100 + i));

  const double fused_gbps = time_gbps(chunk * k, [&] {
    auto parity = rs.encode(data);
    benchmark::DoNotOptimize(parity.data());
  });
  const char* best = ec::Gf256::instance().kernel_name();
  std::printf("%-22s %-8s %10zu | %10.2f\n", "rs10_4_encode_fused", best, chunk, fused_gbps);

  const auto ssse3 = std::make_unique<ec::Gf256>(ec::Gf256::Kernel::kSsse3);
  std::vector<Bytes> parity(m, Bytes(chunk));
  const double percoeff_gbps = time_gbps(chunk * k, [&] {
    for (auto& p : parity) std::fill(p.begin(), p.end(), std::uint8_t{0});
    for (unsigned i = 0; i < m; ++i) {
      for (unsigned j = 0; j < k; ++j) {
        ssse3->mul_add(parity[i], data[j], rs.parity_coefficient(i, j));
      }
    }
    benchmark::DoNotOptimize(parity.data());
  });
  std::printf("%-22s %-8s %10zu | %10.2f\n", "rs10_4_encode_percoeff", ssse3->kernel_name(),
              chunk, percoeff_gbps);

  const double speedup = fused_gbps / percoeff_gbps;
  std::printf("%-22s %-8s %10zu | %9.2fx\n", "rs10_4_speedup", best, chunk, speedup);
  char csv[160];
  std::snprintf(csv, sizeof csv, "rs10_4_encode_fused,%s,%zu,%.3f", best, chunk, fused_gbps);
  report.add_csv(csv);
  std::snprintf(csv, sizeof csv, "rs10_4_encode_percoeff,%s,%zu,%.3f", ssse3->kernel_name(),
                chunk, percoeff_gbps);
  report.add_csv(csv);
  std::snprintf(csv, sizeof csv, "rs10_4_speedup,%s,%zu,%.3f", best, chunk, speedup);
  report.add_csv(csv);
  points += 3;
  report.finish(/*threads=*/1, points);  // serial on purpose: clean timings
}

// --------------------------------- observability overhead sweep (PR 5)
//
// The same fig09-style goodput incast (ring k=4, saturating clients) run
// bare vs fully instrumented (span tracer on every layer + a 5 us
// timeseries sampler). Both variants drive the simulation with the same
// bounded-horizon loop so wall-clock is apples-to-apples; simulated
// observables must match exactly (instrumentation is read-only), and the
// relative wall-clock cost is the metrics-overhead figure the PR 5
// acceptance gate reads (< 5%). Writes BENCH_obs_overhead.json.

struct ObsRun {
  double wall_ms = 0;
  double gbit = 0;
  std::uint64_t last_end_ps = 0;
  std::size_t spans = 0;
  std::size_t samples = 0;
  bench::Snapshot metrics;  ///< the cluster's, unless the variant is bare
};

enum class ObsVariant { kBare, kMetrics, kFull };

ObsRun run_obs_goodput(ObsVariant variant, std::size_t size, unsigned n_clients,
                       unsigned per_client) {
  using Clock = std::chrono::steady_clock;
  const auto t0 = Clock::now();

  services::ClusterConfig cfg;
  cfg.storage_nodes = 4;
  cfg.clients = n_clients;
  services::FilePolicy policy;
  policy.resiliency = dfs::Resiliency::kReplication;
  policy.strategy = dfs::ReplStrategy::kRing;
  policy.repl_k = 4;

  services::Cluster cluster(cfg);
  obs::SpanTracer tracer;
  obs::Sampler sampler(cluster.sim());
  if (variant == ObsVariant::kFull) {
    cluster.set_tracer(&tracer);
    auto& pspin = cluster.storage_node(0).pspin();
    sampler.add_probe("busy_hpus",
                      [&] { return static_cast<double>(pspin.busy_hpus(cluster.sim().now())); });
    sampler.add_probe("egress_in_flight", [&] {
      return static_cast<double>(pspin.egress_in_flight(cluster.sim().now()));
    });
    sampler.start(us(5));
  }

  std::vector<std::unique_ptr<services::Client>> clients;
  for (unsigned c = 0; c < n_clients; ++c) {
    clients.push_back(std::make_unique<services::Client>(cluster, c));
  }
  const unsigned total = n_clients * per_client;
  unsigned completions = 0;
  for (unsigned c = 0; c < n_clients; ++c) {
    for (unsigned w = 0; w < per_client; ++w) {
      const auto& layout = cluster.metadata().create(
          "obs" + std::to_string(c) + "_" + std::to_string(w), size, policy);
      const auto cap =
          cluster.metadata().grant(clients[c]->client_id(), layout, auth::Right::kWrite);
      clients[c]->write(layout, cap, random_bytes(size, c * 1000 + w),
                        [&completions](dfs::DfsError, TimePs) { ++completions; });
    }
  }
  // Bounded-horizon drive (a running sampler keeps the queue non-empty, so
  // a plain run() would never return); same loop for both variants.
  for (unsigned spin = 0; completions < total && spin < 100000; ++spin) {
    cluster.sim().run_until(cluster.sim().now() + us(50));
  }
  sampler.stop();
  cluster.sim().run();  // drain stragglers + the final no-op tick

  ObsRun r;
  if (completions != total) {
    std::fprintf(stderr, "FATAL: obs-overhead workload stalled (%u/%u completions)\n",
                 completions, total);
    std::exit(1);
  }
  auto& pspin = cluster.storage_node(0).pspin();
  r.last_end_ps = pspin.last_handler_end();
  if (r.last_end_ps > 0) {
    r.gbit = static_cast<double>(pspin.payload_bytes_processed()) * 8.0 /
             (static_cast<double>(r.last_end_ps) / 1e12) / 1e9;
  }
  r.spans = tracer.spans().size();
  r.samples = sampler.rows().size();
  if (variant != ObsVariant::kBare) r.metrics = cluster.metrics().snapshot();
  r.wall_ms = std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  return r;
}

void run_obs_overhead_sweep() {
  bench::SweepReport report("obs_overhead");
  std::printf("\nobservability overhead: instrumented vs bare goodput incast\n");
  std::printf("%-14s %10s %12s %10s %10s\n", "variant", "wall_ms", "goodput_Gb", "spans",
              "samples");

  const std::size_t size = 16 * KiB;
  const unsigned clients = 4, per_client = 96, reps = 5;
  ObsRun best[3];
  for (auto& r : best) r.wall_ms = 1e18;
  for (unsigned i = 0; i < reps; ++i) {
    for (const auto v : {ObsVariant::kBare, ObsVariant::kMetrics, ObsVariant::kFull}) {
      const auto r = run_obs_goodput(v, size, clients, per_client);
      if (v != ObsVariant::kBare) report.add_metrics(r.metrics);
      auto& b = best[static_cast<int>(v)];
      if (r.wall_ms < b.wall_ms) b = r;
    }
  }
  const ObsRun& bare = best[0];
  const ObsRun& metrics = best[1];
  const ObsRun& full = best[2];

  if (bare.last_end_ps != metrics.last_end_ps || bare.last_end_ps != full.last_end_ps) {
    std::fprintf(stderr, "FATAL: instrumentation perturbed the simulation (%llu/%llu/%llu ps)\n",
                 static_cast<unsigned long long>(bare.last_end_ps),
                 static_cast<unsigned long long>(metrics.last_end_ps),
                 static_cast<unsigned long long>(full.last_end_ps));
    std::exit(1);
  }

  char csv[160];
  for (const auto& [name, r] : {std::pair<const char*, const ObsRun&>{"bare", bare},
                                {"metrics", metrics},
                                {"full_tracing", full}}) {
    std::printf("%-14s %10.1f %12.1f %10zu %10zu\n", name, r.wall_ms, r.gbit, r.spans,
                r.samples);
    std::snprintf(csv, sizeof csv, "%s,%.3f,%.2f,%zu,%zu", name, r.wall_ms, r.gbit, r.spans,
                  r.samples);
    report.add_csv(csv);
  }
  const double metrics_pct = (metrics.wall_ms - bare.wall_ms) / bare.wall_ms * 100.0;
  const double full_pct = (full.wall_ms - bare.wall_ms) / bare.wall_ms * 100.0;
  std::printf("%-14s %9.1f%%  (metrics+snapshot; acceptance gate < 5%%)\n", "overhead",
              metrics_pct);
  std::printf("%-14s %9.1f%%  (spans + 5 us sampler on top)\n", "overhead_full", full_pct);
  std::printf("goodput identical across variants: %.1f Gb, sim end identical\n", bare.gbit);
  std::snprintf(csv, sizeof csv, "metrics_overhead_pct,%.2f", metrics_pct);
  report.add_csv(csv);
  std::snprintf(csv, sizeof csv, "full_tracing_overhead_pct,%.2f", full_pct);
  report.add_csv(csv);
  report.finish(/*threads=*/1, 3);  // serial on purpose: clean timings
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  run_event_queue_sweep();
  run_gf256_sweep();
  run_obs_overhead_sweep();
  return 0;
}
