// perfbench: the repository benchmark (see perfbench/README.md).
//
// One process runs one named workload on the serial simulator core and
// prints either the end-to-end metrics (--trace 0, tracing off) or the
// per-layer metrics (--trace 1, from runs with an obs::SpanTracer
// attached, next to untraced runs of the same inputs). Every layer is
// measured from outside through public API only: host time around
// Cluster construction, Engine::setup() and Engine::run(); the cluster's
// MetricRegistry snapshot; PsPinDevice handler stats; spans folded by
// correlation id; and a global operator new replacement (below) that
// counts heap allocations made during Engine::run().
//
// The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The process exits non-zero when the correctness gate fails.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <new>
#include <numeric>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dfs/wire.hpp"
#include "services/host_dfs.hpp"
#include "storage/engine/engine.hpp"
#include "workload/workload.hpp"

// ---------------------------------------------------------------- allocations
// Counts operator new calls and bytes while `on` is set (Engine::run() of
// an untraced run). The simulator core is serial, so plain globals suffice.
namespace {
struct AllocCounter {
  bool on = false;
  std::uint64_t calls = 0;
  std::uint64_t bytes = 0;
};
AllocCounter g_alloc;

void count_alloc(std::size_t n) {
  if (g_alloc.on) {
    ++g_alloc.calls;
    g_alloc.bytes += n;
  }
}

void* counted_alloc(std::size_t n) {
  count_alloc(n);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* counted_alloc_aligned(std::size_t n, std::align_val_t al) {
  count_alloc(n);
  const auto a = static_cast<std::size_t>(al);
  const std::size_t rounded = (std::max<std::size_t>(n, 1) + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t al) { return counted_alloc_aligned(n, al); }
void* operator new[](std::size_t n, std::align_val_t al) { return counted_alloc_aligned(n, al); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace {

using namespace nadfs;
using Clock = std::chrono::steady_clock;
using Snapshot = std::map<std::string, long long>;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// CPU time of the calling thread. The kernel leaves out time the thread
/// spent waiting for a CPU, including time the hypervisor stole, so this
/// shrugs off most interference from other tenants of a shared host.
double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double fastest(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

/// Linearly interpolated percentile of unsorted samples, p in [0, 100].
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  if (lo + 1 >= v.size()) return v.back();
  const double frac = rank - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[lo + 1] * frac;
}

// ----------------------------------------------------------- reference kernel
/// A fixed piece of work shaped like the simulator's hot loops: a binary-heap
/// event queue, small heap allocations freed in a different order, scattered
/// reads and writes over a table about the size of a run's heap (latency
/// bound), and a scan-collect-select over a queue of slots as in
/// PsPinDevice::egress_accept (compute bound; it dominates `ec_overload`).
/// It depends on no workload, seed or code under src/, so its CPU time
/// tracks only how fast the host runs at that moment. Returns that time.
double reference_kernel_cpu_s(unsigned events) {
  static std::vector<std::uint64_t> table(std::size_t{1} << 22);  // 32 MiB
  const double t0 = thread_cpu_s();
  struct Ev {
    std::uint64_t at;
    std::uint64_t* payload;
    bool operator>(const Ev& o) const { return at > o.at; }
  };
  struct Slot {
    std::uint64_t issue;
    std::uint64_t end;
  };
  std::vector<Ev> heap;
  heap.reserve(4096);
  std::vector<Slot> slots(64);
  std::vector<std::uint64_t> ends;
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  std::uint64_t sum = 0;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (unsigned i = 0; i < 4096; ++i) {
    heap.push_back({next() & 0xFFFFFF, new std::uint64_t[8]{}});
    std::push_heap(heap.begin(), heap.end(), std::greater<>());
  }
  for (unsigned i = 0; i < events; ++i) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<>());
    Ev ev = heap.back();
    heap.pop_back();
    for (int j = 0; j < 4; ++j) {
      std::uint64_t& cell = table[next() & (table.size() - 1)];
      sum += cell;
      cell += ev.at;
    }
    ends.clear();
    for (const auto& slot : slots) {
      if (slot.issue <= ev.at && slot.end > ev.at) ends.push_back(slot.end);
    }
    if (ends.size() > 8) {
      std::nth_element(ends.begin(), ends.begin() + 8, ends.end());
      sum += ends[8];
    }
    slots[i % slots.size()] = {ev.at, ev.at + (next() & 0x3FFFF)};
    sum += ev.payload[ev.at & 7];
    delete[] ev.payload;
    const std::size_t words = 4 + (next() & 31);
    ev.payload = new std::uint64_t[words]{};
    ev.payload[0] = sum;
    ev.at += 1 + (next() & 0xFFFF);
    heap.push_back(ev);
    std::push_heap(heap.begin(), heap.end(), std::greater<>());
  }
  for (auto& ev : heap) delete[] ev.payload;
  table[sum & (table.size() - 1)] ^= sum;  // keep the work observable
  return thread_cpu_s() - t0;
}

/// Host speed over one timed round. A shared host's speed drifts by tens of
/// percent over seconds to minutes, and not only through stolen CPU time
/// (which thread CPU time already leaves out): other tenants' cache and
/// memory traffic slow every instruction. The simulator and the reference
/// kernel slow down together, so a round's host CPU seconds are rescaled
/// to *reference seconds*: seconds on a host where the kernel takes
/// kRefNsPerEvent per event (about what the reference machine took).
struct HostSpeed {
  static constexpr double kRefNsPerEvent = 1000.0;
  double kernel_cpu_s = 0;
  double kernel_events = 0;

  /// Run the kernel once; called right before each input of a round.
  void measure(unsigned events) {
    kernel_cpu_s += reference_kernel_cpu_s(events);
    kernel_events += events;
  }
  /// Reference seconds per host CPU second in this round.
  double scale() const { return kernel_events * kRefNsPerEvent * 1e-9 / kernel_cpu_s; }
};

// ------------------------------------------------------------------ workloads
// Why each workload exists, its frozen knee latency limit and the values it
// read when it was introduced are recorded in perfbench/README.md.
struct Workload {
  std::string name;
  bool offload = true;      ///< sPIN handlers (true) or HostDfsService (false)
  bool betree = false;      ///< Bε-tree storage engine instead of line rate
  double offered_gbps = 0;  ///< open-loop rate of the main point; 0 = closed loop
  unsigned sessions = 0;    ///< closed-loop sessions (zero think time)
  TimePs horizon = 0;       ///< arrival horizon of one input
  std::vector<workload::TenantSpec> tenants;
  /// Independent inputs (simulator seeds derived from --seed): simulated
  /// figures pool all of them; timed rounds and traced runs use the first
  /// `timing_inputs`; the knee ladder runs the first `ladder_inputs`.
  unsigned inputs = 1;
  unsigned timing_inputs = 1;
  unsigned ladder_inputs = 1;
  /// Reference kernel events run before each timed input: about a quarter
  /// of the input's own run time (see HostSpeed).
  unsigned ref_events = 100'000;
  /// Knee ladder: open-loop offered rates (Gb/s), scanned upward, each run
  /// for `ladder_horizon` of simulated time with the main point's tenants.
  std::vector<double> ladder_gbps;
  TimePs ladder_horizon = 0;
  /// Frozen knee latency limit (µs): 10x the pooled all-op p99 at the
  /// ladder's lowest rung, measured with --seed 1 when the limit was set.
  double p99_limit_us = 0;
};

workload::TenantSpec base_tenant(const char* name) {
  workload::TenantSpec t;
  t.name = name;
  t.objects = 24;
  t.object_size = 256 * KiB;
  t.io_bytes = 16 * KiB;
  t.zipf_s = 0.99;
  t.mix = {0.5, 0.5, 0.0, 0.0};  // read, write, append, stat
  return t;
}

bool make_workload(const std::string& name, Workload& w) {
  w.name = name;
  if (name == "line_mix") {
    auto plain = base_tenant("plain");
    plain.weight = 4;
    auto repl3 = base_tenant("repl3");
    repl3.weight = 1;
    repl3.policy.resiliency = dfs::Resiliency::kReplication;
    repl3.policy.repl_k = 3;
    w.tenants = {plain, repl3};
    w.offered_gbps = 1000;
    w.horizon = ms(2);
    w.inputs = 4;
    w.timing_inputs = 4;
    w.ladder_inputs = 4;
    w.ladder_gbps = {250, 500, 750, 1000, 1250, 1500, 1750, 2000};
    w.ladder_horizon = ms(1);
    w.p99_limit_us = 32.0;
    return true;
  }
  if (name == "ec_overload") {
    auto ec = base_tenant("ec32");
    ec.object_size = 192 * KiB;  // a multiple of k: whole-stripe writes
    ec.io_bytes = 192 * KiB;     // whole-object reads and writes
    ec.mix = {0.3, 0.7, 0.0, 0.0};
    ec.policy.resiliency = dfs::Resiliency::kErasureCoding;
    ec.policy.ec_k = 3;
    ec.policy.ec_m = 2;
    w.tenants = {ec};
    w.offered_gbps = 160;
    // Many short overload bursts: the backlog (and so every latency) is
    // very sensitive to an input's arrival count, and pooling many cheap
    // inputs steadies it for less host time than a few long ones.
    w.horizon = us(500);
    w.inputs = 256;
    w.timing_inputs = 128;
    w.ladder_inputs = 12;
    w.ref_events = 12'000;
    w.ladder_gbps = {30, 60, 90, 120, 150};
    w.ladder_horizon = ms(2);
    w.p99_limit_us = 1354.3;
    return true;
  }
  if (name == "host_betree") {
    auto t = base_tenant("betree");
    t.mix = {0.3, 0.7, 0.0, 0.0};
    w.tenants = {t};
    w.offload = false;
    w.betree = true;
    w.sessions = 32;
    w.horizon = ms(500);
    w.inputs = 16;
    w.timing_inputs = 4;
    w.ladder_inputs = 4;
    w.ladder_gbps = {1, 2, 4, 8};
    w.ladder_horizon = ms(100);
    w.p99_limit_us = 6460.2;
    return true;
  }
  return false;
}

/// The storage_engine bench's Bε-tree configuration.
storage::TargetConfig betree_target() {
  storage::TargetConfig t;
  t.engine.kind = storage::EngineKind::kBetaTree;
  t.engine.device_bandwidth = Bandwidth::from_gbytes_per_sec(1.0);
  t.engine.write_latency = ns(500);
  t.engine.read_latency = ns(300);
  t.engine.memtable_bytes = 16 * KiB;
  t.engine.buffer_capacity = 64 * KiB;
  t.engine.fanout = 4;
  return t;
}

/// Simulator seed of input `k`: a SplitMix64 step over the workload seed,
/// so one --seed names a fixed set of inputs.
std::uint64_t input_seed(std::uint64_t seed, unsigned k) {
  std::uint64_t z = seed * 0x100 + k + 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// ----------------------------------------------------------------- one run
struct HandlerTotals {
  std::uint64_t runs[3] = {};
  double busy_ns[3] = {};
  double instr[3] = {};
  unsigned hpus = 0;
};

struct RunResult {
  double setup_s = 0;      ///< wall clock
  double run_s = 0;        ///< wall clock
  double setup_cpu_s = 0;  ///< thread CPU time
  double run_cpu_s = 0;    ///< thread CPU time
  std::uint64_t digest = 0;
  std::uint64_t events = 0;
  std::uint64_t allocs = 0;
  std::uint64_t alloc_bytes = 0;
  TimePs duration = 0;
  workload::Stats stats;
  Snapshot snap;
  std::vector<HandlerTotals> pspin;  ///< per storage node, in node order
  std::vector<net::NodeId> storage_ids;
  std::uint64_t payload_bytes_done = 0;
  std::uint64_t cleanup_runs = 0;
  std::vector<obs::Span> spans;
  net::NetworkConfig net;
};

/// Build a fresh cluster, run the workload once and harvest everything
/// before the Engine (which owns the clients) and the cluster go away.
/// `gbps` > 0 runs the open loop at that rate; 0 runs the closed loop.
RunResult run_once(const Workload& w, double gbps, TimePs horizon, std::uint64_t seed,
                   bool traced, bool count_allocs) {
  RunResult r;
  obs::SpanTracer tracer;  // outlives the cluster that points at it
  const auto t0 = Clock::now();
  const double c0 = thread_cpu_s();
  services::ClusterConfig cfg;
  cfg.parallel.mode = services::SimParallelConfig::Mode::kOff;
  cfg.parallel.threads = 1;
  cfg.storage_nodes = 5;
  cfg.clients = 4;
  cfg.install_dfs = w.offload;
  if (w.betree) cfg.per_node_target = {betree_target()};
  services::Cluster cluster(cfg);
  std::vector<std::unique_ptr<services::HostDfsService>> host;
  if (!w.offload) {
    for (std::size_t i = 0; i < cluster.storage_node_count(); ++i) {
      host.push_back(std::make_unique<services::HostDfsService>(cluster.storage_node(i), cfg.dfs));
    }
  }
  workload::EngineConfig ecfg;
  ecfg.users = 1'000'000;
  ecfg.client_slots = cfg.clients;
  ecfg.duration = horizon;
  ecfg.seed = seed;
  if (gbps > 0) {
    // All tenants of a workload share one io size.
    ecfg.rate_ops_per_s = gbps * 1e9 / (8.0 * static_cast<double>(w.tenants.front().io_bytes));
  } else {
    ecfg.concurrency = w.sessions;
    ecfg.think_time = 0;
  }
  workload::Engine engine(cluster, ecfg, w.tenants);
  engine.setup();
  r.setup_s = seconds_since(t0);
  r.setup_cpu_s = thread_cpu_s() - c0;

  if (traced) cluster.set_tracer(&tracer);
  const AllocCounter before = g_alloc;
  g_alloc.on = count_allocs;
  const auto t1 = Clock::now();
  const double c1 = thread_cpu_s();
  engine.run();
  r.run_cpu_s = thread_cpu_s() - c1;
  r.run_s = seconds_since(t1);
  g_alloc.on = false;
  r.allocs = g_alloc.calls - before.calls;
  r.alloc_bytes = g_alloc.bytes - before.bytes;

  r.digest = engine.digest();
  r.events = cluster.sim().executed_events();
  r.duration = horizon;
  r.stats = engine.stats();
  r.snap = cluster.metrics().snapshot();
  r.net = cluster.network().config();
  for (std::size_t i = 0; i < cluster.storage_node_count(); ++i) {
    auto& node = cluster.storage_node(i);
    const auto& hs = node.pspin().stats();
    HandlerTotals h;
    for (int t = 0; t < 3; ++t) {
      const auto type = static_cast<spin::HandlerType>(t);
      const auto& d = hs.duration_ns(type);
      h.runs[t] = d.count();
      h.busy_ns[t] = d.mean() * static_cast<double>(d.count());
      h.instr[t] = hs.instructions(type).mean() * static_cast<double>(d.count());
    }
    h.hpus = node.pspin().config().num_clusters * node.pspin().config().hpus_per_cluster;
    r.pspin.push_back(h);
    r.storage_ids.push_back(node.id());
    r.payload_bytes_done += node.pspin().payload_bytes_processed();
    r.cleanup_runs += node.pspin().cleanup_runs();
  }
  if (traced) {
    cluster.set_tracer(nullptr);
    r.spans = tracer.spans();
  }
  return r;
}

// ------------------------------------------------------- registry helpers
bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() && s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Sum (or max) of every entry that starts with `prefix` and ends with `suffix`.
double sum_of(const Snapshot& snap, const std::string& prefix, const std::string& suffix) {
  double total = 0;
  for (const auto& [name, value] : snap) {
    if (name.rfind(prefix, 0) == 0 && ends_with(name, suffix)) total += static_cast<double>(value);
  }
  return total;
}

double max_of(const Snapshot& snap, const std::string& prefix, const std::string& suffix) {
  double best = 0;
  for (const auto& [name, value] : snap) {
    if (name.rfind(prefix, 0) == 0 && ends_with(name, suffix)) {
      best = std::max(best, static_cast<double>(value));
    }
  }
  return best;
}

/// Client latency sketches ("client<id>.<kind>_latency_q.*") merged across
/// the engine's pooled clients; quantiles mirror QuantileSketch::quantile_ps.
struct MergedSketch {
  std::vector<std::uint64_t> buckets = std::vector<std::uint64_t>(obs::QuantileSketch::kBuckets, 0);
  std::uint64_t count = 0;
  std::uint64_t min_ps = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t max_ps = 0;

  void add_from(const Snapshot& snap, const std::string& kind) {
    const std::string key = "." + kind + "_latency_q.";
    for (const auto& [name, value] : snap) {
      if (name.rfind("client", 0) != 0) continue;
      const auto pos = name.find(key);
      if (pos == std::string::npos) continue;
      const std::string field = name.substr(pos + key.size());
      const auto v = static_cast<std::uint64_t>(value);
      if (field == "count") {
        count += v;
      } else if (field == "min_ps") {
        if (v != 0) min_ps = std::min(min_ps, v);
      } else if (field == "max_ps") {
        max_ps = std::max(max_ps, v);
      } else if (field.size() > 1 && field[0] == 's' && field != "sum_ps") {
        const auto i = std::stoul(field.substr(1));
        if (i < buckets.size()) buckets[i] += v;
      }
    }
  }

  void merge(const MergedSketch& o) {
    for (std::size_t i = 0; i < buckets.size(); ++i) buckets[i] += o.buckets[i];
    count += o.count;
    min_ps = std::min(min_ps, o.min_ps);
    max_ps = std::max(max_ps, o.max_ps);
  }

  /// Quantile in picoseconds: linear interpolation within the crossing
  /// sub-bucket, clamped to the observed [min, max].
  double quantile_ps(double q) const {
    if (count == 0) return 0.0;
    const double target = q * static_cast<double>(count);
    double cum = 0.0;
    for (std::size_t i = 0; i < buckets.size(); ++i) {
      if (buckets[i] == 0) continue;
      const double prev = cum;
      cum += static_cast<double>(buckets[i]);
      if (cum < target) continue;
      const double lo = obs::QuantileSketch::bucket_lo_ns(i);
      const double hi = obs::QuantileSketch::bucket_hi_ns(i);
      const double frac = std::clamp((target - prev) / static_cast<double>(buckets[i]), 0.0, 1.0);
      const double ps = (lo + (hi - lo) * frac) * 1000.0;
      return std::clamp(ps, static_cast<double>(min_ps), static_cast<double>(max_ps));
    }
    return static_cast<double>(max_ps);
  }
};

// ------------------------------------------------------ end-to-end metrics
/// Simulated end-to-end figures: a pure function of the inputs.
struct SimFigures {
  double goodput_gbps = 0;
  double offered_gbps = 0;
  double ok_ratio = 0;
  double write_p50_us = 0, write_p99_us = 0, read_p50_us = 0, read_p99_us = 0;
  double all_p99_us = 0;  ///< every op, failures counted as infinitely late
  std::uint64_t write_n = 0, read_n = 0;

  bool operator==(const SimFigures&) const = default;
};

/// Runs of several inputs pooled: counts and bytes summed, latency sketches
/// merged, goodput over the summed horizons.
struct Pool {
  MergedSketch wr, rd;
  std::uint64_t offered = 0, completed = 0, failed = 0;
  double bytes_ok = 0, offered_bytes = 0, horizon_ps = 0, duration_ps = 0;

  void add(const RunResult& r) {
    wr.add_from(r.snap, "write");
    rd.add_from(r.snap, "read");
    offered += r.stats.offered;
    completed += r.stats.completed;
    failed += r.stats.failed;
    bytes_ok += static_cast<double>(r.stats.bytes_ok);
    offered_bytes += static_cast<double>(r.stats.offered_bytes);
    horizon_ps += static_cast<double>(std::max(r.duration, r.stats.last_completion));
    duration_ps += static_cast<double>(r.duration);
  }

  SimFigures figures() const {
    SimFigures f;
    // bytes * 8 bits / (ps * 1e-12) / 1e9 = bytes * 8000 / ps.
    f.goodput_gbps = horizon_ps > 0 ? bytes_ok * 8000.0 / horizon_ps : 0.0;
    f.offered_gbps = duration_ps > 0 ? offered_bytes * 8000.0 / duration_ps : 0.0;
    f.ok_ratio = offered == 0 ? 0.0 : static_cast<double>(completed) / static_cast<double>(offered);
    f.write_p50_us = wr.quantile_ps(0.50) / 1e6;
    f.write_p99_us = wr.quantile_ps(0.99) / 1e6;
    f.read_p50_us = rd.quantile_ps(0.50) / 1e6;
    f.read_p99_us = rd.quantile_ps(0.99) / 1e6;
    f.write_n = wr.count;
    f.read_n = rd.count;
    MergedSketch all = wr;
    all.merge(rd);
    const double q = all.count == 0 ? 2.0
                                    : 0.99 * static_cast<double>(offered) / static_cast<double>(all.count);
    f.all_p99_us = q > 1.0 ? std::numeric_limits<double>::infinity() : all.quantile_ps(q) / 1e6;
    return f;
  }
};

// ------------------------------------------------------- per-layer metrics
struct Interval {
  std::uint64_t start;
  std::uint64_t end;
};

/// Total length covered by a set of intervals (overlaps counted once).
std::uint64_t union_length(std::vector<Interval>& v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end(), [](const Interval& a, const Interval& b) { return a.start < b.start; });
  std::uint64_t total = 0;
  std::uint64_t cs = v.front().start;
  std::uint64_t ce = v.front().end;
  for (const auto& iv : v) {
    if (iv.start > ce) {
      total += ce - cs;
      cs = iv.start;
      ce = iv.end;
    } else {
      ce = std::max(ce, iv.end);
    }
  }
  return total + (ce - cs);
}

// Per-op stages of the paper's Fig. 7 split, folded by correlation id.
constexpr const char* kStages[] = {"client_op", "nic_dma", "uplink", "switch_wait", "downlink",
                                   "hh",        "ph",      "ch",     "egress",      "ack"};
constexpr std::size_t kNumStages = std::size(kStages);
enum Stage { kClientOp, kNicDma, kUplink, kSwitchWait, kDownlink, kHH, kPH, kCH, kEgress, kAck };

/// Resources whose busy time is the union of their spans on one node.
enum Busy { kBusyDma, kBusyStorageDma, kBusyUp, kBusyDown, kBusyFlush, kBusyCompact, kNumBusy };

struct PacketKey {
  std::uint64_t a, b;
  std::uint32_t seq;
  std::uint64_t c;
  bool operator==(const PacketKey&) const = default;
};
struct PacketKeyHash {
  std::size_t operator()(const PacketKey& k) const {
    std::uint64_t h = k.a * 0x9E3779B97F4A7C15ull ^ k.b * 0xC2B2AE3D27D4EB4Full;
    h ^= (static_cast<std::uint64_t>(k.seq) << 32) ^ k.c;
    return static_cast<std::size_t>(h ^ (h >> 29));
  }
};

/// Per-layer quantities accumulated over the traced runs of several inputs:
/// counts and busy times summed, maxima maxed, percentile samples pooled.
struct LayerAcc {
  unsigned runs = 0;
  double horizon_ps = 0;  ///< summed max(horizon, last completion)
  double offered = 0, write_ok = 0, read_ok = 0, drain_ms = 0, spans = 0;
  std::array<double, std::tuple_size_v<decltype(workload::Stats::by_error)>> by_error{};
  Snapshot total;  ///< registry entries summed over runs
  Snapshot peak;   ///< registry entries maxed over runs
  double busy_ps[kNumBusy] = {};
  std::map<std::uint32_t, double> down_busy_ps;  ///< by node id
  std::vector<double> switch_wait_ns, egress_wait_ns;
  std::vector<double> stage_ns[kNumStages][2];   ///< [stage][0 write, 1 read]
  double h_runs[3] = {}, h_busy_ns[3] = {}, ph_instr = 0;
  std::vector<double> hpu_busy_ns;  ///< by storage node index
  unsigned hpus = 0;
  std::vector<double> delivered;    ///< by storage node index
  double payload_done = 0, cleanups = 0;

  void add(const RunResult& r) {
    ++runs;
    const auto& s = r.stats;
    horizon_ps += static_cast<double>(std::max(r.duration, s.last_completion));
    offered += static_cast<double>(s.offered);
    for (std::size_t e = 0; e < s.by_error.size(); ++e) by_error[e] += static_cast<double>(s.by_error[e]);
    drain_ms += (static_cast<double>(s.last_completion) - static_cast<double>(r.duration)) / 1e9;
    MergedSketch wr;
    MergedSketch rd;
    wr.add_from(r.snap, "write");
    rd.add_from(r.snap, "read");
    write_ok += static_cast<double>(wr.count);
    read_ok += static_cast<double>(rd.count);
    add_registry(r.snap);

    hpu_busy_ns.resize(r.pspin.size(), 0.0);
    delivered.resize(r.storage_ids.size(), 0.0);
    for (std::size_t i = 0; i < r.pspin.size(); ++i) {
      const auto& h = r.pspin[i];
      for (int t = 0; t < 3; ++t) {
        h_runs[t] += static_cast<double>(h.runs[t]);
        h_busy_ns[t] += h.busy_ns[t];
        hpu_busy_ns[i] += h.busy_ns[t];
      }
      ph_instr += h.instr[1];
      hpus = h.hpus;
      const auto it = r.snap.find("net.node" + std::to_string(r.storage_ids[i]) + ".delivered_bytes");
      if (it != r.snap.end()) delivered[i] += static_cast<double>(it->second);
    }
    payload_done += static_cast<double>(r.payload_bytes_done);
    cleanups += static_cast<double>(r.cleanup_runs);
    spans += static_cast<double>(r.spans.size());
    fold_spans(r);
  }

  void add_registry(const Snapshot& snap) {
    for (const auto& [name, value] : snap) {
      total[name] += value;
      long long& p = peak[name];
      p = std::max(p, value);
    }
  }

  /// Registry entries matching (prefix, suffix), summed over nodes and runs.
  double sum(const std::string& prefix, const std::string& suffix) const {
    return sum_of(total, prefix, suffix);
  }
  /// Largest single value of the matching entries over nodes and runs.
  double max(const std::string& prefix, const std::string& suffix) const {
    return max_of(peak, prefix, suffix);
  }

  void fold_spans(const RunResult& r) {
    const TimePs hop_delay = r.net.link_latency + r.net.switch_latency;
    const TimePs link = r.net.link_latency;

    // Uplink windows by packet (corr, msg, seq, bytes) for switch-wait
    // pairing; a key can repeat (msg ids are per source node), so keep all.
    std::unordered_map<PacketKey, std::vector<Interval>, PacketKeyHash> uplinks;
    // Egress commands pair with the uplink window of the same packet on the
    // same node: (node, msg, seq) is unique and both windows end together.
    std::unordered_map<PacketKey, std::uint64_t, PacketKeyHash> uplink_start;
    std::map<std::pair<std::uint32_t, int>, std::vector<Interval>> busy;  // (node, Busy)
    for (const auto& s : r.spans) {
      if (s.lane == obs::kLaneUplink && s.end_ps > s.start_ps) {
        uplinks[{s.corr, s.msg, s.seq, s.val}].push_back({s.start_ps, s.end_ps});
        uplink_start[{s.node, s.msg, s.seq, s.end_ps}] = s.start_ps;
        busy[{s.node, kBusyUp}].push_back({s.start_ps, s.end_ps});
      } else if (s.lane == obs::kLaneDownlink && s.end_ps > s.start_ps) {
        // The span ends at arrival, one link latency after serialization.
        busy[{s.node, kBusyDown}].push_back({s.start_ps, s.end_ps - link});
      } else if (s.lane == obs::kLaneNicDma) {
        const std::string name = s.name;
        const bool storage = name == "dma_to_storage" || name == "trim_storage";
        busy[{s.node, storage ? kBusyStorageDma : kBusyDma}].push_back({s.start_ps, s.end_ps});
      } else if (s.lane == obs::kLaneStorage) {
        const bool flush = std::string(s.name) == "flush";
        busy[{s.node, flush ? kBusyFlush : kBusyCompact}].push_back({s.start_ps, s.end_ps});
      }
    }
    for (auto& [key, ivs] : busy) {
      const auto ps = static_cast<double>(union_length(ivs));
      busy_ps[key.second] += ps;
      if (key.second == kBusyDown) down_busy_ps[key.first] += ps;
    }

    struct OpAcc {
      int kind = -1;  ///< 0 write, 1 read (successful client op), -1 none
      std::uint64_t end = 0;
      bool switched = false;  ///< some packet paired across the switch
      std::vector<std::uint64_t> ch_ends;
      std::vector<Interval> iv[kNumStages];
    };
    std::unordered_map<std::uint64_t, OpAcc> ops;
    for (const auto& s : r.spans) {
      if (s.corr == 0) continue;
      OpAcc& op = ops[s.corr];
      if (s.lane == obs::kLaneClientOp) {
        const std::string name = s.name;
        if (name == "write" || name == "read") {
          op.kind = name == "write" ? 0 : 1;
          op.end = s.end_ps;
          op.iv[kClientOp].push_back({s.start_ps, s.end_ps});
        }
      } else if (s.lane == obs::kLaneNicDma) {
        op.iv[kNicDma].push_back({s.start_ps, s.end_ps});
      } else if (s.lane == obs::kLaneUplink) {
        op.iv[kUplink].push_back({s.start_ps, s.end_ps});
      } else if (s.lane == obs::kLaneDownlink && s.end_ps > s.start_ps) {
        op.iv[kDownlink].push_back({s.start_ps, s.end_ps});
        // Output-port queueing at the switch: the downlink started this
        // long after the packet could leave (uplink end + link + switch).
        const auto it = uplinks.find({s.corr, s.msg, s.seq, s.val});
        if (it == uplinks.end()) continue;
        std::uint64_t ready = 0;
        bool found = false;
        for (const auto& up : it->second) {
          const std::uint64_t at = up.end + hop_delay;
          if (at <= s.start_ps && (!found || at > ready)) {
            ready = at;
            found = true;
          }
        }
        if (!found) continue;
        op.switched = true;
        switch_wait_ns.push_back(static_cast<double>(s.start_ps - ready) / 1e3);
        if (s.start_ps > ready) op.iv[kSwitchWait].push_back({ready, s.start_ps});
      } else if (s.lane == obs::kLaneEgress) {
        op.iv[kEgress].push_back({s.start_ps, s.end_ps});
        const auto it = uplink_start.find({s.node, s.msg, s.seq, s.end_ps});
        if (it != uplink_start.end() && it->second >= s.start_ps) {
          egress_wait_ns.push_back(static_cast<double>(it->second - s.start_ps) / 1e3);
        }
      } else if (s.lane < obs::kLaneClientOp) {  // HPU lanes: cluster*1000 + hpu
        const std::string name = s.name;
        if (name == "HH") op.iv[kHH].push_back({s.start_ps, s.end_ps});
        if (name == "PH") op.iv[kPH].push_back({s.start_ps, s.end_ps});
        if (name == "CH") {
          op.iv[kCH].push_back({s.start_ps, s.end_ps});
          op.ch_ends.push_back(s.end_ps);
        }
      }
    }
    for (auto& [corr, op] : ops) {
      if (op.kind < 0) continue;
      for (std::size_t st = 0; st < kNumStages; ++st) {
        // An op whose packets crossed the switch without queueing waited 0.
        if (op.iv[st].empty() && !(st == kSwitchWait && op.switched)) continue;
        stage_ns[st][op.kind].push_back(static_cast<double>(union_length(op.iv[st])) / 1e3);
      }
      // Return path: the last completion handler that ended before the
      // client saw completion, to that completion.
      std::uint64_t last_ch = 0;
      for (const auto e : op.ch_ends) {
        if (e <= op.end) last_ch = std::max(last_ch, e);
      }
      if (last_ch != 0) stage_ns[kAck][op.kind].push_back(static_cast<double>(op.end - last_ch) / 1e3);
    }
  }
};

// ------------------------------------------------------------------ output
struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;  ///< extra context printed on the human-readable line
};

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto pos = line.find(':');
      if (pos != std::string::npos) return line.substr(pos + 2);
    }
  }
  return "unknown";
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

struct Gate {
  std::vector<std::string> failures;
  void check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

/// Invariants every run must satisfy on its own.
void gate_run(Gate& gate, const RunResult& r, const std::string& label) {
  const auto& s = r.stats;
  gate.check(s.offered == s.completed + s.failed, label + ": offered != ok + failed");
  MergedSketch wr;
  MergedSketch rd;
  wr.add_from(r.snap, "write");
  rd.add_from(r.snap, "read");
  gate.check(wr.count + rd.count == s.completed, label + ": client latency samples != ok ops");
  gate.check(sum_of(r.snap, "client", ".pending_ops") == 0, label + ": client ops pending at end");
  gate.check(sum_of(r.snap, "client", ".late_acks") == 0, label + ": late acks");
  gate.check(sum_of(r.snap, "client", ".stray_nacks") == 0, label + ": stray nacks");
  gate.check(sum_of(r.snap, "net.faults.", "drops") == 0, label + ": network drops");
  gate.check(sum_of(r.snap, "node", ".dfs.auth_failures") == 0, label + ": dfs auth failures");
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
};

bool parse_args(int argc, char** argv, Args& a) {
  if (argc % 2 != 1) return false;
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string k = argv[i];
      const std::string v = argv[i + 1];
      if (k == "--workload") {
        a.workload = v;
      } else if (k == "--seed") {
        a.seed = std::stoull(v);
      } else if (k == "--seconds") {
        a.seconds = std::stod(v);
      } else if (k == "--trace") {
        a.trace = std::stoi(v);
      } else {
        return false;
      }
    }
  } catch (const std::exception&) {
    return false;
  }
  return (a.trace == 0 || a.trace == 1) && a.seconds > 0;
}

/// --trace 0, in three phases:
///  1. every input once: simulated figures pool them (this also warms the
///     allocator and caches for phase 2);
///  2. timed rounds for --seconds over the `timing_inputs` inputs nearest
///     the median event count, setup and run host time summed per round and
///     rescaled to reference seconds (HostSpeed); each rerun must reproduce
///     its phase-1 digest, and every round the first round's figures;
///  3. the knee ladder over the first `ladder_inputs` inputs.
std::vector<Metric> end_to_end(const Workload& w, const Args& a, Gate& gate,
                               std::uint64_t& attempted, std::uint64_t& failed) {
  const auto phase1 = Clock::now();
  std::vector<std::uint64_t> digests;
  std::vector<double> events;
  Pool figures_pool;
  for (unsigned k = 0; k < w.inputs; ++k) {
    const RunResult r = run_once(w, w.offered_gbps, w.horizon, input_seed(a.seed, k), false, false);
    gate_run(gate, r, "input " + std::to_string(k));
    digests.push_back(r.digest);
    events.push_back(static_cast<double>(r.events));
    figures_pool.add(r);
  }
  attempted += figures_pool.offered;
  failed += figures_pool.failed;
  const SimFigures f = figures_pool.figures();

  // Phase 2 reruns the `timing_inputs` inputs whose event counts lie nearest
  // the median: the seed's typical inputs, so that host time does not follow
  // how many arrivals a seed's few timed inputs happen to draw.
  std::vector<unsigned> timed(w.inputs);
  std::iota(timed.begin(), timed.end(), 0u);
  const double mid = median(events);
  std::stable_sort(timed.begin(), timed.end(), [&](unsigned x, unsigned y) {
    return std::abs(events[x] - mid) < std::abs(events[y] - mid);
  });
  timed.resize(w.timing_inputs);
  std::sort(timed.begin(), timed.end());

  // Peak RSS of the simulator alone: phase 2 reruns inputs phase 1 has run,
  // and the reference kernel's table would add its own 32 MiB.
  const double rss = peak_rss_mb();

  // Each input's run follows a reference kernel call; a round's host times
  // are rescaled by how fast the kernel ran in that round (see HostSpeed).
  const auto t0 = Clock::now();
  std::vector<double> setup_s;
  std::vector<double> run_s;
  std::vector<double> wall_s;
  std::vector<double> speed;
  SimFigures timed_figures;
  while (run_s.size() < 2 || seconds_since(t0) < a.seconds) {
    const std::string label = "timed round " + std::to_string(run_s.size());
    double setup = 0;
    double run = 0;
    double wall = 0;
    double round_events = 0;
    HostSpeed host;
    Pool pool;
    for (const unsigned k : timed) {
      host.measure(w.ref_events);
      const RunResult r = run_once(w, w.offered_gbps, w.horizon, input_seed(a.seed, k), false, false);
      gate_run(gate, r, label);
      gate.check(r.digest == digests[k], label + ": digest of input " + std::to_string(k) + " differs");
      setup += r.setup_cpu_s;
      run += r.run_cpu_s;
      wall += r.run_s;
      round_events += static_cast<double>(r.events);
      pool.add(r);
    }
    if (run_s.empty()) timed_figures = pool.figures();
    gate.check(pool.figures() == timed_figures, label + ": simulated figures differ");
    attempted += pool.offered;
    failed += pool.failed;
    setup_s.push_back(setup * host.scale());
    run_s.push_back(run * host.scale());
    wall_s.push_back(wall);
    speed.push_back(host.scale());
    std::printf("  %s: %.0f events, run %.4f s cpu %.4f s wall, host speed %.4f -> %.4f ref s\n",
                label.c_str(), round_events, run, wall, host.scale(), run_s.back());
  }
  const auto phase3 = Clock::now();
  // Knee: scan the ladder upward; a rung passes when its pooled all-op p99
  // (failures count as misses) meets the frozen limit and goodput keeps up
  // with >= 95% of the offered load. The knee is the last rung passed.
  double knee = 0;
  for (const double gbps : w.ladder_gbps) {
    Pool pool;
    for (unsigned k = 0; k < w.ladder_inputs; ++k) {
      const RunResult r = run_once(w, gbps, w.ladder_horizon, input_seed(a.seed, k), false, false);
      gate_run(gate, r, "ladder " + json_number(gbps));
      pool.add(r);
    }
    const SimFigures rf = pool.figures();
    const bool pass = rf.all_p99_us <= w.p99_limit_us && rf.goodput_gbps >= 0.95 * rf.offered_gbps;
    std::printf("  ladder %8.2f Gb/s: offered %9.3f goodput %9.3f Gb/s, all-op p99 %10.3f us, "
                "failed %llu -> %s\n",
                gbps, rf.offered_gbps, rf.goodput_gbps, rf.all_p99_us,
                static_cast<unsigned long long>(pool.failed), pass ? "pass" : "miss");
    if (!pass) break;
    knee = gbps;
  }

  std::uint64_t digest = 0;
  for (const auto d : digests) digest += d;
  std::printf("  %u inputs (digest sum 0x%016llx), %zu timed rounds of %u inputs, "
              "ladder of %u inputs\n",
              w.inputs, static_cast<unsigned long long>(digest), run_s.size(), w.timing_inputs,
              w.ladder_inputs);
  std::printf("  phase wall time: figures %.1f s, timed rounds %.1f s, ladder %.1f s\n",
              std::chrono::duration<double>(t0 - phase1).count(),
              std::chrono::duration<double>(phase3 - t0).count(), seconds_since(phase3));
  const auto n = [](std::uint64_t c) { return "n=" + std::to_string(c); };
  const std::string rounds = std::to_string(run_s.size()) + " rounds";
  char wall[160];
  std::snprintf(wall, sizeof wall, "; wall fastest %.4f median %.4f s; host speed %.3f-%.3f", fastest(wall_s),
                median(wall_s), fastest(speed), *std::max_element(speed.begin(), speed.end()));
  return {
      {"setup_s", median(setup_s), "s", "reference seconds, median of " + rounds},
      {"run_norm_s", median(run_s), "s", "reference seconds, median of " + rounds + wall},
      {"peak_rss_mb", rss, "MB", ""},
      {"goodput_gbps", f.goodput_gbps, "Gb/s", "offered " + json_number(f.offered_gbps)},
      {"ok_ratio", f.ok_ratio, "ratio", "fail_ratio " + json_number(1.0 - f.ok_ratio)},
      {"write_p50_us", f.write_p50_us, "us", n(f.write_n)},
      {"write_p99_us", f.write_p99_us, "us", n(f.write_n)},
      {"read_p50_us", f.read_p50_us, "us", n(f.read_n)},
      {"read_p99_us", f.read_p99_us, "us", n(f.read_n)},
      {"knee_gbps", knee, "Gb/s",
       "limit all-op p99 <= " + json_number(w.p99_limit_us) + " us, goodput >= 95% of offered"},
  };
}

/// --trace 1: an untraced reference round over the first `timing_inputs`
/// inputs (warm-up; host events and allocations), then traced and untraced
/// rounds in turn for --seconds. Layer figures fold the first traced round.
std::vector<Metric> per_layer(const Workload& w, const Args& a, Gate& gate,
                              std::uint64_t& attempted, std::uint64_t& failed) {
  std::vector<std::uint64_t> digests;
  Pool ref;
  double events = 0;
  double allocs = 0;
  double alloc_bytes = 0;
  for (unsigned k = 0; k < w.timing_inputs; ++k) {
    const RunResult r = run_once(w, w.offered_gbps, w.horizon, input_seed(a.seed, k), false, true);
    gate_run(gate, r, "reference input " + std::to_string(k));
    digests.push_back(r.digest);
    ref.add(r);
    events += static_cast<double>(r.events);
    allocs += static_cast<double>(r.allocs);
    alloc_bytes += static_cast<double>(r.alloc_bytes);
  }
  attempted += ref.offered;
  failed += ref.failed;
  const SimFigures ref_figures = ref.figures();

  LayerAcc L;
  const auto t0 = Clock::now();
  std::vector<double> plain_s;
  std::vector<double> traced_s;
  while (plain_s.empty() || seconds_since(t0) < a.seconds) {
    const bool traced = traced_s.size() == plain_s.size();
    const std::string label = std::string(traced ? "traced" : "untraced") + " round " +
                              std::to_string(traced ? traced_s.size() : plain_s.size());
    double run = 0;
    double round_allocs = 0;
    Pool pool;
    for (unsigned k = 0; k < w.timing_inputs; ++k) {
      const RunResult r = run_once(w, w.offered_gbps, w.horizon, input_seed(a.seed, k), traced, !traced);
      gate_run(gate, r, label);
      gate.check(r.digest == digests[k], label + ": digest of input " + std::to_string(k) +
                                             " differs from the untraced reference");
      run += r.run_s;
      round_allocs += static_cast<double>(r.allocs);
      pool.add(r);
      if (traced && traced_s.empty()) L.add(r);
    }
    gate.check(pool.figures() == ref_figures, label + ": simulated figures differ from the reference");
    attempted += pool.offered;
    failed += pool.failed;
    if (traced) {
      traced_s.push_back(run);
    } else {
      gate.check(round_allocs == allocs, label + ": allocation count differs from the reference");
      plain_s.push_back(run);
    }
  }

  const double plain_wall = fastest(plain_s);
  const double traced_wall = fastest(traced_s);
  const std::string eng = ".storage.engine.";
  std::vector<Metric> m = {
      {"sim.events", events, "count", ""},
      {"sim.events_per_s", events / plain_wall, "1/s", ""},
      {"sim.host_ns_per_event", plain_wall * 1e9 / events, "ns", ""},
      {"sim.allocs_per_event", allocs / events, "count", ""},
      {"sim.alloc_bytes_per_event", alloc_bytes / events, "B", ""},
      {"workload.offered_ops", L.offered, "count", ""},
      {"workload.write_ok", L.write_ok, "count", ""},
      {"workload.read_ok", L.read_ok, "count", ""},
  };
  for (std::size_t e = 1; e < std::size(L.by_error); ++e) {
    m.push_back({std::string("workload.failed.") + dfs::dfs_error_name(static_cast<dfs::DfsError>(e)),
                 L.by_error[e], "count", ""});
  }
  m.push_back({"workload.drain_ms", L.drain_ms / L.runs, "ms", "mean over inputs"});

  m.push_back({"services.client.retries", L.sum("client", ".retries_performed"), "count", ""});
  m.push_back({"services.client.timeouts", L.sum("client", ".op_timeouts"), "count", ""});
  m.push_back({"services.client.late_acks", L.sum("client", ".late_acks"), "count", ""});
  m.push_back({"services.client.stray_nacks", L.sum("client", ".stray_nacks"), "count", ""});
  m.push_back({"services.client.pending_at_end", L.sum("client", ".pending_ops"), "count", ""});

  m.push_back({"rdma.dma_busy_us", L.busy_ps[kBusyDma] / 1e6, "us", ""});
  m.push_back({"rdma.storage_dma_busy_us", L.busy_ps[kBusyStorageDma] / 1e6, "us", ""});
  m.push_back({"rdma.steered_to_host", L.sum("node", ".nic.steered_to_host"), "count", ""});

  double down_max = 0;
  for (const auto& [node, ps] : L.down_busy_ps) down_max = std::max(down_max, ps);
  double delivered_max = 0;
  double delivered_sum = 0;
  for (const double v : L.delivered) {
    delivered_max = std::max(delivered_max, v);
    delivered_sum += v;
  }
  const double delivered_mean = L.delivered.empty() ? 0.0 : delivered_sum / L.delivered.size();
  m.push_back({"net.uplink_busy_us", L.busy_ps[kBusyUp] / 1e6, "us", ""});
  m.push_back({"net.downlink_busy_us", L.busy_ps[kBusyDown] / 1e6, "us", ""});
  m.push_back({"net.downlink_util_max", down_max / L.horizon_ps, "ratio", ""});
  m.push_back({"net.switch_wait_p99_ns", percentile(L.switch_wait_ns, 99), "ns",
               "n=" + std::to_string(L.switch_wait_ns.size())});
  m.push_back({"net.delivered_skew", delivered_mean > 0 ? delivered_max / delivered_mean : 0.0,
               "ratio", "max/mean storage-node delivered bytes"});
  m.push_back({"net.drops", L.sum("net.faults.", "drops"), "count", ""});

  const char* hname[3] = {"hh", "ph", "ch"};
  double hpu_busy_max = 0;
  for (const double ns : L.hpu_busy_ns) hpu_busy_max = std::max(hpu_busy_max, ns);
  for (int t = 0; t < 3; ++t) {
    m.push_back({std::string("pspin.") + hname[t] + "_runs", L.h_runs[t], "count", ""});
  }
  for (int t = 0; t < 3; ++t) {
    m.push_back({std::string("pspin.") + hname[t] + "_busy_us", L.h_busy_ns[t] / 1e3, "us", ""});
  }
  m.push_back({"pspin.ph_instr_per_run", L.h_runs[1] > 0 ? L.ph_instr / L.h_runs[1] : 0.0, "count", ""});
  m.push_back({"pspin.hpu_util_max", L.hpus > 0 ? hpu_busy_max * 1e3 / (L.hpus * L.horizon_ps) : 0.0,
               "ratio", "busiest node's handler time / (HPUs x horizon)"});
  m.push_back({"pspin.egress_wait_p50_ns", percentile(L.egress_wait_ns, 50), "ns",
               "n=" + std::to_string(L.egress_wait_ns.size())});
  m.push_back({"pspin.egress_wait_p99_ns", percentile(L.egress_wait_ns, 99), "ns", ""});
  m.push_back({"pspin.payload_bytes_done", L.payload_done, "B", ""});
  m.push_back({"pspin.cleanup_runs", L.cleanups, "count", ""});

  m.push_back({"dfs.acks_sent", L.sum("node", ".dfs.acks_sent"), "count", ""});
  m.push_back({"dfs.nacks_sent", L.sum("node", ".dfs.nacks_sent"), "count", ""});
  m.push_back({"dfs.table_denials", L.sum("node", ".dfs.table_denials"), "count", ""});
  m.push_back({"dfs.table_high_water", L.max("node", ".dfs.table_high_water"), "count", ""});
  m.push_back({"dfs.agg_fallbacks", L.sum("node", ".dfs.agg_fallbacks"), "count", ""});
  m.push_back({"dfs.auth_failures", L.sum("node", ".dfs.auth_failures"), "count", ""});

  const double logical_w = L.sum("node", eng + "write_logical_bytes");
  const double device_w = L.sum("node", eng + "log_bytes") + L.sum("node", eng + "flush_bytes") +
                          L.sum("node", eng + "compact_write_bytes") +
                          L.sum("node", eng + "compact_read_bytes");
  const double logical_r = L.sum("node", eng + "read_logical_bytes");
  const double device_r = L.sum("node", eng + "read_device_bytes");
  m.push_back({"storage.bytes_written", L.sum("node", ".storage.bytes_written"), "B", ""});
  m.push_back({"storage.write_amp", logical_w > 0 ? device_w / logical_w : 0.0, "ratio", ""});
  m.push_back({"storage.read_amp", logical_r > 0 ? device_r / logical_r : 0.0, "ratio", ""});
  m.push_back({"storage.stalls", L.sum("node", eng + "stalls"), "count", ""});
  m.push_back({"storage.stall_us", L.sum("node", eng + "stall_ps") / 1e6, "us", ""});
  m.push_back({"storage.compactions", L.sum("node", eng + "compactions"), "count", ""});
  m.push_back({"storage.flush_busy_us", L.busy_ps[kBusyFlush] / 1e6, "us", ""});
  m.push_back({"storage.compact_busy_us", L.busy_ps[kBusyCompact] / 1e6, "us", ""});
  m.push_back({"storage.backlog_runs_max", L.max("node", eng + "backlog_runs"), "count",
               "largest end-of-run backlog on any node"});

  m.push_back({"host.requests_handled", L.sum("node", ".hostdfs.requests_handled"), "count", ""});
  m.push_back({"host.parity_aggs", L.sum("node", ".hostdfs.parity_aggs"), "count", "open at end"});
  m.push_back({"host.validation_failures", L.sum("node", ".hostdfs.validation_failures"), "count", ""});

  const char* kinds[2] = {"write", "read"};
  for (std::size_t st = 0; st < kNumStages; ++st) {
    for (int k = 0; k < 2; ++k) {
      const std::string base = std::string("stage.") + kStages[st] + "." + kinds[k];
      const auto& v = L.stage_ns[st][k];
      m.push_back({base + ".p50_ns", percentile(v, 50), "ns", "n=" + std::to_string(v.size())});
      m.push_back({base + ".p99_ns", percentile(v, 99), "ns", ""});
    }
  }
  m.push_back({"obs.trace_overhead", traced_wall / plain_wall, "ratio",
               "fastest of " + std::to_string(traced_s.size()) + " traced / " +
                   std::to_string(plain_s.size()) + " untraced rounds"});
  m.push_back({"obs.spans_per_op", L.spans / std::max(1.0, L.offered), "count", ""});
  std::printf("  %u inputs per round, %.0f spans folded\n", w.timing_inputs, L.spans);
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  Workload w;
  if (!parse_args(argc, argv, args) || !make_workload(args.workload, w)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload line_mix|ec_overload|host_betree [--seed N] "
                 "[--seconds S] [--trace 0|1]\n");
    return 2;
  }
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n", w.name.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace);
  std::printf("  cpu=\"%s\" nproc=%u build=%s core=serial\n", cpu_model().c_str(),
              std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE);

  Gate gate;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  const auto metrics = args.trace == 0 ? end_to_end(w, args, gate, attempted, failed)
                                       : per_layer(w, args, gate, attempted, failed);
  for (const auto& m : metrics) {
    std::printf("  %-34s %18.6f %-6s %s\n", m.name.c_str(), m.value, m.unit.c_str(), m.note.c_str());
  }
  for (const auto& f : gate.failures) std::printf("  GATE FAIL: %s\n", f.c_str());
  const bool correct = gate.failures.empty();
  std::printf("  correctness gate: %s\n", correct ? "pass" : "FAIL");

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + json_number(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
