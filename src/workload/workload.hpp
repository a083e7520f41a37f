// Workload engine: synthetic multi-tenant load for the simulated DFS.
//
// The paper evaluates the building blocks under saturating incast from a
// handful of clients (Figs. 9/15). This subsystem generalizes that into a
// reusable engine so benches and tests can drive *mixed* op workloads
// (read/write/append/stat) under realistic arrival processes:
//
//   - open-loop arrivals: a (possibly diurnal-modulated) Poisson process —
//     offered load is independent of completions, so overload is reachable
//     and the goodput-vs-offered-load knee is measurable;
//   - closed-loop arrivals: a fixed number of in-flight sessions with think
//     time — classic interactive load, self-throttling by design;
//   - Zipfian object popularity per tenant (YCSB-style skew);
//   - multi-tenant weighted flows: tenants share the cluster with different
//     op mixes, object pools, policies, and arrival weight;
//   - pooled client state: logical users are sampled ids (millions of them)
//     multiplexed over a small pool of services::Client endpoints, so a
//     million-user workload costs a handful of live objects.
//
// Everything is deterministic given EngineConfig::seed: samplers draw from
// a seeded Rng, arrivals are simulator events, and the engine folds every
// completion into an order-insensitive FNV digest for replay comparison.
//
// Open-loop arrivals are fully pre-drawn: every random choice (tenant,
// user, object, op, offset) is sampled at schedule time, before the
// simulator runs, in the order event-time sampling used to consume the
// Rng, so the schedule and every digest match the recorded pins. Event-time
// bookkeeping lands in per-client-slot stat shards, folded into Stats and
// the digest after the run.
#pragma once

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "services/client.hpp"

namespace nadfs::workload {

/// Zipfian sampler over ranks [0, n), YCSB-style skew: P(rank k) ~
/// 1/(k+1)^s. s == 0 degenerates to uniform. Exact inverse-CDF over a
/// precomputed table — O(n) construction, O(log n) sampling; n is an
/// object-pool size, not a user count, so this stays cheap for any s
/// (including s == 1, where the usual closed-form approximation blows up).
class Zipf {
 public:
  Zipf(std::uint64_t n, double s);
  std::uint64_t sample(Rng& rng) const;
  std::uint64_t n() const { return n_; }

 private:
  std::uint64_t n_ = 1;
  double s_ = 0.0;
  std::vector<double> cdf_;  ///< empty when s == 0 (uniform fast path)
};

/// Per-tenant op mix; weights need not sum to 1 (they are normalized).
struct OpMix {
  double read = 0.50;
  double write = 0.30;
  double append = 0.15;
  double stat = 0.05;  ///< control-plane stat of the sampled object
};

struct TenantSpec {
  std::string name = "tenant";
  double weight = 1.0;          ///< share of arrivals vs other tenants
  unsigned objects = 16;        ///< object-pool size
  std::uint64_t object_size = 64 * KiB;
  services::FilePolicy policy;  ///< resiliency of this tenant's objects
  OpMix mix;
  double zipf_s = 0.99;         ///< object-popularity skew (0 = uniform)
  std::uint32_t io_bytes = 4 * KiB;  ///< per-op transfer size
};

struct EngineConfig {
  /// Logical user population. Users are sampled ids — they weight flows and
  /// seed per-op randomness but hold no per-user state, so 1e6 users cost
  /// the same as 10.
  std::uint64_t users = 1'000'000;
  /// Live services::Client endpoints the users multiplex over (clamped to
  /// the cluster's client-node count).
  unsigned client_slots = 4;
  /// Open loop when > 0: mean arrival rate in ops/s of simulated time.
  /// 0 selects the closed loop.
  double rate_ops_per_s = 0.0;
  /// Closed loop: number of concurrent sessions and post-completion think
  /// time per session.
  unsigned concurrency = 8;
  TimePs think_time = 0;
  /// Diurnal modulation of the open-loop rate: rate(t) scales by
  /// 1 + amplitude * sin(2*pi*t/period). amplitude in [0, 1); 0 disables.
  double diurnal_amplitude = 0.0;
  TimePs diurnal_period = ms(1);
  /// Arrival horizon: no new ops are issued at or after this sim time.
  TimePs duration = ms(1);
  /// Goodput timeline: when > 0, successful payload bytes are additionally
  /// bucketed into windows of this width by completion time
  /// (Stats::goodput_timeline) — the observable for goodput *dips* during
  /// rolling restarts. 0 (default) keeps the timeline off. The bucketing
  /// is a per-shard add, so it is digest-neutral.
  TimePs goodput_window = 0;
  std::uint64_t seed = 1;
  /// Client-side retry/timeout knobs applied to the pooled clients.
  unsigned retries = 0;
  TimePs timeout = 0;
};

struct Stats {
  std::uint64_t offered = 0;        ///< data-plane ops issued
  std::uint64_t offered_bytes = 0;  ///< payload bytes those ops asked for
  std::uint64_t completed = 0;      ///< ops that finished kOk
  std::uint64_t failed = 0;         ///< ops that finished with an error
  /// Failures by wire error (indexed by DfsError's numeric value).
  std::array<std::uint64_t, 10> by_error{};
  std::uint64_t bytes_ok = 0;   ///< payload bytes of successful ops
  std::uint64_t control_ops = 0;  ///< stat ops (metadata-served, always ok)
  /// Ops sampled per tenant (data-plane and control-plane alike) — the
  /// observable for weighted multi-tenant sharing.
  std::vector<std::uint64_t> per_tenant_ops;
  TimePs sum_latency = 0;
  TimePs max_latency = 0;
  TimePs last_completion = 0;
  /// Successful payload bytes per goodput_window bucket (empty when the
  /// timeline is off). Bucket i covers [i*window, (i+1)*window).
  std::vector<std::uint64_t> goodput_timeline;

  /// Payload goodput over the horizon (last completion, at least the
  /// configured duration), in Gbit/s of simulated time.
  double goodput_gbps(TimePs duration) const;
  /// Offered payload load over the configured duration, in Gbit/s.
  double offered_gbps(TimePs duration) const;
};

/// Drives a Cluster with the configured workload. One engine per run; the
/// engine owns its pooled clients, so construct it after the cluster and
/// destroy it before.
class Engine {
 public:
  Engine(services::Cluster& cluster, EngineConfig cfg, std::vector<TenantSpec> tenants);
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Create every tenant's object pool and mint capabilities. Called by
  /// run() when not done explicitly.
  void setup();

  /// Schedule the arrival process and run the simulator until the workload
  /// drains (all issued ops completed or abandoned).
  void run();

  const Stats& stats() const { return stats_; }
  const EngineConfig& config() const { return cfg_; }

  /// Order-insensitive FNV-1a fold over every completion
  /// (tenant, object, op, bytes, error, completion time). Two runs of the
  /// same seed and config must produce equal digests — the workload-level
  /// determinism check.
  std::uint64_t digest() const { return digest_; }

 private:
  struct Object {
    services::FileLayout layout;
    auth::Capability cap;  ///< read+write capability over the object
    std::string name;
  };
  struct Tenant {
    TenantSpec spec;
    std::unique_ptr<Zipf> zipf;
    std::vector<Object> objects;
    double cum_weight = 0.0;  ///< cumulative, for tenant sampling
  };

  /// One fully-sampled open-loop op. All randomness is drawn at schedule
  /// time, before the simulator runs, so executing it reads no sampler
  /// state. The draw order reproduces the event-time sampler's Rng stream
  /// exactly (arrival times first, then per-arrival op draws in arrival
  /// order), so pre-drawing changes no digest.
  /// Packed to fit EventFn's inline buffer alongside the `this` capture.
  struct PlannedOp {
    std::uint64_t offset = 0;
    std::uint32_t tenant = 0;
    std::uint32_t object = 0;
    std::uint32_t slot = 0;  ///< client slot (== client-node index)
    std::uint32_t len = 0;
    std::uint8_t op = 0;    ///< 0 write, 1 read, 2 append, 4 stat
    std::uint8_t fill = 0;  ///< payload fill byte (user ^ object)
  };

  /// Per-client-slot stats shard. Every event-time mutation lands in the
  /// issuing slot's shard; the end-of-run merge (sums plus maxes, digest
  /// summed) is order-insensitive.
  struct Shard {
    std::uint64_t offered = 0;
    std::uint64_t offered_bytes = 0;
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    std::array<std::uint64_t, 10> by_error{};
    std::uint64_t bytes_ok = 0;
    std::uint64_t control_ops = 0;
    TimePs sum_latency = 0;
    TimePs max_latency = 0;
    TimePs last_completion = 0;
    std::uint64_t digest = 0;  ///< summed completion hashes
    std::vector<std::uint64_t> window_bytes;  ///< per-window bytes_ok buckets
  };

  void schedule_open_loop();
  void start_closed_loop();
  void issue_session_op(unsigned session);
  /// Sample (tenant, user, object, op) and fire one op; `session` is the
  /// closed-loop session to rearm on completion. Event-time sampling —
  /// closed loop only (the open loop executes pre-drawn PlannedOps).
  void issue_one(int session);
  /// Draw one op (the sampling half of issue_one; serial Rng consumer).
  PlannedOp draw_planned_op();
  /// Fire a pre-drawn op on its slot's client. `session` is the
  /// closed-loop session to rearm on completion (-1 for open loop).
  void execute_planned(const PlannedOp& op, int session = -1);
  void complete(std::size_t tenant_idx, std::uint64_t object_idx, unsigned op,
                std::uint32_t bytes, int session, std::uint32_t slot, dfs::DfsError err,
                TimePs issued, TimePs at);
  /// Order-insensitive FNV-1a hash of one completion record.
  static std::uint64_t completion_hash(std::uint64_t tenant, std::uint64_t object,
                                       std::uint64_t op, std::uint64_t bytes, std::uint64_t err,
                                       std::uint64_t at);
  void merge_shards();

  services::Cluster& cluster_;
  EngineConfig cfg_;
  std::vector<Tenant> tenants_;
  std::vector<std::unique_ptr<services::Client>> clients_;
  Rng rng_;
  Stats stats_;
  std::vector<Shard> shards_;  ///< one per client slot
  std::uint64_t digest_ = 1469598103934665603ull;  ///< FNV-1a offset basis
  double total_weight_ = 0.0;
  bool setup_done_ = false;
};

}  // namespace nadfs::workload
