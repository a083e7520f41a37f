// The paper's evaluation (Figs. 4-16, Tables I-II), its ablations and its
// extensions, as one table-driven driver. Each entry of the table is one
// sweep: its points run on the SweepRunner pool (every point builds its own
// clusters, so any thread count prints the same rows), each row prints as
// an aligned table line plus a "CSV:" line, and the rows and the metric
// snapshots of the entry's own points go to BENCH_<name>.json.
//
//   figures              run every entry, in table order
//   figures NAME...      run only the named entries
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "analysis/models.hpp"
#include "bench/report.hpp"
#include "common/rng.hpp"
#include "dfs/costs.hpp"
#include "protocols/cpu_repl.hpp"
#include "protocols/hyperloop.hpp"
#include "protocols/inec.hpp"
#include "protocols/protocol.hpp"
#include "protocols/raw_rdma.hpp"
#include "protocols/rpc.hpp"
#include "pspin/device.hpp"
#include "services/failure_detector.hpp"
#include "services/host_dfs.hpp"

namespace nadfs::bench {
namespace {

using protocols::Client;
using protocols::Cluster;
using protocols::WriteProtocol;
using services::ClusterConfig;
using services::FilePolicy;
using Snapshots = std::vector<Snapshot>;

// ------------------------------------------------------------- the table

/// What one sweep point measured: a value per column of its table (fewer
/// when the point failed) and the snapshot of every cluster it harvested.
struct Row {
  std::vector<double> values;
  Snapshots metrics{};
  std::string label{};  ///< leads the table line and the CSV fields, if set

  /// Keeps a measurement's snapshots for the report and returns it.
  template <typename M>
  M take(M m) {
    for (Snapshot& s : m.metrics) metrics.push_back(std::move(s));
    m.metrics.clear();
    return m;
  }
};

using Point = std::function<Row()>;

/// How one value prints: `text` renders its table cell; `csv` is its
/// printf format in the CSV line, null for a table-only value (the ratios,
/// fig11's min/median/max).
struct Column {
  std::string head;
  std::string (*text)(double);
  const char* csv = nullptr;
};

/// One aligned table of an entry: the tag that starts its CSV rows, an
/// optional title line, a column per value, and the points of its rows.
struct Table {
  std::string tag;
  std::string title;
  std::vector<Column> columns;
  std::vector<Point> points;
};

/// One sweep and its BENCH_<name>.json report.
struct Entry {
  const char* name;
  const char* title;
  const char* ref;  ///< what it reproduces
  std::vector<std::string> preamble;
  std::vector<Table> tables;
  const char* note;  ///< printed after the tables, may be null
};

template <typename... Args>
std::string strf(const char* fmt, Args... args) {
  char buf[256];
  std::snprintf(buf, sizeof buf, fmt, args...);
  return buf;
}

std::string num0(double v) { return strf("%.0f", v); }
std::string num1(double v) { return strf("%.1f", v); }
std::string num2(double v) { return strf("%.2f", v); }
std::string ratio(double v) { return strf("%.2fx", v); }
std::string bytes(double v) { return format_size(static_cast<std::size_t>(v)); }
std::string duration_ns(double v) {
  return format_time(static_cast<TimePs>(std::llround(v * 1e3)));
}
std::string yes_no(double v) { return v != 0 ? "yes" : "NO"; }

/// One point per element of `xs`, each measuring `f(x)`.
template <typename T, typename F>
std::vector<Point> over(std::vector<T> xs, F f) {
  std::vector<Point> points;
  for (const T& x : xs) points.push_back([x, f] { return f(x); });
  return points;
}

/// `r` with `key` (the swept parameter) as its first value.
Row keyed(double key, Row r) {
  r.values.insert(r.values.begin(), key);
  return r;
}

std::vector<Column> cat(std::vector<Column> a, const std::vector<Column>& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

// ------------------------------------------------------ shared measurement

Bytes random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Bytes out(n);
  for (auto& b : out) b = rng.next_byte();
  return out;
}

ClusterConfig storage(unsigned nodes, bool spin = true) {
  ClusterConfig cfg;
  cfg.storage_nodes = nodes;
  cfg.install_dfs = spin;
  return cfg;
}

/// Fig. 15's network, scaled to the INEC testbed's 100 Gbit/s.
ClusterConfig storage_100g(unsigned nodes, bool spin) {
  ClusterConfig cfg = storage(nodes, spin);
  cfg.network.link_bandwidth = Bandwidth::from_gbps(100.0);
  return cfg;
}

/// k-way replication; k <= 1 is a plain file.
FilePolicy replicated(dfs::ReplStrategy strategy, unsigned k) {
  FilePolicy p;
  if (k <= 1) return p;
  p.resiliency = dfs::Resiliency::kReplication;
  p.strategy = strategy;
  p.repl_k = static_cast<std::uint8_t>(k);
  return p;
}

FilePolicy erasure_coded(unsigned k, unsigned m) {
  FilePolicy p;
  p.resiliency = dfs::Resiliency::kErasureCoding;
  p.ec_k = static_cast<std::uint8_t>(k);
  p.ec_m = static_cast<std::uint8_t>(m);
  return p;
}

using ProtoFactory = std::function<std::unique_ptr<WriteProtocol>(Cluster&)>;

std::unique_ptr<WriteProtocol> spin_write(Cluster&) {
  return std::make_unique<protocols::SpinWrite>();
}

template <typename P>
std::unique_ptr<WriteProtocol> host_write(Cluster& c) {
  return std::make_unique<P>(c);
}

ProtoFactory cpu_repl(dfs::ReplStrategy strategy, std::size_t chunk) {
  return [strategy, chunk](Cluster& c) {
    return std::make_unique<protocols::CpuRepl>(c, strategy, chunk);
  };
}

ProtoFactory hyperloop(std::size_t chunk) {
  return [chunk](Cluster& c) { return std::make_unique<protocols::HyperLoop>(c, chunk); };
}

struct Measurement {
  bool ok = false;
  double latency_ns = 0.0;
  Snapshots metrics;  ///< one per cluster the measurement built
};

/// One write on a fresh cluster; latency is issue(t=0) -> protocol
/// completion.
Measurement measure_write(const ClusterConfig& ccfg, const FilePolicy& policy,
                          std::size_t write_size, const ProtoFactory& factory) {
  Cluster cluster(ccfg);
  Client client(cluster, 0);
  const auto& layout = cluster.metadata().create("bench", write_size, policy);
  const auto cap = cluster.metadata().grant(client.client_id(), layout, auth::Right::kWrite);
  auto proto = factory(cluster);

  Measurement m;
  proto->write(client, layout, cap, random_bytes(write_size, 42),
               [&](dfs::DfsError err, TimePs at) {
                 m.ok = err == dfs::DfsError::kOk;
                 m.latency_ns = to_ns(at);
               });
  cluster.sim().run();
  m.metrics.push_back(cluster.metrics().snapshot());
  return m;
}

/// The paper reports pipelined baselines "with optimal chunk size": sweep
/// the chunk sizes and keep the best latency (and every run's snapshot).
Measurement best_over_chunks(const ClusterConfig& ccfg, const FilePolicy& policy,
                             std::size_t write_size,
                             const std::function<ProtoFactory(std::size_t)>& make_factory) {
  Measurement best;
  best.latency_ns = 1e18;
  Snapshots metrics;
  for (const std::size_t chunk : {std::size_t{0}, 256 * KiB, 64 * KiB, 16 * KiB, 4 * KiB,
                                  2 * KiB}) {
    if (chunk != 0 && chunk > write_size) continue;
    auto m = measure_write(ccfg, policy, write_size, make_factory(chunk));
    for (Snapshot& s : m.metrics) metrics.push_back(std::move(s));
    if (m.ok && m.latency_ns < best.latency_ns) best = std::move(m);
  }
  if (best.latency_ns == 1e18) {  // nothing fit: fall back to unchunked
    best = measure_write(ccfg, policy, write_size, make_factory(0));
    for (Snapshot& s : best.metrics) metrics.push_back(std::move(s));
  }
  best.metrics = std::move(metrics);
  return best;
}

struct Goodput {
  double gbps = 0.0;  ///< payload node 0's PsPIN processed, Gbit/s
  double ph_mean_ns = 0.0;
  Snapshots metrics;
};

/// Saturating-load goodput at a single storage node: `n_clients` endpoints
/// each blast `writes_per_client` writes of `write_size` at node 0.
Goodput measure_goodput(ClusterConfig ccfg, const FilePolicy& policy, std::size_t write_size,
                        unsigned n_clients, unsigned writes_per_client) {
  ccfg.clients = n_clients;
  Cluster cluster(ccfg);
  std::vector<std::unique_ptr<Client>> clients;
  for (unsigned c = 0; c < n_clients; ++c) {
    clients.push_back(std::make_unique<Client>(cluster, c));
  }
  // All objects share the same target set so node 0 is the hot primary.
  for (unsigned c = 0; c < n_clients; ++c) {
    for (unsigned w = 0; w < writes_per_client; ++w) {
      const auto& layout = cluster.metadata().create(
          "g" + std::to_string(c) + "_" + std::to_string(w), write_size, policy);
      const auto cap =
          cluster.metadata().grant(clients[c]->client_id(), layout, auth::Right::kWrite);
      clients[c]->write(layout, cap, random_bytes(write_size, c * 1000 + w),
                        [](dfs::DfsError, TimePs) {});
    }
  }
  cluster.sim().run();

  auto& pspin = cluster.storage_node(0).pspin();
  Goodput r;
  if (pspin.last_handler_end() > 0) {
    r.gbps = static_cast<double>(pspin.payload_bytes_processed()) * 8.0 /
             (static_cast<double>(pspin.last_handler_end()) / 1e12) / 1e9;
  }
  r.ph_mean_ns = pspin.stats().duration_ns(spin::HandlerType::kPayload).mean();
  r.metrics.push_back(cluster.metrics().snapshot());
  return r;
}

constexpr spin::HandlerType kHandlerTypes[] = {
    spin::HandlerType::kHeader, spin::HandlerType::kPayload, spin::HandlerType::kCompletion};

/// Mean duration, mean instruction count and IPC of each handler type: the
/// CSV columns of Tables I and II (kHandlerColumns).
std::vector<double> handler_means(const pspin::HandlerStats& s) {
  std::vector<double> v;
  for (const auto t : kHandlerTypes) v.push_back(s.duration_ns(t).mean());
  for (const auto t : kHandlerTypes) v.push_back(s.instructions(t).mean());
  for (const auto t : kHandlerTypes) v.push_back(s.ipc(t));
  return v;
}

const std::vector<Column> kHandlerColumns = {
    {"HH mean ns", num0, "%.0f"}, {"PH mean ns", num0, "%.0f"}, {"CH mean ns", num0, "%.0f"},
    {"HH instr", num0, "%.0f"},   {"PH instr", num0, "%.0f"},   {"CH instr", num0, "%.0f"},
    {"HH IPC", num2, "%.2f"},     {"PH IPC", num2, "%.2f"},     {"CH IPC", num2, "%.2f"},
};

std::string handler_budget_line() {
  const analysis::HpuBudgetModel budget;
  return strf("per-handler budget with 32 HPUs, 2 KiB packets: %s @400G, %s @200G",
              format_time(budget.handler_budget(Bandwidth::from_gbps(400.0), 32)).c_str(),
              format_time(budget.handler_budget(Bandwidth::from_gbps(200.0), 32)).c_str());
}

// ---------------------------------------------------------- sweep points

/// Fig. 6: one write of `size` per protocol (RPC+RDMA, RPC, sPIN, Raw).
Row auth_write_latencies(std::size_t size) {
  const ClusterConfig host = storage(1, false);
  Row r;
  const double rpc_rdma =
      r.take(measure_write(host, {}, size, host_write<protocols::RpcRdmaWrite>)).latency_ns;
  const double rpc =
      r.take(measure_write(host, {}, size, host_write<protocols::RpcWrite>)).latency_ns;
  const double spin = r.take(measure_write(storage(1), {}, size, spin_write)).latency_ns;
  const double raw =
      r.take(measure_write(host, {}, size, host_write<protocols::RawWrite>)).latency_ns;
  r.values = {static_cast<double>(size), rpc_rdma, rpc, spin, raw, spin / raw};
  return r;
}

/// Fig. 7 from the device configuration: packet-buffer and L1 copies of a
/// 2 KiB packet, scheduler, HPU dispatch and the validation handler.
Row pipeline_config() {
  const pspin::PsPinConfig cfg;
  return {{2048.0 / cfg.pkt_buffer_bytes_per_cycle, static_cast<double>(cfg.sched_cycles),
           2048.0 / cfg.l1_copy_bytes_per_cycle, static_cast<double>(cfg.hpu_dispatch) / 1e3,
           static_cast<double>(dfs::cost::kHhCycles)}};
}

/// Fig. 7 cross-check on the full stack: a single-packet validated write's
/// HH completes one pipeline + one HH after arrival.
Row measured_header_handler() {
  Cluster cluster(storage(1));
  Client client(cluster, 0);
  const auto& layout = cluster.metadata().create("x", 4 * KiB, FilePolicy{});
  const auto cap = cluster.metadata().grant(client.client_id(), layout, auth::Right::kWrite);
  protocols::SpinWrite proto;
  proto.write(client, layout, cap, random_bytes(1500, 1), [](dfs::DfsError, TimePs) {});
  cluster.sim().run();
  const auto& stats = cluster.storage_node(0).pspin().stats();
  return {{stats.duration_ns(spin::HandlerType::kHeader).mean(),
           static_cast<double>(dfs::cost::kHhCycles)}};
}

/// Figs. 9 and 10: one write of `size` on k storage nodes under each of the
/// six replication strategies, in kReplicationColumns' order.
Row replication_latencies(unsigned k, std::size_t size) {
  const ClusterConfig host = storage(k, false);
  const ClusterConfig spin = storage(k);
  const FilePolicy ring = replicated(dfs::ReplStrategy::kRing, k);
  const FilePolicy pbt = replicated(dfs::ReplStrategy::kPbt, k);
  Row r;
  const double cpu_ring =
      r.take(best_over_chunks(host, ring, size,
                              [](std::size_t c) { return cpu_repl(dfs::ReplStrategy::kRing, c); }))
          .latency_ns;
  const double cpu_pbt =
      r.take(best_over_chunks(host, pbt, size,
                              [](std::size_t c) { return cpu_repl(dfs::ReplStrategy::kPbt, c); }))
          .latency_ns;
  const double flat =
      r.take(measure_write(host, ring, size, host_write<protocols::RdmaFlat>)).latency_ns;
  const double hl = r.take(best_over_chunks(host, ring, size, hyperloop)).latency_ns;
  const double spin_ring = r.take(measure_write(spin, ring, size, spin_write)).latency_ns;
  const double spin_pbt = r.take(measure_write(spin, pbt, size, spin_write)).latency_ns;
  r.values = {cpu_ring, cpu_pbt, flat, hl, spin_ring, spin_pbt};
  return r;
}

const std::vector<Column> kReplicationColumns = {
    {"CPU-Ring (ns)", num0, "%.1f"},  {"CPU-PBT (ns)", num0, "%.1f"},
    {"RDMA-Flat (ns)", num0, "%.1f"}, {"HyperLoop (ns)", num0, "%.1f"},
    {"sPIN-Ring (ns)", num0, "%.1f"}, {"sPIN-PBT (ns)", num0, "%.1f"},
};

/// Fig. 9 right: goodput at the primary without replication, with
/// sPIN-Ring k=4 and with sPIN-PBT k=4, under 4 incast clients writing
/// ~8 MiB in total to amortize ramp-up.
Row replication_goodputs(std::size_t size) {
  const unsigned clients = 4;
  const auto per_client = std::min(
      static_cast<unsigned>(std::max<std::size_t>(2, (8 * MiB) / (size * clients))), 256u);
  const auto goodput = [&](dfs::ReplStrategy strategy, unsigned k) {
    return measure_goodput(storage(std::max(k, 1u)), replicated(strategy, k), size, clients,
                           per_client);
  };
  Row r;
  const double none = r.take(goodput(dfs::ReplStrategy::kRing, 1)).gbps;
  const double ring = r.take(goodput(dfs::ReplStrategy::kRing, 4)).gbps;
  const double pbt = r.take(goodput(dfs::ReplStrategy::kPbt, 4)).gbps;
  r.values = {static_cast<double>(size), none, ring, pbt};
  return r;
}

/// Table I: node 0's handler statistics under saturating 512 KiB writes
/// (4 clients x 4 writes, node 0 the primary of all) with k-way replication.
pspin::HandlerStats replication_handler_stats(dfs::ReplStrategy strategy, unsigned k) {
  ClusterConfig cfg = storage(std::max(k, 1u));
  cfg.clients = 4;
  Cluster cluster(cfg);
  std::vector<std::unique_ptr<Client>> clients;
  for (unsigned c = 0; c < 4; ++c) clients.push_back(std::make_unique<Client>(cluster, c));
  const auto policy = replicated(strategy, k);
  for (unsigned c = 0; c < 4; ++c) {
    for (unsigned w = 0; w < 4; ++w) {
      const auto& layout = cluster.metadata().create(
          "f" + std::to_string(c) + "_" + std::to_string(w), 512 * KiB, policy);
      const auto cap =
          cluster.metadata().grant(clients[c]->client_id(), layout, auth::Right::kWrite);
      clients[c]->write(layout, cap, random_bytes(512 * KiB, c * 10 + w),
                        [](dfs::DfsError, TimePs) {});
    }
  }
  cluster.sim().run();
  return cluster.storage_node(0).pspin().stats();
}

/// Table I row: each handler type's min/median/max duration, then
/// handler_means.
Row handler_runtimes(const char* label, dfs::ReplStrategy strategy, unsigned k) {
  const auto stats = replication_handler_stats(strategy, k);
  Row r;
  for (const auto t : kHandlerTypes) {
    const auto& d = stats.duration_ns(t);
    r.values.insert(r.values.end(), {d.min(), d.median(), d.max()});
  }
  const auto means = handler_means(stats);
  r.values.insert(r.values.end(), means.begin(), means.end());
  r.label = label;
  return r;
}

/// Fig. 15 left: one RS(k,m) write of `size`, sPIN-TriEC vs INEC-TriEC.
Row ec_write_latencies(unsigned k, unsigned m, std::size_t size) {
  Row r;
  const double spin =
      r.take(measure_write(storage_100g(k + m, true), erasure_coded(k, m), size, spin_write))
          .latency_ns;
  const double inec = r.take(measure_write(storage_100g(k + m, false), erasure_coded(k, m), size,
                                           host_write<protocols::InecTriEc>))
                          .latency_ns;
  r.values = {static_cast<double>(size), spin, inec, inec / spin};
  return r;
}

/// Fig. 15 right: a window of writes issued back to back; bandwidth =
/// payload bytes / time of the last completion (the INEC paper's method).
double window_bandwidth_gbps(unsigned k, unsigned m, std::size_t block, bool with_spin,
                             unsigned window) {
  Cluster cluster(storage_100g(k + m, with_spin));
  Client client(cluster, 0);
  const auto proto = with_spin ? spin_write(cluster) : host_write<protocols::InecTriEc>(cluster);

  TimePs last = 0;
  unsigned done = 0;
  for (unsigned w = 0; w < window; ++w) {
    const auto& layout =
        cluster.metadata().create("w" + std::to_string(w), block, erasure_coded(k, m));
    const auto cap = cluster.metadata().grant(client.client_id(), layout, auth::Right::kWrite);
    proto->write(client, layout, cap, random_bytes(block, w), [&](dfs::DfsError err, TimePs at) {
      if (err == dfs::DfsError::kOk) {
        ++done;
        last = std::max(last, at);
      }
    });
  }
  cluster.sim().run();
  if (done == 0 || last == 0) return 0.0;
  return static_cast<double>(done) * static_cast<double>(block) * 8.0 /
         (static_cast<double>(last) / 1e12) / 1e9;
}

/// Table II: data node 0's handler statistics over four 256 KiB RS(k,m)
/// writes (node 0 is the first data target of every file).
pspin::HandlerStats ec_handler_stats(unsigned k, unsigned m) {
  Cluster cluster(storage(k + m));
  Client client(cluster, 0);
  for (unsigned w = 0; w < 4; ++w) {
    const auto& layout =
        cluster.metadata().create("f" + std::to_string(w), 256 * KiB, erasure_coded(k, m));
    const auto cap = cluster.metadata().grant(client.client_id(), layout, auth::Right::kWrite);
    client.write(layout, cap, random_bytes(256 * KiB, w), [](dfs::DfsError, TimePs) {});
  }
  cluster.sim().run();
  return cluster.storage_node(0).pspin().stats();
}

/// Ablation: PBT k=4 incast goodput and PH stall with an egress command
/// queue of `depth`.
Row egress_queue_point(unsigned depth) {
  ClusterConfig cfg = storage(4);
  cfg.pspin.egress_queue_depth = depth;
  Row r;
  const auto g =
      r.take(measure_goodput(cfg, replicated(dfs::ReplStrategy::kPbt, 4), 64 * KiB, 4, 16));
  r.values = {static_cast<double>(depth), g.ph_mean_ns, g.gbps};
  return r;
}

/// Ablation: a burst of 8 concurrent 128 KiB RS(3,2) writes with a parity
/// accumulator pool of `pool_bytes` on every node.
Row accumulator_pool_point(std::size_t pool_bytes) {
  ClusterConfig cfg = storage(5);
  cfg.dfs.accumulator_pool_bytes = pool_bytes;
  Cluster cluster(cfg);
  Client client(cluster, 0);
  unsigned done = 0;
  double makespan_ns = 0;
  for (int w = 0; w < 8; ++w) {
    const auto& layout =
        cluster.metadata().create("f" + std::to_string(w), 128 * KiB, erasure_coded(3, 2));
    const auto cap = cluster.metadata().grant(client.client_id(), layout, auth::Right::kWrite);
    client.write(layout, cap, random_bytes(128 * KiB, w), [&](dfs::DfsError err, TimePs at) {
      done += err == dfs::DfsError::kOk;
      makespan_ns = std::max(makespan_ns, to_ns(at));
    });
  }
  cluster.sim().run();
  std::uint64_t fallbacks = 0;
  for (std::size_t n = 0; n < cluster.storage_node_count(); ++n) {
    fallbacks += cluster.storage_node(n).dfs_state()->agg_fallbacks;
  }
  return {{static_cast<double>(pool_bytes), static_cast<double>(pool_bytes / 2048),
           static_cast<double>(fallbacks), makespan_ns, done == 8 ? 1.0 : 0.0}};
}

struct InterleaveRun {
  double latency_ns = 0;
  std::size_t acc_high_water = 0;  ///< accumulators live at once, max over nodes
};

/// Ablation: one RS(3,2) write of `block`, with the k chunk streams
/// interleaved packet by packet or sent one after another.
InterleaveRun interleave_run(std::size_t block, bool interleave) {
  Cluster cluster(storage(5));
  Client client(cluster, 0);
  client.set_ec_interleaving(interleave);
  const auto& layout = cluster.metadata().create("f", block, erasure_coded(3, 2));
  const auto cap = cluster.metadata().grant(client.client_id(), layout, auth::Right::kWrite);

  InterleaveRun r;
  client.write(layout, cap, random_bytes(block, 9),
               [&](dfs::DfsError, TimePs at) { r.latency_ns = to_ns(at); });
  cluster.sim().run();
  for (std::size_t n = 0; n < cluster.storage_node_count(); ++n) {
    r.acc_high_water =
        std::max(r.acc_high_water, cluster.storage_node(n).dfs_state()->pool.high_water());
  }
  return r;
}

Row interleave_point(std::size_t block) {
  const InterleaveRun inter = interleave_run(block, true);
  const InterleaveRun seq = interleave_run(block, false);
  return {{static_cast<double>(block), inter.latency_ns, seq.latency_ns,
           seq.latency_ns / inter.latency_ns, static_cast<double>(inter.acc_high_water),
           static_cast<double>(seq.acc_high_water)}};
}

/// Ablation: a 512 KiB k=4 ring write under CPU-Ring and HyperLoop with a
/// pipelining chunk of `chunk` (0 = the whole write).
Row chunk_size_point(std::size_t chunk) {
  const ClusterConfig host = storage(4, false);
  const FilePolicy ring = replicated(dfs::ReplStrategy::kRing, 4);
  Row r;
  const double cpu =
      r.take(measure_write(host, ring, 512 * KiB, cpu_repl(dfs::ReplStrategy::kRing, chunk)))
          .latency_ns;
  const double hl = r.take(measure_write(host, ring, 512 * KiB, hyperloop(chunk))).latency_ns;
  r.values = {static_cast<double>(chunk), cpu, hl};
  return r;
}

/// Ablation reference: the same write under sPIN-Ring, whose pipeline
/// granularity is the packet.
Row spin_ring_reference() {
  Row r;
  r.values = {r.take(measure_write(storage(4), replicated(dfs::ReplStrategy::kRing, 4), 512 * KiB,
                                   spin_write))
                  .latency_ns};
  return r;
}

/// Ablation: one sPIN write of `size` under each §IV threat model — full
/// capability, plain ticket (validation off) — and a raw RDMA write.
Row threat_model_latencies(std::size_t size) {
  ClusterConfig trusted = storage(1);
  trusted.dfs.validate_requests = false;
  Row r;
  const double full = r.take(measure_write(storage(1), {}, size, spin_write)).latency_ns;
  const double ticket = r.take(measure_write(trusted, {}, size, spin_write)).latency_ns;
  const double raw =
      r.take(measure_write(storage(1, false), {}, size, host_write<protocols::RawWrite>))
          .latency_ns;
  r.values = {static_cast<double>(size), full, ticket, raw, full / raw};
  return r;
}

/// Ablation: RS(6,3) ingest goodput at data node 0 with `clusters` PsPIN
/// clusters (6 clients x 12 x 384 KiB writes; node 0 carries chunk 0 of
/// each), against the analytic capacity HPUs x 2 KiB / 22.3 us.
Row hpu_scaling_point(unsigned clusters) {
  ClusterConfig cfg = storage(9);
  cfg.pspin.num_clusters = clusters;
  cfg.clients = 6;
  Row r;
  const double measured = r.take(measure_goodput(cfg, erasure_coded(6, 3), 384 * KiB, 6, 12)).gbps;
  const unsigned hpus = clusters * 8;
  r.values = {static_cast<double>(clusters), static_cast<double>(hpus), measured,
              static_cast<double>(hpus) * 2048.0 * 8.0 / (22286e-9) / 1e9};
  return r;
}

enum class ReadMode { kSpin, kHostDfs, kRaw };

/// Extension: latency of one read of `size`, served by the sPIN handlers,
/// by the host-side DFS service, or as a raw RDMA read (no policy).
double read_latency_ns(ReadMode mode, std::size_t size) {
  const ClusterConfig cfg = storage(1, mode != ReadMode::kRaw);
  Cluster cluster(cfg);
  Client client(cluster, 0);
  std::unique_ptr<services::HostDfsService> host;
  if (mode == ReadMode::kHostDfs) {
    cluster.storage_node(0).uninstall_dfs();
    host = std::make_unique<services::HostDfsService>(cluster.storage_node(0), cfg.dfs);
  }

  const auto& layout = cluster.metadata().create("o", size, FilePolicy{});
  const auto cap = cluster.metadata().grant(client.client_id(), layout, auth::Right::kReadWrite);

  // Preload the object functionally (timing of the write is irrelevant).
  cluster.storage_node(0).target().write(layout.targets[0].addr, random_bytes(size, size));

  const TimePs issued = cluster.sim().now();
  double latency = 0;
  if (mode == ReadMode::kRaw) {
    const auto rkey = cluster.storage_node(0).nic().register_mr(0, 1ull << 30);
    client.node().nic().post_read(cluster.storage_node(0).id(), layout.targets[0].addr, rkey,
                                  static_cast<std::uint32_t>(size),
                                  [&](Bytes, TimePs at) { latency = to_ns(at - issued); });
  } else {
    client.read(layout, cap, static_cast<std::uint32_t>(size),
                [&](dfs::DfsError, Bytes, TimePs at) { latency = to_ns(at - issued); });
  }
  cluster.sim().run();
  return latency;
}

Row read_latencies(std::size_t size) {
  const double spin = read_latency_ns(ReadMode::kSpin, size);
  const double raw = read_latency_ns(ReadMode::kRaw, size);
  return {{static_cast<double>(size), spin, read_latency_ns(ReadMode::kHostDfs, size), raw,
           spin / raw}};
}

/// Fault recovery: write an RS(k,m) object of `size`, kill its first
/// parity node, and let the heartbeat failure detector (§VI-B monitoring
/// service) notice and drive RecoveryManager::rebuild via auto_rebuild.
/// Values: k, m, size, chunk, then kill -> detection and detection ->
/// repaired layout (ns); a failed rebuild returns only the first four.
Row kill_and_rebuild(unsigned k, unsigned m, std::size_t size) {
  ClusterConfig cfg = storage(k + m + 2);  // room for a spare after the kill
  cfg.clients = 2;
  Cluster cluster(cfg);
  Client writer(cluster, 0);
  Client prober(cluster, 1);
  services::RecoveryManager recovery(cluster, writer);

  const auto& layout = cluster.metadata().create("bench", size, erasure_coded(k, m));
  const auto cap = cluster.metadata().grant(writer.client_id(), layout, auth::Right::kWrite);
  Row r{{static_cast<double>(k), static_cast<double>(m), static_cast<double>(size),
         static_cast<double>(layout.chunk_len)}};

  bool wrote = false;
  writer.write(layout, cap, random_bytes(size, 42), [&](dfs::DfsError err, TimePs) {
    wrote = err == dfs::DfsError::kOk;
  });
  cluster.sim().run();
  if (!wrote) return r;

  const net::NodeId victim = layout.parity[0].node;
  const TimePs kill_at = cluster.sim().now() + us(1);
  cluster.network().faults().kill_node(victim, kill_at);

  writer.set_timeout(us(50));
  services::FailureDetector detector(cluster, prober);
  TimePs rebuilt_at = 0;
  bool rebuilt = false;
  detector.auto_rebuild(recovery, "bench",
                        [&](std::optional<services::FileLayout> l, TimePs at) {
                          rebuilt = l.has_value();
                          rebuilt_at = at;
                        });
  detector.start();
  cluster.sim().run_until(kill_at + ms(10));
  detector.stop();
  cluster.sim().run();

  const TimePs failed_at = detector.failed_at(victim);
  if (!rebuilt || failed_at == 0) return r;
  r.values.push_back(to_ns(failed_at - kill_at));
  r.values.push_back(to_ns(rebuilt_at - failed_at));
  return r;
}

/// Fabric: counts what reaches a node and when the last packet arrived.
struct CountingSink : net::PacketSink {
  sim::Simulator* sim = nullptr;
  std::uint64_t pkts = 0;
  TimePs last_arrival = 0;
  void on_packet(net::Packet&&) override {
    ++pkts;
    last_arrival = sim->now();
  }
};

/// Fabric: a raw Network on leaf_spine(leaves, spines) with 4 nodes per
/// leaf; every node but node 1 bursts 64 x 1 KiB messages at node 1. The
/// finite port buffers tail-drop what the destination downlink and the
/// spine->leaf trunks cannot absorb, so delivered < offered is the
/// congestion signal. ECMP spread is each spine's share of the cross-leaf
/// packets over an even share (1.0 = perfectly even).
Row fabric_incast(unsigned leaves, unsigned spines) {
  constexpr std::size_t kPayload = 1 * KiB;
  constexpr unsigned kMsgsPerSource = 64;
  constexpr unsigned kNodesPerLeaf = 4;

  sim::Simulator sim;
  net::NetworkConfig ncfg;
  ncfg.topology = net::Topology::leaf_spine(leaves, spines);
  net::Network net(sim, ncfg);
  obs::MetricRegistry reg;
  net.bind_metrics(reg, "net");

  const unsigned nodes = leaves * kNodesPerLeaf;
  std::vector<std::unique_ptr<CountingSink>> sinks;
  sinks.reserve(nodes);
  for (unsigned i = 0; i < nodes; ++i) {
    sinks.push_back(std::make_unique<CountingSink>());
    sinks.back()->sim = &sim;
    net.add_node(*sinks.back());
  }

  const net::NodeId dst = 1;  // on leaf 1
  std::uint64_t msg = 0, offered = 0;
  for (unsigned src = 0; src < nodes; ++src) {
    if (src == dst) continue;
    for (unsigned m = 0; m < kMsgsPerSource; ++m) {
      net::Packet p;
      p.src = src;
      p.dst = dst;
      p.opcode = net::Opcode::kSend;
      p.msg_id = ++msg;
      p.data = Bytes(kPayload, static_cast<std::uint8_t>(src));
      ++offered;
      net.inject(std::move(p));
    }
  }
  sim.run();

  const std::uint64_t delivered = sinks[dst]->pkts;
  double goodput = 0.0;
  if (const TimePs makespan = sinks[dst]->last_arrival; makespan > 0) {
    goodput = static_cast<double>(delivered) * kPayload * 8.0 /
              (static_cast<double>(makespan) / 1e12) / 1e9;
  }
  // Cross-leaf packets (sources not on dst's leaf) each traverse exactly
  // one spine; the per-spine forwarded counters partition them.
  std::uint64_t cross = 0, spine_min = ~0ull, spine_max = 0;
  for (unsigned s = 0; s < spines; ++s) {
    const std::uint64_t fwd = net.hop_counters(net.topology().spine_id(s)).forwarded_pkts;
    cross += fwd;
    spine_min = std::min(spine_min, fwd);
    spine_max = std::max(spine_max, fwd);
  }
  double spread_min = 0.0, spread_max = 0.0;
  if (cross > 0) {
    const double even = static_cast<double>(cross) / spines;
    spread_min = static_cast<double>(spine_min) / even;
    spread_max = static_cast<double>(spine_max) / even;
  }
  return {{static_cast<double>(leaves), static_cast<double>(spines),
           static_cast<double>(offered), static_cast<double>(delivered),
           static_cast<double>(net.fault_counters().buffer_drops), goodput, spread_min,
           spread_max},
          {reg.snapshot()}};
}

// ------------------------------------------------------------- entries

std::vector<Table> replication_panels_by_k() {
  std::vector<Table> panels;
  for (const unsigned k : {2u, 4u}) {
    panels.push_back(
        {strf("fig09_k%u", k), strf("--- replication factor k = %u ---", k),
         cat({{"size", bytes, "%.0f"}}, kReplicationColumns),
         over<std::size_t>({1 * KiB, 4 * KiB, 16 * KiB, 64 * KiB, 256 * KiB, 512 * KiB, 1 * MiB},
                           [k](std::size_t s) { return keyed(s, replication_latencies(k, s)); })});
  }
  return panels;
}

std::vector<Table> replication_panels_by_size() {
  std::vector<Table> panels;
  for (const std::size_t s : {4 * KiB, 512 * KiB}) {
    panels.push_back(
        {strf("fig10_%zu", s), "--- write size = " + format_size(s) + " ---",
         cat({{"k", num0, "%.0f"}}, kReplicationColumns),
         over<unsigned>({2, 3, 4, 6, 8},
                        [s](unsigned k) { return keyed(k, replication_latencies(k, s)); })});
  }
  return panels;
}

std::vector<Table> ec_latency_panels() {
  std::vector<Table> panels;
  for (const auto& [k, m] : {std::pair<unsigned, unsigned>{2, 1}, {3, 2}}) {
    panels.push_back({strf("fig15_lat_rs%u%u", k, m),
                      strf("--- RS(%u,%u) ---", k, m),
                      {{"block", bytes, "%.0f"},
                       {"sPIN-TriEC (ns)", num0, "%.1f"},
                       {"INEC-TriEC (ns)", num0, "%.1f"},
                       {"speedup", ratio}},
                      over<std::size_t>({4 * KiB, 16 * KiB, 64 * KiB, 128 * KiB, 256 * KiB,
                                         512 * KiB},
                                        [k = k, m = m](std::size_t s) {
                                          return ec_write_latencies(k, m, s);
                                        })});
  }
  return panels;
}

std::vector<Entry> entries() {
  const analysis::NicMemoryModel nic;
  const analysis::HpuBudgetModel hpus;
  return {
      {"fig04_nic_memory",
       "Worst-case NIC memory vs concurrent writes",
       "Fig. 4 of the paper",
       {strf("request-table capacity: %s -> %llu concurrent writes (paper: ~82 K)",
             format_size(nic.available_bytes).c_str(),
             static_cast<unsigned long long>(nic.capacity_writes()))},
       {{"fig04_mem",
         "",
         {{"writes", num0, "%.0f"}, {"NIC memory", bytes, "%.0f"}, {"fits?", yes_no}},
         over<std::uint64_t>({1 << 10, 1 << 12, 1 << 14, 1 << 16, 81712, 1 << 17, 1 << 18},
                             [nic](std::uint64_t writes) {
                               const std::size_t mem = nic.memory_for(writes);
                               return Row{{static_cast<double>(writes), static_cast<double>(mem),
                                           mem <= nic.available_bytes ? 1.0 : 0.0}};
                             })},
        {"fig04_littles",
         "Little's-law concurrency at 400 Gbit/s line rate (lambda = BW/size,\n"
         "W = transfer + handler pipeline + ack):",
         {{"size", bytes, "%.0f"},
          {"service time", duration_ns},
          {"writes in flight", num1, "%.2f"},
          {"memory needed", bytes}},
         over<std::size_t>(
             {1 * KiB, 4 * KiB, 16 * KiB, 64 * KiB, 256 * KiB, 1 * MiB}, [nic](std::size_t s) {
               const double l = nic.concurrent_writes_at_line_rate(s);
               return Row{{static_cast<double>(s), to_ns(nic.service_time(s)), l,
                           l * static_cast<double>(nic.descriptor_bytes)}};
             })}},
       "Takeaway (paper §III-B.2): even at line rate the descriptor area\n"
       "bounds concurrency at ~82 K writes; small writes are bounded by the\n"
       "per-write overhead, large writes by transfer time."},

      {"fig06_write_latency",
       "Write latency vs size, request-authentication policy only",
       "Fig. 6 of the paper",
       {},
       {{"fig06",
         "",
         {{"size", bytes, "%.0f"},
          {"RPC+RDMA (ns)", num0, "%.1f"},
          {"RPC (ns)", num0, "%.1f"},
          {"sPIN (ns)", num0, "%.1f"},
          {"Raw (ns)", num0, "%.1f"},
          {"sPIN/Raw", ratio}},
         over<std::size_t>({512, 1 * KiB, 2 * KiB, 4 * KiB, 8 * KiB, 16 * KiB, 32 * KiB, 64 * KiB,
                            128 * KiB, 256 * KiB, 512 * KiB, 1 * MiB},
                           auth_write_latencies)}},
       "Expected shape: sPIN tracks Raw (<=~27% overhead for small writes,\n"
       "converging for large); RPC pays the bounce-buffer copy on large\n"
       "writes; RPC+RDMA pays an extra round trip on small writes."},

      {"fig07_pipeline_breakdown",
       "PsPIN per-packet pipeline breakdown (2 KiB packet)",
       "Fig. 7 of the paper",
       {"paper: packet-buffer copy 32 cycles, scheduler 2, L1 copy 43, HPU dispatch 1 ns,",
        "       request-validation handler 200 cycles"},
       {{"fig07",
         "",
         {{"pkt-buffer copy (cycles)", num0, "%.0f"},
          {"scheduler (cycles)", num0, "%.0f"},
          {"L1 copy (cycles)", num0, "%.0f"},
          {"HPU dispatch (ns)", num0, "%.0f"},
          {"validation HH (cycles)", num0, "%.0f"}},
         {pipeline_config}},
        {"fig07_measured_hh",
         "Cross-check on the full stack: a single-packet validated write's HH",
         {{"measured HH (ns)", num0, "%.0f"}, {"config sum (cycles)", num0}},
         {measured_header_handler}}},
       nullptr},

      {"fig09_replication_latency",
       "Write latency with replication (k=2 and k=4)",
       "Fig. 9 left/center of the paper",
       {},
       replication_panels_by_k(),
       "Expected shape: RDMA-Flat wins small writes (<=16 KiB, but enforces no\n"
       "validation); beyond that the client's k-fold injection cost makes\n"
       "sPIN-based strategies faster (paper: up to 2x / 2.16x). HyperLoop is\n"
       "penalized by WQE configuration; CPU strategies by host memory moves."},

      {"fig09_goodput",
       "Single-node goodput vs write size, offloaded replication",
       "Fig. 9 right of the paper",
       {},
       {{"fig09_goodput",
         "",
         {{"size", bytes, "%.0f"},
          {"k=1 (none) Gb/s", num1, "%.2f"},
          {"sPIN-Ring k=4 Gb/s", num1, "%.2f"},
          {"sPIN-PBT k=4 Gb/s", num1, "%.2f"}},
         over<std::size_t>({1 * KiB, 2 * KiB, 4 * KiB, 8 * KiB, 16 * KiB, 64 * KiB, 256 * KiB},
                           replication_goodputs)}},
       "Expected shape (paper): ring reaches line rate (~400 Gbit/s minus\n"
       "header overheads) from ~8 KiB writes; PBT sustains about half because\n"
       "every ingress packet costs two egress packets on a 400 Gbit/s port;\n"
       "1 KiB writes are handler-bound (every packet runs HH+PH+CH)."},

      {"fig10_replication_factor",
       "Write latency vs replication factor",
       "Fig. 10 of the paper",
       {},
       replication_panels_by_size(),
       "Expected shape: small writes — RDMA-Flat flat-out wins at any k (no\n"
       "validation, negligible injection cost); large writes — Flat grows\n"
       "linearly with k while sPIN strategies stay nearly flat; PBT beats\n"
       "Ring for small writes at large k (log-depth vs linear-depth tree)."},

      {"fig11_handler_runtimes",
       "Handler running times and statistics under replication",
       "Fig. 11 and Table I of the paper",
       {handler_budget_line()},
       {{"table1",
         "",
         cat({{"HH min", num0},
              {"HH med", num0},
              {"HH max", num0},
              {"PH min", num0},
              {"PH med", num0},
              {"PH max", num0},
              {"CH min", num0},
              {"CH med", num0},
              {"CH max", num0}},
             kHandlerColumns),
         {[] { return handler_runtimes("k=1", dfs::ReplStrategy::kRing, 1); },
          [] { return handler_runtimes("k=4, Ring", dfs::ReplStrategy::kRing, 4); },
          [] { return handler_runtimes("k=4, PBT", dfs::ReplStrategy::kPbt, 4); }}}},
       "Paper's Table I for comparison (duration ns / instructions / IPC):\n"
       "  k=1:       HH 211/120/0.57  PH   92/ 55/0.60  CH  107/66/0.62\n"
       "  k=4, Ring: HH 212/120/0.57  PH  193/105/0.54  CH  146/65/0.44\n"
       "  k=4, PBT:  HH 214/120/0.56  PH 2106/130/0.06  CH 1487/82/0.06\n"
       "Key effect: PBT payload handlers collapse to IPC ~0.06 because each\n"
       "ingress packet needs two egress packets and handlers stall on the\n"
       "egress command queue; ring handlers stay under the 400G budget."},

      {"fig15_ec_latency",
       "EC write latency: sPIN-TriEC vs INEC-TriEC @ 100 Gbit/s",
       "Fig. 15 left of the paper",
       {},
       ec_latency_panels(),
       "Expected shape (paper): sPIN-TriEC encodes packets on the fly before\n"
       "data crosses PCIe, so it avoids INEC's write-then-read-back chunk\n"
       "bounce and reaches up to ~2x lower write latency."},

      {"fig15_ec_bandwidth",
       "Encoding bandwidth: sPIN-TriEC vs INEC-TriEC @ 100 Gbit/s",
       "Fig. 15 right of the paper",
       {},
       {{"fig15_bw",
         "",
         {{"block", bytes, "%.0f"},
          {"sPIN RS(3,2) Gb/s", num1, "%.2f"},
          {"sPIN RS(6,3) Gb/s", num1, "%.2f"},
          {"INEC RS(6,3) Gb/s", num1, "%.2f"}},
         over<std::size_t>({1 * KiB, 4 * KiB, 16 * KiB, 64 * KiB, 256 * KiB, 512 * KiB},
                           [](std::size_t b) {
                             const unsigned window = b <= 16 * KiB ? 64 : 16;
                             return Row{{static_cast<double>(b),
                                         window_bandwidth_gbps(3, 2, b, true, window),
                                         window_bandwidth_gbps(6, 3, b, true, window),
                                         window_bandwidth_gbps(6, 3, b, false, window)}};
                           })}},
       "Expected shape (paper): sPIN-TriEC bandwidth is roughly block-size\n"
       "independent (it always works on packets) while INEC is crushed by\n"
       "per-chunk memory copies at small blocks (paper: 29x at 1 KiB,\n"
       "3.3x at 512 KiB for RS(6,3))."},

      {"fig16_ec_handlers",
       "EC handler statistics and HPU requirements",
       "Fig. 16 and Table II of the paper",
       {handler_budget_line()},
       {{"table2",
         "",
         kHandlerColumns,
         over<std::pair<unsigned, unsigned>>({{3, 2}, {6, 3}},
                                             [](const auto& code) {
                                               const auto [k, m] = code;
                                               Row r{handler_means(ec_handler_stats(k, m))};
                                               r.label = strf("rs%u%u", k, m);
                                               return r;
                                             })},
        {"fig16_hpus",
         "HPUs needed to sustain line rate vs average handler duration",
         {{"handler", duration_ns, "%.0f"}, {"@400G", num0, "%.0f"}, {"@200G", num0, "%.0f"}},
         over<TimePs>({ns(100), ns(500), ns(1310), ns(5000), ns(16681), ns(23018), ns(40000)},
                      [hpus](TimePs dur) {
                        return Row{{to_ns(dur),
                                    static_cast<double>(
                                        hpus.hpus_needed(Bandwidth::from_gbps(400.0), dur)),
                                    static_cast<double>(
                                        hpus.hpus_needed(Bandwidth::from_gbps(200.0), dur))}};
                      })}},
       "Paper's Table II: RS(3,2) PH 16681 ns / 11672 instr / 0.70;\n"
       "                  RS(6,3) PH 23018 ns / 16028 instr / 0.70.\n"
       "Paper's check: RS(6,3) handlers (~23 us) need ~512 HPUs for 400 Gbit/s;\n"
       "PsPIN's modular cluster design scales out to that configuration."},

      {"ablation_egress_queue",
       "Ablation: egress command-queue depth vs PBT handler stall",
       "the mechanism behind Table I's PBT row",
       {},
       {{"ablation_egress",
         "",
         {{"depth", num0, "%.0f"}, {"PH mean (ns)", num0, "%.0f"}, {"goodput Gb/s", num1, "%.2f"}},
         over<unsigned>({2, 4, 8, 16, 32, 64, 256}, egress_queue_point)}},
       "Reading: goodput stays ~half line rate at any depth (egress-bound);\n"
       "PH duration absorbs the queueing wherever the queue bounds it."},

      {"ablation_accumulator_pool",
       "Ablation: accumulator pool size vs CPU-fallback aggregation",
       "paper Section VI-B.3",
       {},
       {{"ablation_pool",
         "",
         {{"pool", bytes, "%.0f"},
          {"buffers", num0},
          {"fallback seqs", num0, "%.0f"},
          {"burst makespan (ns)", num0, "%.0f"},
          {"correct", yes_no, "%.0f"}},
         over<std::size_t>({0, 8 * 2048, 32 * 2048, 128 * 2048, 1 * MiB},
                           accumulator_pool_point)}},
       "Reading: parity content stays correct in every configuration (the\n"
       "fallback path aggregates on the host); the pool only determines how\n"
       "much aggregation stays on the NIC."},

      {"ablation_interleave",
       "Ablation: interleaved vs sequential EC chunk transmission",
       "paper Section VI-B.1",
       {},
       {{"ablation_interleave",
         "",
         {{"block", bytes, "%.0f"},
          {"interleaved (ns)", num0, "%.0f"},
          {"sequential (ns)", num0, "%.0f"},
          {"ratio", ratio},
          {"acc high-water (i)", num0, "%.0f"},
          {"acc high-water (s)", num0, "%.0f"}},
         over<std::size_t>({16 * KiB, 64 * KiB, 256 * KiB, 1 * MiB}, interleave_point)}},
       "Reading: interleaving wins on latency (parallel intermediate encode)\n"
       "and keeps fewer accumulators alive at the parity nodes."},

      {"ablation_chunk_size",
       "Ablation: pipelining chunk size (CPU-Ring, HyperLoop, k=4, 512 KiB)",
       "the 'optimal chunk size' the paper reports for non-sPIN baselines",
       {},
       {{"ablation_chunk",
         "",
         {{"chunk (0 B = whole)", bytes, "%.0f"},
          {"CPU-Ring (ns)", num0, "%.0f"},
          {"HyperLoop (ns)", num0, "%.0f"}},
         over<std::size_t>({0, 256 * KiB, 64 * KiB, 16 * KiB, 8 * KiB, 4 * KiB, 2 * KiB},
                           chunk_size_point)},
        {"ablation_chunk,spin_ref",
         "sPIN-Ring reference (packet-granularity pipeline, no tuning):",
         {{"sPIN-Ring (ns)", num0, "%.0f"}},
         {spin_ring_reference}}},
       "Reading: tiny chunks multiply per-chunk overheads (notifications, WQE\n"
       "updates), huge chunks serialize the store-and-forward pipeline; sPIN\n"
       "needs no tuning, its pipeline granularity is the network packet."},

      {"ablation_auth",
       "Write latency per threat model (paper Section IV)",
       "the threat-model discussion of Section IV",
       {"full capability: untrusted clients, SipHash-signed capability verified per request;",
        "plain ticket: trusted clients and network, plain-text secret compared by the HH;",
        "raw: no policy enforcement at all (speed of light)"},
       {{"ablation_auth",
         "",
         {{"size", bytes, "%.0f"},
          {"full capability (ns)", num0, "%.1f"},
          {"plain ticket (ns)", num0, "%.1f"},
          {"raw (ns)", num0, "%.1f"},
          {"full-vs-raw", ratio}},
         over<std::size_t>({512, 1 * KiB, 4 * KiB, 16 * KiB, 64 * KiB, 256 * KiB, 1 * MiB},
                           threat_model_latencies)}},
       "Reading: the capability MAC costs ~136 cycles over the plain ticket,\n"
       "once per request; both converge to raw RDMA for multi-packet writes\n"
       "while still enforcing the policy the raw path cannot."},

      {"ablation_hpu_scaling",
       "Ablation: PsPIN cluster scale-out vs EC ingest goodput (RS(6,3))",
       "Fig. 16 right's scale-out claim, validated on the simulator",
       {strf("analytic: RS(6,3) PH ~22.3 us -> %u HPUs for 400 Gbit/s",
             hpus.hpus_needed(Bandwidth::from_gbps(400.0), ns(22286)))},
       {{"ablation_hpus",
         "",
         {{"clusters", num0, "%.0f"},
          {"HPUs", num0, "%.0f"},
          {"node-0 goodput Gb/s", num1, "%.2f"},
          {"analytic capacity* Gb/s", num1, "%.2f"}},
         over<unsigned>({4, 8, 16, 32, 64}, hpu_scaling_point)}},
       "(* HPUs x 2 KiB / 22.3 us handler, before ingress/egress limits)\n"
       "Reading: goodput tracks the analytic HPU capacity until the network\n"
       "path saturates — adding clusters buys EC line rate, as the paper\n"
       "claims for the 512-HPU configuration."},

      {"ext_read_latency",
       "DFS read latency: sPIN-offloaded vs host CPU vs raw RDMA",
       "an extension — the paper defines reads (Fig. 3) but evaluates writes",
       {},
       {{"ext_read",
         "",
         {{"size", bytes, "%.0f"},
          {"sPIN read (ns)", num0, "%.1f"},
          {"host-CPU read (ns)", num0, "%.1f"},
          {"raw read (ns)", num0, "%.1f"},
          {"sPIN/raw", ratio}},
         over<std::size_t>({512, 4 * KiB, 16 * KiB, 64 * KiB, 256 * KiB, 1 * MiB},
                           read_latencies)}},
       "Reading: the offloaded read pays one capability check and tracks raw\n"
       "RDMA; the CPU-mode read adds notification latency plus a bounce copy\n"
       "that grows with size."},

      {"fault_recovery",
       "Fault recovery: time-to-detect / time-to-rebuild vs size and RS(k, m)",
       "the §VI-B monitoring-plus-recovery path, measured",
       {},
       {{"fault_recovery",
         "",
         {{"k", num0, "%.0f"},
          {"m", num0, "%.0f"},
          {"size", bytes, "%.0f"},
          {"chunk", bytes, "%.0f"},
          {"detect (ns)", num0, "%.0f"},
          {"rebuild (ns)", num0, "%.0f"}},
         over<std::tuple<unsigned, unsigned, std::size_t>>(
             {{3, 2, 48 * KiB}, {3, 2, 192 * KiB}, {3, 2, 768 * KiB},
              {4, 2, 48 * KiB}, {4, 2, 192 * KiB}, {4, 2, 768 * KiB},
              {6, 3, 48 * KiB}, {6, 3, 192 * KiB}, {6, 3, 768 * KiB}},
             [](const auto& p) { return std::apply(kill_and_rebuild, p); })}},
       "Reading: detection is set by the probe cadence (probe_interval x\n"
       "fail_after); rebuild time grows with the chunk (k chunk reads +\n"
       "decode + spare write)."},

      {"fabric",
       "Fabric: incast goodput + ECMP load spread vs leaf/spine size",
       "multi-switch topologies behind the Network facade (DESIGN.md 1a)",
       {},
       {{"fabric",
         "",
         {{"leaves", num0, "%.0f"},
          {"spines", num0, "%.0f"},
          {"offered", num0, "%.0f"},
          {"delivered", num0, "%.0f"},
          {"drops", num0, "%.0f"},
          {"goodput Gb/s", num1, "%.3f"},
          {"spine spread min", num2, "%.3f"},
          {"spine spread max", num2, "%.3f"}},
         over<std::pair<unsigned, unsigned>>(
             {{2, 1}, {2, 2}, {4, 2}, {4, 4}, {8, 4}},
             [](const auto& t) { return std::apply(fabric_incast, t); })}},
       "Reading: delivered < offered is the incast congestion signal; a\n"
       "spine spread near 1.0 means ECMP splits the cross-leaf load evenly."},
  };
}

// -------------------------------------------------------------- driver

/// Prints `rows` as an aligned table, each row followed by its CSV line,
/// and adds the CSV lines to `report`. A row with fewer values than columns
/// is a failed point: it prints what it has, then FAILED, and no CSV line.
void print_table(const Table& t, std::span<const Row> rows, SweepReport& report) {
  const bool labeled = !rows.empty() && !rows.front().label.empty();
  std::vector<std::vector<std::string>> lines(1 + rows.size());
  if (labeled) lines[0].push_back("");
  for (const Column& c : t.columns) lines[0].push_back(c.head);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    auto& line = lines[i + 1];
    if (labeled) line.push_back(rows[i].label);
    for (std::size_t j = 0; j < rows[i].values.size(); ++j) {
      line.push_back(t.columns[j].text(rows[i].values[j]));
    }
    if (rows[i].values.size() < t.columns.size()) line.push_back("FAILED");
  }
  std::vector<std::size_t> width(lines[0].size(), 0);
  for (const auto& line : lines) {
    for (std::size_t j = 0; j < line.size(); ++j) width[j] = std::max(width[j], line[j].size());
  }

  std::printf("\n");
  if (!t.title.empty()) std::printf("%s\n", t.title.c_str());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    for (std::size_t j = 0; j < lines[i].size(); ++j) {
      std::printf("%*s", static_cast<int>(width[j] + 2), lines[i][j].c_str());
    }
    std::printf("\n");
    if (i == 0) continue;
    const Row& r = rows[i - 1];
    if (r.values.size() < t.columns.size()) continue;
    std::string csv = t.tag;
    if (labeled) csv += "," + r.label;
    for (std::size_t j = 0; j < t.columns.size(); ++j) {
      if (t.columns[j].csv) csv += "," + strf(t.columns[j].csv, r.values[j]);
    }
    std::printf("CSV:%s\n", csv.c_str());
    report.add_csv(std::move(csv));
  }
}

void run_entry(const Entry& e, SweepRunner& runner) {
  print_header(e.title, e.ref);
  for (const std::string& line : e.preamble) std::printf("%s\n", line.c_str());
  SweepReport report(e.name);
  std::vector<Point> points;
  for (const Table& t : e.tables) points.insert(points.end(), t.points.begin(), t.points.end());
  const std::vector<Row> rows = runner.run(points);
  std::size_t first = 0;
  for (const Table& t : e.tables) {
    print_table(t, std::span(rows).subspan(first, t.points.size()), report);
    first += t.points.size();
  }
  for (const Row& r : rows) {
    for (const Snapshot& s : r.metrics) report.add_metrics(s);
  }
  if (e.note) std::printf("\n%s\n", e.note);
  report.finish(runner.threads(), rows.size());
}

}  // namespace
}  // namespace nadfs::bench

int main(int argc, char** argv) {
  using namespace nadfs::bench;
  const std::vector<Entry> table = entries();
  std::vector<const Entry*> selected;
  for (int i = 1; i < argc; ++i) {
    const auto it = std::find_if(table.begin(), table.end(),
                                 [&](const Entry& e) { return std::string(e.name) == argv[i]; });
    if (it == table.end()) {
      std::fprintf(stderr, "figures: unknown entry '%s'; known entries:\n", argv[i]);
      for (const Entry& e : table) std::fprintf(stderr, "  %s\n", e.name);
      return 2;
    }
    selected.push_back(&*it);
  }
  if (selected.empty()) {
    for (const Entry& e : table) selected.push_back(&e);
  }
  SweepRunner runner;
  for (const Entry* e : selected) run_entry(*e, runner);
  return 0;
}
