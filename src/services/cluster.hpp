// Node assemblies and the simulated cluster.
//
// A StorageNode is the full Fig. 1(d) stack: storage target (NVMM), RDMA
// NIC, PsPIN device, host CPU, plus the DFS state its execution context
// owns. A ClientNode is a DFS endpoint: RAM + NIC + CPU. The Cluster wires
// them onto the configured switch fabric (ClusterConfig::network.topology:
// the paper's single SST star by default, or a 2-tier leaf/spine — nodes
// attach round-robin to leaves in construction order, storage nodes first)
// together with the control-plane services.
#pragma once

#include <memory>
#include <vector>

#include "dfs/handlers.hpp"
#include "dfs/state.hpp"
#include "host/cpu.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "pspin/device.hpp"
#include "rdma/nic.hpp"
#include "services/metadata.hpp"
#include "sim/periodic.hpp"
#include "sim/simulator.hpp"
#include "storage/target.hpp"

namespace nadfs::services {

struct HostEventRecord {
  std::uint64_t code;
  std::uint64_t arg;
  TimePs at;
};

class StorageNode {
 public:
  StorageNode(sim::Simulator& simulator, net::Network& network, const storage::TargetConfig& tcfg,
              const rdma::NicConfig& ncfg, const host::CpuConfig& ccfg,
              const pspin::PsPinConfig& pcfg);

  /// Install the offloaded DFS policies (Fig. 1d). Keeps a handle on the
  /// shared state for inspection.
  void install_dfs(dfs::DfsConfig cfg);
  /// Remove the execution context: RDMA traffic reverts to the host path.
  void uninstall_dfs();
  /// Cold restart of the execution context: the in-NIC request/aggregation
  /// state is lost (a rebooted machine comes up with empty NIC memory) and
  /// the policies are re-installed with the last install_dfs config. The
  /// NVMM target survives — a rejoining node still holds its extents.
  void restart_dfs();

  net::NodeId id() const { return nic_->id(); }
  storage::Target& target() { return *target_; }
  rdma::Nic& nic() { return *nic_; }
  host::Cpu& cpu() { return *cpu_; }
  pspin::PsPinDevice& pspin() { return *pspin_; }
  dfs::DfsState* dfs_state() { return dfs_state_.get(); }
  const std::vector<HostEventRecord>& host_events() const { return host_events_; }

  /// Register this node's NIC/PsPIN/DFS instruments under `prefix`
  /// ("node3"). Remembered so install_dfs/uninstall_dfs keep the DFS
  /// entries in sync when the execution context is swapped.
  void bind_metrics(obs::MetricRegistry& reg, std::string prefix);
  /// Fan a span tracer out to the NIC and PsPIN device.
  void set_tracer(obs::SpanTracer* tracer);

  /// Registry this node is bound into (nullptr before bind_metrics) and
  /// its prefix — host-side services hang their own instruments off these.
  obs::MetricRegistry* metrics() { return metrics_; }
  const std::string& metrics_prefix() const { return metrics_prefix_; }

  /// Periodic storage-side state GC (DfsState::gc): reaps aggregation
  /// state wedged by mid-chain drops after `ttl` of inactivity. Must be
  /// stopped (or the node destroyed) before expecting the event queue to
  /// drain — see sim::Periodic.
  void start_state_gc(TimePs interval, TimePs ttl);
  void stop_state_gc();

 private:
  sim::Simulator& sim_;
  std::unique_ptr<storage::Target> target_;
  std::unique_ptr<rdma::Nic> nic_;
  std::unique_ptr<host::Cpu> cpu_;
  std::unique_ptr<pspin::PsPinDevice> pspin_;
  std::shared_ptr<dfs::DfsState> dfs_state_;
  dfs::DfsConfig dfs_cfg_;  ///< last install_dfs config (restart_dfs re-uses it)
  bool dfs_installed_ = false;
  std::vector<HostEventRecord> host_events_;
  sim::Periodic state_gc_;
  obs::MetricRegistry* metrics_ = nullptr;
  std::string metrics_prefix_;
};

class ClientNode {
 public:
  ClientNode(sim::Simulator& simulator, net::Network& network, const rdma::NicConfig& ncfg,
             const host::CpuConfig& ccfg);

  net::NodeId id() const { return nic_->id(); }
  storage::Target& ram() { return *ram_; }
  rdma::Nic& nic() { return *nic_; }
  host::Cpu& cpu() { return *cpu_; }

  void bind_metrics(obs::MetricRegistry& reg, const std::string& prefix) {
    nic_->bind_metrics(reg, prefix + ".nic");
  }
  void set_tracer(obs::SpanTracer* tracer) { nic_->set_tracer(tracer); }

 private:
  std::unique_ptr<storage::Target> ram_;
  std::unique_ptr<rdma::Nic> nic_;
  std::unique_ptr<host::Cpu> cpu_;
};

/// Inert: nothing reads these two members. They remain only so
/// perfbench/perfbench.cpp, which assigns both, keeps compiling.
struct SimParallelConfig {
  enum class Mode { kOff };
  Mode mode = Mode::kOff;
  unsigned threads = 1;
};

struct ClusterConfig {
  unsigned storage_nodes = 4;
  unsigned clients = 1;
  SimParallelConfig parallel;
  net::NetworkConfig network;
  storage::TargetConfig target;
  /// Per-node storage backends: when non-empty, storage node i uses
  /// per_node_target[i % size()] instead of `target` (heterogeneous
  /// clusters: e.g. half the nodes on the Bε-tree engine, half at line
  /// rate). Client RAM always stays on the default line-rate model.
  std::vector<storage::TargetConfig> per_node_target;
  rdma::NicConfig nic;
  host::CpuConfig cpu;
  pspin::PsPinConfig pspin;
  dfs::DfsConfig dfs;
  bool install_dfs = true;  ///< offload policies to the NICs at start-up
  /// Fault schedule armed at construction when non-empty (chaos tests can
  /// also arm/extend one later via network().install_faults() / faults()).
  net::FaultPlan faults;
};

class Cluster {
 public:
  explicit Cluster(ClusterConfig config = {});

  sim::Simulator& sim() { return sim_; }
  net::Network& network() { return *network_; }
  ManagementService& management() { return *mgmt_; }
  MetadataService& metadata() { return *meta_; }

  StorageNode& storage_node(std::size_t i) { return *storage_[i]; }
  std::size_t storage_node_count() const { return storage_.size(); }
  /// Storage node by network node id (throws if not a storage node).
  StorageNode& storage_by_node(net::NodeId id);

  ClientNode& client(std::size_t i) { return *clients_[i]; }
  std::size_t client_count() const { return clients_.size(); }

  const ClusterConfig& config() const { return cfg_; }

  /// Cluster-wide metric registry. Every node's counters/gauges are bound
  /// at construction under "node<id>.*" (plus "net.*"); services bind
  /// their own entries as they are created. Snapshot with
  /// metrics().to_json() / snapshot().
  obs::MetricRegistry& metrics() { return metrics_; }

  /// Attach (or detach, with nullptr) a cross-layer span tracer: fans out
  /// to the network, every NIC and every PsPIN device, and labels the
  /// nodes. Digest-neutral — see DESIGN.md §3c.
  void set_tracer(obs::SpanTracer* tracer);
  obs::SpanTracer* tracer() const { return tracer_; }

  /// Start/stop the storage-side state GC on every storage node.
  void start_state_gc(TimePs interval, TimePs ttl);
  void stop_state_gc();

 private:
  ClusterConfig cfg_;
  // Declared before the nodes: bound instruments point into node-owned
  // cells, so the registry must be constructed first / destroyed last.
  obs::MetricRegistry metrics_;
  sim::Simulator sim_;
  std::unique_ptr<net::Network> network_;
  std::vector<std::unique_ptr<StorageNode>> storage_;
  std::vector<std::unique_ptr<ClientNode>> clients_;
  std::unique_ptr<ManagementService> mgmt_;
  std::unique_ptr<MetadataService> meta_;
  obs::SpanTracer* tracer_ = nullptr;
};

}  // namespace nadfs::services
