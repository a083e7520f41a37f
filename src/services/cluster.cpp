#include "services/cluster.hpp"

#include <stdexcept>
#include <string>

namespace nadfs::services {

StorageNode::StorageNode(sim::Simulator& simulator, net::Network& network,
                         const storage::TargetConfig& tcfg, const rdma::NicConfig& ncfg,
                         const host::CpuConfig& ccfg, const pspin::PsPinConfig& pcfg)
    : sim_(simulator),
      target_(std::make_unique<storage::Target>(simulator, tcfg)),
      nic_(std::make_unique<rdma::Nic>(simulator, network, *target_, ncfg)),
      cpu_(std::make_unique<host::Cpu>(simulator, ccfg)),
      pspin_(std::make_unique<pspin::PsPinDevice>(simulator, pcfg)),
      state_gc_(simulator) {
  nic_->attach_pspin(*pspin_);
  nic_->set_host_event_handler([this](std::uint64_t code, std::uint64_t arg, TimePs at) {
    host_events_.push_back(HostEventRecord{code, arg, at});
  });
}

void StorageNode::install_dfs(dfs::DfsConfig cfg) {
  dfs_cfg_ = cfg;
  dfs_installed_ = true;
  dfs_state_ = std::make_shared<dfs::DfsState>(cfg, nic_->network().mtu());
  if (!pspin_->install(dfs::make_dfs_context(dfs_state_))) {
    throw std::runtime_error("StorageNode::install_dfs: DFS state exceeds NIC memory");
  }
  if (metrics_) dfs_state_->bind_metrics(*metrics_, metrics_prefix_ + ".dfs");
}

void StorageNode::uninstall_dfs() {
  pspin_->uninstall();
  if (metrics_) metrics_->remove_prefix(metrics_prefix_ + ".dfs");
  dfs_state_.reset();
}

void StorageNode::restart_dfs() {
  if (!dfs_installed_) return;
  uninstall_dfs();
  install_dfs(dfs_cfg_);
}

void StorageNode::bind_metrics(obs::MetricRegistry& reg, std::string prefix) {
  metrics_ = &reg;
  metrics_prefix_ = std::move(prefix);
  nic_->bind_metrics(reg, metrics_prefix_ + ".nic");
  pspin_->bind_metrics(reg, metrics_prefix_ + ".pspin");
  target_->bind_metrics(reg, metrics_prefix_ + ".storage");
  reg.gauge(metrics_prefix_ + ".host_events",
            [this] { return static_cast<long long>(host_events_.size()); });
  if (dfs_state_) dfs_state_->bind_metrics(reg, metrics_prefix_ + ".dfs");
}

void StorageNode::set_tracer(obs::SpanTracer* tracer) {
  nic_->set_tracer(tracer);
  pspin_->set_span_tracer(tracer);
  target_->set_tracer(tracer, static_cast<std::uint32_t>(id()));
}

void StorageNode::start_state_gc(TimePs interval, TimePs ttl) {
  state_gc_.start(interval, [this, ttl] {
    if (dfs_state_) dfs_state_->gc(sim_.now(), ttl);
  });
}

void StorageNode::stop_state_gc() { state_gc_.stop(); }

ClientNode::ClientNode(sim::Simulator& simulator, net::Network& network,
                       const rdma::NicConfig& ncfg, const host::CpuConfig& ccfg)
    : ram_(std::make_unique<storage::Target>(simulator)),
      nic_(std::make_unique<rdma::Nic>(simulator, network, *ram_, ncfg)),
      cpu_(std::make_unique<host::Cpu>(simulator, ccfg)) {}

Cluster::Cluster(ClusterConfig config) : cfg_(config) {
  network_ = std::make_unique<net::Network>(sim_, cfg_.network);
  if (!cfg_.faults.empty()) network_->install_faults(cfg_.faults);

  std::vector<net::NodeId> storage_ids;
  for (unsigned i = 0; i < cfg_.storage_nodes; ++i) {
    const storage::TargetConfig& tcfg =
        cfg_.per_node_target.empty() ? cfg_.target
                                     : cfg_.per_node_target[i % cfg_.per_node_target.size()];
    storage_.push_back(
        std::make_unique<StorageNode>(sim_, *network_, tcfg, cfg_.nic, cfg_.cpu, cfg_.pspin));
    storage_ids.push_back(storage_.back()->id());
  }
  for (unsigned i = 0; i < cfg_.clients; ++i) {
    clients_.push_back(std::make_unique<ClientNode>(sim_, *network_, cfg_.nic, cfg_.cpu));
  }

  mgmt_ = std::make_unique<ManagementService>(cfg_.dfs.key);
  meta_ = std::make_unique<MetadataService>(*mgmt_, storage_ids);

  network_->bind_metrics(metrics_, "net");
  for (auto& node : storage_) node->bind_metrics(metrics_, "node" + std::to_string(node->id()));
  for (auto& node : clients_) node->bind_metrics(metrics_, "node" + std::to_string(node->id()));

  if (cfg_.install_dfs) {
    for (auto& node : storage_) node->install_dfs(cfg_.dfs);
  }
}

void Cluster::set_tracer(obs::SpanTracer* tracer) {
  tracer_ = tracer;
  network_->set_tracer(tracer);
  for (std::size_t i = 0; i < storage_.size(); ++i) {
    storage_[i]->set_tracer(tracer);
    if (tracer) tracer->set_node_label(storage_[i]->id(), "storage" + std::to_string(i));
  }
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    clients_[i]->set_tracer(tracer);
    if (tracer) tracer->set_node_label(clients_[i]->id(), "client" + std::to_string(i));
  }
}

void Cluster::start_state_gc(TimePs interval, TimePs ttl) {
  for (auto& node : storage_) node->start_state_gc(interval, ttl);
}

void Cluster::stop_state_gc() {
  for (auto& node : storage_) node->stop_state_gc();
}

StorageNode& Cluster::storage_by_node(net::NodeId id) {
  for (auto& node : storage_) {
    if (node->id() == id) return *node;
  }
  throw std::out_of_range("Cluster::storage_by_node: not a storage node");
}

}  // namespace nadfs::services
