#include "protocols/raw_rdma.hpp"

namespace nadfs::protocols {

namespace {
std::unordered_map<net::NodeId, std::uint32_t> register_all(Cluster& cluster) {
  std::unordered_map<net::NodeId, std::uint32_t> rkeys;
  for (std::size_t i = 0; i < cluster.storage_node_count(); ++i) {
    auto& node = cluster.storage_node(i);
    rkeys[node.id()] = node.nic().register_mr(0, node.target().capacity());
  }
  return rkeys;
}
}  // namespace

RawWrite::RawWrite(Cluster& cluster) : cluster_(cluster), rkeys_(register_all(cluster)) {}

void RawWrite::write(Client& client, const FileLayout& layout, const auth::Capability& cap,
                     Bytes data, OpCb cb) {
  (void)cap;  // raw writes enforce no policy
  const auto& target = layout.targets.front();
  client.node().nic().post_write(target.node, target.addr, rkey_for(target.node),
                                 std::move(data), [cb = std::move(cb)](TimePs at) {
                                   cb(dfs::DfsError::kOk, at);
                                 });
}

RdmaFlat::RdmaFlat(Cluster& cluster) : cluster_(cluster), rkeys_(register_all(cluster)) {}

void RdmaFlat::write(Client& client, const FileLayout& layout, const auth::Capability& cap,
                     Bytes data, OpCb cb) {
  (void)cap;  // RDMA-Flat fully trusts clients (paper §V-B)
  const OpCb done = services::join(layout.targets.size(), cluster_.sim().now(), std::move(cb));
  for (const auto& target : layout.targets) {
    client.node().nic().post_write(target.node, target.addr, rkeys_.at(target.node), data,
                                   [done](TimePs at) { done(dfs::DfsError::kOk, at); });
  }
}

}  // namespace nadfs::protocols
