// Host-side DFS request service: the CPU twin of the sPIN handlers.
//
// Paper §III-C: on a storage node, requests "can be handled either by
// PsPIN [...] or by the DFS software running on the storage node CPU (e.g.,
// by appending requests to RPC command queues via RDMA)", and the execution
// context "can be configured to steer requests to host memory, bypassing
// PsPIN, if the SmartNIC is not keeping up with line rate".
//
// This service consumes the requests the NIC steers past PsPIN (see
// rdma::Nic::set_pspin_backlog_limit) and enforces the same policies with
// host economics: notification latency, per-request validation, bounce-
// buffer copies at memcpy bandwidth, and PCIe-bounced forwarding. Forwarded
// hops are regular DFS-formatted writes, so a downstream replica or parity
// node processes them on its own PsPIN if it has capacity — the two planes
// compose.
#pragma once

#include <unordered_map>

#include "auth/capability.hpp"
#include "dfs/state.hpp"
#include "services/cluster.hpp"

namespace nadfs::services {

class HostDfsService {
 public:
  /// Installs itself as `node`'s DFS-request handler. `cfg` supplies the
  /// shared key and the validation mode (normally the cluster's dfs
  /// config); packets are cut at the node's network MTU.
  HostDfsService(StorageNode& node, dfs::DfsConfig cfg);
  ~HostDfsService();
  HostDfsService(const HostDfsService&) = delete;
  HostDfsService& operator=(const HostDfsService&) = delete;

  std::uint64_t requests_handled() const { return handled_; }
  std::uint64_t validation_failures() const { return failures_; }

 private:
  void handle(net::NodeId src, std::uint64_t msg_id, Bytes request, TimePs at);
  void handle_write(const dfs::ParsedRequest& req, ByteSpan payload, TimePs t);
  void handle_read(const dfs::ParsedRequest& req, TimePs t);
  void handle_trim(const dfs::ParsedRequest& req, TimePs t);
  void handle_stat(const dfs::ParsedRequest& req, TimePs t);
  void handle_parity_contribution(const dfs::ParsedRequest& req, ByteSpan payload, TimePs t);

  StorageNode& node_;
  dfs::DfsConfig cfg_;
  auth::CapabilityAuthority authority_;
  std::uint64_t handled_ = 0;
  std::uint64_t failures_ = 0;
  std::string metrics_prefix_;

  /// Host-side parity aggregation state (EC parity role), keyed by greq.
  struct ParityAgg {
    Bytes acc;
    unsigned contributions = 0;
    TimePs last = 0;
  };
  std::unordered_map<std::uint64_t, ParityAgg> parity_;

  /// RS codec cache.
  const ec::ReedSolomon& codec(unsigned k, unsigned m) {
    auto& slot = codecs_[(k << 8) | m];
    if (!slot) slot = std::make_unique<ec::ReedSolomon>(k, m);
    return *slot;
  }
  std::unordered_map<unsigned, std::unique_ptr<ec::ReedSolomon>> codecs_;
};

}  // namespace nadfs::services
