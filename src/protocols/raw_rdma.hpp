// Raw RDMA writes and client-driven replication (paper Fig. 6 "Raw writes"
// and Fig. 8/9 "RDMA-Flat").
//
// Both are pure one-sided RDMA against storage nodes WITHOUT an installed
// execution context (host path): no policy is enforced, clients are fully
// trusted. RawWrite is the speed-of-light reference; RdmaFlat enforces
// replication *at the client* by issuing k independent writes, paying the
// client's injection bandwidth k times.
#pragma once

#include <unordered_map>

#include "protocols/protocol.hpp"

namespace nadfs::protocols {

class RawWrite final : public WriteProtocol {
 public:
  explicit RawWrite(Cluster& cluster);
  const char* name() const override { return "Raw"; }
  void write(Client& client, const FileLayout& layout, const auth::Capability& cap, Bytes data,
             OpCb cb) override;

 protected:
  /// rkey registered over each storage node's whole target (clients learn
  /// it out-of-band from metadata, as an RDMA DFS would).
  std::uint32_t rkey_for(net::NodeId node) const { return rkeys_.at(node); }
  Cluster& cluster_;

 private:
  std::unordered_map<net::NodeId, std::uint32_t> rkeys_;
};

class RdmaFlat final : public WriteProtocol {
 public:
  explicit RdmaFlat(Cluster& cluster);
  const char* name() const override { return "RDMA-Flat"; }
  /// Issues one write per replica; completes when every transport ack is in.
  void write(Client& client, const FileLayout& layout, const auth::Capability& cap, Bytes data,
             OpCb cb) override;

 private:
  Cluster& cluster_;
  std::unordered_map<net::NodeId, std::uint32_t> rkeys_;
};

}  // namespace nadfs::protocols
