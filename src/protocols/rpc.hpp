// CPU-based write protocols (paper Fig. 1b, Fig. 5 left, Fig. 6).
//
//   RPC:      the client ships request + data in one two-sided message.
//             The storage CPU dispatches the RPC, validates the capability,
//             copies the payload out of the bounce buffer (losing RDMA's
//             zero-copy), commits it to the target, and replies.
//   RPC+RDMA: the client registers its buffer and ships only a small
//             descriptor. The storage CPU validates, RDMA-READs the data
//             straight into the target (zero-copy), and replies — at the
//             cost of an extra network round trip.
//
// Both enforce the same authentication policy the sPIN HH enforces; that is
// the point of the Fig. 6 comparison. The server echoes the request's greq
// as its reply tag, and each driver routes replies by that tag to the write
// that sent the request, so writes in flight from one client complete
// independently: kOk, or kDenied when validation failed.
#pragma once

#include <memory>
#include <unordered_map>

#include "protocols/protocol.hpp"

namespace nadfs::protocols {

/// Writes awaiting their server reply, by reply tag (the request's greq).
using RpcPending = std::unordered_map<std::uint64_t, OpCb>;

class RpcWrite final : public WriteProtocol {
 public:
  explicit RpcWrite(Cluster& cluster);
  const char* name() const override { return "RPC"; }
  void write(Client& client, const FileLayout& layout, const auth::Capability& cap, Bytes data,
             OpCb cb) override;

  std::uint64_t validation_failures() const { return *failures_; }

 private:
  Cluster& cluster_;
  std::shared_ptr<std::uint64_t> failures_ = std::make_shared<std::uint64_t>(0);
  std::shared_ptr<RpcPending> pending_ = std::make_shared<RpcPending>();
};

class RpcRdmaWrite final : public WriteProtocol {
 public:
  explicit RpcRdmaWrite(Cluster& cluster);
  const char* name() const override { return "RPC+RDMA"; }
  void write(Client& client, const FileLayout& layout, const auth::Capability& cap, Bytes data,
             OpCb cb) override;

  std::uint64_t validation_failures() const { return *failures_; }

 private:
  /// Each write stages its payload in its own client-RAM window: windows
  /// pack upward from kStagingBase while writes are in flight and restart
  /// there once none is.
  static constexpr std::uint64_t kStagingBase = 0x10000000ull;

  Cluster& cluster_;
  std::shared_ptr<std::uint64_t> failures_ = std::make_shared<std::uint64_t>(0);
  std::shared_ptr<RpcPending> pending_ = std::make_shared<RpcPending>();
  std::uint64_t next_staging_ = kStagingBase;
};

}  // namespace nadfs::protocols
