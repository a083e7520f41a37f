// Write-protocol drivers: one class per strategy the paper evaluates.
//
//   Fig. 6 (auth):        RawWrite, Rpc, RpcRdma, SpinWrite
//   Fig. 9/10 (replication): CpuRepl (ring/pbt), RdmaFlat, HyperLoop,
//                             SpinWrite over a replicated layout
//   Fig. 15 (EC):         InecTriEc, SpinWrite over an EC layout
//
// Every protocol implements the same call: perform one write of `data`
// against `layout` on behalf of `client`, invoking the client's completion
// contract `cb(err, t)` when the write is complete under that protocol's
// own completion rule (transport acks for raw RDMA, DFS acks from handlers
// for sPIN, tail acks for HyperLoop, ...). Transport-acked drivers report
// kOk; the RPC drivers map the server's reply status to kOk or kDenied.
// Benches measure cb-time minus issue-time.
//
// Protocols that need storage-side software (RPC servers, CPU forwarding,
// the INEC accelerator emulation) install it on every storage node at
// construction; build one Cluster per protocol under test.
#pragma once

#include "services/client.hpp"
#include "services/cluster.hpp"

namespace nadfs::protocols {

using services::Client;
using services::Cluster;
using services::FileLayout;
using services::OpCb;

class WriteProtocol {
 public:
  virtual ~WriteProtocol() = default;
  virtual const char* name() const = 0;
  virtual void write(Client& client, const FileLayout& layout, const auth::Capability& cap,
                     Bytes data, OpCb cb) = 0;
};

/// The paper's offloaded path: one DFS-formatted one-sided write; all
/// policies (auth, ring/pbt replication, streaming TriEC) run on the
/// storage NICs. Covers sPIN, sPIN-Ring, sPIN-PBT, and sPIN-TriEC
/// depending on the layout's policy.
class SpinWrite final : public WriteProtocol {
 public:
  const char* name() const override { return "sPIN"; }
  void write(Client& client, const FileLayout& layout, const auth::Capability& cap, Bytes data,
             OpCb cb) override {
    client.write(layout, cap, std::move(data), std::move(cb));
  }
};

}  // namespace nadfs::protocols
