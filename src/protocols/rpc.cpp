#include "protocols/rpc.hpp"

#include <optional>

namespace nadfs::protocols {

namespace {

/// Wire format of the RPC+RDMA descriptor appended after DFS hdr + WRH
/// (16 bytes, no padding).
struct RdmaDescriptor {
  std::uint64_t client_addr;
  std::uint32_t client_rkey;
  std::uint32_t len;
};

constexpr std::uint8_t kStatusOk = 0;
constexpr std::uint8_t kStatusDenied = 1;

/// Parse `msg` and validate it the way the sPIN header handler's
/// DFS_request_init does. A request that does not parse (truncated, or
/// headers out of range) fails validation like one with a bad capability.
std::optional<dfs::ParsedRequest> validated(const auth::CapabilityAuthority& authority,
                                            ByteSpan msg, std::size_t trailer, TimePs now) {
  try {
    auto req = dfs::parse_request(msg);
    if (msg.size() - req.header_bytes >= trailer &&
        authority.verify(req.dfs.cap, now, auth::Right::kWrite, req.wrh.dest_addr,
                         req.wrh.total_len)) {
      return req;
    }
  } catch (const std::out_of_range&) {
  }
  return std::nullopt;
}

/// Count a failed validation and answer kStatusDenied once dispatched.
void deny(services::StorageNode& node, std::uint64_t& failures, net::NodeId src,
          std::uint64_t tag, TimePs dispatched) {
  ++failures;
  node.cpu().run(0, dispatched,
                 [&node, src, tag]() { node.nic().post_send(src, tag, Bytes{kStatusDenied}); });
}

/// Park `cb` under the request's `tag` and route `client`'s replies through
/// `pending`: each reply completes the write whose tag it echoes, once.
void await_reply(Client& client, const std::shared_ptr<RpcPending>& pending, std::uint64_t tag,
                 OpCb cb) {
  pending->emplace(tag, std::move(cb));
  client.node().nic().set_recv_handler(
      [pending](net::NodeId, std::uint64_t reply_tag, Bytes msg, TimePs at) {
        const auto it = pending->find(reply_tag);
        if (it == pending->end()) return;
        const OpCb done = std::move(it->second);
        pending->erase(it);
        done(!msg.empty() && msg[0] == kStatusOk ? dfs::DfsError::kOk : dfs::DfsError::kDenied,
             at);
      });
}

}  // namespace

// ------------------------------------------------------------------ RPC

RpcWrite::RpcWrite(Cluster& cluster) : cluster_(cluster) {
  const auto key = cluster.management().shared_key();
  for (std::size_t i = 0; i < cluster.storage_node_count(); ++i) {
    auto& node = cluster.storage_node(i);
    auto authority = std::make_shared<auth::CapabilityAuthority>(key);
    auto failures = failures_;
    node.nic().set_recv_handler([&node, authority, failures](net::NodeId src, std::uint64_t tag,
                                                             Bytes msg, TimePs at) {
      auto& cpu = node.cpu();
      const auto& ccfg = cpu.config();
      // Dispatch + validate on a core, starting after the NIC notified us.
      const TimePs dispatched =
          cpu.busy(ccfg.rpc_dispatch + ccfg.validate_cost, at + ccfg.notify_latency);
      const auto req = validated(*authority, msg, 0, dispatched);
      if (!req) {
        deny(node, *failures, src, tag, dispatched);
        return;
      }
      // Bounce-buffer copy (the RPC penalty of Fig. 6), then commit.
      const std::size_t payload = msg.size() - req->header_bytes;
      const TimePs copied = cpu.copy(payload, dispatched);
      const TimePs durable = node.target().write(
          req->wrh.dest_addr, ByteSpan(msg.data() + req->header_bytes, payload), copied);
      node.cpu().run(0, durable, [&node, src, tag]() {
        node.nic().post_send(src, tag, Bytes{kStatusOk});
      });
    });
  }
}

void RpcWrite::write(Client& client, const FileLayout& layout, const auth::Capability& cap,
                     Bytes data, OpCb cb) {
  const dfs::DfsHeader hdr{dfs::OpType::kWrite, client.next_greq(), client.node().id(), cap};
  dfs::WriteRequestHeader wrh;
  wrh.dest_addr = layout.targets.front().addr;
  wrh.total_len = data.size();
  Bytes req = dfs::serialize_write_headers(hdr, wrh);
  req.insert(req.end(), data.begin(), data.end());

  await_reply(client, pending_, hdr.greq_id, std::move(cb));
  client.node().nic().post_send(layout.targets.front().node, hdr.greq_id, std::move(req));
}

// ------------------------------------------------------------- RPC+RDMA

RpcRdmaWrite::RpcRdmaWrite(Cluster& cluster) : cluster_(cluster) {
  const auto key = cluster.management().shared_key();
  for (std::size_t i = 0; i < cluster.storage_node_count(); ++i) {
    auto& node = cluster.storage_node(i);
    auto authority = std::make_shared<auth::CapabilityAuthority>(key);
    auto failures = failures_;
    node.nic().set_recv_handler([&node, authority, failures](net::NodeId src, std::uint64_t tag,
                                                             Bytes msg, TimePs at) {
      auto& cpu = node.cpu();
      const auto& ccfg = cpu.config();
      const TimePs dispatched =
          cpu.busy(ccfg.rpc_dispatch + ccfg.validate_cost, at + ccfg.notify_latency);
      const auto req = validated(*authority, msg, sizeof(RdmaDescriptor), dispatched);
      if (!req) {
        deny(node, *failures, src, tag, dispatched);
        return;
      }
      ByteReader r(ByteSpan(msg.data() + req->header_bytes, msg.size() - req->header_bytes));
      const auto client_addr = r.get<std::uint64_t>();
      const auto client_rkey = r.get<std::uint32_t>();
      const auto len = r.get<std::uint32_t>();
      // Zero-copy: RDMA-read the payload from the client straight into the
      // storage target (the extra round trip of Fig. 5 left).
      const std::uint64_t dest = req->wrh.dest_addr;
      node.cpu().run(0, dispatched, [&node, src, tag, client_addr, client_rkey, len, dest]() {
        node.nic().post_read(src, client_addr, client_rkey, len,
                             [&node, src, tag, dest](Bytes data, TimePs got) {
                               const TimePs durable = node.target().write(dest, data, got);
                               node.cpu().run(0, durable, [&node, src, tag]() {
                                 node.nic().post_send(src, tag, Bytes{kStatusOk});
                               });
                             });
      });
    });
  }
}

void RpcRdmaWrite::write(Client& client, const FileLayout& layout, const auth::Capability& cap,
                         Bytes data, OpCb cb) {
  // Stage the data in client RAM and expose it over RDMA.
  if (pending_->empty()) next_staging_ = kStagingBase;
  const std::uint64_t staging = next_staging_;
  next_staging_ += data.size();
  client.node().ram().write(staging, data);
  const std::uint32_t rkey = client.node().nic().register_mr(staging, data.size());

  const dfs::DfsHeader hdr{dfs::OpType::kWrite, client.next_greq(), client.node().id(), cap};
  dfs::WriteRequestHeader wrh;
  wrh.dest_addr = layout.targets.front().addr;
  wrh.total_len = data.size();

  Bytes req = dfs::serialize_write_headers(hdr, wrh);
  ByteWriter w(req);
  w.put(staging);
  w.put(rkey);
  w.put(static_cast<std::uint32_t>(data.size()));

  await_reply(client, pending_, hdr.greq_id, std::move(cb));
  client.node().nic().post_send(layout.targets.front().node, hdr.greq_id, std::move(req));
}

}  // namespace nadfs::protocols
