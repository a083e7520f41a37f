#include "services/host_dfs.hpp"

#include "net/train.hpp"

namespace nadfs::services {

HostDfsService::HostDfsService(StorageNode& node, dfs::DfsConfig cfg)
    : node_(node), cfg_(cfg), authority_(cfg.key) {
  node_.nic().set_dfs_request_handler(
      [this](net::NodeId src, std::uint64_t msg_id, Bytes request, TimePs at) {
        handle(src, msg_id, std::move(request), at);
      });
  if (auto* reg = node_.metrics()) {
    metrics_prefix_ = node_.metrics_prefix() + ".hostdfs";
    reg->counter_cell(metrics_prefix_ + ".requests_handled", &handled_);
    reg->counter_cell(metrics_prefix_ + ".validation_failures", &failures_);
    reg->gauge(metrics_prefix_ + ".parity_aggs",
               [this] { return static_cast<long long>(parity_.size()); });
  }
}

HostDfsService::~HostDfsService() {
  if (auto* reg = node_.metrics(); reg && !metrics_prefix_.empty()) {
    reg->remove_prefix(metrics_prefix_);
  }
}

void HostDfsService::handle(net::NodeId src, std::uint64_t msg_id, Bytes request, TimePs at) {
  (void)src;
  (void)msg_id;
  ++handled_;
  auto& cpu = node_.cpu();
  const auto& ccfg = cpu.config();
  const TimePs dispatched =
      cpu.busy(ccfg.rpc_dispatch + ccfg.validate_cost, at + ccfg.notify_latency);

  dfs::ParsedRequest req;
  try {
    req = dfs::parse_request(request);
  } catch (const std::out_of_range&) {
    ++failures_;
    return;
  }

  // Same policy check the sPIN HH performs, with the same shared key.
  const dfs::Access access = req.access();
  if (cfg_.validate_requests &&
      !authority_.verify(req.dfs.cap, dispatched, access.right, access.addr, access.len)) {
    ++failures_;
    node_.nic().post_control(req.dfs.client_node, net::Opcode::kNack, req.dfs.greq_id,
                             dispatched, static_cast<std::uint64_t>(dfs::DfsError::kDenied));
    return;
  }

  switch (req.dfs.op) {
    case dfs::OpType::kRead:
      handle_read(req, dispatched);
      return;
    case dfs::OpType::kTrim:
      handle_trim(req, dispatched);
      return;
    case dfs::OpType::kStat:
      handle_stat(req, dispatched);
      return;
    default:
      break;  // kWrite / kAppend fall through to the payload path
  }
  const ByteSpan payload(request.data() + req.header_bytes, request.size() - req.header_bytes);
  // The capability check covered total_len bytes: a payload of any other
  // length would write outside the verified extent.
  if (payload.size() != req.wrh.total_len) {
    ++failures_;
    node_.nic().post_control(req.dfs.client_node, net::Opcode::kNack, req.dfs.greq_id,
                             dispatched, static_cast<std::uint64_t>(dfs::DfsError::kMalformed));
    return;
  }
  if (req.wrh.resiliency == dfs::Resiliency::kErasureCoding &&
      req.wrh.role == dfs::EcRole::kParity) {
    handle_parity_contribution(req, payload, dispatched);
  } else {
    handle_write(req, payload, dispatched);
  }
}

void HostDfsService::handle_write(const dfs::ParsedRequest& req, ByteSpan payload, TimePs t) {
  auto& cpu = node_.cpu();
  // Bounce-buffer copy out of the command queue, then commit.
  const TimePs copied = cpu.copy(payload.size(), t);
  const TimePs durable = node_.target().write(req.wrh.dest_addr, payload, copied);
  const std::size_t mtu = node_.nic().network().mtu();

  switch (req.wrh.resiliency) {
    case dfs::Resiliency::kNone:
      break;
    case dfs::Resiliency::kReplication: {
      // Forward to this rank's children as regular DFS writes: a child with
      // PsPIN capacity handles them on its NIC.
      const auto& wrh = req.wrh;
      for (const auto child : dfs::broadcast_children(
               wrh.virtual_rank, static_cast<std::uint8_t>(wrh.replicas.size()),
               wrh.strategy)) {
        auto pkts = dfs::build_request_packets(node_.id(), wrh.replicas[child].node, mtu, req.dfs,
                                               wrh.for_replica(child), payload);
        cpu.run(cpu.config().rpc_dispatch, copied, [this, pkts = std::move(pkts)]() mutable {
          node_.nic().post_message(std::move(pkts));
        });
      }
      break;
    }
    case dfs::Resiliency::kErasureCoding: {
      // Data role: compute the m intermediate parities on the CPU (a full
      // pass over the chunk) and ship them to the parity nodes.
      const auto& wrh = req.wrh;
      const auto& rs = codec(wrh.ec_k, wrh.ec_m);
      const TimePs encoded = cpu.copy(payload.size() * wrh.ec_m, copied);
      const auto inter = rs.encode_intermediate(wrh.data_idx, payload);
      for (unsigned p = 0; p < wrh.ec_m; ++p) {
        auto pkts = dfs::build_request_packets(node_.id(), wrh.parity_nodes[p].node, mtu, req.dfs,
                                               wrh.for_parity(p), inter[p]);
        cpu.run(cpu.config().rpc_dispatch, encoded, [this, pkts = std::move(pkts)]() mutable {
          node_.nic().post_message(std::move(pkts));
        });
      }
      break;
    }
  }

  node_.nic().post_control(req.dfs.client_node, net::Opcode::kAck, req.dfs.greq_id, durable);
}

void HostDfsService::handle_parity_contribution(const dfs::ParsedRequest& req, ByteSpan payload,
                                                TimePs t) {
  auto& cpu = node_.cpu();
  ParityAgg& agg = parity_[req.dfs.greq_id];
  if (agg.acc.size() < payload.size()) agg.acc.resize(payload.size(), 0);
  ec::ReedSolomon::aggregate(agg.acc, payload);
  agg.last = std::max(agg.last, cpu.copy(payload.size(), t));
  if (++agg.contributions < req.wrh.ec_k) return;

  const TimePs durable = node_.target().write(req.wrh.dest_addr, agg.acc, agg.last);
  node_.nic().post_control(req.dfs.client_node, net::Opcode::kAck, req.dfs.greq_id, durable);
  parity_.erase(req.dfs.greq_id);
}

void HostDfsService::handle_trim(const dfs::ParsedRequest& req, TimePs t) {
  // Tombstone the extent; the ack carries the trim's durability time, so a
  // client that saw the ack never reads pre-delete data afterwards.
  const TimePs durable = node_.target().trim(req.erh.addr, req.erh.len, t);
  node_.nic().post_control(req.dfs.client_node, net::Opcode::kAck, req.dfs.greq_id, durable);
}

void HostDfsService::handle_stat(const dfs::ParsedRequest& req, TimePs t) {
  if (node_.target().trimmed(req.erh.addr, req.erh.len)) {
    node_.nic().post_control(req.dfs.client_node, net::Opcode::kNack, req.dfs.greq_id, t,
                             static_cast<std::uint64_t>(dfs::DfsError::kNotFound));
    return;
  }
  node_.nic().post_control(req.dfs.client_node, net::Opcode::kAck, req.dfs.greq_id, t);
}

void HostDfsService::handle_read(const dfs::ParsedRequest& req, TimePs t) {
  auto& cpu = node_.cpu();
  if (node_.target().trimmed(req.rrh.src_addr, req.rrh.len)) {
    // Reading a deleted extent answers with a typed error instead of the
    // zero bytes the backing store would return.
    node_.nic().post_control(req.dfs.client_node, net::Opcode::kNack, req.dfs.greq_id, t,
                             static_cast<std::uint64_t>(dfs::DfsError::kNotFound));
    return;
  }
  // The engine prices the media read (line-rate: ready == t, unchanged);
  // the host copy starts once the medium has produced the bytes.
  auto r = node_.target().read_at(req.rrh.src_addr, req.rrh.len, t);
  const TimePs ready = cpu.copy(r.data.size(), r.ready);
  auto pkts = net::cut(net::packet(node_.id(), req.dfs.client_node, net::Opcode::kRdmaReadResp,
                                   req.dfs.greq_id, req.dfs.greq_id),
                       {}, r.data, node_.nic().network().mtu());
  cpu.run(0, ready, [this, pkts = std::move(pkts)]() mutable {
    node_.nic().post_message(std::move(pkts));
  });
}

}  // namespace nadfs::services
