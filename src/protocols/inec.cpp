#include "protocols/inec.hpp"

#include "ec/reed_solomon.hpp"
#include "net/train.hpp"

namespace nadfs::protocols {

namespace {
// user_tag layout: token<<16 | role-field. Data chunks use data_idx,
// intermediate parities use 0x8000 | source data_idx.
constexpr std::uint64_t kParityBit = 0x8000;
}  // namespace

InecTriEc::InecTriEc(Cluster& cluster, InecConfig config) : cluster_(cluster), cfg_(config) {
  for (std::size_t i = 0; i < cluster.storage_node_count(); ++i) {
    install_server(cluster.storage_node(i));
  }
}

void InecTriEc::install_server(services::StorageNode& node) {
  auto registry = std::make_shared<Registry>();
  registry->engine = std::make_unique<sim::GapServer>(cluster_.sim(), cfg_.ec_engine);
  registries_[node.id()] = registry;

  node.nic().set_write_notify([this, &node, registry](net::NodeId, std::uint64_t,
                                                      std::uint64_t user_tag, std::uint64_t raddr,
                                                      std::uint64_t len, TimePs durable) {
    const std::uint64_t token = user_tag >> 16;
    const std::uint64_t field = user_tag & 0xFFFFu;

    if ((field & kParityBit) == 0) {
      // A data chunk landed: trigger the NIC EC engine.
      auto it = registry->data_ops.find(token);
      if (it == registry->data_ops.end()) return;
      const DataNodeOp op = it->second;
      registry->data_ops.erase(it);

      // The trigger chain occupies the engine (INEC's primitive chains
      // serialize on the NIC's processing resources — the source of the
      // small-block bandwidth collapse), then the chunk is read back over
      // PCIe and encoded at the engine rate.
      const TimePs triggered =
          registry->engine->reserve_time(cfg_.trigger_cost, durable).end;
      auto [chunk, read_done] =
          node.nic().dma_from_storage(raddr, static_cast<std::size_t>(len), triggered);
      const TimePs encoded =
          registry->engine
              ->reserve(static_cast<std::size_t>(len) * op.ec_m, read_done)
              .end;

      ec::ReedSolomon rs(op.ec_k, op.ec_m);
      const auto inter = rs.encode_intermediate(op.data_idx, chunk);
      for (unsigned p = 0; p < op.ec_m; ++p) {
        // Send the intermediate parity to parity node p's staging slot.
        const std::uint64_t dst_addr = op.parity[p].addr + op.chunk_len * (1 + op.data_idx);
        const std::uint64_t tag = (token << 16) | kParityBit | op.data_idx;
        const auto proto = net::packet(node.id(), op.parity[p].node, net::Opcode::kRdmaWrite,
                                       node.nic().alloc_msg_id(), tag, dst_addr);
        for (auto& pkt : net::cut(proto, {}, inter[p], node.nic().network().mtu())) {
          node.nic().egress_send(std::move(pkt), encoded);
        }
      }
      return;
    }

    // An intermediate parity staged: aggregate when the set is complete.
    auto it = registry->parity_ops.find(token);
    if (it == registry->parity_ops.end()) return;
    ParityNodeOp& op = it->second;
    op.last_staged = std::max(op.last_staged, durable);
    (void)raddr;
    (void)len;
    if (++op.staged < op.ec_k) return;

    // Read the k staged buffers back over PCIe, XOR at the engine rate,
    // commit the final parity, ack the client.
    TimePs ready = registry->engine->reserve_time(cfg_.trigger_cost, op.last_staged).end;
    Bytes acc(static_cast<std::size_t>(op.chunk_len), 0);
    for (unsigned d = 0; d < op.ec_k; ++d) {
      auto [part, got] = node.nic().dma_from_storage(
          staging_addr(op, d), static_cast<std::size_t>(op.chunk_len), ready);
      ready = std::max(ready, got);
      ec::ReedSolomon::aggregate(acc, part);
    }
    const TimePs xored =
        registry->engine->reserve(static_cast<std::size_t>(op.chunk_len) * op.ec_k, ready).end;
    const TimePs durable_parity = node.nic().dma_to_storage(op.parity_addr, std::move(acc), xored);
    node.nic().post_control(op.client, net::Opcode::kAck, op.greq, durable_parity);
    registry->parity_ops.erase(it);
  });
}

void InecTriEc::write(Client& client, const FileLayout& layout, const auth::Capability& cap,
                      Bytes data, OpCb cb) {
  (void)cap;  // INEC/TriEC enforce no request validation
  const std::uint64_t greq = client.next_greq();
  const std::uint64_t token = next_token_++;
  const unsigned k = layout.policy.ec_k;
  const unsigned m = layout.policy.ec_m;
  const auto chunk_len = static_cast<std::size_t>(layout.chunk_len);
  data.resize(chunk_len * k, 0);

  // Configure the pre-posted EC primitives (functional; INEC arms these
  // once per window of operations).
  for (unsigned d = 0; d < k; ++d) {
    DataNodeOp op;
    op.greq = greq;
    op.data_idx = d;
    op.ec_k = k;
    op.ec_m = m;
    op.parity = layout.parity;
    op.chunk_len = chunk_len;
    registries_.at(layout.targets[d].node)->data_ops[token] = op;
  }
  for (unsigned p = 0; p < m; ++p) {
    ParityNodeOp op;
    op.greq = greq;
    op.ec_k = k;
    op.parity_addr = layout.parity[p].addr;
    op.chunk_len = chunk_len;
    op.client = client.node().id();
    registries_.at(layout.parity[p].node)->parity_ops[token] = op;
  }

  // Completion: every parity node acked AND every data chunk transport-acked
  // — k transport acks (one per data chunk) + one tracker completion (fires
  // after all m parity acks).
  const OpCb arrive = services::join(k + 1, cluster_.sim().now(), std::move(cb));
  client.tracker().expect(greq, m, arrive);

  for (unsigned d = 0; d < k; ++d) {
    Bytes chunk(data.begin() + static_cast<std::ptrdiff_t>(d * chunk_len),
                data.begin() + static_cast<std::ptrdiff_t>((d + 1) * chunk_len));
    client.node().nic().post_write(layout.targets[d].node, layout.targets[d].addr, 0,
                                   std::move(chunk),
                                   [arrive](TimePs at) { arrive(dfs::DfsError::kOk, at); },
                                   (token << 16) | d);
  }
}

}  // namespace nadfs::protocols
