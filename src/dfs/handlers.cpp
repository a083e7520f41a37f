#include "dfs/handlers.hpp"

#include <algorithm>

#include "dfs/costs.hpp"
#include "net/train.hpp"

namespace nadfs::dfs {

std::vector<std::uint8_t> broadcast_children(std::uint8_t rank, std::uint8_t k,
                                             ReplStrategy strategy) {
  std::vector<std::uint8_t> out;
  if (strategy == ReplStrategy::kRing) {
    if (rank + 1 < k) out.push_back(static_cast<std::uint8_t>(rank + 1));
  } else {
    const unsigned l = 2u * rank + 1;
    const unsigned r = 2u * rank + 2;
    if (l < k) out.push_back(static_cast<std::uint8_t>(l));
    if (r < k) out.push_back(static_cast<std::uint8_t>(r));
  }
  return out;
}

unsigned broadcast_depth(std::uint8_t k, ReplStrategy strategy) {
  if (k <= 1) return 0;
  if (strategy == ReplStrategy::kRing) return k - 1u;
  unsigned depth = 0;
  unsigned last = k - 1u;  // deepest rank
  while (last > 0) {
    last = (last - 1) / 2;
    ++depth;
  }
  return depth;
}

namespace {

using spin::HandlerCtx;
using spin::MessageKey;

/// Answer request `greq` with a control packet carrying the typed `err`.
void send_control(HandlerCtx& ctx, net::NodeId dst, net::Opcode opcode, std::uint64_t greq,
                  DfsError err = DfsError::kOk) {
  ctx.send(net::packet(ctx.self(), dst, opcode, greq, greq, static_cast<std::uint64_t>(err)));
}

// ---------------------------------------------------------------- HH ----

void header_handler(DfsState& st, HandlerCtx& ctx, const net::Packet& pkt) {
  if (st.cfg.validate_requests) {
    ctx.charge(cost::kHhInstr, cost::kHhCycles);
  } else {
    // Trusted threat model: plain-ticket comparison instead of the MAC.
    ctx.charge(cost::kHhTrustedInstr, cost::kHhTrustedCycles);
  }
  const MessageKey key{pkt.src, pkt.msg_id};

  ParsedRequest req;
  try {
    req = parse_request(pkt.data);
  } catch (const std::out_of_range&) {
    st.denied.insert(key);
    ++st.malformed_requests;
    return;  // malformed: drop silently (no client coordinates to NACK)
  }

  // DFS_request_init: validate the capability against the requested
  // operation and extent (threat model of §IV: untrusted clients).
  bool ok = true;
  if (st.cfg.validate_requests) {
    const Access access = req.access();
    ok = st.authority.verify(req.dfs.cap, ctx.now_ps(), access.right, access.addr, access.len);
    if (!ok) ++st.auth_failures;
  }

  std::optional<std::uint32_t> slot;
  if (ok) {
    slot = st.table.alloc();
    if (!slot) {
      ++st.table_denials;
      ctx.notify_host(kEvTableFull, req.dfs.greq_id);
    }
  } else {
    ctx.notify_host(kEvAuthFailure, req.dfs.greq_id);
  }

  if (!ok || !slot) {
    st.denied.insert(key);
    ++st.nacks_sent;
    send_control(ctx, req.dfs.client_node, net::Opcode::kNack, req.dfs.greq_id,
                 ok ? DfsError::kTableFull : DfsError::kDenied);
    return;
  }

  ReqEntry entry;
  entry.accept = true;
  entry.slot = *slot;
  entry.greq_id = req.dfs.greq_id;
  entry.client = req.dfs.client_node;
  entry.op = req.dfs.op;
  entry.header_bytes = req.header_bytes;

  if (req.dfs.op == OpType::kRead) {
    entry.rrh = req.rrh;
    st.requests.emplace(key, std::move(entry));
    return;
  }
  if (req.dfs.op == OpType::kTrim || req.dfs.op == OpType::kStat) {
    entry.erh = req.erh;
    st.requests.emplace(key, std::move(entry));
    return;
  }

  // kWrite and kAppend share the write data plane: by the time the request
  // reaches a storage node the metadata service has resolved the append tail
  // into a concrete extent, so the WRH carries the final dest_addr.
  const WriteRequestHeader& wrh = req.wrh;
  entry.dest_addr = wrh.dest_addr;
  entry.total_len = wrh.total_len;
  entry.resiliency = wrh.resiliency;

  switch (wrh.resiliency) {
    case Resiliency::kNone:
      break;
    case Resiliency::kReplication: {
      // Fill the coord_array: children of this virtual rank, each with the
      // first-packet headers rewritten for it (dest address + rank).
      for (const std::uint8_t child :
           broadcast_children(wrh.virtual_rank, static_cast<std::uint8_t>(wrh.replicas.size()),
                              wrh.strategy)) {
        entry.children.push_back(ReqEntry::Child{
            wrh.replicas[child], serialize_write_headers(req.dfs, wrh.for_replica(child))});
      }
      break;
    }
    case Resiliency::kErasureCoding: {
      entry.ec_k = wrh.ec_k;
      entry.ec_m = wrh.ec_m;
      entry.role = wrh.role;
      entry.data_idx = wrh.data_idx;
      entry.parity_nodes = wrh.parity_nodes;
      if (wrh.role == EcRole::kData) {
        // Prepare the per-parity-node first-packet headers once; PHs splice
        // them in front of the intermediate parity payloads.
        for (std::size_t i = 0; i < wrh.parity_nodes.size(); ++i) {
          entry.parity_first_headers.push_back(serialize_write_headers(req.dfs, wrh.for_parity(i)));
        }
      }
      break;
    }
  }
  st.requests.emplace(key, std::move(entry));
}

// ---------------------------------------------------------------- PH ----

/// Forward one packet of the message to a child: first packets get the
/// child's rewritten headers, later packets are byte-identical.
void forward_packet(HandlerCtx& ctx, const net::Packet& pkt, std::size_t header_bytes,
                    const Coord& to, const Bytes& first_headers, std::uint64_t greq) {
  net::Packet p =
      net::packet(ctx.self(), to.node, net::Opcode::kRdmaWrite, pkt.msg_id, greq, pkt.raddr);
  p.seq = pkt.seq;
  p.pkt_count = pkt.pkt_count;
  if (pkt.first()) {
    p.data = first_headers;
    p.data.insert(p.data.end(), pkt.data.begin() + static_cast<std::ptrdiff_t>(header_bytes),
                  pkt.data.end());
  } else {
    p.data = pkt.data;
  }
  ctx.send(std::move(p));
}

void payload_ec_data(DfsState& st, HandlerCtx& ctx, const net::Packet& pkt, ReqEntry& entry,
                     ByteSpan payload, std::uint64_t data_off) {
  ctx.charge(cost::kEcPhBaseInstr, cost::kEcPhBaseCycles);
  ctx.dma_to_storage(entry.dest_addr + data_off, payload);

  const unsigned m = entry.ec_m;
  // One fused pass over the payload computes all m intermediate parities:
  // 1+2m instructions per byte, 2+3m cycles (GF table load-use), Table II.
  ctx.charge_per_byte(payload.size(), cost::ec_instr_per_byte(m), cost::ec_cycles_per_byte(m));
  const auto& rs = st.codec(entry.ec_k, m);

  // Lay out all m outgoing packets first (headers in front on the first
  // packet), then encode the intermediate parities straight into their
  // payload areas with one fused pass over the source payload — no
  // temporary chunk buffers, and the payload is read once for all m rows.
  std::vector<net::Packet> out(m);
  std::vector<std::uint8_t*> dsts(m);
  for (unsigned i = 0; i < m; ++i) {
    net::Packet& p = out[i] = net::packet(ctx.self(), entry.parity_nodes[i].node,
                                          net::Opcode::kRdmaWrite, pkt.msg_id, entry.greq_id,
                                          pkt.raddr);
    p.seq = pkt.seq;
    p.pkt_count = pkt.pkt_count;
    if (pkt.first()) {
      p.data = entry.parity_first_headers[i];
      p.data.resize(p.data.size() + payload.size());
      dsts[i] = p.data.data() + (p.data.size() - payload.size());
    } else {
      p.data.resize(payload.size());
      dsts[i] = p.data.data();
    }
  }
  rs.encode_intermediate_into(entry.data_idx, payload, dsts.data());

  for (unsigned i = 0; i < m; ++i) {
    ctx.charge(i == 0 ? cost::kSendFirstInstr : cost::kSendExtraInstr,
               i == 0 ? cost::kSendFirstCycles : cost::kSendExtraCycles);
    ctx.send(std::move(out[i]));
  }
}

void payload_ec_parity(DfsState& st, HandlerCtx& ctx, const net::Packet& pkt, ReqEntry& entry,
                       ByteSpan payload, std::uint64_t data_off) {
  ctx.charge(cost::kAggBaseInstr, cost::kAggBaseCycles);
  ctx.charge_per_byte(payload.size(), cost::kAggInstrPerByte, cost::kAggCyclesPerByte);

  const DfsState::AggKey akey{entry.greq_id, pkt.seq};
  auto [it, fresh] = st.agg.try_emplace(akey);
  DfsState::AggEntry& agg = it->second;
  agg.last = ctx.now_ps();  // GC TTL anchor: any contribution counts as activity
  if (fresh) {
    if (auto acc = st.pool.alloc(payload.size())) {
      agg.acc = *acc;
    } else {
      // Pool exhausted: fall back to CPU-side aggregation (§VI-B.3). Each
      // contribution is bounced to the host; the HPU only pays the DMA
      // issue, the host event carries the aggregation job.
      agg.fallback = true;
      ++st.agg_fallbacks;
      ctx.notify_host(kEvAccumulatorFallback, entry.greq_id);
    }
  }

  if (agg.fallback) {
    // Bounce the contribution to a host staging area; the host software
    // XORs it (functionally tracked in host_agg) and commits the parity
    // when the last stream contributed.
    ctx.dma_to_storage(entry.dest_addr + entry.total_len + data_off, payload);
    auto& buf = st.host_agg[akey];
    if (buf.size() < payload.size()) buf.resize(payload.size(), 0);
    ec::ReedSolomon::aggregate(buf, payload);
  } else {
    ec::ReedSolomon::aggregate(st.pool.buffer(agg.acc), payload);
  }

  if (++agg.contributions == entry.ec_k) {
    if (agg.fallback) {
      auto hit = st.host_agg.find(akey);
      ctx.dma_to_storage(entry.dest_addr + data_off, std::move(hit->second));
      st.host_agg.erase(hit);
    } else {
      ctx.dma_to_storage(entry.dest_addr + data_off, std::move(st.pool.buffer(agg.acc)));
      st.pool.release(agg.acc);
    }
    st.agg.erase(it);
  }
}

void payload_handler(DfsState& st, HandlerCtx& ctx, const net::Packet& pkt) {
  const MessageKey key{pkt.src, pkt.msg_id};
  auto it = st.requests.find(key);
  if (it == st.requests.end() || !it->second.accept) {
    ctx.charge(cost::kDropInstr, cost::kDropCycles);
    return;  // packet of a denied/unknown request is dropped (Listing 1)
  }
  ReqEntry& entry = it->second;

  if (!op_is_mutation(entry.op) || entry.op == OpType::kTrim) {
    ctx.charge(cost::kDropInstr, cost::kDropCycles);  // nothing per-packet
    return;
  }

  // The payload in the packet buffer: the PHs' storage DMAs borrow it,
  // which holds because the device replays them before the packet goes.
  const std::size_t skip = pkt.first() ? entry.header_bytes : 0;
  const ByteSpan payload(pkt.data.data() + skip, pkt.data.size() - skip);
  const std::uint64_t data_off = pkt.first() ? 0 : pkt.raddr;
  // The HH verified the capability over [0, total_len) only, and data_off
  // is client-supplied: a packet reaching past it is dropped (compared
  // without a sum that could wrap) and the request NACKed at completion.
  if (data_off > entry.total_len || payload.size() > entry.total_len - data_off) {
    entry.malformed = true;
    ctx.charge(cost::kDropInstr, cost::kDropCycles);
    return;
  }

  switch (entry.resiliency) {
    case Resiliency::kNone:
      ctx.charge(cost::kPhBaseInstr, cost::kPhBaseCycles);
      ctx.dma_to_storage(entry.dest_addr + data_off, payload);
      break;
    case Resiliency::kReplication: {
      ctx.charge(cost::kPhBaseInstr, cost::kPhBaseCycles);
      ctx.dma_to_storage(entry.dest_addr + data_off, payload);
      for (std::size_t i = 0; i < entry.children.size(); ++i) {
        ctx.charge(i == 0 ? cost::kSendFirstInstr : cost::kSendExtraInstr,
                   i == 0 ? cost::kSendFirstCycles : cost::kSendExtraCycles);
        forward_packet(ctx, pkt, entry.header_bytes, entry.children[i].coord,
                       entry.children[i].first_headers, entry.greq_id);
      }
      break;
    }
    case Resiliency::kErasureCoding:
      if (entry.role == EcRole::kData) {
        payload_ec_data(st, ctx, pkt, entry, payload, data_off);
      } else {
        payload_ec_parity(st, ctx, pkt, entry, payload, data_off);
      }
      break;
  }
}

// ---------------------------------------------------------------- CH ----

void completion_handler(DfsState& st, HandlerCtx& ctx, const net::Packet& pkt) {
  const MessageKey key{pkt.src, pkt.msg_id};
  auto it = st.requests.find(key);
  if (it == st.requests.end()) {
    ctx.charge(cost::kDropInstr, cost::kDropCycles);
    st.denied.erase(key);
    return;
  }
  ReqEntry entry = std::move(it->second);
  st.requests.erase(it);
  st.table.release(entry.slot);

  if (entry.malformed) {
    ctx.charge(cost::kChInstr, cost::kChCycles);
    ++st.malformed_requests;
    ++st.nacks_sent;
    send_control(ctx, entry.client, net::Opcode::kNack, entry.greq_id, DfsError::kMalformed);
    return;
  }

  if (entry.op == OpType::kTrim) {
    // Tombstone the extent, fence, ack — deletes get the same
    // flush-then-ack persistence guarantee as writes (§III-B.1).
    ctx.charge(cost::kChInstr, cost::kChCycles);
    ctx.trim_storage(entry.erh.addr, entry.erh.len);
    ctx.storage_fence();
    ++st.acks_sent;
    send_control(ctx, entry.client, net::Opcode::kAck, entry.greq_id);
    return;
  }

  if (entry.op == OpType::kStat) {
    // Liveness probe: a tombstoned extent answers kNotFound, a live one
    // acks. The probe is functional (NIC-memory metadata), no storage DMA.
    ctx.charge(cost::kChInstr, cost::kChCycles);
    if (ctx.storage_trimmed(entry.erh.addr, entry.erh.len)) {
      ++st.nacks_sent;
      send_control(ctx, entry.client, net::Opcode::kNack, entry.greq_id, DfsError::kNotFound);
    } else {
      ++st.acks_sent;
      send_control(ctx, entry.client, net::Opcode::kAck, entry.greq_id);
    }
    return;
  }

  if (entry.op == OpType::kRead) {
    // A read of a tombstoned extent fails typed instead of streaming back
    // zeros the deleted data left behind.
    if (ctx.storage_trimmed(entry.rrh.src_addr, entry.rrh.len)) {
      ctx.charge(cost::kChInstr, cost::kChCycles);
      ++st.nacks_sent;
      send_control(ctx, entry.client, net::Opcode::kNack, entry.greq_id, DfsError::kNotFound);
      return;
    }
    // DFS_request_fini for reads: stream the extent back with
    // scatter-gather sends — the NIC gathers each packet's payload from
    // the storage target at transmit time, so the PCIe reads pipeline with
    // the wire instead of store-and-forwarding the whole extent.
    const std::size_t mtu = st.mtu;
    const std::size_t len = entry.rrh.len;
    const std::uint32_t count = net::packet_count(len, mtu);
    ctx.charge(cost::kReadChBaseInstr, cost::kReadChBaseCycles);
    std::size_t off = 0;
    for (std::uint32_t s = 0; s < count; ++s) {
      // Charge the descriptor post per packet so each send issues as soon
      // as its descriptor is ready (the loop pipelines with the wire).
      ctx.charge(cost::kReadChPerPktInstr, cost::kReadChPerPktCycles);
      net::Packet p = net::packet(ctx.self(), entry.client, net::Opcode::kRdmaReadResp,
                                  entry.greq_id, entry.greq_id, off);
      p.seq = s;
      p.pkt_count = count;
      const std::size_t n = std::min(mtu, len - off);
      ctx.send_from_storage(std::move(p), entry.rrh.src_addr + off, n);
      off += n;
    }
    return;
  }

  if (entry.resiliency == Resiliency::kErasureCoding && entry.role == EcRole::kParity) {
    // One intermediate-parity stream finished; the write is acked once all
    // ec_k streams contributed (the final parity DMAs are then issued).
    ctx.charge(cost::kEcChInstr, cost::kEcChCycles);
    auto& prog = st.parity_msgs_done[entry.greq_id];
    prog.last = ctx.now_ps();
    if (++prog.done == entry.ec_k) {
      st.parity_msgs_done.erase(entry.greq_id);
      ctx.storage_fence();
      ++st.acks_sent;
      send_control(ctx, entry.client, net::Opcode::kAck, entry.greq_id);
    }
    return;
  }

  // DFS_request_fini for writes: flush-then-ack (the explicit persistence
  // guarantee of §III-B.1).
  if (entry.resiliency == Resiliency::kErasureCoding) {
    ctx.charge(cost::kEcChInstr, cost::kEcChCycles);
  } else {
    ctx.charge(cost::kChInstr, cost::kChCycles);
  }
  ctx.storage_fence();
  ++st.acks_sent;
  send_control(ctx, entry.client, net::Opcode::kAck, entry.greq_id);
}

// ------------------------------------------------------------ cleanup ----

void cleanup_handler(DfsState& st, HandlerCtx& ctx, const MessageKey& key) {
  ctx.charge(cost::kCleanupInstr, cost::kCleanupCycles);
  auto it = st.requests.find(key);
  if (it != st.requests.end()) {
    st.table.release(it->second.slot);
    ctx.notify_host(kEvCleanup, it->second.greq_id);
    st.requests.erase(it);
  } else {
    st.denied.erase(key);
    ctx.notify_host(kEvCleanup, key.msg_id);
  }
  ++st.cleanups;
}

}  // namespace

spin::ExecutionContext make_dfs_context(std::shared_ptr<DfsState> state) {
  spin::ExecutionContext ctx;
  ctx.state = state;
  ctx.state_bytes = state->state_bytes();
  ctx.header_handler = [state](HandlerCtx& c, const net::Packet& p) {
    header_handler(*state, c, p);
  };
  ctx.payload_handler = [state](HandlerCtx& c, const net::Packet& p) {
    payload_handler(*state, c, p);
  };
  ctx.completion_handler = [state](HandlerCtx& c, const net::Packet& p) {
    completion_handler(*state, c, p);
  };
  ctx.cleanup_handler = [state](HandlerCtx& c, const MessageKey& k) {
    cleanup_handler(*state, c, k);
  };
  return ctx;
}

}  // namespace nadfs::dfs
