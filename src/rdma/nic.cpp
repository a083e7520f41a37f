#include "rdma/nic.hpp"

#include "dfs/wire.hpp"

#include <algorithm>
#include <stdexcept>

namespace nadfs::rdma {

Nic::Nic(sim::Simulator& simulator, net::Network& network, storage::Target& memory,
         NicConfig config)
    : sim_(simulator),
      net_(network),
      memory_(memory),
      config_(config),
      id_(network.add_node(*this)),
      pcie_(simulator, config.pcie_bandwidth) {}

void Nic::attach_pspin(pspin::PsPinDevice& device) {
  pspin_ = &device;
  device.attach_nic(*this);
}

std::uint32_t Nic::register_mr(std::uint64_t base, std::uint64_t len) {
  const std::uint32_t rkey = next_rkey_++;
  mrs_[rkey] = MR{base, len};
  return rkey;
}

bool Nic::rkey_valid(std::uint32_t rkey, std::uint64_t addr, std::uint64_t len) const {
  // rkey 0 is the internal "no protection" key used by NIC-originated
  // forwards (replication hops, read responses); remote-originated accesses
  // use registered keys.
  if (rkey == 0) return true;
  auto it = mrs_.find(rkey);
  if (it == mrs_.end()) return false;
  return addr >= it->second.base && addr + len <= it->second.base + it->second.len;
}

void Nic::post(std::vector<net::Packet> pkts, TimePs start, const char* span) {
  std::uint64_t msg = 0;
  std::uint64_t corr = 0;
  if (!pkts.empty()) {
    msg = pkts.front().msg_id;
    corr = pkts.front().user_tag != 0 ? pkts.front().user_tag : msg;
  }
  std::uint64_t total = 0;
  TimePs end = start;
  for (auto& p : pkts) {
    // The NIC fetches each packet's payload from host memory before
    // injecting it.
    p.src = id_;
    total += p.data.size();
    const auto w = pcie_.reserve(p.data.size(), start);
    end = w.end + config_.pcie_latency;
    net_.inject(std::move(p), end);
  }
  if (obs::kObsEnabled && tracer_ && span)
    tracer_->record({id_, obs::kLaneNicDma, "dma", span, corr, msg, 0, total, sim_.now(), end});
}

void Nic::post_write(net::NodeId dst, std::uint64_t raddr, std::uint32_t rkey, Bytes data,
                     WriteCb cb, std::uint64_t user_tag) {
  const std::uint64_t msg_id = alloc_msg_id();
  pending_writes_[msg_id] = std::move(cb);
  post(net::cut(net::packet(id_, dst, net::Opcode::kRdmaWrite, msg_id, user_tag, raddr, rkey), {},
                data, net_.mtu()),
       sim_.now() + config_.doorbell_latency, "post_write");
}

void Nic::post_read(net::NodeId dst, std::uint64_t raddr, std::uint32_t rkey, std::uint32_t len,
                    ReadCb cb) {
  const std::uint64_t msg_id = alloc_msg_id();
  pending_reads_[msg_id] = pending_read(len, std::move(cb));
  net::Packet p = net::packet(id_, dst, net::Opcode::kRdmaRead, msg_id, msg_id, raddr, rkey);
  p.read_len = len;
  net_.inject(std::move(p), sim_.now() + config_.doorbell_latency);
}

void Nic::post_send(net::NodeId dst, std::uint64_t tag, Bytes data) {
  post(net::cut(net::packet(id_, dst, net::Opcode::kSend, alloc_msg_id(), tag), {}, data,
                net_.mtu()),
       sim_.now() + config_.doorbell_latency, nullptr);
}

void Nic::post_message(std::vector<net::Packet> pkts) {
  post(std::move(pkts), sim_.now() + config_.doorbell_latency, "post_message");
}

void Nic::post_triggered_write(TriggeredWrite trigger) { triggers_.push_back(trigger); }

void Nic::post_control(net::NodeId dst, net::Opcode opcode, std::uint64_t tag,
                       TimePs earliest, std::uint64_t code) {
  net_.inject(net::packet(id_, dst, opcode, alloc_msg_id(), tag, code),
              std::max(earliest, sim_.now() + config_.doorbell_latency));
}

void Nic::expect_read_response(std::uint64_t tag, std::uint32_t len, ReadCb cb) {
  pending_reads_[tag] = pending_read(len, std::move(cb));
}

Nic::PendingRead Nic::pending_read(std::uint32_t len, ReadCb cb) const {
  PendingRead pr;
  pr.data.assign(len, 0);
  pr.expected = net::packet_count(len, net_.mtu());
  pr.cb = std::move(cb);
  return pr;
}

bool Nic::cancel_read(std::uint64_t tag) { return pending_reads_.erase(tag) != 0; }

// ---- spin::NicServices ------------------------------------------------

sim::Window Nic::egress_send(net::Packet pkt, TimePs ready) {
  pkt.src = id_;
  const std::uint64_t corr = pkt.user_tag != 0 ? pkt.user_tag : pkt.msg_id;
  const std::uint64_t msg = pkt.msg_id;
  const std::uint32_t seq = pkt.seq;
  const std::uint64_t bytes = pkt.data.size();
  const char* name = net::opcode_name(pkt.opcode);
  const auto w = net_.inject(std::move(pkt), ready);
  if (obs::kObsEnabled && tracer_)
    tracer_->record({id_, obs::kLaneEgress, "egress", name, corr, msg, seq, bytes, ready, w.end});
  return w;
}

TimePs Nic::dma_to_storage(std::uint64_t addr, Bytes data, TimePs ready) {
  const std::uint64_t bytes = data.size();
  const auto w = pcie_.reserve(data.size(), ready);
  const TimePs durable = memory_.write(addr, data, w.end + config_.pcie_latency);
  if (obs::kObsEnabled && tracer_)
    tracer_->record({id_, obs::kLaneNicDma, "dma", "dma_to_storage", 0, 0, 0, bytes, w.start,
                     durable});
  return durable;
}

void Nic::bind_metrics(obs::MetricRegistry& reg, const std::string& prefix) {
  reg.counter_cell(prefix + ".late_read_packets", &late_read_packets_);
  reg.counter_cell(prefix + ".rejected_read_packets", &rejected_read_packets_);
  reg.counter_cell(prefix + ".rejected_packets", &rejected_packets_);
  reg.counter_cell(prefix + ".steered_to_host", &steered_to_host_);
  reg.gauge(prefix + ".pending_reads",
            [this] { return static_cast<long long>(pending_reads_.size()); });
  reg.gauge(prefix + ".pending_writes",
            [this] { return static_cast<long long>(pending_writes_.size()); });
  reg.gauge(prefix + ".armed_triggers",
            [this] { return static_cast<long long>(triggers_.size()); });
}

std::pair<Bytes, TimePs> Nic::dma_from_storage(std::uint64_t addr, std::size_t len,
                                               TimePs ready) {
  // The storage engine prices the media side of the read (queueing on the
  // device budget + read amplification); the PCIe hop starts once the
  // medium has the bytes. The line-rate engine returns `ready` unchanged,
  // keeping this path bit-identical to the pre-engine model.
  auto r = memory_.read_at(addr, len, ready);
  const auto w = pcie_.reserve(len, r.ready + config_.pcie_latency);
  return {std::move(r.data), w.end + config_.pcie_latency};
}

Bytes Nic::peek_storage(std::uint64_t addr, std::size_t len) { return memory_.read(addr, len); }

TimePs Nic::trim_storage(std::uint64_t addr, std::uint64_t len, TimePs ready) {
  // Trim is a metadata-sized command: PCIe latency, no payload DMA burst.
  const auto w = pcie_.reserve(0, ready);
  const TimePs durable = memory_.trim(addr, len, w.end + config_.pcie_latency);
  if (obs::kObsEnabled && tracer_)
    tracer_->record({id_, obs::kLaneNicDma, "dma", "trim_storage", 0, 0, 0, len, w.start, durable});
  return durable;
}

bool Nic::storage_trimmed(std::uint64_t addr, std::uint64_t len) {
  return memory_.trimmed(addr, len);
}

void Nic::notify_host(std::uint64_t code, std::uint64_t arg, TimePs when) {
  const TimePs at = when + config_.pcie_latency;
  sim_.schedule_at(std::max(at, sim_.now()), [this, code, arg, at]() {
    if (host_event_handler_) host_event_handler_(code, arg, at);
  });
}

// ---- receive path -------------------------------------------------------

void Nic::on_packet(net::Packet&& pkt) {
  switch (pkt.opcode) {
    case net::Opcode::kRdmaWrite:
      if (pspin_ && pspin_->installed()) {
        // Overload steering (§III-C): admit new messages to PsPIN only
        // while its backlog is under the limit; packets of messages already
        // being steered to the host must keep following them.
        const std::uint64_t key = assembly_key(pkt.src, pkt.msg_id);
        const bool following_host = rx_dfs_.count(key) != 0;
        bool overloaded = dfs_request_handler_ && pspin_backlog_limit_ != 0 && pkt.first() &&
                          pspin_->live_messages() >= pspin_backlog_limit_;
        if (overloaded) {
          // EC parity contributions are never steered while PsPIN is up:
          // all k streams of one request must aggregate in the same plane.
          try {
            const auto req = dfs::parse_request(pkt.data);
            if (req.dfs.op == dfs::OpType::kWrite &&
                req.wrh.resiliency == dfs::Resiliency::kErasureCoding &&
                req.wrh.role == dfs::EcRole::kParity) {
              overloaded = false;
            }
          } catch (const std::out_of_range&) {
            // unparsable: let PsPIN's own handler deny it
            overloaded = false;
          }
        }
        if (!following_host && !overloaded) {
          pspin_->on_packet(std::move(pkt));
        } else {
          host_path_dfs_request(std::move(pkt));
        }
      } else if (dfs_request_handler_) {
        // CPU-mode DFS node (Fig. 1b with the DFS wire format): every
        // incoming request lands on the host command queue.
        host_path_dfs_request(std::move(pkt));
      } else {
        host_path_write(std::move(pkt));
      }
      return;
    case net::Opcode::kRdmaRead:
      host_path_read_request(pkt);
      return;
    case net::Opcode::kRdmaReadResp: {
      auto it = pending_reads_.find(pkt.user_tag);
      if (it == pending_reads_.end()) {
        // Stragglers for a read that was cancelled (deadline expiry) or
        // already assembled: dropped by design, but visible.
        ++late_read_packets_;
        return;
      }
      PendingRead& pr = it->second;
      const std::size_t off = static_cast<std::size_t>(pkt.seq) * net_.mtu();
      // Only the first copy of each in-range seq counts toward completion:
      // a duplicate counted as an arrival would complete the read before
      // its last packets landed, handing the caller zeros in their place.
      if (pkt.seq >= pr.expected || off + pkt.data.size() > pr.data.size() ||
          !pr.seen.insert(pkt.seq)) {
        ++rejected_read_packets_;
        return;
      }
      std::copy(pkt.data.begin(), pkt.data.end(),
                pr.data.begin() + static_cast<std::ptrdiff_t>(off));
      pr.arrived++;
      if (pr.arrived == pr.expected) {
        // Land the response in host memory before completing.
        const auto w = pcie_.reserve(pr.data.size(), sim_.now());
        const TimePs done = w.end + config_.pcie_latency;
        auto cb = std::move(pr.cb);
        auto data = std::move(pr.data);
        pending_reads_.erase(it);
        auto complete = [cb = std::move(cb), data = std::move(data), done]() mutable {
          cb(std::move(data), done);
        };
        static_assert(sim::EventFn::fits_inline<decltype(complete)>,
                      "read completion must fit EventFn inline");
        sim_.schedule_at(done, std::move(complete));
      }
      return;
    }
    case net::Opcode::kSend:
      host_path_send(std::move(pkt));
      return;
    case net::Opcode::kTransportAck: {
      auto it = pending_writes_.find(pkt.user_tag);
      if (it == pending_writes_.end()) return;
      auto cb = std::move(it->second);
      pending_writes_.erase(it);
      if (cb) cb(sim_.now());
      return;
    }
    case net::Opcode::kAck:
    case net::Opcode::kNack:
      if (obs::kObsEnabled && tracer_)
        tracer_->record({id_, obs::kLaneAck, "ack",
                         pkt.opcode == net::Opcode::kAck ? "ack" : "nack", pkt.user_tag,
                         pkt.msg_id, pkt.seq, 0, sim_.now(), sim_.now()});
      if (control_handler_) control_handler_(pkt, sim_.now());
      return;
  }
}

void Nic::host_path_write(net::Packet&& pkt) {
  if (!rkey_valid(pkt.rkey, pkt.raddr, pkt.data.size())) {
    if (pkt.first()) {
      net_.inject(net::packet(id_, pkt.src, net::Opcode::kNack, alloc_msg_id(), pkt.msg_id),
                  sim_.now());
    }
    return;
  }

  const std::uint64_t key = assembly_key(pkt.src, pkt.msg_id);
  Assembly& as = rx_writes_[key];
  // Counted by distinct seq: a duplicate counted as an arrival would send
  // the transport ack before the message's last packets are durable.
  if (!as.arrivals.admit(pkt)) {
    ++rejected_packets_;
    if (as.arrivals.arrived() == 0) rx_writes_.erase(key);
    return;
  }
  if (pkt.first()) {
    as.first_raddr = pkt.raddr;
    as.user_tag = pkt.user_tag;
  }
  const TimePs t = sim_.now() + config_.rx_processing;
  const auto w = pcie_.reserve(pkt.data.size(), t);
  const TimePs durable = memory_.write(pkt.raddr, pkt.data, w.end + config_.pcie_latency);
  as.durable_max = std::max(as.durable_max, durable);
  as.total_len += pkt.data.size();

  if (as.arrivals.complete()) {
    // Transport-level ack back to the initiator once everything is durable.
    net_.inject(
        net::packet(id_, pkt.src, net::Opcode::kTransportAck, alloc_msg_id(), pkt.msg_id),
        as.durable_max);

    if (write_notify_) {
      const Assembly snapshot = as;
      const net::NodeId src = pkt.src;
      const std::uint64_t msg_id = pkt.msg_id;
      sim_.schedule_at(snapshot.durable_max, [this, src, msg_id, snapshot]() {
        write_notify_(src, msg_id, snapshot.user_tag, snapshot.first_raddr, snapshot.total_len,
                      snapshot.durable_max);
      });
    }

    // Triggered operations (HyperLoop): fire the first armed trigger whose
    // tag matches this message.
    for (auto it = triggers_.begin(); it != triggers_.end(); ++it) {
      if (it->trigger_tag == as.user_tag) {
        const TriggeredWrite trig = *it;
        const Assembly snapshot = as;
        triggers_.erase(it);
        fire_trigger(trig, snapshot, snapshot.durable_max);
        break;
      }
    }
    rx_writes_.erase(key);
  }
}

void Nic::fire_trigger(const TriggeredWrite& trig, const Assembly& as, TimePs when) {
  const TimePs t = when + config_.trigger_processing;
  if (trig.next_dst == net::kInvalidNode) {
    // Tail of the chain: complete the operation toward the client.
    net_.inject(net::packet(id_, trig.ack_to, net::Opcode::kAck, alloc_msg_id(), trig.ack_tag),
                t);
    return;
  }
  // Forward: bounce the received data back out of host memory (the
  // through-PCIe cost sPIN-side forwarding avoids).
  const Bytes data = memory_.read(as.first_raddr, static_cast<std::size_t>(as.total_len));
  post(net::cut(net::packet(id_, trig.next_dst, net::Opcode::kRdmaWrite, alloc_msg_id(),
                            trig.trigger_tag, trig.next_raddr, trig.next_rkey),
                {}, data, net_.mtu()),
       t, nullptr);
}

std::uint32_t Nic::reassemble(std::unordered_map<std::uint64_t, Message>& rx, net::Packet&& pkt,
                              std::uint64_t id, const RecvHandler& deliver) {
  const std::uint64_t key = assembly_key(pkt.src, pkt.msg_id);
  Message& m = rx[key];
  const std::size_t bytes = pkt.data.size();
  if (!m.parts.admit(pkt)) {
    ++rejected_packets_;
    if (m.parts.arrived() == 0) rx.erase(key);
    return 0;
  }
  const auto w = pcie_.reserve(bytes, sim_.now() + config_.rx_processing);
  m.in_memory = std::max(m.in_memory, w.end + config_.pcie_latency);
  const std::uint32_t arrived = m.parts.arrived();
  if (m.parts.complete()) {
    const net::NodeId src = pkt.src;
    const TimePs at = m.in_memory;
    Bytes msg = m.parts.join();
    rx.erase(key);
    sim_.schedule_at(at, [&deliver, src, id, msg = std::move(msg), at]() mutable {
      if (deliver) deliver(src, id, std::move(msg), at);
    });
  }
  return arrived;
}

void Nic::host_path_dfs_request(net::Packet&& pkt) {
  // Assemble the DFS-formatted request into host memory and hand it to the
  // DFS software's command queue.
  const std::uint64_t msg_id = pkt.msg_id;
  if (reassemble(rx_dfs_, std::move(pkt), msg_id, dfs_request_handler_) == 1) ++steered_to_host_;
}

void Nic::host_path_read_request(const net::Packet& pkt) {
  if (!rkey_valid(pkt.rkey, pkt.raddr, pkt.read_len)) {
    net_.inject(net::packet(id_, pkt.src, net::Opcode::kNack, alloc_msg_id(), pkt.user_tag),
                sim_.now());
    return;
  }
  auto r = memory_.read_at(pkt.raddr, pkt.read_len, sim_.now() + config_.rx_processing);
  auto pkts = net::cut(net::packet(id_, pkt.src, net::Opcode::kRdmaReadResp, 0, pkt.user_tag), {},
                       r.data, net_.mtu());
  // Every response packet has a message id of its own; the reader matches
  // them by user_tag.
  for (auto& p : pkts) p.msg_id = alloc_msg_id();
  post(std::move(pkts), r.ready + config_.pcie_latency, nullptr);
}

void Nic::host_path_send(net::Packet&& pkt) {
  const std::uint64_t tag = pkt.user_tag;
  reassemble(rx_sends_, std::move(pkt), tag, recv_handler_);
}

}  // namespace nadfs::rdma
