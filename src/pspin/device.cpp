#include "pspin/device.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace nadfs::pspin {

void HandlerStats::record(spin::HandlerType type, TimePs duration, std::uint64_t instr) {
  duration_[static_cast<std::size_t>(type)].add(to_ns(duration));
  instr_[static_cast<std::size_t>(type)].add(static_cast<double>(instr));
}

double HandlerStats::ipc(spin::HandlerType type) const {
  const auto& d = duration_[static_cast<std::size_t>(type)];
  const auto& i = instr_[static_cast<std::size_t>(type)];
  if (d.empty() || d.mean() == 0.0) return 0.0;
  return i.mean() / d.mean();  // instr per ns == instr per cycle at 1 GHz
}

void HandlerStats::reset() {
  for (auto& s : duration_) s = Summary{};
  for (auto& s : instr_) s = Summary{};
}

void EgressSlots::drain(TimePs now) {
  while (head_ < slots_.size() && slots_[head_].end <= now) ++head_;
  // Compact once the drained prefix outnumbers the live slots: amortized
  // O(1) moves per slot, and the array keeps its capacity.
  if (head_ > 0 && 2 * head_ >= slots_.size()) {
    slots_.erase(slots_.begin(), slots_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
}

TimePs EgressSlots::accept(TimePs want) const {
  // Visiting the live slots by descending drain time, the depth-th one
  // that covers `want` holds the (count - depth)-th smallest covering end
  // (0-based) — the slot whose completion frees one for this send.
  unsigned covering = 0;
  for (std::size_t i = slots_.size(); i > head_; --i) {
    const Slot& s = slots_[i - 1];
    if (s.end <= want) break;  // it and every earlier slot drained by `want`
    if (s.issue <= want && ++covering == depth_) return s.end;
  }
  return want;
}

void EgressSlots::add(TimePs issue, TimePs end) {
  const auto pos =
      std::upper_bound(slots_.begin() + static_cast<std::ptrdiff_t>(head_), slots_.end(), end,
                       [](TimePs e, const Slot& s) { return e < s.end; });
  slots_.insert(pos, Slot{issue, end});
}

unsigned EgressSlots::in_flight(TimePs t) const {
  const auto first =
      std::upper_bound(slots_.begin() + static_cast<std::ptrdiff_t>(head_), slots_.end(), t,
                       [](TimePs x, const Slot& s) { return x < s.end; });
  return static_cast<unsigned>(
      std::count_if(first, slots_.end(), [t](const Slot& s) { return s.issue <= t; }));
}

namespace {

const PsPinConfig& validated(const PsPinConfig& c) {
  auto require = [](bool ok, const char* field) {
    if (!ok) throw std::invalid_argument(std::string("PsPinConfig::") + field + " is out of range");
  };
  require(c.num_clusters > 0, "num_clusters");
  require(c.hpus_per_cluster > 0, "hpus_per_cluster");
  require(c.cycle > 0, "cycle");
  require(c.pkt_buffer_bytes_per_cycle > 0.0, "pkt_buffer_bytes_per_cycle");
  require(c.l1_copy_bytes_per_cycle > 0.0, "l1_copy_bytes_per_cycle");
  require(c.egress_queue_depth > 0, "egress_queue_depth");
  return c;
}

}  // namespace

PsPinDevice::PsPinDevice(sim::Simulator& simulator, PsPinConfig config)
    : sim_(simulator),
      config_(validated(config)),
      pkt_buffer_dma_(simulator,
                      Bandwidth::from_gbytes_per_sec(config.pkt_buffer_bytes_per_cycle *
                                                     (1e3 / static_cast<double>(config.cycle)))),
      scheduler_(simulator, Bandwidth::from_gbps(1.0)),
      egress_(config.egress_queue_depth) {
  const double bytes_per_sec_factor = 1e12 / static_cast<double>(config.cycle) / 1e9;
  for (unsigned c = 0; c < config_.num_clusters; ++c) {
    l1_dma_.push_back(std::make_unique<sim::FifoServer>(
        sim_, Bandwidth::from_gbytes_per_sec(config.l1_copy_bytes_per_cycle * bytes_per_sec_factor)));
    hpu_free_.emplace_back(config_.hpus_per_cluster, TimePs{0});
  }
}

bool PsPinDevice::install(spin::ExecutionContext ctx) {
  if (ctx.state_bytes > nic_memory_bytes()) return false;
  ctx_ = std::move(ctx);
  return true;
}

void PsPinDevice::uninstall() { ctx_.reset(); }

TimePs PsPinDevice::egress_accept(TimePs want) {
  // Replay cursors never run behind the dispatch event, so a slot drained
  // by now can cover no later query.
  egress_.drain(sim_.now());
  return egress_.accept(want);
}

TimePs PsPinDevice::replay(spin::HandlerCtx& ctx, MsgState& msg, TimePs start) {
  TimePs cursor = start;
  std::uint64_t charged = 0;
  for (auto& cmd : ctx.commands()) {
    cursor += (cmd.cycle_offset - charged) * config_.cycle;
    charged = cmd.cycle_offset;
    switch (cmd.kind) {
      case spin::HandlerCtx::Cmd::Kind::kSend: {
        // Acquire an egress command-queue slot: the HPU stalls here when the
        // outbound engine is backed up (the sPIN-PBT mechanism, Table I).
        cursor = egress_accept(cursor);
        // The outbound engine keeps a message's sends in issue order (see
        // MsgState::last_send_start): the HPU does not stall for this, the
        // command just drains in order.
        const TimePs earliest = std::max(cursor, msg.last_send_start + 1);
        const auto w = nic_->egress_send(std::move(cmd.pkt), earliest);
        msg.last_send_start = w.start;
        egress_.add(cursor, w.end);
        break;
      }
      case spin::HandlerCtx::Cmd::Kind::kSendFromStorage: {
        // Scatter-gather send: the NIC gathers the payload over PCIe at
        // transmit time; the HPU does not block on the DMA, only on the
        // command-queue slot. The gather pipelines with the wire, and the
        // bytes it reads are the packet's payload.
        cursor = egress_accept(cursor);
        auto [data, ready] = nic_->dma_from_storage(cmd.addr, cmd.len, cursor);
        cmd.pkt.data = std::move(data);
        const TimePs earliest = std::max({ready, msg.last_send_start + 1});
        const auto w = nic_->egress_send(std::move(cmd.pkt), earliest);
        msg.last_send_start = w.start;
        egress_.add(cursor, w.end);
        break;
      }
      case spin::HandlerCtx::Cmd::Kind::kDma: {
        // Fire-and-forget toward the storage target; durability is tracked
        // per message for the CH's storage fence.
        const TimePs durable = nic_->dma_to_storage(cmd.addr, cmd.data, cursor);
        msg.dma_durable_max = std::max(msg.dma_durable_max, durable);
        break;
      }
      case spin::HandlerCtx::Cmd::Kind::kTrim: {
        // Tombstone command toward the storage target; like a write, its
        // durability is folded into the message's storage fence so a
        // trim-then-ack CH keeps the persistence guarantee.
        const TimePs durable = nic_->trim_storage(cmd.addr, cmd.len, cursor);
        msg.dma_durable_max = std::max(msg.dma_durable_max, durable);
        break;
      }
      case spin::HandlerCtx::Cmd::Kind::kFence: {
        cursor = std::max(cursor, msg.dma_durable_max);
        break;
      }
      case spin::HandlerCtx::Cmd::Kind::kNotify: {
        nic_->notify_host(cmd.code, cmd.arg, cursor);
        break;
      }
    }
  }
  cursor += (ctx.cycles() - charged) * config_.cycle;
  return cursor;
}

TimePs PsPinDevice::run_handler(spin::HandlerType type, const spin::Handler& handler,
                                const net::Packet& pkt, MsgState& msg, TimePs ready) {
  auto& cluster_hpus = hpu_free_[msg.cluster];
  auto it = std::min_element(cluster_hpus.begin(), cluster_hpus.end());
  const TimePs start = std::max(ready, *it) + config_.hpu_dispatch;

  spin::HandlerCtx ctx(nic_->node_id(), start, msg.flow_slot, std::move(cmd_buf_));
  ctx.set_storage_prober(
      [this](std::uint64_t addr, std::uint64_t len) { return nic_->storage_trimmed(addr, len); });
  handler(ctx, pkt);

  const TimePs end = replay(ctx, msg, start);
  cmd_buf_ = ctx.take_commands();
  *it = end;
  stats_.record(type, end - start, ctx.instr());
  last_handler_end_ = std::max(last_handler_end_, end);
  const auto hpu = static_cast<unsigned>(std::distance(cluster_hpus.begin(), it));
  if (span_trace_) {
    span_trace_->record({nic_->node_id(), msg.cluster * 1000 + hpu, "handler",
                         spin::handler_type_name(type),
                         pkt.user_tag != 0 ? pkt.user_tag : pkt.msg_id, pkt.msg_id, pkt.seq,
                         ctx.instr(), start, end});
  }
  return end;
}

void PsPinDevice::on_packet(net::Packet&& pkt) {
  if (!ctx_ || !nic_) return;  // nothing installed: packet would be host-steered

  const spin::MessageKey key{pkt.src, pkt.msg_id};
  auto [mit, inserted] = messages_.try_emplace(key);
  MsgState& msg = mit->second;
  // A duplicate admitted as a new packet would rerun its handlers (an EC
  // accumulator would XOR it in twice, a repeated first packet would rerun
  // the HH) and complete the message before its last packets landed.
  if (!msg.arrivals.admit(pkt)) {
    ++rejected_packets_;
    if (inserted) messages_.erase(mit);
    return;
  }
  if (inserted) {
    msg.cluster = next_cluster_++ % config_.num_clusters;
    msg.flow_slot = next_flow_slot_++;
  }
  msg.last_activity = sim_.now();

  // Ingress pipeline: packet-buffer DMA, HW scheduler, L1 copy (Fig. 7).
  const auto buf = pkt_buffer_dma_.reserve(pkt.data.size() + net::kTransportHeaderBytes);
  const auto sched =
      scheduler_.reserve_time(config_.sched_cycles * config_.cycle, buf.end);
  const auto l1 = l1_dma_[msg.cluster]->reserve(pkt.data.size(), sched.end);
  TimePs ready = l1.end;

  const bool is_first = pkt.first();
  const bool is_last = pkt.last();

  if (is_first) {
    msg.hh_end = run_handler(spin::HandlerType::kHeader, ctx_->header_handler, pkt, msg, ready);
  }
  // Whichever packet opens an incomplete message arms its reaper: one whose
  // first packet was lost or came late, or one a late packet re-opened,
  // would otherwise stay in the table for good.
  if (inserted && config_.cleanup_timeout != 0 && !msg.arrivals.complete()) {
    arm_cleanup(key);
  }

  // sPIN guarantees PHs run after the message's HH completed.
  const TimePs ph_ready = std::max(ready, msg.hh_end);
  const TimePs ph_end =
      run_handler(spin::HandlerType::kPayload, ctx_->payload_handler, pkt, msg, ph_ready);
  msg.ph_end_max = std::max(msg.ph_end_max, ph_end);
  msg.ph_done++;
  payload_bytes_done_ += pkt.data.size();

  if (is_last) {
    msg.completion_pkt = std::move(pkt);
    msg.completion_ready = ready;
  }
  maybe_run_completion(key, msg);
}

void PsPinDevice::maybe_run_completion(const spin::MessageKey& key, MsgState& msg) {
  if (msg.ch_issued || !msg.completion_pkt || !msg.arrivals.complete() ||
      msg.ph_done < msg.arrivals.expected()) {
    return;
  }
  msg.ch_issued = true;
  // Dispatch the CH via a simulator event at its ready time rather than
  // eagerly: its egress commands (acks, read responses) must reserve the
  // shared uplink in time order with handlers dispatched after this packet's
  // arrival, or the FIFO wire horizon ratchets ahead of simulated time and
  // poisons every later send.
  const TimePs ready = std::max(msg.ph_end_max, msg.completion_ready);
  sim_.schedule_at(ready, [this, key]() {
    auto it = messages_.find(key);
    if (it == messages_.end() || !ctx_) return;
    MsgState& m = it->second;
    run_handler(spin::HandlerType::kCompletion, ctx_->completion_handler, *m.completion_pkt, m,
                sim_.now());
    messages_.erase(it);
  });
}

void PsPinDevice::arm_cleanup(const spin::MessageKey& key) {
  auto it = messages_.find(key);
  if (it == messages_.end()) return;
  const TimePs deadline = it->second.last_activity + config_.cleanup_timeout;
  sim_.schedule_at(deadline, [this, key]() {
    auto mit = messages_.find(key);
    if (mit == messages_.end()) return;  // message completed meanwhile
    MsgState& msg = mit->second;
    if (msg.ch_issued) return;  // completion pending dispatch: not abandoned
    if (sim_.now() < msg.last_activity + config_.cleanup_timeout) {
      arm_cleanup(key);  // activity since arming; push the deadline out
      return;
    }
    run_cleanup(key);
  });
}

void PsPinDevice::run_cleanup(const spin::MessageKey& key) {
  auto it = messages_.find(key);
  if (it == messages_.end() || !ctx_ || !ctx_->cleanup_handler) {
    messages_.erase(key);
    return;
  }
  MsgState& msg = it->second;
  auto& cluster_hpus = hpu_free_[msg.cluster];
  auto hpu = std::min_element(cluster_hpus.begin(), cluster_hpus.end());
  const TimePs start = std::max(sim_.now(), *hpu) + config_.hpu_dispatch;

  spin::HandlerCtx ctx(nic_->node_id(), start, msg.flow_slot, std::move(cmd_buf_));
  ctx_->cleanup_handler(ctx, key);
  const TimePs end = replay(ctx, msg, start);
  cmd_buf_ = ctx.take_commands();
  if (span_trace_) {
    span_trace_->record({nic_->node_id(),
                         msg.cluster * 1000 +
                             static_cast<unsigned>(std::distance(cluster_hpus.begin(), hpu)),
                         "handler", "cleanup", key.msg_id, key.msg_id, 0, ctx.instr(), start,
                         end});
  }
  *hpu = end;
  last_handler_end_ = std::max(last_handler_end_, end);
  ++cleanup_runs_;
  messages_.erase(it);
}

unsigned PsPinDevice::busy_hpus(TimePs t) const {
  unsigned busy = 0;
  for (const auto& cluster : hpu_free_) {
    for (TimePs free_at : cluster) {
      if (free_at > t) ++busy;
    }
  }
  return busy;
}

unsigned PsPinDevice::egress_in_flight(TimePs t) const { return egress_.in_flight(t); }

void PsPinDevice::bind_metrics(obs::MetricRegistry& reg, const std::string& prefix) {
  reg.counter_cell(prefix + ".payload_bytes_done", &payload_bytes_done_);
  reg.counter_cell(prefix + ".cleanup_runs", &cleanup_runs_);
  reg.counter_cell(prefix + ".rejected_packets", &rejected_packets_);
  reg.gauge(prefix + ".live_messages",
            [this] { return static_cast<long long>(messages_.size()); });
  reg.gauge(prefix + ".busy_hpus", [this] { return static_cast<long long>(busy_hpus(sim_.now())); });
  reg.gauge(prefix + ".egress_in_flight",
            [this] { return static_cast<long long>(egress_in_flight(sim_.now())); });
  reg.gauge(prefix + ".egress_credits", [this] {
    const unsigned used = egress_in_flight(sim_.now());
    return static_cast<long long>(config_.egress_queue_depth -
                                  std::min(config_.egress_queue_depth, used));
  });
}

}  // namespace nadfs::pspin
