#include "net/network.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace nadfs::net {

const char* opcode_name(Opcode op) {
  switch (op) {
    case Opcode::kRdmaWrite: return "RDMA_WRITE";
    case Opcode::kRdmaRead: return "RDMA_READ";
    case Opcode::kRdmaReadResp: return "RDMA_READ_RESP";
    case Opcode::kSend: return "SEND";
    case Opcode::kTransportAck: return "T_ACK";
    case Opcode::kAck: return "ACK";
    case Opcode::kNack: return "NACK";
  }
  return "?";
}

namespace {

std::uint64_t corr_of(const Packet& p) { return p.user_tag != 0 ? p.user_tag : p.msg_id; }

}  // namespace

Network::Network(sim::Simulator& simulator, NetworkConfig config)
    : sim_(simulator), config_(std::move(config)) {
  const Topology& topo = config_.topology;
  hops_.resize(topo.switch_count());
  if (config_.port_buffer_bytes != 0) {
    max_port_queue_ = config_.link_bandwidth.transfer_time(config_.port_buffer_bytes);
  }
  if (!topo.single_switch()) {
    const std::size_t trunks =
        static_cast<std::size_t>(topo.leaf_count()) * topo.spine_count();
    trunk_up_.reserve(trunks);
    trunk_down_.reserve(trunks);
    for (std::size_t i = 0; i < trunks; ++i) {
      trunk_up_.push_back(std::make_unique<sim::GapServer>(sim_, config_.link_bandwidth));
      trunk_down_.push_back(std::make_unique<sim::GapServer>(sim_, config_.link_bandwidth));
    }
  }
}

NodeId Network::add_node(PacketSink& sink) {
  NodePort port;
  port.sink = &sink;
  port.uplink = std::make_unique<sim::GapServer>(sim_, config_.link_bandwidth);
  port.downlink = std::make_unique<sim::GapServer>(sim_, config_.link_bandwidth);
  nodes_.push_back(std::move(port));
  const NodeId id = static_cast<NodeId>(nodes_.size() - 1);
  // A registry bound before this node existed still gets its cell — late
  // joiners (elastic clusters, test rigs) must not be invisible to metrics.
  if (metrics_ != nullptr) {
    metrics_->counter_cell(metrics_prefix_ + ".node" + std::to_string(id) + ".delivered_bytes",
                           &nodes_.back().delivered_payload);
  }
  return id;
}

sim::GapServer& Network::trunk(SwitchId leaf, SwitchId spine, bool up) {
  const Topology& topo = config_.topology;
  const std::size_t idx = static_cast<std::size_t>(leaf) * topo.spine_count() +
                          (spine - topo.leaf_count());
  return up ? *trunk_up_[idx] : *trunk_down_[idx];
}

sim::Window Network::inject(Packet pkt, TimePs earliest) {
  if (pkt.src >= nodes_.size() || pkt.dst >= nodes_.size()) {
    throw std::out_of_range("Network::inject: unknown node id");
  }
  if (pkt.data.size() > config_.mtu) {
    throw std::length_error("Network::inject: packet payload exceeds MTU");
  }
  auto& src = nodes_[pkt.src];
  auto& dst = nodes_[pkt.dst];
  const std::size_t wire = pkt.wire_size();

  sim::Window up;
  if (faults_armed_) {
    // A dead source (or one whose access link is down) never gets the
    // packet onto the wire; the caller sees an empty serialization window.
    // Reachability is decided at the *window start* — when the wire picks
    // the packet up — not at injection time: on a busy uplink those can be
    // far apart, and a node killed while its packet still sits in the
    // queue must not transmit (and a link restored by then may).
    up = src.uplink->plan(wire, earliest);
    if (!plan_.reachable(pkt.src, up.start)) {
      ++fault_counters_.tx_drops;
      if (tracer_)
        tracer_->record({pkt.src, obs::kLaneUplink, "net", "tx_drop", corr_of(pkt), pkt.msg_id,
                         pkt.seq, pkt.data.size(), up.start, up.start});
      return sim::Window{up.start, up.start};
    }
    src.uplink->commit(up);
  } else {
    up = src.uplink->reserve(wire, earliest);
  }
  if (tracer_)
    tracer_->record({pkt.src, obs::kLaneUplink, "net", opcode_name(pkt.opcode), corr_of(pkt),
                     pkt.msg_id, pkt.seq, pkt.data.size(), up.start, up.end});
  // The packet is fully received at the first switch input at up.end + link
  // latency. Downstream ports are reserved *at that moment* (not eagerly at
  // injection time), so packets from different sources interleave on a
  // contended output port in arrival order — the behaviour that matters for
  // incast onto a storage node.
  const TimePs at_switch = up.end + config_.link_latency + config_.switch_latency;
  auto* dstp = &dst;
  const Topology& topo = config_.topology;
  if (topo.single_switch() || topo.leaf_of(pkt.src) == topo.leaf_of(pkt.dst)) {
    // Star, or both endpoints on one leaf: the first switch is also the
    // last — egress directly (the exact pre-fabric event sequence).
    schedule_hop(at_switch, [this, dstp, wire, p = std::move(pkt)]() mutable {
      egress_to_node(dstp, wire, std::move(p));
    });
  } else {
    schedule_hop(at_switch, [this, dstp, wire, p = std::move(pkt)]() mutable {
      forward_at_leaf(dstp, wire, std::move(p));
    });
  }
  return up;
}

bool Network::trunk_transmit(SwitchId sw, SwitchId next, sim::GapServer& port, std::size_t wire,
                             const Packet& pkt, const char* hop_name, sim::Window& out) {
  HopCounters& hop = hops_[sw];
  // Trunk faults are decided at the switch output port, in event order,
  // like node-directed rx drops.
  if (faults_armed_ && !plan_.trunk_up(sw, next, sim_.now())) {
    ++fault_counters_.trunk_drops;
    ++hop.trunk_drops;
    if (tracer_)
      tracer_->record({pkt.dst, obs::kLaneTrunk, "net", "trunk_drop", corr_of(pkt), pkt.msg_id,
                       pkt.seq, pkt.data.size(), sim_.now(), sim_.now()});
    return false;
  }
  const auto w = port.plan(wire);
  if (max_port_queue_ != 0 && w.start > sim_.now() + max_port_queue_) {
    ++fault_counters_.buffer_drops;
    ++hop.buffer_drops;
    if (tracer_)
      tracer_->record({pkt.dst, obs::kLaneTrunk, "net", "buffer_drop", corr_of(pkt), pkt.msg_id,
                       pkt.seq, pkt.data.size(), sim_.now(), sim_.now()});
    return false;
  }
  port.commit(w);
  ++hop.forwarded_pkts;
  hop.forwarded_bytes += wire;
  if (tracer_)
    tracer_->record({pkt.dst, obs::kLaneTrunk, "net", hop_name, corr_of(pkt), pkt.msg_id,
                     pkt.seq, pkt.data.size(), w.start, w.end});
  out = w;
  return true;
}

void Network::forward_at_leaf(NodePort* dstp, std::size_t wire, Packet&& pkt) {
  const Topology& topo = config_.topology;
  const SwitchId src_leaf = topo.leaf_of(pkt.src);
  // ECMP: the spine is a pure function of (src, dst, msg_id) over the
  // leaf's routing table — all packets of a message take one path.
  const SwitchId spine = topo.spine_for(pkt.src, pkt.dst, pkt.msg_id);
  sim::Window w;
  if (!trunk_transmit(src_leaf, spine, trunk(src_leaf, spine, /*up=*/true), wire, pkt,
                      "trunk-up", w)) {
    return;
  }
  const TimePs at_spine = w.end + config_.link_latency + config_.switch_latency;
  schedule_hop(at_spine, [this, spine, dstp, wire, p = std::move(pkt)]() mutable {
    forward_at_spine(spine, dstp, wire, std::move(p));
  });
}

void Network::forward_at_spine(SwitchId spine, NodePort* dstp, std::size_t wire, Packet&& pkt) {
  const Topology& topo = config_.topology;
  const SwitchId dst_leaf = topo.spine_next_hop(spine, topo.leaf_of(pkt.dst));
  sim::Window w;
  if (!trunk_transmit(spine, dst_leaf, trunk(dst_leaf, spine, /*up=*/false), wire, pkt,
                      "trunk-down", w)) {
    return;
  }
  const TimePs at_leaf = w.end + config_.link_latency + config_.switch_latency;
  schedule_hop(at_leaf, [this, dstp, wire, p = std::move(pkt)]() mutable {
    egress_to_node(dstp, wire, std::move(p));
  });
}

void Network::egress_to_node(NodePort* dstp, std::size_t wire, Packet&& p) {
  const Topology& topo = config_.topology;
  if (!topo.single_switch()) {
    // Fabric leaf egress: account the hop and enforce the finite port
    // buffer on the node downlink. (The star predates the buffer model
    // and must replay bit-identically, so it takes neither branch.)
    const SwitchId leaf = topo.leaf_of(p.dst);
    HopCounters& hop = hops_[leaf];
    ++hop.forwarded_pkts;
    hop.forwarded_bytes += wire;
    if (max_port_queue_ != 0) {
      const auto w = dstp->downlink->plan(wire);
      if (w.start > sim_.now() + max_port_queue_) {
        ++fault_counters_.buffer_drops;
        ++hop.buffer_drops;
        if (tracer_)
          tracer_->record({p.dst, obs::kLaneDownlink, "net", "buffer_drop", corr_of(p), p.msg_id,
                           p.seq, p.data.size(), sim_.now(), sim_.now()});
        return;
      }
    }
  }
  if (faults_armed_) {
    // Faults are decided at the switch output port, in event order, so
    // the RNG draw sequence is a pure function of (plan, traffic).
    if (!plan_.reachable(p.dst, sim_.now())) {
      ++fault_counters_.rx_drops;
      if (tracer_)
        tracer_->record({p.dst, obs::kLaneDownlink, "net", "rx_drop", corr_of(p), p.msg_id,
                         p.seq, p.data.size(), sim_.now(), sim_.now()});
      return;
    }
    if (plan_.drop_rate() > 0 && fault_rng_.next_double() < plan_.drop_rate()) {
      ++fault_counters_.random_drops;
      if (tracer_)
        tracer_->record({p.dst, obs::kLaneDownlink, "net", "random_drop", corr_of(p), p.msg_id,
                         p.seq, p.data.size(), sim_.now(), sim_.now()});
      return;
    }
    if (plan_.corrupt_rate() > 0 && fault_rng_.next_double() < plan_.corrupt_rate() &&
        !p.data.empty()) {
      const std::size_t byte = fault_rng_.next_below(p.data.size());
      p.data[byte] ^= static_cast<std::uint8_t>(1 + fault_rng_.next_below(255));
      ++fault_counters_.corruptions;
    }
    if (plan_.duplicate_rate() > 0 && fault_rng_.next_double() < plan_.duplicate_rate()) {
      ++fault_counters_.duplicates;
      // The original goes first, the copy rides right behind it on the
      // downlink — never ahead of the packet it duplicates.
      Packet copy(p);
      deliver(dstp, wire, std::move(p));
      deliver(dstp, wire, std::move(copy));
      return;
    }
  }
  deliver(dstp, wire, std::move(p));
}

void Network::deliver(NodePort* dstp, std::size_t wire, Packet&& pkt) {
  const auto down = dstp->downlink->reserve(wire);
  const TimePs arrival = down.end + config_.link_latency;
  if (tracer_)
    tracer_->record({pkt.dst, obs::kLaneDownlink, "net", opcode_name(pkt.opcode), corr_of(pkt),
                     pkt.msg_id, pkt.seq, pkt.data.size(), down.start, arrival});
  auto* sink = dstp->sink;
  auto* delivered = &dstp->delivered_payload;
  const std::size_t payload = pkt.data.size();
  schedule_hop(arrival, [sink, delivered, payload, p2 = std::move(pkt)]() mutable {
    *delivered += payload;
    sink->on_packet(std::move(p2));
  });
}

void Network::install_faults(FaultPlan plan) {
  plan_ = std::move(plan);
  faults_armed_ = true;
  fault_counters_ = FaultCounters{};
  fault_rng_ = Rng(plan_.seed());
}

FaultPlan& Network::faults() {
  if (!faults_armed_) install_faults(FaultPlan{});
  return plan_;
}

void Network::mutate_faults(std::function<void(FaultPlan&)> fn) {
  // The edit lands one link latency from now: recorded schedules (the
  // chaos and elasticity digests) place it at that (when, seq), so the
  // delay stays. Callers add future-dated fault windows (the plan is
  // queried by time), so the extra 20 ns is semantically invisible.
  sim_.schedule(config_.link_latency, [this, fn = std::move(fn)]() mutable { fn(faults()); });
}

TimePs Network::uplink_free_at(NodeId node) const {
  return nodes_.at(node).uplink->horizon();
}

std::uint64_t Network::delivered_payload_bytes(NodeId node) const {
  return nodes_.at(node).delivered_payload;
}

void Network::bind_metrics(obs::MetricRegistry& reg, const std::string& prefix) {
  metrics_ = &reg;
  metrics_prefix_ = prefix;
  reg.counter(prefix + ".faults.tx_drops", fault_counters_.tx_drops);
  reg.counter(prefix + ".faults.rx_drops", fault_counters_.rx_drops);
  reg.counter(prefix + ".faults.random_drops", fault_counters_.random_drops);
  reg.counter(prefix + ".faults.duplicates", fault_counters_.duplicates);
  reg.counter(prefix + ".faults.corruptions", fault_counters_.corruptions);
  reg.counter(prefix + ".faults.trunk_drops", fault_counters_.trunk_drops);
  reg.counter(prefix + ".faults.buffer_drops", fault_counters_.buffer_drops);
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    reg.counter_cell(prefix + ".node" + std::to_string(i) + ".delivered_bytes",
                     &nodes_[i].delivered_payload);
  }
  if (!config_.topology.single_switch()) {
    for (std::size_t k = 0; k < hops_.size(); ++k) {
      const std::string sw = prefix + ".switch" + std::to_string(k);
      reg.counter(sw + ".forwarded_pkts", hops_[k].forwarded_pkts);
      reg.counter(sw + ".forwarded_bytes", hops_[k].forwarded_bytes);
      reg.counter(sw + ".trunk_drops", hops_[k].trunk_drops);
      reg.counter(sw + ".buffer_drops", hops_[k].buffer_drops);
    }
  }
}

}  // namespace nadfs::net
