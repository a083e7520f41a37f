// Packet network: nodes hang off a switch fabric via full-duplex links.
// The topology behind the facade is pluggable (net/topology.hpp): the
// default is the paper's single output-queued star switch (SST config:
// 400 Gbit/s links, 20 ns link latency, MTU 2048 B, DESIGN.md §1), and a
// 2-tier leaf/spine fabric makes real partitions, ECMP spreading and
// per-hop congestion expressible (DESIGN.md §1a).
//
// Timing model per packet (store-and-forward, per hop):
//   uplink serialization (per-source port) + link latency
//   + switch latency + next-port serialization ... + downlink
//   serialization (per-destination port) + link latency.
// Serialization windows are reserved on shared GapServers, so port
// contention (many-to-one incast on a storage node, trunk congestion on a
// fabric) emerges naturally. On the star this is exactly the pre-fabric
// event sequence — star digests are bit-identical to the PR 5 recordings.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "net/fault.hpp"
#include "net/packet.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "sim/resource.hpp"
#include "sim/simulator.hpp"

namespace nadfs::net {

struct NetworkConfig {
  Bandwidth link_bandwidth = Bandwidth::from_gbps(400.0);
  TimePs link_latency = ns(20);
  TimePs switch_latency = ns(50);
  std::size_t mtu = 2048;  ///< max payload bytes per packet
  /// Switch-level topology. The default star takes the exact pre-fabric
  /// code path; leaf/spine routes per-switch with ECMP trunks.
  Topology topology{};
  /// Finite per-port buffering on *fabric* switch ports (trunks and fabric
  /// downlinks): a packet whose queueing delay at a port would exceed
  /// transfer_time(port_buffer_bytes) is tail-dropped (buffer_drops, per
  /// hop). 0 = unbounded. Ignored on the star, which predates the buffer
  /// model and must stay bit-identical.
  std::size_t port_buffer_bytes = 256 * 1024;
};

/// Per-switch forwarding/drop accounting (fabric hops; the star switch is
/// accounted only through the global fault counters, as before).
struct HopCounters {
  obs::Counter forwarded_pkts;
  obs::Counter forwarded_bytes;
  obs::Counter trunk_drops;   ///< inter-switch link down at this switch
  obs::Counter buffer_drops;  ///< finite port buffer overflowed here
};

class Network {
 public:
  Network(sim::Simulator& simulator, NetworkConfig config = {});

  /// Attach a node; the sink receives packets addressed to it. On a
  /// leaf/spine topology the node lands on leaf `id % leaves` (round-robin
  /// by attach order). If a metric registry is bound, the node's
  /// delivered-bytes cell is registered immediately.
  NodeId add_node(PacketSink& sink);

  std::size_t mtu() const { return config_.mtu; }
  const NetworkConfig& config() const { return config_; }
  const Topology& topology() const { return config_.topology; }
  sim::Simulator& simulator() { return sim_; }

  /// Inject a packet at its source node. Serialization starts no earlier
  /// than `earliest` (used by NICs to order packets after local processing).
  /// Returns the uplink serialization window: `start` is when the wire picks
  /// the packet up, `end` when the uplink is free for the next packet.
  /// With faults armed, source reachability is decided at the window start
  /// (when the wire actually picks the packet up), not at injection time —
  /// a node killed while its packet is still queued never transmits. The
  /// same time-based query re-admits traffic from a revived node
  /// deterministically: the first packet whose window starts at or after
  /// its FaultPlan::restart_at time transmits, no re-registration needed
  /// at this layer (rejoining placement is the failure detector's job).
  sim::Window inject(Packet pkt, TimePs earliest = 0);

  /// Earliest time node's uplink could accept a new packet.
  TimePs uplink_free_at(NodeId node) const;

  /// Total payload bytes delivered to `node` so far (goodput accounting).
  std::uint64_t delivered_payload_bytes(NodeId node) const;

  std::size_t node_count() const { return nodes_.size(); }

  /// Per-switch hop counters (valid for 0 <= sw < topology().switch_count()).
  const HopCounters& hop_counters(SwitchId sw) const { return hops_.at(sw); }

  /// Arm a fault plan. Resets the fault counters and reseeds the fault RNG
  /// from the plan. With no plan armed, inject() takes the exact pre-fault
  /// code path (no RNG draws), so fault-free digests are untouched.
  void install_faults(FaultPlan plan);

  /// The armed plan, arming an empty one on first access. Mutable on
  /// purpose: chaos hooks add kills/restarts mid-run (the plan is queried
  /// by time, so future-dated additions are safe).
  FaultPlan& faults();

  /// Mutate the armed plan from *event context* in a way that is safe (and
  /// bit-identical) under domain-parallel execution: the mutation runs as
  /// a fence one link latency from now, with every lane parked. Chaos
  /// hooks that add future-dated kills from packet-delivery callbacks must
  /// use this instead of touching faults() directly — under parallelism a
  /// direct mutation races with other lanes' reachability queries. The
  /// delay is the same in serial mode, so both modes see the mutation at
  /// the same (when, seq).
  void mutate_faults(std::function<void(FaultPlan&)> fn);

  bool faults_armed() const { return faults_armed_; }
  const FaultCounters& fault_counters() const { return fault_counters_; }

  /// Attach a span tracer: every uplink/trunk/downlink hop (and every
  /// fault drop) is recorded as a span correlated by Packet::user_tag (the
  /// client greq) or msg_id; trunk hops land on the destination node's
  /// track under the trunk lane. nullptr detaches. Pure recording —
  /// attaching never changes event order or digests.
  void set_tracer(obs::SpanTracer* tracer) { tracer_ = tracer; }
  obs::SpanTracer* tracer() const { return tracer_; }

  // ---------------------------------------------- domain partitioning
  /// Pin each node's delivery events to a simulation domain and the whole
  /// switch fabric (uplink arrival through final egress) to
  /// `fabric_domain`. Every cross-domain handoff then carries at least one
  /// link traversal of delay — node→switch arrivals add
  /// link_latency + switch_latency past the uplink end, and switch→node
  /// arrivals add link_latency past the downlink end — which is exactly
  /// the conservative lookahead the partitioned simulator core needs (see
  /// lookahead()). `node_domains` must cover every attached node. Without
  /// a map, hops schedule into the caller's current domain (serial
  /// behaviour).
  void set_domain_map(std::vector<sim::DomainId> node_domains, sim::DomainId fabric_domain);

  /// Conservative lookahead this network's domain map supports: the link
  /// latency, the minimum delay any cross-domain handoff carries.
  TimePs lookahead() const { return config_.link_latency; }

  /// Register the fault counters, per-node delivered-bytes cells and (on a
  /// fabric) per-switch hop counters under `prefix` ("net" ->
  /// "net.faults.tx_drops", "net.node3.delivered_bytes",
  /// "net.switch4.trunk_drops"). The registry is remembered: nodes added
  /// *after* binding get their cells registered by add_node.
  void bind_metrics(obs::MetricRegistry& reg, const std::string& prefix);

 private:
  struct NodePort {
    PacketSink* sink;
    std::unique_ptr<sim::GapServer> uplink;    // node -> leaf switch
    std::unique_ptr<sim::GapServer> downlink;  // leaf switch -> node
    std::uint64_t delivered_payload = 0;
  };

  /// Final-switch egress toward the destination node: destination
  /// reachability + seeded-rate faults, then downlink delivery. This is
  /// the star's at-switch block, shared verbatim by the fabric's last hop.
  void egress_to_node(NodePort* dstp, std::size_t wire, Packet&& pkt);
  void deliver(NodePort* dstp, std::size_t wire, Packet&& pkt);

  /// Fabric hops (multi-switch only).
  void forward_at_leaf(NodePort* dstp, std::size_t wire, Packet&& pkt);
  void forward_at_spine(SwitchId spine, NodePort* dstp, std::size_t wire, Packet&& pkt);
  /// Plan `wire` bytes on a trunk port of `sw`, enforcing the trunk fault
  /// window and the finite buffer; returns false (counted) when dropped.
  bool trunk_transmit(SwitchId sw, SwitchId next, sim::GapServer& port, std::size_t wire,
                      const Packet& pkt, const char* hop_name, sim::Window& out);

  sim::GapServer& trunk(SwitchId leaf, SwitchId spine, bool up);

  /// Route a hop event into `domain` when a map is set, else a plain
  /// schedule (current/external domain — serial behaviour, bit-identical).
  /// Every hop carries a Packet, and the static_assert keeps it inline in
  /// EventFn: a field added to Packet fails the build here instead of
  /// costing two heap allocations per packet hop.
  template <typename Hop>
  void schedule_hop(sim::DomainId domain, TimePs when, Hop&& hop) {
    static_assert(sim::EventFn::fits_inline<std::decay_t<Hop>>,
                  "packet hop must fit EventFn inline");
    if (domains_mapped_) {
      sim_.schedule_at_domain(domain, when, std::forward<Hop>(hop));
    } else {
      sim_.schedule_at(when, std::forward<Hop>(hop));
    }
  }
  sim::DomainId domain_of_node(NodeId n) const {
    return domains_mapped_ ? node_domains_[n] : 0;
  }

  sim::Simulator& sim_;
  NetworkConfig config_;
  // deque: NodePort references stay valid when nodes are added later (the
  // deferred downlink reservation captures a pointer into this container).
  std::deque<NodePort> nodes_;
  // Trunk wires, one GapServer per direction per (leaf, spine) pair,
  // indexed leaf * spines + (spine - leaves). Empty on the star.
  std::vector<std::unique_ptr<sim::GapServer>> trunk_up_;
  std::vector<std::unique_ptr<sim::GapServer>> trunk_down_;
  std::vector<HopCounters> hops_;   // one per switch
  TimePs max_port_queue_ = 0;       // transfer_time(port_buffer_bytes); 0 = unbounded

  std::vector<sim::DomainId> node_domains_;
  sim::DomainId fabric_domain_ = 0;
  bool domains_mapped_ = false;

  bool faults_armed_ = false;
  FaultPlan plan_;
  FaultCounters fault_counters_;
  Rng fault_rng_{1};
  obs::SpanTracer* tracer_ = nullptr;
  obs::MetricRegistry* metrics_ = nullptr;
  std::string metrics_prefix_;
};

}  // namespace nadfs::net
