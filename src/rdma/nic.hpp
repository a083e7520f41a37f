// RDMA-capable NIC model.
//
// Provides the verbs-level substrate every protocol in the paper runs on:
//   - one-sided WRITE/READ with memory-region (rkey) protection and
//     transport-level acks (Fig. 1c's RDMA-centric path),
//   - two-sided SEND for the RPC baselines (Fig. 1b),
//   - pre-posted *triggered* operations, the Mellanox feature HyperLoop
//     builds its NIC-offloaded ring replication on (paper §V / Fig. 8),
//   - steering of incoming RDMA packets into an attached PsPIN device
//     (Fig. 1d), and the spin::NicServices backend (egress injection,
//     PCIe DMA to/from the storage target, host event queue).
//
// Timing terms modelled: doorbell (host->NIC posting), per-packet PCIe DMA
// at a finite bandwidth plus latency, rx pipeline processing, and for
// triggered forwards the through-host-memory bounce that the paper's
// sPIN-side avoids.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/bytes.hpp"
#include "net/network.hpp"
#include "net/packet.hpp"
#include "net/train.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "pspin/device.hpp"
#include "sim/resource.hpp"
#include "sim/simulator.hpp"
#include "spin/nic_services.hpp"
#include "storage/target.hpp"

namespace nadfs::rdma {

struct NicConfig {
  TimePs pcie_latency = ns(200);  ///< one-way; paper cites up to 400 ns RTT
  Bandwidth pcie_bandwidth = Bandwidth::from_gbytes_per_sec(64.0);
  TimePs doorbell_latency = ns(150);   ///< host posting an op to the NIC
  TimePs rx_processing = ns(50);       ///< per-packet host-path rx pipeline
  TimePs trigger_processing = ns(150); ///< triggered-WQE engine, per firing
};

class Nic : public net::PacketSink, public spin::NicServices {
 public:
  /// `memory` backs this node's registered regions (for a storage node this
  /// is the NVMM target; for a client, its RAM).
  Nic(sim::Simulator& simulator, net::Network& network, storage::Target& memory,
      NicConfig config = {});

  net::NodeId id() const { return id_; }
  storage::Target& memory() { return memory_; }
  net::Network& network() { return net_; }
  const NicConfig& config() const { return config_; }

  /// Attach a PsPIN device; incoming RDMA writes are steered to it whenever
  /// it has an execution context installed (paper §III-C).
  void attach_pspin(pspin::PsPinDevice& device);
  pspin::PsPinDevice* pspin() { return pspin_; }

  /// Overload steering (paper §III-C): when the PsPIN device already holds
  /// `limit` live messages, further DFS requests bypass it and are appended
  /// to the host's command queue (the dfs-request handler below) instead.
  /// 0 disables the limit.
  void set_pspin_backlog_limit(std::size_t limit) { pspin_backlog_limit_ = limit; }
  std::uint64_t steered_to_host() const { return steered_to_host_; }

  /// Assembled DFS-formatted requests that were steered past PsPIN (the
  /// "RPC command queues via RDMA" path). `at` is when the full request is
  /// in host memory.
  using DfsRequestHandler =
      std::function<void(net::NodeId src, std::uint64_t msg_id, Bytes request, TimePs at)>;
  void set_dfs_request_handler(DfsRequestHandler fn) { dfs_request_handler_ = std::move(fn); }

  // ---- memory regions -----------------------------------------------
  /// Register [base, base+len) for remote access; returns the rkey.
  std::uint32_t register_mr(std::uint64_t base, std::uint64_t len);
  bool rkey_valid(std::uint32_t rkey, std::uint64_t addr, std::uint64_t len) const;

  // ---- host-posted verbs ---------------------------------------------
  using WriteCb = std::function<void(TimePs completed)>;
  using ReadCb = std::function<void(Bytes data, TimePs completed)>;

  /// One-sided write; `cb` fires when the transport-level ack returns
  /// (host path) — i.e., raw-RDMA write latency.
  void post_write(net::NodeId dst, std::uint64_t raddr, std::uint32_t rkey, Bytes data,
                  WriteCb cb, std::uint64_t user_tag = 0);

  /// One-sided read of `len` bytes from (dst, raddr).
  void post_read(net::NodeId dst, std::uint64_t raddr, std::uint32_t rkey, std::uint32_t len,
                 ReadCb cb);

  /// Two-sided send (RPC transport); delivered to the remote recv handler.
  void post_send(net::NodeId dst, std::uint64_t tag, Bytes data);

  /// Inject a pre-built packet train (DFS-formatted writes built by the
  /// client library: first packet carries the DFS headers). Packets must
  /// share msg_id and carry consistent seq/pkt_count. No transport ack is
  /// generated on the sPIN path; DFS-level acks come from the handlers.
  void post_message(std::vector<net::Packet> pkts);

  // ---- triggered operations (HyperLoop substrate) ----------------------
  struct TriggeredWrite {
    std::uint64_t trigger_tag = 0;           ///< fires on message completion with this tag
    net::NodeId next_dst = net::kInvalidNode; ///< forward target (invalid: tail)
    std::uint64_t next_raddr = 0;
    std::uint32_t next_rkey = 0;
    net::NodeId ack_to = net::kInvalidNode;  ///< tail sends kAck here
    std::uint64_t ack_tag = 0;
  };
  /// Arm a one-shot triggered forward. HyperLoop clients configure these
  /// remotely; the remote-configuration *cost* is modelled by the protocol
  /// driver as the metadata ring broadcast.
  void post_triggered_write(TriggeredWrite trigger);

  /// Host-posted control packet (DFS-level ack/nack from CPU-side servers).
  /// `code` rides in the otherwise-unused raddr field — the DFS layer uses
  /// it to carry a typed dfs::DfsError on NACKs (0 == unspecified/ok).
  void post_control(net::NodeId dst, net::Opcode opcode, std::uint64_t tag,
                    TimePs earliest = 0, std::uint64_t code = 0);

  /// Register interest in a kRdmaReadResp stream tagged `tag` (DFS reads
  /// answered by remote sPIN handlers). `len` is the expected total size.
  void expect_read_response(std::uint64_t tag, std::uint32_t len, ReadCb cb);

  /// Abandon a pending read (client-side deadline expiry). Returns false if
  /// `tag` was not pending — the response already completed it. Straggler
  /// response packets for a cancelled read count as late_read_packets.
  bool cancel_read(std::uint64_t tag);
  std::size_t pending_read_count() const { return pending_reads_.size(); }
  std::uint64_t late_read_packets() const { return late_read_packets_; }
  /// Response packets of a pending read that were dropped: a repeated seq
  /// (a duplicated packet) or one that falls outside the read's length.
  std::uint64_t rejected_read_packets() const { return rejected_read_packets_; }
  /// Packets of a host-path write, send or DFS request that reassembly
  /// dropped: a repeated seq, a seq at or past the packet count, or a
  /// packet count that differs from the one on the message's first packet.
  std::uint64_t rejected_packets() const { return rejected_packets_; }

  std::size_t armed_triggers() const { return triggers_.size(); }

  // ---- receive-side hooks ----------------------------------------------
  /// Assembled kSend messages (RPC requests/responses). `at` is the time the
  /// message is in host memory.
  using RecvHandler =
      std::function<void(net::NodeId src, std::uint64_t tag, Bytes data, TimePs at)>;
  void set_recv_handler(RecvHandler fn) { recv_handler_ = std::move(fn); }

  /// DFS-level control packets (kAck/kNack) addressed to this node.
  using ControlHandler = std::function<void(const net::Packet& pkt, TimePs at)>;
  void set_control_handler(ControlHandler fn) { control_handler_ = std::move(fn); }

  /// Completion of an incoming host-path RDMA write (CPU notification that
  /// data landed — the "CPU is notified of incoming writes" hook of the
  /// CPU-Ring/PBT strategies). `durable` is when all data is in memory.
  using WriteNotify = std::function<void(net::NodeId src, std::uint64_t msg_id,
                                         std::uint64_t user_tag, std::uint64_t raddr,
                                         std::uint64_t len, TimePs durable)>;
  void set_write_notify(WriteNotify fn) { write_notify_ = std::move(fn); }

  /// Host event queue written by sPIN handlers (spin::NicServices).
  using HostEventHandler = std::function<void(std::uint64_t code, std::uint64_t arg, TimePs at)>;
  void set_host_event_handler(HostEventHandler fn) { host_event_handler_ = std::move(fn); }

  // ---- spin::NicServices ------------------------------------------------
  sim::Window egress_send(net::Packet pkt, TimePs ready) override;
  TimePs dma_to_storage(std::uint64_t addr, ByteSpan data, TimePs ready) override;
  std::pair<Bytes, TimePs> dma_from_storage(std::uint64_t addr, std::size_t len,
                                            TimePs ready) override;
  TimePs trim_storage(std::uint64_t addr, std::uint64_t len, TimePs ready) override;
  bool storage_trimmed(std::uint64_t addr, std::uint64_t len) override;
  void notify_host(std::uint64_t code, std::uint64_t arg, TimePs when) override;
  net::NodeId node_id() const override { return id_; }

  // ---- net::PacketSink ----------------------------------------------
  void on_packet(net::Packet&& pkt) override;

  /// Allocate a fresh message id (unique per source node).
  std::uint64_t alloc_msg_id() { return next_msg_id_++; }

  /// Attach a span tracer: doorbell/PCIe ingress DMA, egress commands and
  /// received acks are recorded as spans (pure recording, digest-neutral).
  void set_tracer(obs::SpanTracer* tracer) { tracer_ = tracer; }

  /// Register NIC counters/gauges under `prefix` ("node3.nic").
  void bind_metrics(obs::MetricRegistry& reg, const std::string& prefix);

 private:
  struct MR {
    std::uint64_t base;
    std::uint64_t len;
  };
  /// A host-path RDMA write: each packet lands in memory as it arrives.
  struct Assembly {
    net::Arrivals arrivals;
    std::uint64_t first_raddr = 0;
    std::uint64_t total_len = 0;
    std::uint64_t user_tag = 0;
    TimePs durable_max = 0;
  };
  /// A kSend message or host-steered DFS request, delivered whole.
  struct Message {
    net::Reassembly parts;
    TimePs in_memory = 0;  ///< when every admitted payload is in host memory
  };
  struct PendingRead {
    Bytes data;
    std::uint32_t expected = 0;
    std::uint32_t arrived = 0;  ///< distinct seqs landed
    net::SeqSet seen;
    ReadCb cb;
  };
  PendingRead pending_read(std::uint32_t len, ReadCb cb) const;
  /// Fetch each packet's payload over PCIe from `start` and inject the
  /// packet at fetch end plus PCIe latency. `span` names the NIC-DMA span
  /// recorded over the post (none when null).
  void post(std::vector<net::Packet> pkts, TimePs start, const char* span);
  /// Admit `pkt` to its message in `rx` (a rejected packet is counted in
  /// rejected_packets_) and DMA its payload into host memory. Once the
  /// message is whole it leaves `rx`, and `deliver` — a handler member of
  /// this NIC, read when the event fires — receives it with `id` when all
  /// of it is in host memory. Returns the packets admitted so far, 0 when
  /// `pkt` was rejected.
  std::uint32_t reassemble(std::unordered_map<std::uint64_t, Message>& rx, net::Packet&& pkt,
                           std::uint64_t id, const RecvHandler& deliver);

  void host_path_write(net::Packet&& pkt);
  void host_path_read_request(const net::Packet& pkt);
  void host_path_send(net::Packet&& pkt);
  void host_path_dfs_request(net::Packet&& pkt);
  void fire_trigger(const TriggeredWrite& trig, const Assembly& as, TimePs when);

  sim::Simulator& sim_;
  net::Network& net_;
  storage::Target& memory_;
  NicConfig config_;
  net::NodeId id_;
  sim::GapServer pcie_;
  pspin::PsPinDevice* pspin_ = nullptr;

  std::unordered_map<std::uint32_t, MR> mrs_;
  std::uint32_t next_rkey_ = 1;
  std::uint64_t next_msg_id_ = 1;

  std::unordered_map<std::uint64_t, WriteCb> pending_writes_;  // by msg_id
  std::unordered_map<std::uint64_t, PendingRead> pending_reads_;
  std::uint64_t late_read_packets_ = 0;
  std::uint64_t rejected_read_packets_ = 0;
  std::uint64_t rejected_packets_ = 0;

  // key: src<<32 ^ msg_id-ish; see assembly_key().
  static std::uint64_t assembly_key(net::NodeId src, std::uint64_t msg_id) {
    return (static_cast<std::uint64_t>(src) << 48) ^ msg_id;
  }
  std::unordered_map<std::uint64_t, Assembly> rx_writes_;
  std::unordered_map<std::uint64_t, Message> rx_sends_;
  std::unordered_map<std::uint64_t, Message> rx_dfs_;  // host-steered DFS requests
  std::size_t pspin_backlog_limit_ = 0;
  std::uint64_t steered_to_host_ = 0;
  DfsRequestHandler dfs_request_handler_;

  std::vector<TriggeredWrite> triggers_;

  RecvHandler recv_handler_;
  ControlHandler control_handler_;
  WriteNotify write_notify_;
  HostEventHandler host_event_handler_;
  obs::SpanTracer* tracer_ = nullptr;
};

}  // namespace nadfs::rdma
