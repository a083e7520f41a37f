// Behavioural model of the PsPIN SmartNIC packet processor.
//
// PsPIN (ISCA'21) is a PULP-based accelerator: 32 RISC-V HPUs at 1 GHz in
// four compute clusters, 1 MiB single-cycle L1 per cluster, 4 MiB L2, a
// hardware packet scheduler with 1-2 cycle scheduling latency, and DMA
// engines toward NIC and host memory. This model substitutes for the
// cycle-accurate RTL toolchain the paper used (DESIGN.md §1):
//
//   ingress pipeline (calibrated to Fig. 7, 2 KiB packets):
//     NIC inbound DMA into the L2 packet buffer   32 cycles (64 B/cycle)
//     hardware scheduler decision                  2 cycles
//     cluster-local DMA into L1                   43 cycles (~47.6 B/cycle)
//     dispatch to an idle HPU                      1 ns
//
//   execution: handlers run functionally at dispatch and their recorded
//   (cost, command) timeline is replayed against shared resources — HPU
//   occupancy, a bounded egress command queue drained at link rate, and
//   the PCIe DMA engine. sPIN's ordering contract is enforced per message:
//   HH completes before any PH starts; CH runs after all PHs complete.
//   Each seq of a message runs its handlers once: a duplicated packet, a
//   seq at or past the packet count, or a packet count that disagrees with
//   the message's first packet is dropped and counted.
//
// The device also implements the cleanup-handler extension of §VII: a
// message whose completion packet has not arrived within a timeout triggers
// the execution context's cleanup handler so dangling request state is
// reclaimed and the host is notified.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/stats.hpp"
#include "common/units.hpp"
#include "net/packet.hpp"
#include "net/arrivals.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "sim/resource.hpp"
#include "sim/simulator.hpp"
#include "spin/handler.hpp"
#include "spin/nic_services.hpp"

namespace nadfs::pspin {

struct PsPinConfig {
  unsigned num_clusters = 4;
  unsigned hpus_per_cluster = 8;
  TimePs cycle = kPsPerNs;  ///< 1 GHz
  std::size_t l1_bytes = 1 * MiB;
  std::size_t l2_bytes = 4 * MiB;

  /// Ingress datapath widths (bytes moved per cycle), from Fig. 7.
  double pkt_buffer_bytes_per_cycle = 64.0;  // 2 KiB in 32 cycles
  double l1_copy_bytes_per_cycle = 2048.0 / 43.0;
  std::uint32_t sched_cycles = 2;
  TimePs hpu_dispatch = ns(1);

  /// Outstanding sends the NIC outbound engine accepts before handlers
  /// stall. The steady-state stall magnitude is set by egress bandwidth
  /// (Little's law), not this depth — see bench/ablation_egress_queue.
  unsigned egress_queue_depth = 16;

  /// Inactivity window after which an incomplete message is reaped by the
  /// cleanup handler. Zero disables reaping.
  TimePs cleanup_timeout = us(50);
};

/// Per-handler-type duration and instruction-count samples; the source for
/// Fig. 11 / Fig. 16(left) and Tables I-II.
class HandlerStats {
 public:
  void record(spin::HandlerType type, TimePs duration, std::uint64_t instr);

  const Summary& duration_ns(spin::HandlerType type) const {
    return duration_[static_cast<std::size_t>(type)];
  }
  const Summary& instructions(spin::HandlerType type) const {
    return instr_[static_cast<std::size_t>(type)];
  }
  /// Mean achieved instructions-per-cycle (1 cycle == 1 ns).
  double ipc(spin::HandlerType type) const;

  void reset();

 private:
  Summary duration_[3];
  Summary instr_[3];
};

/// Calendar of the bounded egress command queue: one (issue, drain) slot
/// per accepted send. Handler timelines are computed eagerly and replayed
/// out of dispatch order, so a send at `want` competes only with the slots
/// already issued by `want` and not yet drained at `want`.
///
/// The slots live in one array sorted by drain time. drain(now) moves a
/// cursor past the drained prefix, and the array is compacted once that
/// prefix outgrows the live part, so steady state allocates nothing.
class EgressSlots {
 public:
  explicit EgressSlots(unsigned depth) : depth_(depth) {}

  /// Forget the slots drained by `now`.
  void drain(TimePs now);

  /// When a send wanting to issue at `want` gets a slot: `want` if fewer
  /// than `depth` live slots cover it, else the drain time of the
  /// depth-th latest-draining one among them, i.e. the (count - depth + 1)-th
  /// completion. Walks down from the latest drain time, skipping slots
  /// issued after `want`, and stops at the first slot drained by `want`.
  TimePs accept(TimePs want) const;

  /// Record a send occupying a slot from `issue` until it drains at `end`.
  void add(TimePs issue, TimePs end);

  /// Live slots occupied at `t`: issued at or before `t`, drained after it.
  unsigned in_flight(TimePs t) const;

  /// Slots not yet drained as of the last drain().
  std::size_t live() const { return slots_.size() - head_; }

 private:
  struct Slot {
    TimePs issue;
    TimePs end;
  };
  unsigned depth_;
  std::vector<Slot> slots_;  // sorted by `end` from head_ on
  std::size_t head_ = 0;     // slots before it were drained
};

class PsPinDevice {
 public:
  /// Throws std::invalid_argument naming the field when `config` has a
  /// zero cluster, HPU, egress-depth or cycle count, or a non-positive
  /// datapath width.
  PsPinDevice(sim::Simulator& simulator, PsPinConfig config = {});

  void attach_nic(spin::NicServices& nic) { nic_ = &nic; }

  /// Install the execution context matching all incoming RDMA packets.
  /// Fails (returns false) if the context's NIC-memory state plus the
  /// per-request area does not fit in L1+L2.
  bool install(spin::ExecutionContext ctx);
  void uninstall();
  bool installed() const { return ctx_.has_value(); }

  /// Entry point from the NIC ingress side.
  void on_packet(net::Packet&& pkt);

  const PsPinConfig& config() const { return config_; }
  HandlerStats& stats() { return stats_; }
  const HandlerStats& stats() const { return stats_; }

  /// Attach a cross-layer span tracer: handler invocations (and cleanup
  /// runs) are recorded as spans on lane cluster*1000+hpu, correlated by
  /// Packet::user_tag (greq) or msg_id, alongside the other layers' spans.
  /// Pure recording.
  void set_span_tracer(obs::SpanTracer* tracer) { span_trace_ = tracer; }

  /// Register device counters/gauges under `prefix` ("node3.pspin").
  void bind_metrics(obs::MetricRegistry& reg, const std::string& prefix);

  /// HPUs busy at `t` (free-time horizon still in the future) — sampler
  /// probe for occupancy timeseries.
  unsigned busy_hpus(TimePs t) const;
  /// Egress command-queue slots occupied at `t` (issued, not yet drained).
  unsigned egress_in_flight(TimePs t) const;

  /// Goodput accounting: payload bytes whose payload handler has completed,
  /// and the time the last one completed.
  std::uint64_t payload_bytes_processed() const { return payload_bytes_done_; }
  TimePs last_handler_end() const { return last_handler_end_; }

  std::uint64_t cleanup_runs() const { return cleanup_runs_; }
  std::size_t live_messages() const { return messages_.size(); }
  /// Packets dropped before any handler ran: a repeated seq (a duplicated
  /// packet), a seq at or past the packet count, or a packet count that
  /// differs from the one on the message's first packet.
  std::uint64_t rejected_packets() const { return rejected_packets_; }

  /// Total NIC memory visible to execution contexts (L1s + L2).
  std::size_t nic_memory_bytes() const {
    return config_.num_clusters * config_.l1_bytes + config_.l2_bytes;
  }

 private:
  struct MsgState {
    unsigned cluster = 0;
    std::uint32_t flow_slot = 0;
    net::Arrivals arrivals;
    std::uint32_t ph_done = 0;    ///< PH timelines computed
    TimePs hh_end = 0;            ///< 0 until the HH timeline is known
    TimePs ph_end_max = 0;
    /// Wire-start time of the message's most recent egress send. The NIC
    /// outbound engine serializes a message's sends in issue order so that
    /// forwarded streams keep sPIN's header-first/completion-last network
    /// ordering at the next hop, even when a short final packet's handler
    /// finishes encoding before its predecessors.
    TimePs last_send_start = 0;
    TimePs dma_durable_max = 0;   ///< storage fence horizon
    TimePs last_activity = 0;
    bool ch_issued = false;
    std::optional<net::Packet> completion_pkt;  ///< held until all PHs done
    TimePs completion_ready = 0;
  };

  /// Run one handler invocation: functional execution + timeline replay.
  /// Returns the handler end time.
  TimePs run_handler(spin::HandlerType type, const spin::Handler& handler,
                     const net::Packet& pkt, MsgState& msg, TimePs ready);

  /// Replay a recorded context timeline starting at `start`; returns the
  /// end time.
  TimePs replay(spin::HandlerCtx& ctx, MsgState& msg, TimePs start);

  /// Acquire an egress command-queue slot for a send ready at `want`.
  TimePs egress_accept(TimePs want);

  void maybe_run_completion(const spin::MessageKey& key, MsgState& msg);
  void arm_cleanup(const spin::MessageKey& key);
  void run_cleanup(const spin::MessageKey& key);

  sim::Simulator& sim_;
  PsPinConfig config_;
  spin::NicServices* nic_ = nullptr;
  std::optional<spin::ExecutionContext> ctx_;

  // Shared ingress resources.
  sim::FifoServer pkt_buffer_dma_;
  sim::FifoServer scheduler_;
  std::vector<std::unique_ptr<sim::FifoServer>> l1_dma_;  // per cluster
  std::vector<std::vector<TimePs>> hpu_free_;             // per cluster, per HPU

  EgressSlots egress_;  // bounded egress command queue

  std::unordered_map<spin::MessageKey, MsgState, spin::MessageKeyHash> messages_;
  unsigned next_cluster_ = 0;
  std::uint32_t next_flow_slot_ = 0;

  HandlerStats stats_;
  obs::SpanTracer* span_trace_ = nullptr;
  std::uint64_t payload_bytes_done_ = 0;
  TimePs last_handler_end_ = 0;
  std::uint64_t cleanup_runs_ = 0;
  std::uint64_t rejected_packets_ = 0;
};

}  // namespace nadfs::pspin
