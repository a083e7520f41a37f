// sPIN handler programming interface and the record-then-replay cost model.
//
// Handlers are C++ callables standing in for the PULP-GCC-compiled RISC-V
// kernels of the paper. A handler runs *functionally* at dispatch time
// (moving real bytes, verifying real MACs, computing real parities) against
// a HandlerCtx that (a) charges instruction/cycle costs calibrated to the
// paper's Tables I-II and (b) records NIC commands (sends, DMAs, fences,
// host notifications) tagged with the cycle offset at which they were
// issued. The PsPIN device then replays the recorded timeline against the
// simulated shared resources (HPU occupancy, bounded egress command queue,
// PCIe DMA engine), which is where stalls — and the paper's headline IPC
// collapse for sPIN-PBT — come from. The replay follows the run directly,
// so the commands move each byte once: a storage DMA borrows its source
// (the packet, as PsPIN handlers get pointers into the packet buffer),
// and a scatter-gather send's payload is what the replay reads from
// storage.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/bytes.hpp"
#include "net/packet.hpp"

namespace nadfs::spin {

enum class HandlerType : std::uint8_t { kHeader = 0, kPayload = 1, kCompletion = 2 };

const char* handler_type_name(HandlerType t);

/// Identifies a message (request) stream: packets with equal keys belong to
/// the same message and share HH/PH/CH ordering guarantees.
struct MessageKey {
  net::NodeId src = net::kInvalidNode;
  std::uint64_t msg_id = 0;

  bool operator==(const MessageKey&) const = default;
};

struct MessageKeyHash {
  std::size_t operator()(const MessageKey& k) const {
    return std::hash<std::uint64_t>()((static_cast<std::uint64_t>(k.src) << 48) ^ k.msg_id);
  }
};

class HandlerCtx {
 public:
  /// A recorded NIC command, tagged with the charged cycles at its issue.
  struct Cmd {
    enum class Kind : std::uint8_t { kSend, kSendFromStorage, kDma, kTrim, kFence, kNotify };
    Kind kind = Kind::kSend;
    std::uint64_t cycle_offset = 0;  ///< charged cycles when the command issued
    net::Packet pkt;                 // kSend / kSendFromStorage
    std::uint64_t addr = 0;          // kSendFromStorage / kDma / kTrim
    std::size_t len = 0;             // kSendFromStorage / kTrim
    ByteSpan data;                   // kDma: the bytes to write, borrowed or in `owned`
    Bytes owned;                     // kDma: backs `data` when the handler gave its bytes up
    std::uint64_t code = 0;          // kNotify
    std::uint64_t arg = 0;           // kNotify
  };

  /// `commands` is an empty buffer the context records into; a device
  /// lends its own so that no handler run grows a new one, and takes it
  /// back with take_commands() after the replay.
  HandlerCtx(net::NodeId self, std::uint64_t now_ps, std::uint32_t flow_slot,
             std::vector<Cmd> commands = {})
      : self_(self), now_ps_(now_ps), flow_slot_(flow_slot), cmds_(std::move(commands)) {}

  // ---- cost charging -------------------------------------------------
  /// Charge `instr` executed instructions taking `cycles` HPU cycles
  /// (1 cycle == 1 ns at the 1 GHz PsPIN clock).
  void charge(std::uint32_t instr, std::uint32_t cycles) {
    instr_ += instr;
    cycles_ += cycles;
  }

  /// Charge a byte-granularity loop (the EC encode/aggregate inner loops).
  void charge_per_byte(std::size_t bytes, std::uint32_t instr_per_byte,
                       std::uint32_t cycles_per_byte) {
    instr_ += static_cast<std::uint64_t>(bytes) * instr_per_byte;
    cycles_ += static_cast<std::uint64_t>(bytes) * cycles_per_byte;
  }

  // ---- NIC commands (recorded at the current cycle offset) ------------
  /// Send a packet out of the NIC (replication forwards, intermediate
  /// parities, acks). Stalls the HPU at replay time if the egress command
  /// queue is full.
  void send(net::Packet pkt);

  /// Write `data` to the storage target at `addr` via the NIC DMA engine.
  /// The DMA reads `data` at replay, so it borrows it: `data` must stay
  /// valid until this handler's replay. The packet being handled does
  /// (a payload handler DMAs straight from the NIC packet buffer, as in
  /// PsPIN); a buffer the handler is about to reuse or free does not.
  void dma_to_storage(std::uint64_t addr, ByteSpan data);

  /// Owning form, for bytes the handler hands over (an accumulator's
  /// committed parity): the command keeps them alive until the replay.
  void dma_to_storage(std::uint64_t addr, Bytes&& data);

  /// Block (at replay) until every storage DMA issued so far *for this
  /// message* is durable — the explicit-flush persistence guarantee of
  /// §III-B.1 that RDMA-based DFSs lack.
  void storage_fence();

  /// Scatter-gather send: post a send whose payload the NIC gathers from
  /// the storage target at transmit time ([addr, addr+len)). The HPU only
  /// pays the descriptor post; the DMA pipelines with the wire — this is
  /// how the offloaded read path streams large extents at line rate.
  /// `pkt` must arrive with an empty payload: the bytes the gather reads
  /// at replay become it, so storage is read once per packet.
  void send_from_storage(net::Packet pkt, std::uint64_t addr, std::size_t len);

  /// Tombstone [addr, addr+len) on the storage target (DFS delete data
  /// plane). Durability is folded into the message's DMA fence like a
  /// storage write, so a trim-then-ack CH keeps the §III-B.1 guarantee.
  void trim_storage(std::uint64_t addr, std::uint64_t len);

  /// Functional liveness probe (zero cost beyond the charged instructions):
  /// true when any byte of [addr, addr+len) is tombstoned.
  bool storage_trimmed(std::uint64_t addr, std::uint64_t len);

  /// Raise an event on the host software's event queue (§III-C).
  void notify_host(std::uint64_t code, std::uint64_t arg);

  // ---- environment -----------------------------------------------------
  net::NodeId self() const { return self_; }
  /// Dispatch wall-clock (used for capability-expiry checks).
  std::uint64_t now_ps() const { return now_ps_; }
  /// Index of this message's request-table slot (task->flow_id in Listing 1).
  std::uint32_t flow_slot() const { return flow_slot_; }

  // ---- recorded results (consumed by the PsPIN device) -----------------
  /// Installed by the device before the functional run: backs storage_trimmed.
  void set_storage_prober(std::function<bool(std::uint64_t, std::uint64_t)> fn) {
    storage_prober_ = std::move(fn);
  }

  std::uint64_t instr() const { return instr_; }
  std::uint64_t cycles() const { return cycles_; }
  const std::vector<Cmd>& commands() const { return cmds_; }
  std::vector<Cmd>& commands() { return cmds_; }
  /// Hand the command buffer back, emptied but with its capacity.
  std::vector<Cmd> take_commands() {
    cmds_.clear();
    return std::move(cmds_);
  }

 private:
  Cmd& record(Cmd::Kind kind);

  net::NodeId self_;
  std::uint64_t now_ps_;
  std::uint32_t flow_slot_;
  std::uint64_t instr_ = 0;
  std::uint64_t cycles_ = 0;
  std::vector<Cmd> cmds_;
  std::function<bool(std::uint64_t, std::uint64_t)> storage_prober_;
};

/// A packet handler: Listing 1's header_handler / payload_handler /
/// tail_handler signatures collapse to this.
using Handler = std::function<void(HandlerCtx&, const net::Packet&)>;

/// Cleanup handler, run when a message goes inactive before its completion
/// packet arrives (client failure, §VII "What happens if a client fails?").
using CleanupHandler = std::function<void(HandlerCtx&, const MessageKey&)>;

/// An execution context: the unit of offload installation (paper §III-C).
/// Matches incoming RDMA packets and names the handlers plus the NIC-memory
/// state they share. State lives behind a shared_ptr as the functional
/// stand-in for the NIC-memory region; its size is accounted against the
/// device's L1/L2 capacity at install time.
struct ExecutionContext {
  Handler header_handler;
  Handler payload_handler;
  Handler completion_handler;
  CleanupHandler cleanup_handler;
  std::shared_ptr<void> state;
  std::size_t state_bytes = 0;
};

}  // namespace nadfs::spin
