// Services the hosting NIC exposes to the on-NIC packet processor.
//
// PsPIN sits inside a NIC (the paper couples it to an RDMA-capable NIC);
// its handlers need three external capabilities: inject packets on the
// egress port, DMA data across PCIe to the storage target, and raise events
// on the host software's queues. This interface breaks the dependency cycle
// between the pspin device model and the rdma NIC model.
#pragma once

#include <cstdint>

#include "common/bytes.hpp"
#include "net/packet.hpp"
#include "sim/resource.hpp"

namespace nadfs::spin {

class NicServices {
 public:
  virtual ~NicServices() = default;

  /// Serialize `pkt` on the egress port no earlier than `ready`. Returns the
  /// serialization window: `start` is when the egress engine picks the
  /// command up (frees its command-queue slot), `end` when the wire is free.
  virtual sim::Window egress_send(net::Packet pkt, TimePs ready) = 0;

  /// DMA `data` to the storage target at `addr`, starting no earlier than
  /// `ready`. Returns the time the data is durable (post PCIe + media).
  /// The bytes land before the call returns; `data` is not kept.
  virtual TimePs dma_to_storage(std::uint64_t addr, ByteSpan data, TimePs ready) = 0;

  /// Read `len` bytes from the storage target across PCIe, starting no
  /// earlier than `ready`. Returns the data and the completion time.
  virtual std::pair<Bytes, TimePs> dma_from_storage(std::uint64_t addr, std::size_t len,
                                                    TimePs ready) = 0;

  /// Tombstone [addr, addr+len) on the storage target (DFS delete data
  /// plane), starting no earlier than `ready`; returns the durable time.
  /// Default no-op so NIC stand-ins without a trim-capable target compile.
  virtual TimePs trim_storage(std::uint64_t addr, std::uint64_t len, TimePs ready) {
    (void)addr, (void)len;
    return ready;
  }

  /// Functional (zero-time) liveness probe: true when any byte of the range
  /// is tombstoned. Backs the handlers' record-phase stat/read checks.
  virtual bool storage_trimmed(std::uint64_t addr, std::uint64_t len) {
    (void)addr, (void)len;
    return false;
  }

  /// Post an event on the host event queue (error conditions, logging,
  /// cleanup notifications — paper §III-C) at time `when`.
  virtual void notify_host(std::uint64_t code, std::uint64_t arg, TimePs when) = 0;

  virtual net::NodeId node_id() const = 0;
};

}  // namespace nadfs::spin
