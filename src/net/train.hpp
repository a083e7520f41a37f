// How a message becomes a train of packets, and back (paper Fig. 3).
//
// A message is [head | data]. Packet 0 carries the head (for a DFS request,
// its DFS header and request header) followed by as much data as fits the
// MTU; every later packet carries the next MTU of data. Each packet's raddr
// is the message's base address plus the offset of its data, so a receiver
// places any packet without the ones before it. Senders cut with cut()
// from a prototype that packet() builds, readers size their expectations
// with packet_count(), and the host path joins a message back together
// with Reassembly. A control message (an ack, nack or transport ack) is
// one packet() on its own.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/bytes.hpp"
#include "net/arrivals.hpp"
#include "net/packet.hpp"

namespace nadfs::net {

/// A payload-less packet: the prototype cut() copies into every packet of
/// a train, or a whole control message (kAck, kNack, kTransportAck)
/// answering `user_tag`. A control message carries its code in the
/// otherwise unused raddr: a NACK's typed dfs::DfsError (0: unspecified).
inline Packet packet(NodeId src, NodeId dst, Opcode opcode, std::uint64_t msg_id,
                     std::uint64_t user_tag, std::uint64_t raddr = 0, std::uint32_t rkey = 0) {
  Packet p;
  p.src = src;
  p.dst = dst;
  p.opcode = opcode;
  p.msg_id = msg_id;
  p.raddr = raddr;
  p.rkey = rkey;
  p.user_tag = user_tag;
  return p;
}

/// Packets in the train of a message of `head` header bytes (head < mtu)
/// and `data` data bytes. An empty message is one packet.
std::uint32_t packet_count(std::size_t data, std::size_t mtu, std::size_t head = 0);

/// Cut [head | data] into a train of copies of `proto` (which carries no
/// payload): seq and pkt_count numbered, packet 0 carrying `head`, and each
/// packet's raddr proto.raddr plus the offset of its data. Every data byte
/// is copied once, into its packet. Throws std::length_error when `head`
/// leaves no room for data in packet 0.
std::vector<Packet> cut(const Packet& proto, ByteSpan head, ByteSpan data, std::size_t mtu);

/// One message reassembled in host memory: net::Arrivals admission, and
/// each admitted packet's payload kept with its seq until join(). It holds
/// what arrived, never a slot per declared packet, so a forged packet count
/// reserves nothing beyond SeqSet::kInlineSeqs parts.
class Reassembly {
 public:
  /// Admit `pkt` (Arrivals::admit) and take its payload. A rejected packet
  /// changes nothing and keeps its payload.
  bool admit(Packet& pkt);
  std::uint32_t arrived() const { return arrivals_.arrived(); }
  bool complete() const { return arrivals_.complete(); }
  /// Payload bytes held.
  std::size_t bytes() const { return bytes_; }
  /// The held payloads joined in seq order.
  Bytes join() const;

 private:
  struct Part {
    std::uint32_t seq;
    Bytes data;
  };
  Arrivals arrivals_;
  std::vector<Part> parts_;  ///< sorted by seq
  std::size_t bytes_ = 0;
};

}  // namespace nadfs::net
