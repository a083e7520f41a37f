// DFS wire formats (paper Fig. 3).
//
// A write request is [RDMA hdr | DFS hdr | WRH | data...]; only the first
// packet of a multi-packet write carries the DFS-specific headers, the rest
// are RDMA header + data continuation. A read request is
// [RDMA hdr | DFS hdr | RRH]. The RDMA header is the transport metadata on
// net::Packet; DFS header and WRH/RRH are serialized into the first
// packet's payload and parsed by the sPIN handlers (or the storage CPU for
// the baseline protocols, which share this codec).
//
// The WRH carries the resiliency strategy option (§VI-B: replication and EC
// are mutually exclusive per write) followed by the strategy parameters:
// replication strategy + virtual rank + replica coordinates (§V-A), or the
// RS(k,m) scheme, the node's role, its data-chunk index, and the parity
// node coordinates (§VI-B).
#pragma once

#include <cstdint>
#include <vector>

#include "auth/capability.hpp"
#include "common/bytes.hpp"
#include "net/packet.hpp"
#include "net/train.hpp"

namespace nadfs::dfs {

/// DFS data-plane operations. kAppend is a write at a metadata-reserved
/// offset (same WRH, distinct op so semantics and observability can tell
/// the two apart); kTrim tombstones an extent (the data-plane half of a
/// delete); kStat probes an extent's liveness (trimmed extents answer
/// kNotFound).
enum class OpType : std::uint8_t { kWrite = 0, kRead = 1, kAppend = 2, kTrim = 3, kStat = 4 };
enum class Resiliency : std::uint8_t { kNone = 0, kReplication = 1, kErasureCoding = 2 };
enum class ReplStrategy : std::uint8_t { kRing = 0, kPbt = 1 };
enum class EcRole : std::uint8_t { kData = 0, kParity = 1 };

const char* repl_strategy_name(ReplStrategy s);
const char* op_type_name(OpType op);

/// Typed DFS status codes, carried on the wire in control packets (the
/// otherwise-unused raddr field of kAck/kNack) so a client learns *why* an
/// op failed instead of inferring it from ambiguous sentinels. kTimeout,
/// kDegraded and kNoQuorum are client/recovery-side classifications; the
/// rest originate at the serving node.
enum class DfsError : std::uint8_t {
  kOk = 0,
  kNotFound = 1,   ///< extent trimmed / object unknown
  kExists = 2,     ///< create of an existing name
  kBadArg = 3,     ///< malformed parameters (zero-length read, bad policy)
  kDenied = 4,     ///< capability verification failed
  kTableFull = 5,  ///< request table exhausted (paper §III-B.2 denial)
  kTimeout = 6,    ///< client-side deadline expired, retries exhausted
  kDegraded = 7,   ///< served, but from a degraded path
  kNoQuorum = 8,   ///< too few eligible nodes for the requested placement
  kMalformed = 9,  ///< request headers failed to parse
};

const char* dfs_error_name(DfsError e);

/// Does `op` need a kWrite-class capability (mutating) or kRead-class?
bool op_is_mutation(OpType op);

/// Network + storage coordinates of one replica / parity target.
struct Coord {
  net::NodeId node = net::kInvalidNode;
  std::uint64_t addr = 0;

  bool operator==(const Coord&) const = default;
  static constexpr std::size_t kWireBytes = 4 + 8;
};

/// Generic DFS header: request identity + the capability that authenticates
/// it (paper §III-A, §IV).
struct DfsHeader {
  OpType op = OpType::kWrite;
  std::uint64_t greq_id = 0;        ///< globally unique request id
  net::NodeId client_node = net::kInvalidNode;  ///< where acks/data go back
  auth::Capability cap;

  static constexpr std::size_t kWireBytes = 1 + 8 + 4 + auth::Capability::kWireBytes;
  void serialize(ByteWriter& w) const;
  static DfsHeader deserialize(ByteReader& r);
};

/// Write request header.
struct WriteRequestHeader {
  std::uint64_t dest_addr = 0;  ///< storage address at the receiving node
  std::uint64_t total_len = 0;  ///< payload bytes of the whole write
  Resiliency resiliency = Resiliency::kNone;

  // --- replication parameters (resiliency == kReplication) ---
  ReplStrategy strategy = ReplStrategy::kRing;
  std::uint8_t virtual_rank = 0;    ///< this node's position in the broadcast tree
  std::vector<Coord> replicas;      ///< all k replica coordinates, rank order

  // --- erasure coding parameters (resiliency == kErasureCoding) ---
  std::uint8_t ec_k = 0;
  std::uint8_t ec_m = 0;
  EcRole role = EcRole::kData;
  std::uint8_t data_idx = 0;        ///< which data chunk this stream carries
  std::vector<Coord> parity_nodes;  ///< m parity coordinates

  std::size_t wire_bytes() const;
  void serialize(ByteWriter& w) const;
  static WriteRequestHeader deserialize(ByteReader& r);
};

/// Read request header.
struct ReadRequestHeader {
  std::uint64_t src_addr = 0;
  std::uint32_t len = 0;

  static constexpr std::size_t kWireBytes = 8 + 4;
  void serialize(ByteWriter& w) const;
  static ReadRequestHeader deserialize(ByteReader& r);
};

/// Extent op header (kTrim / kStat): a bare [addr, addr+len) range.
struct ExtentRequestHeader {
  std::uint64_t addr = 0;
  std::uint64_t len = 0;

  static constexpr std::size_t kWireBytes = 8 + 8;
  void serialize(ByteWriter& w) const;
  static ExtentRequestHeader deserialize(ByteReader& r);
};

/// Parsed first packet of a request.
struct ParsedRequest {
  DfsHeader dfs;
  WriteRequestHeader wrh;  // valid when dfs.op == kWrite / kAppend
  ReadRequestHeader rrh;   // valid when dfs.op == kRead
  ExtentRequestHeader erh;  // valid when dfs.op == kTrim / kStat
  std::size_t header_bytes = 0;  ///< offset of the data in the first packet
};

ParsedRequest parse_request(ByteSpan first_packet_payload);

/// Build the packet train of a DFS request (Fig. 3): packet 0 carries the
/// DFS header and `op_header` — the WRH of a write or append, the RRH of a
/// read, the extent header of a trim or stat — and the write's `data`
/// follows (net::cut). Each packet's `raddr` carries the byte offset of its
/// payload within the data (handlers add the WRH's dest_addr). msg_id and
/// user_tag are the request's greq_id, so forwarded hops keep globally
/// unique message keys. Requests ride the write path into sPIN.
template <class OpHeader>
std::vector<net::Packet> build_request_packets(net::NodeId src, net::NodeId dst, std::size_t mtu,
                                               const DfsHeader& dfs, const OpHeader& op_header,
                                               ByteSpan data = {}) {
  Bytes head;
  ByteWriter w(head);
  dfs.serialize(w);
  op_header.serialize(w);
  return net::cut(net::packet(src, dst, net::Opcode::kRdmaWrite, dfs.greq_id, dfs.greq_id), head,
                  data, mtu);
}

/// Serialize [DFS header | WRH] — the first-packet header block. Used by
/// forwarding paths (sPIN handlers and the host DFS service) to rewrite a
/// request for the next hop.
Bytes serialize_write_headers(const DfsHeader& dfs, const WriteRequestHeader& wrh);

/// Per-request NIC descriptor footprint (paper §III-B.2: 77 bytes).
inline constexpr std::size_t kReqDescriptorBytes = 77;

}  // namespace nadfs::dfs
