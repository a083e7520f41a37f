#include "dfs/wire.hpp"

#include <stdexcept>

namespace nadfs::dfs {

const char* repl_strategy_name(ReplStrategy s) {
  switch (s) {
    case ReplStrategy::kRing: return "ring";
    case ReplStrategy::kPbt: return "pbt";
  }
  return "?";
}

const char* op_type_name(OpType op) {
  switch (op) {
    case OpType::kWrite: return "write";
    case OpType::kRead: return "read";
    case OpType::kAppend: return "append";
    case OpType::kTrim: return "trim";
    case OpType::kStat: return "stat";
  }
  return "?";
}

const char* dfs_error_name(DfsError e) {
  switch (e) {
    case DfsError::kOk: return "ok";
    case DfsError::kNotFound: return "not_found";
    case DfsError::kExists: return "exists";
    case DfsError::kBadArg: return "bad_arg";
    case DfsError::kDenied: return "denied";
    case DfsError::kTableFull: return "table_full";
    case DfsError::kTimeout: return "timeout";
    case DfsError::kDegraded: return "degraded";
    case DfsError::kNoQuorum: return "no_quorum";
    case DfsError::kMalformed: return "malformed";
  }
  return "?";
}

bool op_is_mutation(OpType op) {
  switch (op) {
    case OpType::kWrite:
    case OpType::kAppend:
    case OpType::kTrim:
      return true;
    case OpType::kRead:
    case OpType::kStat:
      return false;
  }
  return true;
}

void DfsHeader::serialize(ByteWriter& w) const {
  w.put(static_cast<std::uint8_t>(op));
  w.put(greq_id);
  w.put(client_node);
  cap.serialize(w);
}

DfsHeader DfsHeader::deserialize(ByteReader& r) {
  DfsHeader h;
  h.op = static_cast<OpType>(r.get<std::uint8_t>());
  h.greq_id = r.get<std::uint64_t>();
  h.client_node = r.get<net::NodeId>();
  h.cap = auth::Capability::deserialize(r);
  return h;
}

std::size_t WriteRequestHeader::wire_bytes() const {
  std::size_t n = 8 + 8 + 1;  // dest, len, resiliency
  switch (resiliency) {
    case Resiliency::kNone:
      break;
    case Resiliency::kReplication:
      n += 1 + 1 + 1 + replicas.size() * Coord::kWireBytes;  // strategy, rank, count
      break;
    case Resiliency::kErasureCoding:
      n += 1 + 1 + 1 + 1 + 1 + parity_nodes.size() * Coord::kWireBytes;
      break;
  }
  return n;
}

namespace {
void put_coords(ByteWriter& w, const std::vector<Coord>& coords) {
  w.put(static_cast<std::uint8_t>(coords.size()));
  for (const auto& c : coords) {
    w.put(c.node);
    w.put(c.addr);
  }
}

std::vector<Coord> get_coords(ByteReader& r) {
  const auto n = r.get<std::uint8_t>();
  std::vector<Coord> coords(n);
  for (auto& c : coords) {
    c.node = r.get<net::NodeId>();
    c.addr = r.get<std::uint64_t>();
  }
  return coords;
}

/// Read an enum byte, rejecting values past `last` like a truncated header.
template <class Enum>
Enum get_enum(ByteReader& r, Enum last) {
  const auto v = r.get<std::uint8_t>();
  if (v > static_cast<std::uint8_t>(last)) throw std::out_of_range("WRH: unknown enum value");
  return static_cast<Enum>(v);
}
}  // namespace

void WriteRequestHeader::serialize(ByteWriter& w) const {
  w.put(dest_addr);
  w.put(total_len);
  w.put(static_cast<std::uint8_t>(resiliency));
  switch (resiliency) {
    case Resiliency::kNone:
      break;
    case Resiliency::kReplication:
      w.put(static_cast<std::uint8_t>(strategy));
      w.put(virtual_rank);
      put_coords(w, replicas);
      break;
    case Resiliency::kErasureCoding:
      w.put(ec_k);
      w.put(ec_m);
      w.put(static_cast<std::uint8_t>(role));
      w.put(data_idx);
      put_coords(w, parity_nodes);
      break;
  }
}

WriteRequestHeader WriteRequestHeader::deserialize(ByteReader& r) {
  WriteRequestHeader h;
  h.dest_addr = r.get<std::uint64_t>();
  h.total_len = r.get<std::uint64_t>();
  h.resiliency = get_enum(r, Resiliency::kErasureCoding);
  switch (h.resiliency) {
    case Resiliency::kNone:
      break;
    case Resiliency::kReplication:
      h.strategy = get_enum(r, ReplStrategy::kPbt);
      h.virtual_rank = r.get<std::uint8_t>();
      h.replicas = get_coords(r);
      break;
    case Resiliency::kErasureCoding:
      h.ec_k = r.get<std::uint8_t>();
      h.ec_m = r.get<std::uint8_t>();
      h.role = get_enum(r, EcRole::kParity);
      h.data_idx = r.get<std::uint8_t>();
      h.parity_nodes = get_coords(r);
      // Only a valid RS(k, m) stream with its m parity coordinates gets
      // past the parser: the codec and the parity fan-out trust these.
      if (h.ec_k == 0 || h.ec_m == 0 || h.ec_k + h.ec_m > 256 || h.data_idx >= h.ec_k ||
          h.parity_nodes.size() != h.ec_m) {
        throw std::out_of_range("WRH: invalid erasure-coding parameters");
      }
      break;
  }
  return h;
}

void ReadRequestHeader::serialize(ByteWriter& w) const {
  w.put(src_addr);
  w.put(len);
}

ReadRequestHeader ReadRequestHeader::deserialize(ByteReader& r) {
  ReadRequestHeader h;
  h.src_addr = r.get<std::uint64_t>();
  h.len = r.get<std::uint32_t>();
  return h;
}

void ExtentRequestHeader::serialize(ByteWriter& w) const {
  w.put(addr);
  w.put(len);
}

ExtentRequestHeader ExtentRequestHeader::deserialize(ByteReader& r) {
  ExtentRequestHeader h;
  h.addr = r.get<std::uint64_t>();
  h.len = r.get<std::uint64_t>();
  return h;
}

Bytes serialize_write_headers(const DfsHeader& dfs, const WriteRequestHeader& wrh) {
  Bytes out;
  ByteWriter w(out);
  dfs.serialize(w);
  wrh.serialize(w);
  return out;
}

ParsedRequest parse_request(ByteSpan first_packet_payload) {
  ByteReader r(first_packet_payload);
  ParsedRequest out;
  out.dfs = DfsHeader::deserialize(r);
  switch (out.dfs.op) {
    case OpType::kWrite:
    case OpType::kAppend:
      out.wrh = WriteRequestHeader::deserialize(r);
      break;
    case OpType::kRead:
      out.rrh = ReadRequestHeader::deserialize(r);
      break;
    case OpType::kTrim:
    case OpType::kStat:
      out.erh = ExtentRequestHeader::deserialize(r);
      break;
    default:
      // Unknown op byte: treated like any other malformed header.
      throw std::out_of_range("parse_request: unknown op");
  }
  out.header_bytes = r.position();
  return out;
}

}  // namespace nadfs::dfs
