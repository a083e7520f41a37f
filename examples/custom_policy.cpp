// Writing a CUSTOM offloaded policy against the raw sPIN API.
//
// The paper's core argument (§II-B) is that fully programmable SmartNICs
// let *applications* install new per-packet policies without vendor
// firmware or admin rights. This example demonstrates exactly that: a
// user-defined "checksummed store" policy — not part of the DFS library —
// expressed as ~60 lines of header/payload/completion handlers:
//
//   HH: parse a tiny custom header (destination address + length)
//   PH: DMA the payload to storage AND fold it into a running FNV-1a
//       checksum kept in NIC memory (inter-packet state: exactly what
//       P4/eBPF-style offloads cannot express)
//   CH: store the checksum next to the data, ack the client with it
//
//   $ ./build/examples/custom_policy
#include <cstdio>
#include <memory>
#include <unordered_map>

#include "common/rng.hpp"
#include "net/network.hpp"
#include "net/train.hpp"
#include "pspin/device.hpp"
#include "rdma/nic.hpp"
#include "sim/simulator.hpp"
#include "spin/handler.hpp"
#include "storage/target.hpp"

using namespace nadfs;

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

std::uint64_t fnv1a(std::uint64_t h, ByteSpan data) {
  for (const auto b : data) {
    h ^= b;
    h *= kFnvPrime;
  }
  return h;
}

/// NIC-memory state of the policy: one running checksum per live request.
struct ChecksumState {
  struct Entry {
    std::uint64_t dest;
    std::uint64_t hash = kFnvOffset;
  };
  std::unordered_map<std::uint64_t, Entry> live;  // by msg_id
  std::uint64_t writes_checksummed = 0;
};

/// Custom 16-byte request header: [dest:8][len:8], carried in packet 0.
spin::ExecutionContext make_checksum_context(std::shared_ptr<ChecksumState> st) {
  spin::ExecutionContext ctx;
  ctx.state = st;
  ctx.state_bytes = 4096;

  ctx.header_handler = [st](spin::HandlerCtx& c, const net::Packet& pkt) {
    c.charge(40, 70);
    ByteReader r(pkt.data);
    ChecksumState::Entry entry;
    entry.dest = r.get<std::uint64_t>();
    (void)r.get<std::uint64_t>();  // length (unused by this policy)
    st->live[pkt.msg_id] = entry;
  };

  ctx.payload_handler = [st](spin::HandlerCtx& c, const net::Packet& pkt) {
    auto it = st->live.find(pkt.msg_id);
    if (it == st->live.end()) return;
    const std::size_t skip = pkt.first() ? 16 : 0;
    const ByteSpan payload(pkt.data.data() + skip, pkt.data.size() - skip);
    const std::uint64_t off = pkt.first() ? 0 : pkt.raddr;
    c.charge(30, 50);
    c.charge_per_byte(payload.size(), 2, 3);  // the checksum loop
    it->second.hash = fnv1a(it->second.hash, payload);
    c.dma_to_storage(it->second.dest + off, Bytes(payload.begin(), payload.end()));
  };

  ctx.completion_handler = [st](spin::HandlerCtx& c, const net::Packet& pkt) {
    auto it = st->live.find(pkt.msg_id);
    if (it == st->live.end()) return;
    c.charge(50, 80);
    // Persist the checksum right after the data, flush, ack with the hash.
    Bytes sum;
    ByteWriter w(sum);
    w.put(it->second.hash);
    c.dma_to_storage(it->second.dest - 8, std::move(sum));
    c.storage_fence();
    // The checksum rides back in the ack's tag.
    c.send(net::packet(c.self(), pkt.src, net::Opcode::kAck, pkt.msg_id, it->second.hash));
    ++st->writes_checksummed;
    st->live.erase(it);
  };

  ctx.cleanup_handler = [st](spin::HandlerCtx& c, const spin::MessageKey& key) {
    c.charge(20, 40);
    st->live.erase(key.msg_id);
  };
  return ctx;
}

}  // namespace

int main() {
  sim::Simulator sim;
  net::Network network(sim);
  storage::Target server_mem(sim), client_mem(sim);
  rdma::Nic server(sim, network, server_mem);
  rdma::Nic client(sim, network, client_mem);
  pspin::PsPinDevice pspin(sim);
  server.attach_pspin(pspin);

  auto state = std::make_shared<ChecksumState>();
  pspin.install(make_checksum_context(state));
  std::printf("custom checksummed-store policy installed on node %u's NIC\n", server.id());

  // Client: the custom wire format is the custom header in packet 0, then
  // the data; net::cut numbers the train and gives each packet its data
  // offset in raddr.
  Rng rng(7);
  Bytes data(50000);
  for (auto& b : data) b = rng.next_byte();
  const std::uint64_t dest = 0x10000;

  Bytes first;
  ByteWriter w(first);
  w.put(dest);
  w.put<std::uint64_t>(data.size());
  auto pkts = net::cut(net::packet(client.id(), server.id(), net::Opcode::kRdmaWrite, 1, 0),
                       first, data, network.mtu());

  std::uint64_t acked_hash = 0;
  TimePs done = 0;
  client.set_control_handler([&](const net::Packet& pkt, TimePs at) {
    acked_hash = pkt.user_tag;
    done = at;
  });
  client.post_message(std::move(pkts));
  sim.run();

  const std::uint64_t expected = fnv1a(kFnvOffset, data);
  const auto stored = server_mem.read(dest, data.size());
  const Bytes hash_bytes = server_mem.read(dest - 8, 8);
  ByteReader sr(hash_bytes);
  const auto stored_hash = sr.get<std::uint64_t>();

  std::printf("write of %s completed in %s\n", format_size(data.size()).c_str(),
              format_time(done).c_str());
  std::printf("data stored:          %s\n", stored == data ? "verified" : "MISMATCH");
  std::printf("checksum in ack:      %016llx (%s)\n",
              static_cast<unsigned long long>(acked_hash),
              acked_hash == expected ? "matches host computation" : "MISMATCH");
  std::printf("checksum on storage:  %016llx (%s)\n",
              static_cast<unsigned long long>(stored_hash),
              stored_hash == expected ? "matches" : "MISMATCH");
  std::printf("\nA per-packet stateful policy in ~60 lines of user code, installed\n"
              "without touching NIC firmware — the flexibility/user-level argument\n"
              "of the paper's Section II-B.\n");
  return stored == data && acked_hash == expected && stored_hash == expected ? 0 : 1;
}
