// DFS NIC-resident state: the functional stand-in for the memory region an
// execution context owns on the SmartNIC (paper §III-C).
//
// Budget (paper §III-B.2): of the 8 MiB of PsPIN memory (4x1 MiB L1 +
// 4 MiB L2), 6 MiB hold the request table (77 B descriptors -> ~82 K
// concurrent writes) and 2 MiB hold DFS-wide state: the 64 KiB GF(2^8)
// multiplication table, the parity accumulator pool, and the shared key.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "auth/capability.hpp"
#include "common/units.hpp"
#include "dfs/req_table.hpp"
#include "dfs/wire.hpp"
#include "ec/gf256.hpp"
#include "ec/reed_solomon.hpp"
#include "obs/metrics.hpp"
#include "spin/handler.hpp"

namespace nadfs::dfs {

struct DfsConfig {
  auth::Key128 key{};                       ///< shared among DFS services
  std::size_t req_table_bytes = 6 * MiB;    ///< descriptor area
  std::size_t accumulator_pool_bytes = 1 * MiB;
  bool validate_requests = true;            ///< false: trusted-client threat model
};

/// Host event codes raised by the handlers (paper §III-C event queues).
enum HostEvent : std::uint64_t {
  kEvAuthFailure = 1,
  kEvTableFull = 2,
  kEvCleanup = 3,
  kEvAccumulatorFallback = 4,
};

/// Per-request descriptor contents (the functional view of the 77-byte
/// req_table entry of Listing 1, plus what our C++ handlers keep behind it).
struct ReqEntry {
  bool accept = false;
  std::uint32_t slot = 0;
  std::uint64_t greq_id = 0;
  net::NodeId client = net::kInvalidNode;
  OpType op = OpType::kWrite;
  std::uint64_t dest_addr = 0;
  std::uint64_t total_len = 0;
  std::size_t header_bytes = 0;  ///< DFS header bytes in the first packet
  Resiliency resiliency = Resiliency::kNone;
  /// A payload packet fell outside [0, total_len) and was dropped; the CH
  /// NACKs kMalformed instead of acking.
  bool malformed = false;

  /// coord_array of §V-A: the children this node forwards to, with the
  /// rewritten first-packet headers prepared by the HH.
  struct Child {
    Coord coord;
    Bytes first_headers;  ///< serialized DFS hdr + rewritten WRH
  };
  std::vector<Child> children;

  // Erasure coding.
  std::uint8_t ec_k = 0;
  std::uint8_t ec_m = 0;
  EcRole role = EcRole::kData;
  std::uint8_t data_idx = 0;
  std::vector<Coord> parity_nodes;
  std::vector<Bytes> parity_first_headers;  ///< per parity node

  // Reads.
  ReadRequestHeader rrh;

  // Extent ops (trim / stat).
  ExtentRequestHeader erh;
};

struct DfsState {
  /// GF table + accumulator pool + misc: the DFS-wide area of §III-B.2.
  static constexpr std::size_t kDfsWideBytes = 2 * MiB;

  DfsState(DfsConfig config, std::size_t network_mtu)
      : cfg(config),
        mtu(network_mtu),
        authority(config.key),
        table(config.req_table_bytes),
        pool(config.accumulator_pool_bytes, network_mtu) {}

  DfsConfig cfg;
  /// The node's network MTU: the size of a parity accumulator and of each
  /// read-response packet.
  std::size_t mtu;
  auth::CapabilityAuthority authority;
  ReqTable table;

  /// Live request descriptors, keyed by the message that created them.
  std::unordered_map<spin::MessageKey, ReqEntry, spin::MessageKeyHash> requests;
  /// Requests denied at HH time (no slot / bad capability): payload and
  /// completion packets of these messages are dropped.
  std::unordered_set<spin::MessageKey, spin::MessageKeyHash> denied;

  // ---- erasure coding aggregation (paper §VI-B.3) ----
  AccumulatorPool pool;
  struct AggKey {
    std::uint64_t greq = 0;
    std::uint32_t seq = 0;
    bool operator==(const AggKey&) const = default;
  };
  struct AggKeyHash {
    std::size_t operator()(const AggKey& k) const {
      return std::hash<std::uint64_t>()(k.greq * 0x9E3779B97F4A7C15ull + k.seq);
    }
  };
  struct AggEntry {
    std::uint32_t acc = 0;       ///< accumulator index
    std::uint8_t contributions = 0;
    bool fallback = false;       ///< pool was empty: host aggregates
    TimePs last = 0;             ///< last contribution time (GC TTL anchor)
  };
  std::unordered_map<AggKey, AggEntry, AggKeyHash> agg;
  /// Fallback aggregation buffers living in host memory (pool exhausted):
  /// the host software XORs contributions the handlers bounce to it.
  std::unordered_map<AggKey, Bytes, AggKeyHash> host_agg;
  /// Completed intermediate-parity messages per greq (parity role): the ack
  /// goes out when all ec_k streams finished. `last` anchors the GC TTL.
  struct ParityProgress {
    std::uint32_t done = 0;
    TimePs last = 0;
  };
  std::unordered_map<std::uint64_t, ParityProgress> parity_msgs_done;

  /// RS codec cache by (k << 8 | m).
  const ec::ReedSolomon& codec(unsigned k, unsigned m) {
    auto& slot = codecs_[(k << 8) | m];
    if (!slot) slot = std::make_unique<ec::ReedSolomon>(k, m);
    return *slot;
  }

  // ---- counters surfaced to tests/benches ----
  // obs::Counter cells: increment/read like the raw uint64s they replaced;
  // bind_metrics exposes them through the registry.
  obs::Counter auth_failures;   ///< capability verification failed (MAC/expiry)
  /// Requests whose headers failed to parse (e.g. corrupted on the wire),
  /// or whose payload reached past the verified extent (NACKed kMalformed).
  /// Disjoint from auth_failures: a request books at most one of the two.
  obs::Counter malformed_requests;
  obs::Counter table_denials;
  obs::Counter acks_sent;
  obs::Counter nacks_sent;
  obs::Counter cleanups;
  obs::Counter agg_fallbacks;
  /// Aggregation-state entries reaped by gc() (wedged-stream reaper).
  obs::Counter reaped_requests;

  /// NIC memory the execution context declares at install time.
  std::size_t state_bytes() const { return cfg.req_table_bytes + kDfsWideBytes; }

  /// Storage-side TTL reaper (ROADMAP follow-up: state wedged by mid-chain
  /// drops). Device-level cleanup (PsPinDevice + cleanup_handler) reaps
  /// `requests` entries because it owns their table slots; what it cannot
  /// see is *cross-message* aggregation state on parity nodes — when a
  /// data node dies mid-chain, fewer than ec_k streams contribute, and the
  /// per-seq accumulators (pool slots!), host fallback buffers and the
  /// per-greq stream progress stay wedged forever. gc() drops every such
  /// entry untouched for `ttl`, releasing pool accumulators, and returns
  /// the number of entries reaped (also accumulated in reaped_requests).
  std::uint64_t gc(TimePs now, TimePs ttl) {
    std::uint64_t reaped = 0;
    // Collect keys first and erase in sorted order so the reap sequence
    // (and thus the pool free-list order) never depends on hash iteration.
    std::vector<AggKey> stale;
    for (const auto& [key, entry] : agg) {
      if (entry.last + ttl <= now) stale.push_back(key);
    }
    std::sort(stale.begin(), stale.end(), [](const AggKey& a, const AggKey& b) {
      return a.greq != b.greq ? a.greq < b.greq : a.seq < b.seq;
    });
    for (const AggKey& key : stale) {
      auto it = agg.find(key);
      if (it->second.fallback) {
        host_agg.erase(key);
      } else {
        pool.release(it->second.acc);
      }
      agg.erase(it);
      ++reaped;
    }
    std::vector<std::uint64_t> stale_greqs;
    for (const auto& [greq, prog] : parity_msgs_done) {
      if (prog.last + ttl <= now) stale_greqs.push_back(greq);
    }
    std::sort(stale_greqs.begin(), stale_greqs.end());
    for (std::uint64_t greq : stale_greqs) {
      parity_msgs_done.erase(greq);
      ++reaped;
    }
    reaped_requests += reaped;
    return reaped;
  }

  /// Register the DFS counters and table/pool occupancy gauges under
  /// `prefix` ("node3.dfs").
  void bind_metrics(obs::MetricRegistry& reg, const std::string& prefix) {
    reg.counter(prefix + ".auth_failures", auth_failures);
    reg.counter(prefix + ".malformed_requests", malformed_requests);
    reg.counter(prefix + ".table_denials", table_denials);
    reg.counter(prefix + ".acks_sent", acks_sent);
    reg.counter(prefix + ".nacks_sent", nacks_sent);
    reg.counter(prefix + ".cleanups", cleanups);
    reg.counter(prefix + ".agg_fallbacks", agg_fallbacks);
    reg.counter(prefix + ".reaped_requests", reaped_requests);
    reg.gauge(prefix + ".table_in_use", [this] { return static_cast<long long>(table.in_use()); });
    reg.gauge(prefix + ".table_high_water",
              [this] { return static_cast<long long>(table.high_water()); });
    reg.gauge(prefix + ".pool_in_use", [this] { return static_cast<long long>(pool.in_use()); });
    reg.gauge(prefix + ".live_requests",
              [this] { return static_cast<long long>(requests.size()); });
    reg.gauge(prefix + ".agg_entries", [this] { return static_cast<long long>(agg.size()); });
  }

 private:
  std::unordered_map<unsigned, std::unique_ptr<ec::ReedSolomon>> codecs_;
};

}  // namespace nadfs::dfs
