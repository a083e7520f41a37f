// DFS client endpoint (the paper's "client": DFS library at a compute node).
//
// Implements the sPIN-path data-plane operations of Fig. 2: after fetching
// a layout and a capability from the control plane, the client builds
// DFS-formatted RDMA writes (Fig. 3) and fires them at the storage nodes in
// a single one-sided operation; the storage-side policies run on the NICs.
// Completion is DFS-level: the client counts the acks the completion
// handlers send (one per replica for replication; one per data node and one
// per parity node for EC) and fails fast on a NACK.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "services/cluster.hpp"

namespace nadfs::services {

using DoneCb = std::function<void(bool ok, TimePs at)>;
/// Typed completion: kOk on success, the NACK's wire error or kTimeout on
/// failure. DfsError is a scoped enum (no bool conversion), so DoneCb and
/// OpCb overloads resolve unambiguously for lambdas.
using OpCb = std::function<void(dfs::DfsError err, TimePs at)>;
/// Typed read completion: data is meaningful only when err == kOk.
using ReadCb = std::function<void(dfs::DfsError err, Bytes data, TimePs at)>;

/// Counts DFS-level acks per request tag; a NACK fails the request with the
/// typed error it carries (wire.hpp DfsError in the control packet's raddr).
class AckTracker {
 public:
  /// Route the NIC's control packets (kAck/kNack) into this tracker.
  void install(rdma::Nic& nic);

  /// Register a pending op. Re-expecting a tag that is still pending is a
  /// hard error (std::logic_error): the old op's callback would be silently
  /// orphaned — exactly the hazard once timeout-retries re-arm tags. Use
  /// replace() when superseding is intended.
  void expect(std::uint64_t tag, unsigned acks_needed, OpCb cb);
  void expect(std::uint64_t tag, unsigned acks_needed, DoneCb cb);

  /// Like expect(), but an existing pending op for `tag` is dropped (its
  /// callback never fires) and counted in replaced_ops().
  void replace(std::uint64_t tag, unsigned acks_needed, OpCb cb);
  void replace(std::uint64_t tag, unsigned acks_needed, DoneCb cb);

  bool pending(std::uint64_t tag) const { return ops_.count(tag) != 0; }
  std::size_t pending_count() const { return ops_.size(); }

  /// Drop a pending op silently; its callback never fires.
  void cancel(std::uint64_t tag);

  /// Remove a pending op and hand back its callback — the timeout path:
  /// the caller decides whether that means retry or failure.
  std::optional<OpCb> take(std::uint64_t tag);

  /// Acks (resp. nacks) that arrived for tags no longer pending — the op
  /// was cancelled by a timeout or already completed. Expected once
  /// deadlines cancel ops, but no longer invisible.
  std::uint64_t late_acks() const { return late_acks_; }
  std::uint64_t stray_nacks() const { return stray_nacks_; }
  std::uint64_t replaced_ops() const { return replaced_ops_; }

 private:
  struct Op {
    unsigned needed;
    unsigned got = 0;
    OpCb cb;
  };
  friend class Client;  // bind_metrics registers the counter cells

  std::unordered_map<std::uint64_t, Op> ops_;
  std::uint64_t late_acks_ = 0;
  std::uint64_t stray_nacks_ = 0;
  std::uint64_t replaced_ops_ = 0;
};

class Client {
 public:
  /// Registers the client's counters and op-latency histograms in the
  /// cluster registry under "client<id>"; the destructor removes them
  /// (clients routinely die before the cluster).
  Client(Cluster& cluster, std::size_t client_idx);
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  std::uint64_t client_id() const { return client_id_; }
  ClientNode& node() { return node_; }
  AckTracker& tracker() { return tracker_; }

  /// Fresh globally-unique request id: client id in the high 32 bits, a
  /// 32-bit sequence in the low bits. The sequence wraps explicitly back
  /// to 1 (skipping 0) instead of bleeding into the client-id bits after
  /// 2^32 requests.
  std::uint64_t next_greq() {
    if (next_seq_ > 0xFFFFFFFFull) next_seq_ = 1;
    return (client_id_ << 32) | next_seq_++;
  }

  /// Test hook: jump the request sequence (greq wrap regression tests).
  void debug_set_next_seq(std::uint64_t seq) { next_seq_ = seq; }

  /// One-sided DFS write of `data` at object offset 0, policies per the
  /// layout (plain, replicated, or erasure-coded). The typed overload's cb
  /// fires with kOk when every expected DFS ack arrived, or with the NACK's
  /// wire error / kTimeout after retries are exhausted; the DoneCb overload
  /// collapses that to ok = (err == kOk).
  void write(const FileLayout& layout, const auth::Capability& cap, Bytes data, OpCb cb);
  void write(const FileLayout& layout, const auth::Capability& cap, Bytes data, DoneCb cb);

  /// Write at a byte offset within the object (plain and replicated
  /// layouts; EC objects are whole-object writes since parity spans all
  /// chunks).
  void write_at(const FileLayout& layout, const auth::Capability& cap, std::uint64_t offset,
                Bytes data, OpCb cb);
  void write_at(const FileLayout& layout, const auth::Capability& cap, std::uint64_t offset,
                Bytes data, DoneCb cb);

  /// One-sided DFS read of `len` bytes at object offset 0 from the primary
  /// target; the remote completion handler streams the data back. The typed
  /// overload reports failures as kTimeout (retries exhausted), kBadArg
  /// (zero-length read) or the NACK's error (e.g. kNotFound for a trimmed
  /// extent); the legacy overload collapses every failure to an empty
  /// buffer, which stays unambiguous because zero-length reads never reach
  /// the wire.
  void read(const FileLayout& layout, const auth::Capability& cap, std::uint32_t len, ReadCb cb);
  void read(const FileLayout& layout, const auth::Capability& cap, std::uint32_t len,
            std::function<void(Bytes, TimePs)> cb);

  /// Read at a byte offset within the object.
  void read_at(const FileLayout& layout, const auth::Capability& cap, std::uint64_t offset,
               std::uint32_t len, ReadCb cb);
  void read_at(const FileLayout& layout, const auth::Capability& cap, std::uint64_t offset,
               std::uint32_t len, std::function<void(Bytes, TimePs)> cb);

  // ---- name-based operations (control plane + data plane) ----------------
  /// Create `name` in the metadata service: kExists on collision, kBadArg
  /// on bad policy parameters. Control-plane only (no storage traffic).
  dfs::DfsError create(const std::string& name, std::uint64_t size, FilePolicy policy);

  /// Namespace metadata: existence, capacity, logical length, policy.
  MetadataService::StatInfo stat(const std::string& name) const;

  /// Sorted names under `prefix` (path-style listing).
  std::vector<std::string> list(const std::string& prefix) const;

  /// Append `data` at the file's logical tail: the metadata service
  /// serializes concurrent appends by reserving disjoint offsets, then the
  /// reserved extent is written through the layout's policy. kNotFound for
  /// an unknown name, kBadArg past capacity or for EC layouts (whole-object
  /// writes only).
  void append(const std::string& name, const auth::Capability& cap, Bytes data, OpCb cb);

  /// Delete `name`: trims every extent of the layout on the storage nodes
  /// (typed-acked data plane), then drops the namespace entry. kNotFound
  /// for an unknown name; a trim failure leaves the entry and reports the
  /// error (the file stays visible, possibly degraded).
  void remove(const std::string& name, const auth::Capability& cap, OpCb cb);

  // ---- extent-level primitives (recovery / repair paths) ----------------
  /// Read [coord.addr, +len) from a specific storage node.
  void read_extent(const dfs::Coord& coord, const auth::Capability& cap, std::uint32_t len,
                   ReadCb cb);
  void read_extent(const dfs::Coord& coord, const auth::Capability& cap, std::uint32_t len,
                   std::function<void(Bytes, TimePs)> cb);
  /// Plain (no-resiliency) DFS write of `data` at a specific coordinate.
  void write_extent(const dfs::Coord& coord, const auth::Capability& cap, Bytes data, OpCb cb);
  void write_extent(const dfs::Coord& coord, const auth::Capability& cap, Bytes data,
                    DoneCb cb);

  /// Tombstone [coord.addr, +len) on a storage node (delete data plane):
  /// the sPIN CH trims, fences, and acks; later reads of the extent fail
  /// kNotFound until something writes it again.
  void trim_extent(const dfs::Coord& coord, const auth::Capability& cap, std::uint64_t len,
                   OpCb cb);

  /// Probe [coord.addr, +len) liveness on a storage node: kOk for a live
  /// extent, kNotFound for a tombstoned one.
  void stat_extent(const dfs::Coord& coord, const auth::Capability& cap, std::uint64_t len,
                   OpCb cb);

  /// Failed attempts — denied writes (request-table exhaustion, paper
  /// §III-B.2: "the request is denied, and the client will retry later")
  /// and timed-out ops alike — are retried up to `retries` times with
  /// capped exponential backoff: retry n (n = 0, 1, ...) waits
  /// min(backoff * 2^n, backoff_cap). `backoff_cap == 0` means 16x
  /// backoff. Default: no retries.
  void set_retry_policy(unsigned retries, TimePs backoff, TimePs backoff_cap = 0) {
    max_retries_ = retries;
    retry_backoff_ = backoff;
    retry_backoff_cap_ = backoff_cap;
  }

  /// Per-attempt operation deadline; 0 (the default) never times out. On
  /// expiry the pending op is cancelled — writes via AckTracker::take (a
  /// straggler ack then counts as late_acks, not a completion), reads via
  /// Nic::cancel_read — and the op is retried per the retry policy; a
  /// retry is a fresh attempt under a fresh request id.
  void set_timeout(TimePs timeout) { timeout_ = timeout; }
  TimePs timeout() const { return timeout_; }

  std::uint64_t retries_performed() const { return retries_performed_; }
  /// retries_performed(), split by cause.
  std::uint64_t deny_retries() const { return deny_retries_; }
  std::uint64_t timeout_retries() const { return timeout_retries_; }
  /// Deadline expiries (also counts final attempts that were not retried).
  std::uint64_t op_timeouts() const { return op_timeouts_; }

  /// Number of DFS acks a write against `layout` waits for.
  static unsigned acks_for(const FileLayout& layout);

  /// Interleave the k chunk streams of an EC write packet-by-packet
  /// (default true, §VI-B.1). Disable to ablate: sequential transmission
  /// serializes the data nodes' encoding and stretches the parity node's
  /// aggregation-sequence lifetimes.
  void set_ec_interleaving(bool on) { ec_interleave_ = on; }

  /// Per-attempt op latency (issue -> completion, successes only),
  /// registered as ".write_latency_q"/".read_latency_q": BENCH p50/p99
  /// derive from these.
  const obs::QuantileSketch& write_latency_sketch() const { return write_latency_q_; }
  const obs::QuantileSketch& read_latency_sketch() const { return read_latency_q_; }

 private:
  void write_plain(const FileLayout& layout, const auth::Capability& cap, std::uint64_t offset,
                   Bytes data, std::uint64_t greq);
  void write_replicated(const FileLayout& layout, const auth::Capability& cap,
                        std::uint64_t offset, Bytes data, std::uint64_t greq);
  void write_erasure_coded(const FileLayout& layout, const auth::Capability& cap, Bytes data,
                           std::uint64_t greq);
  void start_write(const FileLayout& layout, const auth::Capability& cap, std::uint64_t offset,
                   Bytes data, OpCb cb, unsigned attempts_left);
  void start_extent_write(const dfs::Coord& coord, const auth::Capability& cap, Bytes data,
                          OpCb cb, unsigned attempts_left);
  void start_read(const dfs::Coord& coord, const auth::Capability& cap, std::uint32_t len,
                  ReadCb cb, unsigned attempts_left);
  /// Single-packet extent op (kTrim / kStat) with the write retry loop.
  void start_extent_op(dfs::OpType op, const dfs::Coord& coord, const auth::Capability& cap,
                       std::uint64_t len, OpCb cb, unsigned attempts_left);
  /// Wrap a write completion with deny/timeout-retry bookkeeping and arm
  /// the deadline event for `greq` (no-op with timeouts disabled).
  OpCb make_write_completion(std::uint64_t greq, OpCb cb, unsigned attempts_left,
                             std::function<void(unsigned)> reissue);
  void arm_write_deadline(std::uint64_t greq);
  TimePs retry_delay(unsigned attempts_left) const;
  void striped_write(const FileLayout& layout, const auth::Capability& cap,
                     std::uint64_t offset, Bytes data, OpCb cb);
  void striped_read(const FileLayout& layout, const auth::Capability& cap, std::uint64_t offset,
                    std::uint32_t len, ReadCb cb);

  /// Op-attempt span + latency sample; `name`/`failed_name` are static.
  void note_op(const char* name, const char* failed_name, bool ok, std::uint64_t greq,
               TimePs issued, TimePs at, obs::QuantileSketch& sketch);

  Cluster& cluster_;
  ClientNode& node_;
  AckTracker tracker_;
  std::uint64_t client_id_;
  std::uint64_t next_seq_ = 1;
  bool ec_interleave_ = true;
  unsigned max_retries_ = 0;
  TimePs retry_backoff_ = us(5);
  TimePs retry_backoff_cap_ = 0;
  TimePs timeout_ = 0;
  std::uint64_t retries_performed_ = 0;
  std::uint64_t deny_retries_ = 0;
  std::uint64_t timeout_retries_ = 0;
  std::uint64_t op_timeouts_ = 0;
  obs::QuantileSketch write_latency_q_;
  obs::QuantileSketch read_latency_q_;
  std::string metrics_prefix_;
};

/// Interleave k packet trains packet-by-packet (paper §VI-B.1: interleaved
/// transmission lets the data nodes encode in parallel and keeps the parity
/// node's aggregation sequences short-lived).
std::vector<net::Packet> interleave(std::vector<std::vector<net::Packet>> trains);

}  // namespace nadfs::services
