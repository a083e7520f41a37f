// Control-plane services (paper §II, Fig. 1a).
//
// The management service owns the DFS-shared signing key, authenticates
// clients, and mints capabilities. The metadata service indexes objects:
// it chooses storage targets (and parity targets for EC), allocates storage
// addresses on them, and records the per-file resiliency policy. Clients
// query it for the file layout before talking to storage nodes directly.
//
// Control-plane traffic is off the measured data path in the paper (Fig. 5
// starts timing at the write request), so these services are functional;
// their state is what matters: layouts, policies, and granted capabilities.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "auth/capability.hpp"
#include "common/units.hpp"
#include "dfs/wire.hpp"

namespace nadfs::services {

/// Per-file resiliency policy (paper §II-A: k can be a global, per-pool, or
/// per-file parameter; we keep it per-file).
struct FilePolicy {
  dfs::Resiliency resiliency = dfs::Resiliency::kNone;
  dfs::ReplStrategy strategy = dfs::ReplStrategy::kRing;
  std::uint8_t repl_k = 1;  ///< replication factor
  std::uint8_t ec_k = 0;    ///< EC data chunks
  std::uint8_t ec_m = 0;    ///< EC parity chunks
  /// Striping (plain layouts): spread the object over `stripe_count`
  /// extents of `stripe_size` bytes, round-robin across storage nodes
  /// (the "regions composing a file" of the paper's layout model, Fig. 1a).
  std::uint8_t stripe_count = 1;
  std::uint64_t stripe_size = 64 * KiB;
};

struct FileLayout {
  std::uint64_t object_id = 0;
  std::uint64_t size = 0;
  FilePolicy policy;
  /// Replication: k replica coordinates in rank order (rank 0 = primary).
  /// EC: the k data-chunk coordinates. Plain: one coordinate per stripe.
  std::vector<dfs::Coord> targets;
  /// EC only: the m parity coordinates.
  std::vector<dfs::Coord> parity;
  /// EC only: bytes per data chunk (size padded up to k * chunk_len).
  std::uint64_t chunk_len = 0;

  /// Wire codec (used by the metadata-node RPC service).
  void serialize(ByteWriter& w) const;
  static FileLayout deserialize(ByteReader& r);

  bool striped() const { return policy.stripe_count > 1; }
  /// Stripe index and intra-stripe offset for a byte offset. Striping is
  /// RAID-0 style: byte b lives in stripe unit (b / stripe_size), units
  /// round-robin over the `targets` extents.
  std::pair<std::size_t, std::uint64_t> locate(std::uint64_t offset) const {
    const std::uint64_t unit = offset / policy.stripe_size;
    const std::size_t stripe = static_cast<std::size_t>(unit % policy.stripe_count);
    const std::uint64_t within =
        (unit / policy.stripe_count) * policy.stripe_size + offset % policy.stripe_size;
    return {stripe, within};
  }
};

class ManagementService {
 public:
  explicit ManagementService(auth::Key128 key) : authority_(key) {}

  const auth::Key128& shared_key() const { return authority_.key(); }
  const auth::CapabilityAuthority& authority() const { return authority_; }

  /// Register a client; returns its id.
  std::uint64_t register_client() { return next_client_id_++; }

  /// Grant a capability over an extent of an object (control-plane op; the
  /// metadata service forwards grants through here so only one component
  /// holds the key).
  auth::Capability grant(std::uint64_t client_id, std::uint64_t object_id, auth::Right rights,
                         std::uint64_t expiry_ps, std::uint64_t extent_base,
                         std::uint64_t extent_len) const {
    return authority_.mint(client_id, object_id, rights, expiry_ps, extent_base, extent_len);
  }

 private:
  auth::CapabilityAuthority authority_;
  std::uint64_t next_client_id_ = 1;
};

class MetadataService {
 public:
  /// `node_ids` are the storage nodes available for placement.
  MetadataService(ManagementService& mgmt, std::vector<net::NodeId> node_ids)
      : mgmt_(mgmt), nodes_(std::move(node_ids)), alloc_ptr_(nodes_.size(), 0) {}

  /// Create an object: places it per `policy` (round-robin across storage
  /// nodes, failure-domain-disjoint targets) and allocates addresses.
  /// Throws std::invalid_argument on name collision or bad parameters; the
  /// typed-error twin is try_create().
  const FileLayout& create(const std::string& name, std::uint64_t size, FilePolicy policy);

  /// Typed-error create: kExists on collision, kBadArg when the policy can
  /// never be satisfied by this cluster (bad parameters, or more targets
  /// than non-removed nodes exist), kNoQuorum when the policy is valid but
  /// failures/partition-holds/drains have shrunk the *currently* eligible
  /// set below it — a retryable cluster-state NACK that succeeds again once
  /// nodes rejoin. kOk with the layout on success. Never throws.
  std::pair<dfs::DfsError, const FileLayout*> try_create(const std::string& name,
                                                         std::uint64_t size, FilePolicy policy);

  /// Drop the object from the namespace. kNotFound when absent. Storage
  /// extents are the data plane's to reclaim (Client::remove trims them).
  dfs::DfsError remove(const std::string& name);

  const FileLayout* lookup(const std::string& name) const;

  /// Namespace metadata for a file: existence, capacity, logical length
  /// (the append tail append_reserve advances), policy.
  struct StatInfo {
    bool exists = false;
    std::uint64_t size = 0;    ///< allocated capacity
    std::uint64_t length = 0;  ///< logical length (append tail)
    FilePolicy policy;
  };
  StatInfo stat(const std::string& name) const;

  /// Names starting with `prefix`, sorted (path-style metadata listing).
  std::vector<std::string> list(const std::string& prefix) const;

  /// Reserve `len` bytes at the append tail: returns {kOk, offset} and
  /// advances the logical length, or {kNotFound/kBadArg, 0}. The reservation
  /// is what serializes concurrent appends — each client gets a disjoint
  /// [offset, offset+len) before touching the data plane.
  std::pair<dfs::DfsError, std::uint64_t> append_reserve(const std::string& name,
                                                         std::uint64_t len);

  /// Capability covering the object's full extent on every target node.
  /// (Targets share the address layout, so one extent grant covers all.)
  auth::Capability grant(std::uint64_t client_id, const FileLayout& layout, auth::Right rights,
                         std::uint64_t expiry_ps = 0) const;

  std::size_t storage_node_count() const { return nodes_.size(); }
  /// Nodes currently eligible for placement: not excluded (failed), not
  /// partition-held, not draining, not removed.
  std::size_t eligible_node_count() const;
  /// Nodes a policy could ever be placed on (everything but removed ones):
  /// the kBadArg / kNoQuorum boundary in try_create.
  std::size_t placeable_node_count() const { return nodes_.size() - removed_.size(); }

  /// Take a node out of future placement decisions (failure-detector
  /// integration: a failed node must not receive new objects or spares).
  /// Existing layouts are untouched — repairing them is recovery's job.
  void exclude_from_placement(net::NodeId node) { excluded_.insert(node); }
  bool excluded(net::NodeId node) const { return excluded_.count(node) != 0; }
  /// Undo exclusion when a failed node rejoins (detector confirmation
  /// probes passed): the node is immediately placeable again.
  void readmit_to_placement(net::NodeId node) { excluded_.erase(node); }

  /// Partition hold: the detector parks unreachable-but-not-declared-dead
  /// nodes here so spares/new objects don't land on the far side of a cut.
  /// Unlike exclusion this is not a failure verdict — excluded() stays
  /// false, and the hold is reference-counted because one detector per
  /// partition side may hold the same node. Released on rehabilitation.
  void hold_from_placement(net::NodeId node) { ++held_[node]; }
  void release_hold(net::NodeId node) {
    auto it = held_.find(node);
    if (it != held_.end() && --it->second == 0) held_.erase(it);
  }
  bool held(net::NodeId node) const { return held_.count(node) != 0; }

  /// Planned decommission: a draining node receives no new placements but
  /// still serves its existing extents while the rebalancer migrates them
  /// off. remove_node() finishes the job — the node leaves the placement
  /// view entirely (and placeable_node_count shrinks).
  void drain(net::NodeId node) { draining_.insert(node); }
  void undrain(net::NodeId node) { draining_.erase(node); }
  bool draining(net::NodeId node) const { return draining_.count(node) != 0; }
  void remove_node(net::NodeId node) {
    draining_.erase(node);
    removed_.insert(node);
  }
  bool removed(net::NodeId node) const { return removed_.count(node) != 0; }

  /// Allocate a fresh extent on a node *not* in `avoid` (recovery targets);
  /// nullopt when failures/holds/drains leave no eligible node — the caller
  /// NACKs kNoQuorum and retries after rejoin.
  std::optional<dfs::Coord> try_allocate_spare(std::uint64_t len,
                                               const std::vector<net::NodeId>& avoid);

  /// Bytes of layout extents hosted per non-removed node (parity included;
  /// zero entries present for idle nodes) — the rebalancer's skew input.
  std::unordered_map<net::NodeId, std::uint64_t> placement_load() const;

  /// Record a repaired layout (replaces a failed chunk coordinate). The
  /// metadata service owns layout mutations; clients see the new version on
  /// the next lookup. kNotFound when the file was deleted meanwhile (a
  /// rebuild racing a remove must not resurrect the namespace entry).
  dfs::DfsError update_layout(const std::string& name, const FileLayout& updated);

  /// Extent length a coordinate of `layout` occupies (chunk for EC, full
  /// size per replica, the per-stripe share for striped layouts).
  static std::uint64_t extent_span(const FileLayout& layout);

 private:
  std::uint64_t allocate_on(std::size_t node_idx, std::uint64_t len);
  std::optional<dfs::Coord> try_place_next(std::uint64_t len,
                                           const std::vector<net::NodeId>& avoid);
  bool placeable(net::NodeId node) const {
    return excluded_.count(node) == 0 && held_.count(node) == 0 &&
           draining_.count(node) == 0 && removed_.count(node) == 0;
  }

  ManagementService& mgmt_;
  std::vector<net::NodeId> nodes_;
  std::vector<std::uint64_t> alloc_ptr_;  ///< bump allocator per node
  std::unordered_map<std::string, FileLayout> files_;
  std::unordered_map<std::string, std::uint64_t> lengths_;  ///< logical length by name
  std::set<net::NodeId> excluded_;  ///< failed nodes, out of placement
  std::map<net::NodeId, unsigned> held_;  ///< partition holds (refcounted)
  std::set<net::NodeId> draining_;  ///< decommissioning, no new placements
  std::set<net::NodeId> removed_;   ///< decommissioned, gone from the view
  std::uint64_t next_object_id_ = 1;
  std::size_t next_placement_ = 0;
};

}  // namespace nadfs::services
