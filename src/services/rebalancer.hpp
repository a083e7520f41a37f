// Background rebalancer + planned decommission (drain) driver.
//
// The elasticity counterpart to RecoveryManager: where recovery re-creates
// chunks lost with *failed* nodes, the rebalancer migrates chunks that are
// merely in the wrong place — placement skew left behind by rejoins (a
// node that was failed for a while received nothing new) and planned
// drains (a node leaving the cluster must hand every extent off first).
//
// Mechanics: a sim::Periodic tick inspects MetadataService::placement_load.
// When the hosted-bytes spread between the most- and least-loaded eligible
// nodes exceeds `skew_threshold`, it migrates whole extents (EC chunks,
// replicas, stripes) from the most-loaded node: read over the normal data
// path, write to a spare allocated off the standard placement rotation
// (which already avoids failed/held/draining nodes), publish through
// update_layout. Each tick spends at most `bytes_per_tick` of migration
// bandwidth — the budget that keeps rebalance traffic from starving
// foreground ops — and moves are serialized (one in flight) so the traffic
// is deterministic under the PR 4 digest methodology.
//
// Source extents are not trimmed: storage allocation is bump-pointer (no
// reclamation anywhere in the system), and leaving the old bytes in place
// makes a migration that loses an update_layout race against a concurrent
// rebuild harmless — the superseded coordinate still holds valid data.
//
// Everything is observable: `rebalance.moves` / `rebalance.moved_bytes`
// counters in the cluster registry, and one span per migration on the
// dedicated obs::kLaneRebalance tracer lane.
#pragma once

#include <deque>
#include <optional>
#include <string>

#include "services/failure_detector.hpp"

namespace nadfs::services {

struct RebalancerConfig {
  TimePs interval = us(50);  ///< skew-inspection cadence
  /// Hosted-bytes spread (max - min over eligible nodes) that triggers
  /// migration. Below it the cluster counts as balanced.
  std::uint64_t skew_threshold = 64 * KiB;
  /// Migration bandwidth budget per tick: the byte sum of extents a single
  /// tick may move (at least one extent always fits, or nothing moves).
  std::uint64_t bytes_per_tick = 256 * KiB;
};

class Rebalancer {
 public:
  /// `mover` must be a dedicated client (its timeout/retry policy drives
  /// the migration traffic; sharing it with a workload client would fight
  /// over the NIC control handler). One rebalancer per cluster — the
  /// metric names are cluster-global.
  Rebalancer(Cluster& cluster, Client& mover, RebalancerConfig cfg = {});
  ~Rebalancer();
  Rebalancer(const Rebalancer&) = delete;
  Rebalancer& operator=(const Rebalancer&) = delete;

  /// Start/stop the periodic skew inspection. stop() lets an in-flight
  /// migration finish and the simulation drain.
  void start();
  void stop();
  bool running() const { return ticker_.running(); }

  /// Wire the detector so drains flip its health reporting (kDraining) and
  /// completed drains retire the node from the probe loop. Optional — a
  /// rebalancer without a detector still drains placement correctly.
  void set_detector(FailureDetector* detector) { detector_ = detector; }

  /// Planned decommission of `node`: immediately stops new placements onto
  /// it (MetadataService::drain), then the periodic tick migrates every
  /// extent it hosts off under the bandwidth budget. When the node is
  /// empty it is removed from the placement view (remove_node) and retired
  /// from the detector, then `cb(kOk)` fires. Requires start().
  /// Multiple drains queue FIFO.
  void drain_node(net::NodeId node, OpCb cb);

  /// Current hosted-bytes spread over eligible (placeable) nodes; 0 when
  /// fewer than two are eligible.
  std::uint64_t skew() const;

  std::uint64_t moves() const { return moves_; }
  std::uint64_t moved_bytes() const { return moved_bytes_; }
  /// Migrations abandoned because the layout changed under them (a
  /// concurrent rebuild won the update_layout race) or the read failed.
  std::uint64_t moves_aborted() const { return moves_aborted_; }
  std::uint64_t drains_completed() const { return drains_completed_; }

 private:
  /// A migratable extent: layout coordinate `index` (parity chunks index
  /// past the targets) of object `name`.
  struct Candidate {
    std::string name;
    std::size_t index = 0;
    dfs::Coord from;
    std::uint64_t span = 0;
    std::uint64_t object_id = 0;
  };

  void tick();
  /// Run migrations until `budget` is spent or no work remains; calls
  /// itself through the move-completion path.
  void pump(std::uint64_t budget);
  /// Next extent to migrate: drain work first (anything on the draining
  /// node), then skew work (an extent of the most-loaded eligible node).
  std::optional<Candidate> pick_candidate() const;
  std::optional<Candidate> extent_on(net::NodeId node) const;
  void migrate(const Candidate& c, std::uint64_t budget);

  Cluster& cluster_;
  Client& mover_;
  RebalancerConfig cfg_;
  FailureDetector* detector_ = nullptr;
  sim::Periodic ticker_;
  bool move_active_ = false;  ///< a migration chain is in flight
  std::deque<std::pair<net::NodeId, OpCb>> drains_;
  std::uint64_t moves_ = 0;
  std::uint64_t moved_bytes_ = 0;
  std::uint64_t moves_aborted_ = 0;
  std::uint64_t drains_completed_ = 0;
};

}  // namespace nadfs::services
