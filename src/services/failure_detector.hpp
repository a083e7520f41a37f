// Failure detector: the paper's "monitoring service" (§VI-B).
//
// "Monitoring services can check the status of the storage nodes and start
// the recovery process if some of them become unreachable." This service is
// that monitor, built on the normal data path instead of an oracle: it
// probes every storage node with a tiny DFS read (a heartbeat that
// exercises NIC, switch, sPIN handler, and storage target), counts missed
// deadlines, and walks each node alive -> suspected -> failed. Only a
// deadline is a miss: a NACKed probe is an answer, so a node whose extent
// at address 0 was deleted stays alive. A failed node is excluded from
// metadata placement and reported through set_on_failure / auto_rebuild,
// which feeds RecoveryManager::rebuild the detector's own failed set — no
// hand-constructed failure views.
//
// Everything runs on simulated time through one seedless mechanism
// (sim::Periodic + the prober Client's deadline events), so detection
// times are deterministic for a given fault plan.
#pragma once

#include <functional>
#include <set>
#include <string>
#include <vector>

#include "services/recovery.hpp"
#include "sim/periodic.hpp"

namespace nadfs::services {

struct FailureDetectorConfig {
  TimePs probe_interval = us(20);  ///< heartbeat cadence per node
  TimePs probe_timeout = us(10);   ///< deadline per probe (the prober's op timeout)
  unsigned suspect_after = 1;      ///< consecutive misses -> suspected
  unsigned fail_after = 3;         ///< consecutive misses -> failed (sticky)
  /// Partition awareness: when the fraction of monitored nodes that are
  /// simultaneously non-alive reaches `suspect_quorum`, escalation to
  /// kFailed is *held* (the nodes park in kPartitioned) — mass simultaneous
  /// unreachability means the detector itself is probably on the minority
  /// side of a fabric cut, and declaring the other half dead would
  /// split-brain the recovery path. Held nodes keep being probed and
  /// rehabilitate to kAlive when the partition heals.
  bool partition_aware = true;
  double suspect_quorum = 0.5;
  /// Confirmation probes before a node is declared failed: once misses
  /// reach fail_after, the detector re-probes immediately (off the tick
  /// cadence, the SWIM-style indirect-probe analog) this many extra times
  /// and only escalates if they all miss too. Costs confirm_probes *
  /// probe_timeout of detection latency; filters one-off congestion.
  unsigned confirm_probes = 1;
  /// Rejoin confirmation: a failed node keeps being probed, and after this
  /// many *consecutive* answered heartbeats it transitions failed -> alive
  /// (re-admitted to placement, on_rejoin fired). The consecutive
  /// requirement is what makes restart-during-partition safe: a revived
  /// node behind a cut stays failed until its probes actually get through.
  /// 0 restores the PR 4 semantics — failed is sticky, no probes after
  /// escalation.
  unsigned rejoin_probes = 2;
};

class FailureDetector {
 public:
  /// kPartitioned: past fail_after misses but escalation held by the
  /// suspect quorum — treated as unreachable-but-not-dead (never excluded
  /// from placement — but placement-*held* so spares avoid it — never
  /// reported through on_failure). kDraining: reachable and probed
  /// normally, but flagged for planned decommission (set_draining); an
  /// unreachable draining node still walks suspected/failed like any
  /// other.
  enum class Health { kAlive, kSuspected, kPartitioned, kFailed, kDraining };

  /// `prober` must be a dedicated client (its NIC control handler and
  /// timeout/retry policy are owned by the detector; sharing it with a
  /// workload client would fight over both).
  FailureDetector(Cluster& cluster, Client& prober, FailureDetectorConfig cfg = {});
  ~FailureDetector();
  FailureDetector(const FailureDetector&) = delete;
  FailureDetector& operator=(const FailureDetector&) = delete;

  /// Start/stop the heartbeat loop. stop() lets the simulation drain.
  void start();
  void stop();
  bool running() const { return ticker_.running(); }

  Health health(net::NodeId node) const;
  const std::set<net::NodeId>& failed() const { return failed_; }
  /// Detection time for a failed node (0: not failed).
  TimePs failed_at(net::NodeId node) const;

  /// Called once per node transition to kFailed, after the node has been
  /// excluded from metadata placement.
  using FailureCb = std::function<void(net::NodeId node, TimePs detected_at)>;
  void set_on_failure(FailureCb cb) { on_failure_ = std::move(cb); }

  /// Called once per node transition kFailed -> kAlive (rejoin_probes
  /// consecutive heartbeats answered), after the node has been re-admitted
  /// to metadata placement.
  using RejoinCb = std::function<void(net::NodeId node, TimePs rejoined_at)>;
  void set_on_rejoin(RejoinCb cb) { on_rejoin_ = std::move(cb); }

  /// Planned-decommission hooks (driven by the Rebalancer). A draining
  /// node keeps being probed — it is still serving reads while its chunks
  /// migrate off. retire() takes the node out of the probe loop and the
  /// quorum denominator for good (clean removal after drain).
  void set_draining(net::NodeId node, bool draining);
  void retire(net::NodeId node);

  /// §VI-B's "start the recovery process": on every failure, rebuild
  /// `name` from the detector's current failed set. `cb` fires per rebuild
  /// attempt. Installs the on_failure hook (replaces any previous one).
  void auto_rebuild(RecoveryManager& rm, std::string name, RecoveryManager::RebuildResult cb);

  std::uint64_t probes_sent() const { return probes_sent_; }
  std::uint64_t probes_missed() const { return probes_missed_; }
  /// Confirmation probes issued (the indirect-probe analog).
  std::uint64_t indirect_probes() const { return indirect_probes_; }
  /// Escalations held by the suspect quorum (kPartitioned transitions).
  std::uint64_t escalations_held() const { return escalations_held_; }
  /// Completed failed -> alive transitions.
  std::uint64_t rejoins() const { return rejoins_; }
  /// True while the suspect quorum currently holds escalations.
  bool partition_suspected() const;

 private:
  struct NodeState {
    net::NodeId id = net::kInvalidNode;
    unsigned misses = 0;
    unsigned confirms = 0;     ///< confirmation probes spent this episode
    unsigned rejoin_oks = 0;   ///< consecutive answered heartbeats while kFailed
    bool outstanding = false;  ///< probe in flight (deadline not yet resolved)
    bool draining = false;     ///< planned decommission in progress
    bool retired = false;      ///< removed from the cluster; never probed
    Health health = Health::kAlive;
    TimePs failed_at = 0;
  };

  void tick();
  void probe(std::size_t i);
  void escalate(NodeState& ns, TimePs at);
  void rejoin(NodeState& ns, TimePs at);

  Cluster& cluster_;
  Client& prober_;
  FailureDetectorConfig cfg_;
  auth::Capability probe_cap_;
  std::vector<NodeState> nodes_;
  std::set<net::NodeId> failed_;
  FailureCb on_failure_;
  RejoinCb on_rejoin_;
  sim::Periodic ticker_;
  std::uint64_t probes_sent_ = 0;
  std::uint64_t probes_missed_ = 0;
  std::uint64_t indirect_probes_ = 0;
  std::uint64_t escalations_held_ = 0;
  std::uint64_t rejoins_ = 0;
  std::string metrics_prefix_;
};

}  // namespace nadfs::services
