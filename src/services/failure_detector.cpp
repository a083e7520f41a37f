#include "services/failure_detector.hpp"

#include <stdexcept>
#include <utility>

namespace nadfs::services {

FailureDetector::FailureDetector(Cluster& cluster, Client& prober, FailureDetectorConfig cfg)
    : cluster_(cluster), prober_(prober), cfg_(cfg), ticker_(cluster.sim()) {
  // The prober's per-op deadline *is* the probe timeout. The detector does
  // its own miss counting across heartbeats, so the prober never retries —
  // one probe, one verdict.
  prober_.set_timeout(cfg_.probe_timeout);
  prober_.set_retry_policy(0, cfg_.probe_timeout);
  // One capability covers every probe: a 1-byte read of storage address 0
  // on any node (heartbeats carry no object identity; object id 0 is
  // reserved for control uses like this).
  probe_cap_ = cluster_.management().grant(prober_.client_id(), 0, auth::Right::kRead, 0, 0, 1);
  nodes_.reserve(cluster_.storage_node_count());
  for (std::size_t i = 0; i < cluster_.storage_node_count(); ++i) {
    NodeState ns;
    ns.id = cluster_.storage_node(i).id();
    nodes_.push_back(ns);
  }
  metrics_prefix_ = "failure_detector.c" + std::to_string(prober_.client_id());
  auto& reg = cluster_.metrics();
  reg.counter_cell(metrics_prefix_ + ".probes_sent", &probes_sent_);
  reg.counter_cell(metrics_prefix_ + ".probes_missed", &probes_missed_);
  reg.counter_cell(metrics_prefix_ + ".indirect_probes", &indirect_probes_);
  reg.counter_cell(metrics_prefix_ + ".escalations_held", &escalations_held_);
  reg.counter_cell(metrics_prefix_ + ".rejoins", &rejoins_);
  reg.gauge(metrics_prefix_ + ".failed_nodes",
            [this] { return static_cast<long long>(failed_.size()); });
}

FailureDetector::~FailureDetector() {
  // Placement holds are this detector's verdicts: lift them when the
  // monitor goes away so a destroyed detector can't pin nodes out of
  // placement forever.
  for (const NodeState& ns : nodes_) {
    if (ns.health == Health::kPartitioned) cluster_.metadata().release_hold(ns.id);
  }
  cluster_.metrics().remove_prefix(metrics_prefix_);
}

void FailureDetector::start() {
  ticker_.start(cfg_.probe_interval, [this] { tick(); });
}

void FailureDetector::stop() { ticker_.stop(); }

void FailureDetector::tick() {
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    // Retired (decommissioned) nodes are never probed, and a probe whose
    // deadline has not resolved yet is not double-counted. Failed nodes
    // *keep* being probed when rejoin is enabled — those heartbeats are
    // how a restarted machine gets back in; with rejoin_probes == 0 the
    // PR 4 semantics hold (failed is sticky, no further probes).
    if (nodes_[i].retired || nodes_[i].outstanding) continue;
    if (nodes_[i].health == Health::kFailed && cfg_.rejoin_probes == 0) continue;
    probe(i);
  }
}

void FailureDetector::probe(std::size_t i) {
  nodes_[i].outstanding = true;
  ++probes_sent_;
  const dfs::Coord target{nodes_[i].id, 0};
  prober_.read_extent(target, probe_cap_, 1, [this, i](dfs::DfsError err, Bytes, TimePs at) {
    NodeState& ns = nodes_[i];
    ns.outstanding = false;
    if (err != dfs::DfsError::kTimeout) {
      // Heartbeat answered: data or a NACK alike proves the node reachable
      // (a NACK only says its extent at address 0 was trimmed or the read
      // was denied). A suspected node is rehabilitated; a partition-held
      // node additionally gets its placement hold lifted (this is the heal
      // path after a fabric cut). A failed node walks
      // the rejoin path: only rejoin_probes *consecutive* answers lift the
      // failure verdict, so a restart behind a still-open partition stays
      // failed until its heartbeats actually get through.
      ns.misses = 0;
      ns.confirms = 0;
      if (ns.health == Health::kSuspected) {
        ns.health = Health::kAlive;
      } else if (ns.health == Health::kPartitioned) {
        ns.health = Health::kAlive;
        cluster_.metadata().release_hold(ns.id);
      } else if (ns.health == Health::kFailed) {
        if (cfg_.rejoin_probes != 0 && ++ns.rejoin_oks >= cfg_.rejoin_probes) rejoin(ns, at);
      }
      return;
    }
    ++probes_missed_;
    if (ns.health == Health::kFailed) {
      ns.rejoin_oks = 0;  // rejoin confirmation must be consecutive
      return;
    }
    ++ns.misses;
    if (ns.misses >= cfg_.fail_after) {
      if (cfg_.partition_aware && partition_suspected()) {
        // Enough peers are simultaneously unreachable that the likeliest
        // explanation is a partition with *us* on the minority side. Hold
        // the escalation: the node is not excluded (no failure verdict),
        // keeps being probed, and rehabilitates when the cut heals — but
        // it *is* placement-held so new objects and rebuild spares don't
        // land on the unreachable side of the cut and stall.
        if (ns.health != Health::kPartitioned) {
          ++escalations_held_;
          cluster_.metadata().hold_from_placement(ns.id);
        }
        ns.health = Health::kPartitioned;
        return;
      }
      if (ns.confirms < cfg_.confirm_probes) {
        // Confirmation probe, issued immediately rather than on the tick
        // cadence (the indirect-probe analog): only a node that also
        // misses these is declared failed.
        ++ns.confirms;
        ++indirect_probes_;
        probe(i);
        return;
      }
      escalate(ns, at);
    } else if (ns.misses >= cfg_.suspect_after) {
      ns.health = Health::kSuspected;
    }
  });
}

void FailureDetector::escalate(NodeState& ns, TimePs at) {
  // A node can reach escalation while still partition-held from an earlier
  // episode (the quorum has since dissolved): the hold gives way to the
  // stronger verdict.
  if (ns.health == Health::kPartitioned) cluster_.metadata().release_hold(ns.id);
  ns.health = Health::kFailed;
  ns.failed_at = at;
  ns.rejoin_oks = 0;
  failed_.insert(ns.id);
  cluster_.metadata().exclude_from_placement(ns.id);
  if (on_failure_) on_failure_(ns.id, at);
}

void FailureDetector::rejoin(NodeState& ns, TimePs at) {
  ns.health = Health::kAlive;
  ns.failed_at = 0;
  ns.rejoin_oks = 0;
  failed_.erase(ns.id);
  cluster_.metadata().readmit_to_placement(ns.id);
  ++rejoins_;
  if (on_rejoin_) on_rejoin_(ns.id, at);
}

void FailureDetector::set_draining(net::NodeId node, bool draining) {
  for (NodeState& ns : nodes_) {
    if (ns.id == node) {
      ns.draining = draining;
      return;
    }
  }
  throw std::out_of_range("FailureDetector::set_draining: not a storage node");
}

void FailureDetector::retire(net::NodeId node) {
  for (NodeState& ns : nodes_) {
    if (ns.id == node) {
      if (ns.health == Health::kPartitioned) cluster_.metadata().release_hold(ns.id);
      ns.retired = true;
      return;
    }
  }
  throw std::out_of_range("FailureDetector::retire: not a storage node");
}

bool FailureDetector::partition_suspected() const {
  // Retired nodes are out of both sides of the quorum fraction: a
  // decommissioned node is not "unreachable", it is gone.
  std::size_t members = 0;
  std::size_t non_alive = 0;
  for (const NodeState& ns : nodes_) {
    if (ns.retired) continue;
    ++members;
    if (ns.health != Health::kAlive) ++non_alive;
  }
  if (members == 0) return false;
  return static_cast<double>(non_alive) >= cfg_.suspect_quorum * members;
}

FailureDetector::Health FailureDetector::health(net::NodeId node) const {
  for (const NodeState& ns : nodes_) {
    if (ns.id == node) {
      // The draining flag only decorates a healthy verdict: an unreachable
      // draining node still reports suspected/partitioned/failed.
      if ((ns.draining || ns.retired) && ns.health == Health::kAlive) return Health::kDraining;
      return ns.health;
    }
  }
  throw std::out_of_range("FailureDetector::health: not a storage node");
}

TimePs FailureDetector::failed_at(net::NodeId node) const {
  for (const NodeState& ns : nodes_) {
    if (ns.id == node) return ns.failed_at;
  }
  throw std::out_of_range("FailureDetector::failed_at: not a storage node");
}

void FailureDetector::auto_rebuild(RecoveryManager& rm, std::string name,
                                   RecoveryManager::RebuildResult cb) {
  set_on_failure(
      [&rm, name = std::move(name), cb = std::move(cb), this](net::NodeId, TimePs) {
        rm.rebuild(name, failed_, cb);
      });
}

}  // namespace nadfs::services
