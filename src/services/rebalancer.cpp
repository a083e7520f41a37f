#include "services/rebalancer.hpp"

#include <utility>

namespace nadfs::services {

Rebalancer::Rebalancer(Cluster& cluster, Client& mover, RebalancerConfig cfg)
    : cluster_(cluster), mover_(mover), cfg_(cfg), ticker_(cluster.sim()) {
  auto& reg = cluster_.metrics();
  reg.counter_cell("rebalance.moves", &moves_);
  reg.counter_cell("rebalance.moved_bytes", &moved_bytes_);
  reg.counter_cell("rebalance.moves_aborted", &moves_aborted_);
  reg.counter_cell("rebalance.drains_completed", &drains_completed_);
}

Rebalancer::~Rebalancer() { cluster_.metrics().remove_prefix("rebalance"); }

void Rebalancer::start() {
  ticker_.start(cfg_.interval, [this] { tick(); });
}

void Rebalancer::stop() { ticker_.stop(); }

void Rebalancer::tick() { pump(cfg_.bytes_per_tick); }

void Rebalancer::drain_node(net::NodeId node, OpCb cb) {
  cluster_.metadata().drain(node);
  if (detector_) detector_->set_draining(node, true);
  drains_.emplace_back(node, std::move(cb));
}

std::uint64_t Rebalancer::skew() const {
  const auto load = cluster_.metadata().placement_load();
  const MetadataService& meta = cluster_.metadata();
  bool have = false;
  std::uint64_t max_load = 0;
  std::uint64_t min_load = 0;
  for (const auto& [node, bytes] : load) {
    if (meta.excluded(node) || meta.held(node) || meta.draining(node)) continue;
    if (!have) {
      max_load = min_load = bytes;
      have = true;
      continue;
    }
    if (bytes > max_load) max_load = bytes;
    if (bytes < min_load) min_load = bytes;
  }
  return have ? max_load - min_load : 0;
}

std::optional<Rebalancer::Candidate> Rebalancer::pick_candidate() const {
  // Skew work: an extent of the most-loaded eligible node (deterministic
  // tie-break on the lowest node id — the max/min scan is order-free, so
  // the unordered load map costs no determinism).
  const auto load = cluster_.metadata().placement_load();
  const MetadataService& meta = cluster_.metadata();
  bool have = false;
  net::NodeId max_node = 0;
  std::uint64_t max_load = 0;
  std::uint64_t min_load = 0;
  std::size_t eligible = 0;
  for (const auto& [node, bytes] : load) {
    if (meta.excluded(node) || meta.held(node) || meta.draining(node)) continue;
    ++eligible;
    if (!have) {
      max_node = node;
      max_load = min_load = bytes;
      have = true;
      continue;
    }
    if (bytes > max_load || (bytes == max_load && node < max_node)) {
      max_load = bytes;
      max_node = node;
    }
    if (bytes < min_load) min_load = bytes;
  }
  if (eligible < 2 || max_load - min_load <= cfg_.skew_threshold) return std::nullopt;
  return extent_on(max_node);
}

std::optional<Rebalancer::Candidate> Rebalancer::extent_on(net::NodeId node) const {
  // Sorted-name scan: list() is the only deterministic iteration order the
  // namespace offers, and migration picks must not depend on hash order.
  for (const std::string& name : cluster_.metadata().list("")) {
    const FileLayout* layout = cluster_.metadata().lookup(name);
    if (layout == nullptr) continue;
    const std::uint64_t span = MetadataService::extent_span(*layout);
    const std::size_t n_targets = layout->targets.size();
    for (std::size_t i = 0; i < n_targets + layout->parity.size(); ++i) {
      const dfs::Coord& c = i < n_targets ? layout->targets[i] : layout->parity[i - n_targets];
      if (c.node != node) continue;
      Candidate cand;
      cand.name = name;
      cand.index = i;
      cand.from = c;
      cand.span = span;
      cand.object_id = layout->object_id;
      return cand;
    }
  }
  return std::nullopt;
}

void Rebalancer::pump(std::uint64_t budget) {
  if (move_active_) return;  // one migration chain at a time
  const bool fresh_tick = budget == cfg_.bytes_per_tick;
  while (!drains_.empty()) {
    auto cand = extent_on(drains_.front().first);
    if (cand) {
      if (cand->span > budget && !fresh_tick) return;  // budget spent; next tick
      migrate(*cand, budget);
      return;
    }
    // Nothing hosted on the drain node any more: the decommission is
    // complete — drop it from the placement view and the probe loop.
    auto [node, cb] = std::move(drains_.front());
    drains_.pop_front();
    cluster_.metadata().remove_node(node);
    if (detector_) detector_->retire(node);
    ++drains_completed_;
    if (cb) cb(dfs::DfsError::kOk, cluster_.sim().now());
  }
  auto cand = pick_candidate();
  if (!cand) return;
  if (cand->span > budget && !fresh_tick) return;
  migrate(*cand, budget);
}

void Rebalancer::migrate(const Candidate& c, std::uint64_t budget) {
  move_active_ = true;
  const std::uint64_t remaining = c.span >= budget ? 0 : budget - c.span;
  const TimePs started = cluster_.sim().now();
  const auto rcap = cluster_.management().grant(mover_.client_id(), c.object_id,
                                                auth::Right::kRead, 0, c.from.addr, c.span);
  mover_.read_extent(
      c.from, rcap, static_cast<std::uint32_t>(c.span),
      ReadCb([this, c, remaining, started](dfs::DfsError err, Bytes data, TimePs) {
        if (err != dfs::DfsError::kOk) {
          // Source unreadable (it died mid-migration, or a partition opened):
          // abandon — chunks on *failed* nodes are recovery's job, not ours.
          move_active_ = false;
          ++moves_aborted_;
          return;
        }
        // Destination off the standard rotation, avoiding every node the
        // object already touches (failure-domain disjointness survives the
        // move). Allocated after the read so a long read can't hold an
        // address reservation against concurrent placements.
        const FileLayout* current = cluster_.metadata().lookup(c.name);
        std::vector<net::NodeId> avoid;
        if (current != nullptr) {
          for (const auto& t : current->targets) avoid.push_back(t.node);
          for (const auto& p : current->parity) avoid.push_back(p.node);
        }
        std::optional<dfs::Coord> spare;
        if (current != nullptr) spare = cluster_.metadata().try_allocate_spare(c.span, avoid);
        if (!spare) {
          move_active_ = false;
          ++moves_aborted_;
          return;
        }
        const dfs::Coord to = *spare;
        const auto wcap = cluster_.management().grant(mover_.client_id(), c.object_id,
                                                      auth::Right::kWrite, 0, to.addr, c.span);
        mover_.write_extent(
            to, wcap, std::move(data),
            OpCb([this, c, to, remaining, started](dfs::DfsError werr, TimePs at) {
              move_active_ = false;
              const FileLayout* now = cluster_.metadata().lookup(c.name);
              const std::size_t n_targets = now == nullptr ? 0 : now->targets.size();
              const bool index_ok =
                  now != nullptr && c.index < n_targets + now->parity.size();
              const dfs::Coord* cur =
                  !index_ok ? nullptr
                            : (c.index < n_targets ? &now->targets[c.index]
                                                   : &now->parity[c.index - n_targets]);
              if (werr != dfs::DfsError::kOk || cur == nullptr ||
                  cur->node != c.from.node || cur->addr != c.from.addr) {
                // Write failed, the file was deleted, or a concurrent
                // rebuild re-homed this coordinate first. Abandoning is
                // safe: the source extent was never trimmed, so whatever
                // layout won still points at valid bytes.
                ++moves_aborted_;
                return;
              }
              FileLayout moved = *now;
              (c.index < n_targets ? moved.targets[c.index]
                                   : moved.parity[c.index - n_targets]) = to;
              if (cluster_.metadata().update_layout(c.name, moved) != dfs::DfsError::kOk) {
                ++moves_aborted_;
                return;
              }
              ++moves_;
              moved_bytes_ += c.span;
              if (cluster_.tracer() != nullptr) {
                cluster_.tracer()->record({to.node, obs::kLaneRebalance, "rebalance", "move",
                                           c.object_id, 0, 0, c.span, started, at});
              }
              pump(remaining);
            }));
      }));
}

}  // namespace nadfs::services
