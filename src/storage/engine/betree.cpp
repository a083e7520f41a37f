#include "storage/engine/betree.hpp"

#include <algorithm>
#include <unordered_set>

namespace nadfs::storage {

namespace {

/// [lo, hi) sub-extent of an extent that starts at `e_start`: the same
/// buffer, a narrower window.
template <typename ExtentT>
ExtentT slice_extent(ExtentT e, std::uint64_t e_start, std::uint64_t lo, std::uint64_t hi) {
  e.off += lo - e_start;
  e.len = hi - lo;
  return e;
}

}  // namespace

BetaTreeEngine::BetaTreeEngine(sim::Simulator& simulator, const EngineConfig& cfg)
    : StorageEngine(simulator), cfg_(cfg), device_(simulator, cfg.device_bandwidth) {}

void BetaTreeEngine::run_insert(Run& run, std::uint64_t start, Extent e,
                                std::uint64_t& cost) const {
  if (e.len == 0) return;
  const std::uint64_t lo = start;
  const std::uint64_t hi = start + e.len;
  auto it = run.upper_bound(lo);
  if (it != run.begin()) {
    auto prev = std::prev(it);
    if (prev->first + prev->second.len > lo) it = prev;
  }
  while (it != run.end() && it->first < hi) {
    const std::uint64_t e_lo = it->first;
    const std::uint64_t e_hi = e_lo + it->second.len;
    Extent old = std::move(it->second);
    cost -= extent_cost(old);
    it = run.erase(it);
    if (e_lo < lo) {
      Extent head = slice_extent(old, e_lo, e_lo, lo);
      cost += extent_cost(head);
      run.emplace(e_lo, std::move(head));
    }
    if (e_hi > hi) {
      Extent tail = slice_extent(std::move(old), e_lo, hi, e_hi);
      cost += extent_cost(tail);
      it = run.emplace(hi, std::move(tail)).first;
    }
  }
  cost += extent_cost(e);
  run.emplace(lo, std::move(e));
}

std::uint64_t BetaTreeEngine::run_fill(const Run& run, std::uint64_t base, Bytes& out,
                                       std::vector<Gap>& gaps, bool& touched) const {
  if (run.empty() || gaps.empty()) return 0;
  std::vector<Gap> next;
  std::uint64_t served = 0;
  for (const Gap& g : gaps) {
    std::uint64_t cur = g.lo;
    auto it = run.upper_bound(g.lo);
    if (it != run.begin()) {
      auto prev = std::prev(it);
      if (prev->first + prev->second.len > g.lo) it = prev;
    }
    for (; it != run.end() && it->first < g.hi; ++it) {
      const std::uint64_t e_lo = it->first;
      const std::uint64_t e_hi = e_lo + it->second.len;
      const std::uint64_t o_lo = std::max(e_lo, cur);
      const std::uint64_t o_hi = std::min(e_hi, g.hi);
      if (o_hi <= o_lo) continue;
      if (o_lo > cur) next.push_back({cur, o_lo});
      touched = true;
      if (!it->second.zero) {
        // Zero extents contribute zeros, which `out` already holds; they
        // only mark the range as served so older runs can't resurrect it.
        served += o_hi - o_lo;
        const std::uint8_t* src = it->second.bytes();
        std::copy(src + (o_lo - e_lo), src + (o_hi - e_lo),
                  out.begin() + static_cast<std::ptrdiff_t>(o_lo - base));
      }
      cur = o_hi;
    }
    if (cur < g.hi) next.push_back({cur, g.hi});
  }
  gaps = std::move(next);
  return served;
}

Bytes BetaTreeEngine::assemble(std::uint64_t addr, std::size_t len, std::uint64_t* device_bytes,
                               unsigned* touched_runs) const {
  Bytes out(len, 0);
  std::vector<Gap> gaps{{addr, addr + len}};
  bool ram_touched = false;
  run_fill(active_, addr, out, gaps, ram_touched);
  for (auto it = frozen_.rbegin(); it != frozen_.rend() && !gaps.empty(); ++it) {
    run_fill(it->run, addr, out, gaps, ram_touched);
  }
  for (const Level& level : levels_) {
    if (gaps.empty()) break;
    for (auto rit = level.runs.rbegin(); rit != level.runs.rend() && !gaps.empty(); ++rit) {
      bool hit = false;
      const std::uint64_t served = run_fill(*rit, addr, out, gaps, hit);
      if (device_bytes != nullptr) *device_bytes += served;
      if (hit && touched_runs != nullptr) ++*touched_runs;
    }
  }
  return out;
}

TimePs BetaTreeEngine::write(std::uint64_t addr, ByteSpan data, TimePs earliest) {
  ++writes_;
  write_logical_bytes_ += data.size();
  log_bytes_ += data.size();
  // The foreground durability cost is the WAL append on the shared device.
  const auto w = device_.reserve(data.size(), earliest);
  const TimePs durable = w.end + cfg_.write_latency;
  Extent e;
  e.len = data.size();
  e.buf = std::make_shared<const Bytes>(data.begin(), data.end());
  run_insert(active_, addr, std::move(e), active_cost_);
  if (active_cost_ >= cfg_.memtable_bytes) freeze_active(w.end);
  return apply_stall(durable);
}

Bytes BetaTreeEngine::read(std::uint64_t addr, std::size_t len) const {
  return assemble(addr, len, nullptr, nullptr);
}

StorageEngine::TimedRead BetaTreeEngine::read_at(std::uint64_t addr, std::size_t len,
                                                 TimePs earliest) {
  ++reads_;
  read_logical_bytes_ += len;
  std::uint64_t device_bytes = 0;
  unsigned touched = 0;
  Bytes data = assemble(addr, len, &device_bytes, &touched);
  read_device_bytes_ += device_bytes;
  read_runs_touched_ += touched;
  const auto w = device_.reserve(device_bytes, earliest);
  return {std::move(data), w.end + cfg_.read_latency * touched};
}

TimePs BetaTreeEngine::trim(std::uint64_t addr, std::uint64_t len, TimePs earliest) {
  if (len == 0) return device_.reserve(0, earliest).end;
  ++trims_;
  log_bytes_ += kTombstoneMsgBytes;
  const auto w = device_.reserve(kTombstoneMsgBytes, earliest);
  const TimePs durable = w.end + cfg_.write_latency;
  Extent e;
  e.len = len;
  e.zero = true;
  run_insert(active_, addr, std::move(e), active_cost_);
  if (active_cost_ >= cfg_.memtable_bytes) freeze_active(w.end);
  return apply_stall(durable);
}

TimePs BetaTreeEngine::apply_stall(TimePs durable) {
  if (!flush_inflight_ || buffered_bytes() <= cfg_.buffer_capacity) return durable;
  // Buffer over capacity: the write completes only once the backlog ahead
  // of it could drain — the in-flight flush commits, then the rest of the
  // buffered bytes flush at device speed. The classic ingest collapse when
  // flushing can't keep up with the offered write rate.
  ++stalls_;
  const TimePs admitted =
      flush_done_ + cfg_.device_bandwidth.transfer_time(buffered_bytes());
  if (admitted > durable) {
    stall_ps_ += admitted - durable;
    durable = admitted;
  }
  return durable;
}

void BetaTreeEngine::freeze_active(TimePs at) {
  if (active_.empty()) return;
  frozen_.push_back(FrozenRun{std::move(active_), active_cost_});
  frozen_cost_ += active_cost_;
  active_.clear();
  active_cost_ = 0;
  if (!flush_inflight_) start_flush(at);
}

void BetaTreeEngine::start_flush(TimePs at) {
  flush_inflight_ = true;
  const FrozenRun& f = frozen_.front();
  const auto w = device_.reserve(f.cost, at);
  flush_done_ = w.end + cfg_.write_latency;
  ++flushes_;
  flush_bytes_ += f.cost;
  if (obs::kObsEnabled && tracer_ != nullptr) {
    tracer_->record(
        {node_, obs::kLaneStorage, "storage", "flush", 0, 0, 0, f.cost, w.start, w.end});
  }
  schedule_commit(flush_done_, [this] { commit_flush(); });
}

void BetaTreeEngine::commit_flush() {
  FrozenRun f = std::move(frozen_.front());
  frozen_.pop_front();
  frozen_cost_ -= f.cost;
  if (levels_.empty()) levels_.emplace_back();
  levels_[0].runs.push_back(std::move(f.run));
  levels_[0].costs.push_back(f.cost);
  flush_inflight_ = false;
  const TimePs now = sim_.now();
  if (!frozen_.empty()) start_flush(now);
  maybe_compact(0, now);
}

void BetaTreeEngine::maybe_compact(std::size_t level, TimePs at) {
  if (level >= levels_.size()) return;
  Level& lv = levels_[level];
  if (lv.compacting || lv.runs.size() < cfg_.fanout) return;
  lv.compacting = true;
  lv.compact_inputs = lv.runs.size();
  // Merge eagerly: the inputs are immutable, so the merge computed now is
  // byte-identical to one computed at commit time, and in-flight reads
  // keep resolving against the still-present inputs. Extents merge by
  // reference; only a slice that no longer covers its whole buffer is
  // copied out, so the output run pins no shadowed bytes.
  FrozenRun out;
  std::uint64_t in_cost = 0;
  for (std::size_t i = 0; i < lv.compact_inputs; ++i) {
    in_cost += lv.costs[i];
    for (const auto& [start, e] : lv.runs[i]) run_insert(out.run, start, e, out.cost);
  }
  for (auto& [start, e] : out.run) {
    if (e.zero || (e.off == 0 && e.len == e.buf->size())) continue;
    const std::uint8_t* src = e.bytes();
    e.buf = std::make_shared<const Bytes>(src, src + e.len);
    e.off = 0;
  }
  // The device reads every input byte and writes the merged run.
  const auto w = device_.reserve(in_cost + out.cost, at);
  ++compactions_;
  compact_read_bytes_ += in_cost;
  compact_write_bytes_ += out.cost;
  if (obs::kObsEnabled && tracer_ != nullptr) {
    tracer_->record({node_, obs::kLaneStorage, "storage", "compact",
                     static_cast<std::uint64_t>(level), 0, 0, in_cost + out.cost, w.start, w.end});
  }
  lv.pending = std::move(out);
  schedule_commit(w.end + cfg_.write_latency, [this, level] { commit_compaction(level); });
}

void BetaTreeEngine::commit_compaction(std::size_t level) {
  if (levels_.size() <= level + 1) levels_.resize(level + 2);
  Level& lv = levels_[level];
  FrozenRun out = std::move(lv.pending);
  lv.pending = FrozenRun{};
  lv.runs.erase(lv.runs.begin(),
                lv.runs.begin() + static_cast<std::ptrdiff_t>(lv.compact_inputs));
  lv.costs.erase(lv.costs.begin(),
                 lv.costs.begin() + static_cast<std::ptrdiff_t>(lv.compact_inputs));
  lv.compacting = false;
  lv.compact_inputs = 0;
  levels_[level + 1].runs.push_back(std::move(out.run));
  levels_[level + 1].costs.push_back(out.cost);
  const TimePs now = sim_.now();
  maybe_compact(level, now);
  maybe_compact(level + 1, now);
}

void BetaTreeEngine::schedule_commit(TimePs when, sim::EventFn fn) {
  sim_.schedule_at(std::max(when, sim_.now()), std::move(fn));
}

std::uint64_t BetaTreeEngine::backlog_runs() const {
  std::uint64_t runs = 0;
  for (const Level& level : levels_) runs += level.runs.size();
  return runs;
}

BetaTreeEngine::Retained BetaTreeEngine::retained_bytes() const {
  std::unordered_set<const Bytes*> seen;
  Retained r;
  for (std::size_t level = 1; level < levels_.size(); ++level) {
    for (const Run& run : levels_[level].runs) {
      for (const auto& [start, e] : run) {
        if (e.zero) continue;
        r.logical += e.len;
        if (seen.insert(e.buf.get()).second) r.held += e.buf->size();
      }
    }
  }
  return r;
}

void BetaTreeEngine::bind_metrics(obs::MetricRegistry& reg, const std::string& prefix) {
  StorageEngine::bind_metrics(reg, prefix);
  reg.counter_cell(prefix + ".writes", &writes_);
  reg.counter_cell(prefix + ".reads", &reads_);
  reg.counter_cell(prefix + ".trims", &trims_);
  reg.counter_cell(prefix + ".write_logical_bytes", &write_logical_bytes_);
  reg.counter_cell(prefix + ".read_logical_bytes", &read_logical_bytes_);
  reg.counter_cell(prefix + ".log_bytes", &log_bytes_);
  reg.counter_cell(prefix + ".flushes", &flushes_);
  reg.counter_cell(prefix + ".flush_bytes", &flush_bytes_);
  reg.counter_cell(prefix + ".compactions", &compactions_);
  reg.counter_cell(prefix + ".compact_read_bytes", &compact_read_bytes_);
  reg.counter_cell(prefix + ".compact_write_bytes", &compact_write_bytes_);
  reg.counter_cell(prefix + ".read_device_bytes", &read_device_bytes_);
  reg.counter_cell(prefix + ".read_runs_touched", &read_runs_touched_);
  reg.counter_cell(prefix + ".stalls", &stalls_);
  reg.counter_cell(prefix + ".stall_ps", &stall_ps_);
  reg.gauge(prefix + ".buffer_bytes",
            [this] { return static_cast<long long>(buffered_bytes()); });
  reg.gauge(prefix + ".frozen_runs", [this] { return static_cast<long long>(frozen_.size()); });
  reg.gauge(prefix + ".backlog_runs", [this] { return static_cast<long long>(backlog_runs()); });
  reg.gauge(prefix + ".levels", [this] { return static_cast<long long>(levels_.size()); });
  // Amplification ratios, x100 so they stay integers: total device write
  // (read) traffic per logical byte written (read).
  reg.gauge(prefix + ".write_amp_x100", [this] {
    const std::uint64_t logical = write_logical_bytes_ ? write_logical_bytes_ : 1;
    return static_cast<long long>((log_bytes_ + flush_bytes_ + compact_write_bytes_ +
                                   compact_read_bytes_) *
                                  100 / logical);
  });
  reg.gauge(prefix + ".read_amp_x100", [this] {
    const std::uint64_t logical = read_logical_bytes_ ? read_logical_bytes_ : 1;
    return static_cast<long long>(read_device_bytes_ * 100 / logical);
  });
}

}  // namespace nadfs::storage
