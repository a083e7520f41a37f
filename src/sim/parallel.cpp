#include "sim/parallel.hpp"

#include <algorithm>
#include <stdexcept>

namespace nadfs::sim::detail {

namespace {

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Inverted (max-heap) comparator giving a min-heap of pool indices by
/// (when, prov) — the order a lane executes its intra-window spawns in.
struct ProvAfter {
  const std::vector<WindowEvent>& pool;
  bool operator()(std::uint32_t a, std::uint32_t b) const {
    const WindowEvent& ea = pool[a];
    const WindowEvent& eb = pool[b];
    if (ea.when != eb.when) return ea.when > eb.when;
    return ea.prov > eb.prov;
  }
};

}  // namespace

PartitionedEngine::PartitionedEngine(Simulator& sim, std::size_t domains, TimePs lookahead,
                                     unsigned threads)
    : sim_(sim), lookahead_(lookahead) {
  lanes_.reserve(domains);
  for (std::size_t i = 0; i < domains; ++i) {
    lanes_.push_back(std::make_unique<Lane>());
    lanes_.back()->id = static_cast<DomainId>(i);
  }
  if (threads == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    threads = hw != 0 ? hw : 1;
  }
  threads_ = static_cast<unsigned>(std::min<std::size_t>(threads, domains));
  if (threads_ == 0) threads_ = 1;
  if (threads_ > 1) start_workers();
}

PartitionedEngine::~PartitionedEngine() {
  if (!workers_.empty()) {
    {
      std::lock_guard<std::mutex> lk(park_mu_);
      shutdown_.store(true, std::memory_order_release);
    }
    park_cv_.notify_all();
    for (auto& w : workers_) w.join();
  }
}

std::size_t PartitionedEngine::pending_events() const {
  std::size_t n = fences_.size();
  for (const auto& lp : lanes_) n += lp->q.size();
  return n;
}

DomainId PartitionedEngine::current_domain() const {
  const auto& t = g_lane_tls;
  if (t.sim == static_cast<const void*>(&sim_) && t.lane != nullptr) return t.lane->id;
  return sim_.external_domain_;
}

void PartitionedEngine::schedule(DomainId domain, TimePs when, EventFn&& fn, bool fence) {
  auto& t = g_lane_tls;
  const bool in_event = t.sim == static_cast<const void*>(&sim_);
  if (in_event && t.windowed) {
    // Mid-window: the spawn is provisional. Its serial sequence number is
    // assigned by the barrier replay, at exactly the point the serial core
    // would have assigned it.
    Lane& lane = *t.lane;
    if (when < t.now) {
      throw std::logic_error("Simulator::schedule_at: event scheduled in the past");
    }
    const std::uint64_t prov = kProvisionalBase + lane.prov_counter++;
    if (fence) {
      // A fence is a delivery to *every* lane, so it carries the same
      // conservative constraint as a cross-domain event: other lanes may
      // already be past any time inside the horizon.
      if (when < t.now + lookahead_) {
        throw std::logic_error(
            "Simulator: fence scheduled inside the lookahead horizon (fences "
            "scheduled from event context need >= lookahead() of delay)");
      }
      lane.pool.push_back(
          WindowEvent{when, prov, 0, std::move(fn), WindowEvent::Kind::kFence, 0, false});
      return;
    }
    const DomainId target = domain == kCurrentDomain ? lane.id : domain;
    if (target >= lanes_.size()) {
      throw std::logic_error("Simulator: schedule into unknown domain");
    }
    if (target != lane.id) {
      // The conservative guarantee: another lane may already be past any
      // time earlier than now + lookahead, so such a delivery could never
      // be ordered correctly. net/ derives its minimum hop delay from the
      // topology's link latency to stay above this line by construction.
      if (when < t.now + lookahead_) {
        throw std::logic_error(
            "Simulator: cross-domain event scheduled inside the lookahead horizon");
      }
      lane.pool.push_back(
          WindowEvent{when, prov, 0, std::move(fn), WindowEvent::Kind::kCross, target, false});
      return;
    }
    const auto idx = static_cast<std::uint32_t>(lane.pool.size());
    lane.pool.push_back(
        WindowEvent{when, prov, 0, std::move(fn), WindowEvent::Kind::kIntra, target, false});
    lane.arena.push_back(idx);
    std::push_heap(lane.arena.begin(), lane.arena.end(), ProvAfter{lane.pool});
    return;
  }
  // Direct mode — serialized stepping, fence bodies, setup code: commit
  // immediately with a real sequence number, exactly as the serial core
  // would. All lanes are parked (or none exist yet), so any target is safe
  // at any future time.
  if (when < sim_.now_) {
    throw std::logic_error("Simulator::schedule_at: event scheduled in the past");
  }
  if (fence) {
    fence_push(FenceEntry{when, next_seq_++, std::move(fn)});
    return;
  }
  DomainId target = domain;
  if (target == kCurrentDomain) {
    target = (in_event && t.lane != nullptr) ? t.lane->id : sim_.external_domain_;
  }
  if (target >= lanes_.size()) {
    throw std::logic_error("Simulator: schedule into unknown domain");
  }
  lanes_[target]->q.push_at_seq(when, next_seq_++, std::move(fn));
}

Lane* PartitionedEngine::min_lane() {
  Lane* best = nullptr;
  TimePs bw = 0;
  std::uint64_t bs = 0;
  for (auto& lp : lanes_) {
    if (lp->q.empty()) continue;
    const auto* e = lp->q.peek();
    if (best == nullptr || e->when < bw || (e->when == bw && e->seq < bs)) {
      best = lp.get();
      bw = e->when;
      bs = e->seq;
    }
  }
  return best;
}

bool PartitionedEngine::serial_step_one() {
  Lane* lm = min_lane();
  bool fence_first = false;
  if (!fences_.empty()) {
    if (lm == nullptr) {
      fence_first = true;
    } else {
      const auto* e = lm->q.peek();
      const FenceEntry& f = fences_.front();
      fence_first = f.when < e->when || (f.when == e->when && f.seq < e->seq);
    }
  }
  if (lm == nullptr && !fence_first) return false;
  struct TlsReset {
    ~TlsReset() { g_lane_tls = LaneTls{}; }
  } guard;
  auto& t = g_lane_tls;
  if (fence_first) {
    FenceEntry f = fence_pop();
    sim_.now_ = f.when;
    ++sim_.executed_;
    observe_pop(f.when, f.seq);
    t = LaneTls{&sim_, nullptr, f.when, false};
    f.fn();
  } else {
    auto ev = lm->q.pop();
    sim_.now_ = ev.when;
    lm->now = ev.when;
    ++sim_.executed_;
    observe_pop(ev.when, ev.seq);
    t = LaneTls{&sim_, lm, ev.when, false};
    ev.payload();
  }
  return true;
}

bool PartitionedEngine::step() { return serial_step_one(); }

TimePs PartitionedEngine::run(TimePs deadline, bool has_deadline) {
  for (;;) {
    Lane* lm = min_lane();
    const bool have_fence = !fences_.empty();
    if (lm == nullptr && !have_fence) break;
    TimePs t_min;
    if (lm != nullptr) {
      t_min = lm->q.peek()->when;
      if (have_fence) t_min = std::min(t_min, fences_.front().when);
    } else {
      t_min = fences_.front().when;
    }
    if (has_deadline && t_min > deadline) break;
    TimePs horizon = t_min + lookahead_;
    if (horizon < t_min) horizon = ~TimePs{0};  // saturate on overflow
    if (have_fence) horizon = std::min(horizon, fences_.front().when);
    if (has_deadline && deadline + 1 != 0) horizon = std::min(horizon, deadline + 1);
    if (horizon <= t_min) {
      // A fence sits at (or before) the global front: drop to serialized
      // stepping until it has executed.
      serial_step_one();
      continue;
    }
    parallel_window(horizon);
    replay_and_commit();
  }
  if (has_deadline && sim_.now_ < deadline) sim_.now_ = deadline;
  return sim_.now_;
}

void PartitionedEngine::parallel_window(TimePs horizon) {
  // Lanes with window work. Below two there is nothing to overlap — run
  // inline and skip the barrier entirely (also the threads_ == 1 path,
  // which makes the windowed algorithm — and thus the replay-based seq
  // assignment — runnable single-threaded for differential testing).
  std::size_t active = 0;
  for (auto& lp : lanes_) {
    if (!lp->q.empty() && lp->q.peek()->when < horizon) ++active;
  }
  if (threads_ <= 1 || active <= 1) {
    for (auto& lp : lanes_) run_lane_window(*lp, horizon);
    return;
  }
  window_horizon_.store(horizon, std::memory_order_relaxed);
  lanes_done_.store(0, std::memory_order_relaxed);
  // The release store publishes horizon + counter reset to anyone who
  // claims a fresh ticket (claimers use acq_rel fetch_add) — including a
  // straggler worker still waking up for a *previous* window.
  next_lane_.store(0, std::memory_order_release);
  window_gen_.fetch_add(1, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lk(park_mu_);
    if (parked_ > 0) park_cv_.notify_all();
  }
  run_window_lanes();
  // The coordinator drained the ticket counter itself, so every lane is
  // claimed by a live thread and this wait cannot depend on a worker
  // having observed this particular window's wakeup.
  while (lanes_done_.load(std::memory_order_acquire) != lanes_.size()) cpu_relax();
  std::exception_ptr err;
  {
    std::lock_guard<std::mutex> lk(err_mu_);
    err = err_;
    err_ = nullptr;
  }
  if (err) std::rethrow_exception(err);
}

void PartitionedEngine::run_window_lanes() {
  for (;;) {
    const std::uint32_t i = next_lane_.fetch_add(1, std::memory_order_acq_rel);
    if (i >= lanes_.size()) break;
    try {
      run_lane_window(*lanes_[i], window_horizon_.load(std::memory_order_relaxed));
    } catch (...) {
      std::lock_guard<std::mutex> lk(err_mu_);
      if (!err_) err_ = std::current_exception();
    }
    // Count the ticket even on error: the barrier completes, and the
    // coordinator rethrows after the window.
    lanes_done_.fetch_add(1, std::memory_order_release);
  }
}

void PartitionedEngine::run_lane_window(Lane& lane, TimePs horizon) {
  struct TlsReset {
    ~TlsReset() { g_lane_tls = LaneTls{}; }
  } guard;
  auto& t = g_lane_tls;
  t.sim = &sim_;
  t.lane = &lane;
  t.windowed = true;
  for (;;) {
    const auto* cf = lane.q.empty() ? nullptr : lane.q.peek();
    const WindowEvent* pf = lane.arena.empty() ? nullptr : &lane.pool[lane.arena.front()];
    // Committed entries outrank same-time window spawns: every committed
    // seq is below kProvisionalBase, so <= picks the committed front on a
    // time tie — the order the serial core's seqs dictate.
    const bool take_committed = cf != nullptr && (pf == nullptr || cf->when <= pf->when);
    ExecRecord rec;
    EventFn fn;
    if (take_committed) {
      if (cf->when >= horizon) break;
      auto ev = lane.q.pop();
      rec.when = ev.when;
      rec.seq = ev.seq;
      fn = std::move(ev.payload);
    } else if (pf != nullptr) {
      if (pf->when >= horizon) break;
      std::pop_heap(lane.arena.begin(), lane.arena.end(), ProvAfter{lane.pool});
      const std::uint32_t idx = lane.arena.back();
      lane.arena.pop_back();
      // Move the callable out before running it: executing it may spawn,
      // growing (reallocating) the pool under the reference.
      WindowEvent& w = lane.pool[idx];
      rec.when = w.when;
      rec.pool_idx = idx;
      fn = std::move(w.fn);
      w.executed = true;
    } else {
      break;
    }
    lane.now = rec.when;
    t.now = rec.when;
    rec.spawn_begin = static_cast<std::uint32_t>(lane.pool.size());
    fn();
    rec.spawn_end = static_cast<std::uint32_t>(lane.pool.size());
    lane.log.push_back(rec);
  }
}

void PartitionedEngine::replay_and_commit() {
  // Serial k-way merge of the per-lane execution logs by (when, seq),
  // resolving each window spawn's seq the moment its parent replays — the
  // serial core's pop order and seq assignment, reconstructed from
  // metadata without re-running any handler. A record's own seq is always
  // resolved by the time it reaches the merge front: its parent precedes
  // it in the same lane's log.
  for (;;) {
    Lane* best = nullptr;
    TimePs bw = 0;
    std::uint64_t bs = 0;
    for (auto& lp : lanes_) {
      Lane& lane = *lp;
      if (lane.log_cursor >= lane.log.size()) continue;
      const ExecRecord& r = lane.log[lane.log_cursor];
      const std::uint64_t s =
          r.pool_idx == ExecRecord::kNoIdx ? r.seq : lane.pool[r.pool_idx].seq;
      if (best == nullptr || r.when < bw || (r.when == bw && s < bs)) {
        best = &lane;
        bw = r.when;
        bs = s;
      }
    }
    if (best == nullptr) break;
    const ExecRecord& r = best->log[best->log_cursor++];
    sim_.now_ = r.when;
    ++sim_.executed_;
    observe_pop(r.when, bs);
    for (std::uint32_t j = r.spawn_begin; j < r.spawn_end; ++j) {
      best->pool[j].seq = next_seq_++;
    }
  }
  // Commit the surviving (unexecuted) spawns into their destination lanes
  // and the fence heap, now carrying true serial seqs, and reset scratch.
  for (auto& lp : lanes_) {
    Lane& lane = *lp;
    for (auto& w : lane.pool) {
      if (w.executed) continue;
      switch (w.kind) {
        case WindowEvent::Kind::kIntra:
          lane.q.push_at_seq(w.when, w.seq, std::move(w.fn));
          break;
        case WindowEvent::Kind::kCross:
          lanes_[w.target]->q.push_at_seq(w.when, w.seq, std::move(w.fn));
          break;
        case WindowEvent::Kind::kFence:
          fence_push(FenceEntry{w.when, w.seq, std::move(w.fn)});
          break;
      }
    }
    lane.pool.clear();
    lane.arena.clear();
    lane.log.clear();
    lane.log_cursor = 0;
    lane.prov_counter = 0;
  }
}

void PartitionedEngine::fence_push(FenceEntry e) {
  fences_.push_back(std::move(e));
  std::push_heap(fences_.begin(), fences_.end(), [](const FenceEntry& a, const FenceEntry& b) {
    if (a.when != b.when) return a.when > b.when;
    return a.seq > b.seq;
  });
}

PartitionedEngine::FenceEntry PartitionedEngine::fence_pop() {
  std::pop_heap(fences_.begin(), fences_.end(), [](const FenceEntry& a, const FenceEntry& b) {
    if (a.when != b.when) return a.when > b.when;
    return a.seq > b.seq;
  });
  FenceEntry e = std::move(fences_.back());
  fences_.pop_back();
  return e;
}

void PartitionedEngine::start_workers() {
  workers_.reserve(threads_ - 1);
  for (unsigned i = 0; i + 1 < threads_; ++i) {
    workers_.emplace_back([this] { worker_main(); });
  }
}

void PartitionedEngine::worker_main() {
  // Start at gen 0, not the current gen: a worker whose thread comes up
  // after the first window has opened must still join it (missing it is
  // harmless with lane-count completion, but joining immediately is what
  // the spin loop is for).
  std::uint64_t seen = 0;
  for (;;) {
    // Windows are microseconds apart at most: spin briefly (a parked
    // thread costs a syscall-latency wakeup per window, which would
    // dominate the window itself), then park on the condvar.
    std::uint64_t gen;
    std::uint32_t spins = 0;
    for (;;) {
      gen = window_gen_.load(std::memory_order_acquire);
      if (gen != seen || shutdown_.load(std::memory_order_acquire)) break;
      cpu_relax();
      if (++spins >= (1u << 14)) {
        std::unique_lock<std::mutex> lk(park_mu_);
        ++parked_;
        park_cv_.wait(lk, [&] {
          return window_gen_.load(std::memory_order_acquire) != seen ||
                 shutdown_.load(std::memory_order_acquire);
        });
        --parked_;
        gen = window_gen_.load(std::memory_order_acquire);
        break;
      }
    }
    if (shutdown_.load(std::memory_order_acquire)) return;
    seen = gen;
    run_window_lanes();
  }
}

}  // namespace nadfs::sim::detail
