// Domain-parallel event core: conservative windowed scheduler behind the
// Simulator facade (DESIGN.md §3f).
//
// The simulation is split into per-domain calendar-queue lanes (one per
// node or switch group — the Cluster decides the mapping). Execution
// proceeds in windows: with T the global minimum pending (when, seq) and
// L the lookahead (the minimum cross-domain scheduling delay, i.e. the
// minimum link latency of the network mapping), every lane may execute
// all of its events with when < H = T + L concurrently — conservative
// (Chandy-Misra-Bryant-style) synchronization where the lookahead *is*
// the null message: no lane can receive a cross-domain event earlier than
// H, so nothing a concurrent lane does can invalidate the window.
//
// The hard requirement is bit-identical ordering: the parallel schedule
// must reproduce the serial (when, seq) pop order exactly, *including*
// the sequence numbers the serial core would have assigned to events
// spawned mid-window. Three observations make that reconstructible:
//
//  1. Within a window, a cross-domain spawn always lands at or beyond H
//     (delay >= lookahead), so every event *executed* in the window that
//     was spawned in the window is lane-local. Each lane therefore sees
//     exactly the window events the serial core would hand it, and
//     executes them in the serial core's per-lane order: committed
//     entries by (when, seq), intra-window spawns by (when, spawn order)
//     ranked after every committed seq (serial assigns spawn seqs after
//     all pre-window seqs, in execution order of their parents — which,
//     inductively, is the lane's own execution order).
//  2. The window's event *set* is exactly the serial core's next |window|
//     pops: every pending event with when < H, and nothing else.
//  3. So a post-window replay — a cheap serial k-way merge of the
//     per-lane execution logs by (when, seq), resolving each spawned
//     event's seq at the moment its parent is replayed — visits the
//     window's events in exactly the serial pop order and assigns
//     exactly the serial sequence numbers. The replay touches metadata
//     only (no handlers run); its cost is a few tens of ns per event
//     against hundreds for the handler itself.
//
// Fences (schedule_fence) are events that need every lane parked: rare
// cross-domain state mutations (mid-run fault-plan edits) and
// whole-registry sampling ticks. A fence occupies a normal (when, seq)
// slot; the window horizon clips at the earliest fence and the core
// drops to serialized stepping until it has executed — so serial and
// partitioned runs order fences identically.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/simulator.hpp"

namespace nadfs::sim::detail {

/// Rank used to compare an intra-window spawn against committed entries:
/// provisional rank = kProvisionalBase + lane-local spawn index. Committed
/// seqs are always below this (a run would need ~4.6e18 events to reach
/// it), so committed entries win every same-time tie — as in the serial
/// core, where spawns always draw later seqs than anything already queued.
inline constexpr std::uint64_t kProvisionalBase = std::uint64_t{1} << 62;

/// An event scheduled during the current window by one of this lane's
/// events. Intra-lane spawns may themselves execute later in the same
/// window; cross-lane and fence spawns are committed at the barrier once
/// the replay has assigned their serial seq.
struct WindowEvent {
  TimePs when = 0;
  std::uint64_t prov = 0;  ///< lane-local spawn rank (see kProvisionalBase)
  std::uint64_t seq = 0;   ///< serial seq, assigned by the replay
  EventFn fn;
  enum class Kind : std::uint8_t { kIntra, kCross, kFence } kind = Kind::kIntra;
  DomainId target = 0;  ///< destination lane (kCross only)
  bool executed = false;
};

/// One entry of a lane's window execution log: an executed event plus the
/// half-open range of pool indices it spawned (spawns append to the pool,
/// so the range is contiguous). `pool_idx` is kNoIdx for committed
/// entries (seq known up front) and the pool index for window spawns
/// (seq resolved by the replay when the record reaches the merge front —
/// guaranteed assigned by then, because the parent precedes it in the
/// same log).
struct ExecRecord {
  static constexpr std::uint32_t kNoIdx = ~std::uint32_t{0};
  TimePs when = 0;
  std::uint64_t seq = 0;
  std::uint32_t pool_idx = kNoIdx;
  std::uint32_t spawn_begin = 0;
  std::uint32_t spawn_end = 0;
};

/// One domain's event lane. Only its executing worker touches it during a
/// window; only the coordinator touches it between windows (the window
/// barrier provides the happens-before edges).
struct alignas(64) Lane {
  CalendarQueue<EventFn> q;  ///< committed entries, globally-assigned seqs
  DomainId id = 0;
  TimePs now = 0;  ///< timestamp of the lane's last executed event

  // Window scratch, reset at every barrier.
  std::vector<WindowEvent> pool;     ///< every spawn of this window, in order
  std::vector<std::uint32_t> arena;  ///< executable intra spawns: min-heap by (when, prov)
  std::vector<ExecRecord> log;       ///< this window's executions, in order
  std::size_t log_cursor = 0;        ///< replay progress (coordinator only)
  std::uint64_t prov_counter = 0;
};

class PartitionedEngine {
 public:
  PartitionedEngine(Simulator& sim, std::size_t domains, TimePs lookahead, unsigned threads);
  ~PartitionedEngine();

  std::size_t domain_count() const { return lanes_.size(); }
  TimePs lookahead() const { return lookahead_; }
  unsigned threads() const { return threads_; }

  std::size_t pending_events() const;

  /// Route one schedule call. `domain` is the explicit target or
  /// kCurrentDomain to inherit the executing lane (or the external
  /// domain outside events). `fence` turns the event into a fence.
  static constexpr DomainId kCurrentDomain = ~DomainId{0};
  void schedule(DomainId domain, TimePs when, EventFn&& fn, bool fence);

  DomainId current_domain() const;

  TimePs run(TimePs deadline, bool has_deadline);
  bool step();

 private:
  struct FenceEntry {
    TimePs when;
    std::uint64_t seq;
    EventFn fn;
  };

  // -- windowed core ---------------------------------------------------
  void run_lane_window(Lane& lane, TimePs horizon);
  void run_window_lanes();  ///< worker body: drain the lane ticket counter
  void parallel_window(TimePs horizon);
  void replay_and_commit();
  /// Execute the single global-minimum event (lane event or fence) with
  /// immediate seq assignment — exact serial semantics. False when empty.
  bool serial_step_one();

  /// Lane whose committed front is the global (when, seq) minimum.
  Lane* min_lane();

  void observe_pop(TimePs when, std::uint64_t seq) {
    if (sim_.pop_observer_) sim_.pop_observer_(sim_.pop_observer_ctx_, when, seq);
  }

  // -- fence heap (tiny; ordered by (when, seq)) -----------------------
  void fence_push(FenceEntry e);
  FenceEntry fence_pop();

  // -- worker pool -----------------------------------------------------
  void start_workers();
  void worker_main();

  Simulator& sim_;
  TimePs lookahead_;
  unsigned threads_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::vector<FenceEntry> fences_;
  std::uint64_t next_seq_ = 0;  ///< one global tie-break counter for every lane

  std::vector<std::thread> workers_;
  alignas(64) std::atomic<std::uint64_t> window_gen_{0};
  alignas(64) std::atomic<std::uint32_t> next_lane_{0};
  // Completion is counted in *lanes*, not workers: every claimed ticket
  // increments lanes_done_ exactly once, and the coordinator itself drains
  // the ticket counter, so a worker that starts late (or misses a window
  // wakeup entirely) can never wedge the barrier — it simply finds the
  // tickets exhausted.
  alignas(64) std::atomic<std::uint32_t> lanes_done_{0};
  std::atomic<TimePs> window_horizon_{0};
  std::atomic<bool> shutdown_{false};
  std::mutex park_mu_;
  std::condition_variable park_cv_;
  int parked_ = 0;  // guarded by park_mu_
  std::mutex err_mu_;
  std::exception_ptr err_;
};

}  // namespace nadfs::sim::detail
