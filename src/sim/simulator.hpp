// Discrete-event simulation core.
//
// This is the substrate standing in for SST in the paper's methodology
// (DESIGN.md §1): a single-threaded event queue with picosecond-resolution
// simulated time. Components (links, NICs, PsPIN clusters, host CPUs)
// schedule callbacks; determinism is guaranteed by a monotonically
// increasing sequence number that breaks ties between same-time events in
// scheduling order.
//
// Hot-path notes: every simulated packet turns into a handful of events, so
// the queue is the single busiest data structure in the whole repo. Two
// choices keep it allocation-lean:
//  - EventFn is a move-only callable with kInlineBytes = 112 bytes of
//    inline storage. That holds a moved-in net::Packet (80 B) plus up to
//    four words of context, which covers every per-packet event: the
//    network's packet hops are 104-112 B and the NIC's read completion is
//    64 B. Both static_assert EventFn::fits_inline, so a field added to
//    Packet fails the build instead of quietly costing two heap
//    allocations per hop. Larger callables still work through one heap
//    allocation.
//  - The priority queue is a calendar queue (sim/calendar_queue.hpp):
//    time-bucketed lanes with a far-future overflow heap, amortized O(1)
//    per op on the densely populated NIC/link timelines where the binary
//    heap it replaced paid O(log n). It orders 24-byte (when, seq, slot) keys
//    and keeps the callables in a per-queue slab, so an EventFn moves into
//    the queue once and out once; bucket sifts, staging and rebuilds copy
//    keys only. That split is what makes a 128-byte EventFn affordable.
//    Tie-breaking is byte-identical to the heap — strictly ascending
//    (time, seq) — proven by the differential oracle harness in
//    tests/sim_queue_differential_test.cpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

#include "common/units.hpp"
#include "sim/calendar_queue.hpp"

namespace nadfs::sim {

/// Partition (event-lane) index in domain-parallel mode. Domain 0 is the
/// conventional control/default lane (everything scheduled from outside an
/// event lands there unless a DomainScope says otherwise).
using DomainId = std::uint32_t;

namespace detail {

class PartitionedEngine;
struct Lane;

/// Per-thread pointer to the lane currently executing an event, so
/// Simulator::now()/schedule() inherit the lane's clock and domain without
/// any lookup the serial core would have to pay for. `windowed` is true
/// inside a parallel window (spawns are provisional and replay-committed);
/// false during serialized stepping (fences, step()), where spawns commit
/// immediately with real sequence numbers — exactly the serial semantics.
struct LaneTls {
  const void* sim = nullptr;
  Lane* lane = nullptr;
  TimePs now = 0;
  bool windowed = false;
};
extern thread_local LaneTls g_lane_tls;

}  // namespace detail

/// Move-only type-erased `void()` callable with small-buffer optimization.
/// Replaces std::function on the event hot path: scheduling an event whose
/// capture state fits inline (fits_inline) performs zero heap allocations.
class EventFn {
 public:
  static constexpr std::size_t kInlineBytes = 112;

  /// Whether a callable of type Fn is stored inline rather than on the heap.
  /// The constructor decides with this, and hot-path sites static_assert it.
  template <typename Fn>
  static constexpr bool fits_inline = sizeof(Fn) <= kInlineBytes &&
                                      alignof(Fn) <= alignof(std::max_align_t) &&
                                      std::is_nothrow_move_constructible_v<Fn>;

  EventFn() = default;

  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, EventFn> &&
                                        std::is_invocable_r_v<void, std::decay_t<F>&>>>
  EventFn(F&& f) {  // NOLINT(google-explicit-constructor): callable wrapper
    using Fn = std::decay_t<F>;
    if constexpr (fits_inline<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      vt_ = inline_vtable<Fn>();
    } else {
      ptr_ = new Fn(std::forward<F>(f));
      vt_ = heap_vtable<Fn>();
    }
  }

  EventFn(EventFn&& other) noexcept { move_from(other); }

  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;

  ~EventFn() { reset(); }

  void operator()() { vt_->invoke(target()); }

  explicit operator bool() const { return vt_ != nullptr; }

 private:
  struct VTable {
    void (*invoke)(void*);
    /// Relocate from src storage into dst storage (inline case only; heap
    /// callables move by stealing the pointer and never relocate).
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void*) noexcept;
    bool heap;
  };

  template <typename Fn>
  static const VTable* inline_vtable() {
    static constexpr VTable vt{
        [](void* p) { (*static_cast<Fn*>(p))(); },
        [](void* dst, void* src) noexcept {
          ::new (dst) Fn(std::move(*static_cast<Fn*>(src)));
          static_cast<Fn*>(src)->~Fn();
        },
        [](void* p) noexcept { static_cast<Fn*>(p)->~Fn(); },
        false,
    };
    return &vt;
  }

  template <typename Fn>
  static const VTable* heap_vtable() {
    static constexpr VTable vt{
        [](void* p) { (*static_cast<Fn*>(p))(); },
        nullptr,
        [](void* p) noexcept { delete static_cast<Fn*>(p); },
        true,
    };
    return &vt;
  }

  void* target() { return vt_ && vt_->heap ? ptr_ : static_cast<void*>(storage_); }

  void move_from(EventFn& other) noexcept {
    vt_ = other.vt_;
    if (!vt_) return;
    if (vt_->heap) {
      ptr_ = other.ptr_;
    } else {
      vt_->relocate(storage_, other.storage_);
    }
    other.vt_ = nullptr;
  }

  void reset() noexcept {
    if (vt_) {
      vt_->destroy(target());
      vt_ = nullptr;
    }
  }

  union {
    alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
    void* ptr_;
  };
  const VTable* vt_ = nullptr;
};

class Simulator {
 public:
  Simulator();
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time. Inside an event this is the event's own
  /// timestamp in both the serial and the partitioned core (a lane's clock
  /// is exactly the timestamp of the event it is executing).
  TimePs now() const {
    if (part_) {
      const auto& t = detail::g_lane_tls;
      if (t.sim == this && t.windowed) return t.now;
    }
    return now_;
  }

  /// Schedule `fn` to run `delay` after the current time.
  void schedule(TimePs delay, EventFn&& fn) { schedule_at(now() + delay, std::move(fn)); }

  /// Schedule `fn` at an absolute time. Scheduling in the past is a hard
  /// error: throws std::logic_error and leaves the queue untouched. Every
  /// schedule call takes the callable by rvalue reference, so an inline
  /// one is relocated once, straight into the queue's payload slab.
  void schedule_at(TimePs when, EventFn&& fn);

  /// Run until the event queue drains. Returns the final time.
  TimePs run();

  /// Run until the event queue drains or `deadline` is reached (events at
  /// exactly `deadline` still execute). Returns the final time.
  TimePs run_until(TimePs deadline);

  /// Execute a single event. Returns false if the queue was empty. In
  /// partitioned mode this is serialized stepping: one global-minimum
  /// (when, seq) event, identical to the serial core.
  bool step();

  std::size_t pending_events() const;
  std::uint64_t executed_events() const { return executed_; }

  /// The underlying calendar queue (read-only introspection for tests;
  /// serial mode only — partitioned lanes are not exposed).
  const CalendarQueue<EventFn>& queue() const { return queue_; }

  // ------------------------------------------------ domain partitioning
  // DESIGN.md §3f. Everything below is a no-op extension: a Simulator that
  // never calls enable_partitions behaves exactly as before, instruction
  // for instruction on the hot path bar one predictable branch.

  /// Split the event core into `domains` calendar-queue lanes driven by a
  /// conservative windowed scheduler. `lookahead` is the minimum
  /// cross-domain scheduling delay (the null-message horizon — for the
  /// network mapping, the minimum link latency). `threads` is the worker
  /// pool size (0 = hardware_concurrency, clamped to the domain count;
  /// 1 = run the windowed algorithm single-threaded, bit-identical).
  /// Must be called before any event is scheduled; throws otherwise.
  void enable_partitions(std::size_t domains, TimePs lookahead, unsigned threads = 0);

  bool partitioned() const { return part_ != nullptr; }
  std::size_t domain_count() const;
  TimePs lookahead() const;
  unsigned parallel_threads() const;

  /// Domain of the currently executing event; external_domain() outside
  /// events. Serial mode: always 0.
  DomainId current_domain() const;

  /// Schedule into a specific domain's lane. From inside an event of a
  /// *different* domain, `when` must be at least lookahead() past the
  /// executing event (conservative horizon) — violations throw
  /// std::logic_error. From outside any event, or into the executing
  /// event's own domain, any future time is legal. Serial mode: plain
  /// schedule_at.
  void schedule_at_domain(DomainId domain, TimePs when, EventFn&& fn);

  /// Schedule a fence: an event that executes with every lane parked and
  /// synchronized, at exactly the (when, seq) position a plain schedule
  /// call from the same context would occupy — so serial and partitioned
  /// runs order it identically. Use for rare mutations of state shared
  /// across domains (mid-run fault-plan edits, whole-registry sampling).
  /// A fence scheduled from *inside* an event is a delivery to every lane
  /// and therefore needs `delay >= lookahead()`, like any cross-domain
  /// event; from outside events (setup, or another fence body) any future
  /// time is legal. Serial mode: plain schedule/schedule_at.
  void schedule_fence(TimePs delay, EventFn&& fn) {
    schedule_fence_at(now() + delay, std::move(fn));
  }
  void schedule_fence_at(TimePs when, EventFn&& fn);

  /// Default domain for events scheduled from outside any event (setup
  /// code, test drivers). 0 unless overridden via DomainScope.
  DomainId external_domain() const { return external_domain_; }
  void set_external_domain(DomainId d);

  /// Oracle hook: called once per executed event, in serial pop order,
  /// with the event's (when, seq) — the observable the parallel-vs-serial
  /// differential suite compares. Fires identically in serial mode, in
  /// serialized partitioned stepping, and from the window replay.
  using PopObserver = void (*)(void* ctx, TimePs when, std::uint64_t seq);
  void set_pop_observer(PopObserver fn, void* ctx) {
    pop_observer_ = fn;
    pop_observer_ctx_ = ctx;
  }

 private:
  friend class detail::PartitionedEngine;

  TimePs now_ = 0;
  std::uint64_t executed_ = 0;
  CalendarQueue<EventFn> queue_;
  DomainId external_domain_ = 0;
  PopObserver pop_observer_ = nullptr;
  void* pop_observer_ctx_ = nullptr;
  std::unique_ptr<detail::PartitionedEngine> part_;
};

/// RAII override of the external (outside-any-event) scheduling domain:
/// wiring code that arms a component's first event from setup — a storage
/// node's state-GC tick, say — scopes it into the node's lane so the
/// rearm chain stays lane-local. No-op on a serial simulator.
class DomainScope {
 public:
  DomainScope(Simulator& sim, DomainId domain) : sim_(sim), prev_(sim.external_domain()) {
    sim_.set_external_domain(domain);
  }
  ~DomainScope() { sim_.set_external_domain(prev_); }
  DomainScope(const DomainScope&) = delete;
  DomainScope& operator=(const DomainScope&) = delete;

 private:
  Simulator& sim_;
  DomainId prev_;
};

}  // namespace nadfs::sim
