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
//  - The priority queue (sim/event_queue.hpp) is a binary min-heap of
//    24-byte (when, seq, slot) keys; the callables sit in a per-queue slab,
//    so an EventFn moves into the queue once and out once, and heap sifts
//    copy keys only. That split is what makes a 128-byte EventFn
//    affordable. Ties break in strictly ascending (time, seq), proven
//    against the retained reference heap by the differential oracle
//    harness in tests/sim_queue_differential_test.cpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>

#include "common/units.hpp"
#include "sim/event_queue.hpp"

namespace nadfs::sim {

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
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time. Inside an event this is the event's own
  /// timestamp.
  TimePs now() const { return now_; }

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

  /// Execute a single event. Returns false if the queue was empty.
  bool step();

  std::size_t pending_events() const { return queue_.size(); }
  std::uint64_t executed_events() const { return executed_; }

 private:
  TimePs now_ = 0;
  std::uint64_t executed_ = 0;
  EventQueue<EventFn> queue_;
};

}  // namespace nadfs::sim
