// Calendar-queue event core: amortized-O(1) priority queue for the dense
// event timelines the NIC/link schedulers produce (DESIGN.md §"sim").
//
// Keys and payloads live apart. Every ordering structure below — staging
// buffer, buckets, cursor-bucket mini-heaps, overflow heap and the rebuild
// pool — holds a 24-byte trivially copyable Key (when, seq, slot). The
// payload itself sits in a per-queue slab (a vector plus a LIFO free list
// of slots) and is moved into its slot by push and out of it by pop; only
// the slab's own amortized growth moves it otherwise. Sifts, staging
// copies and rebuilds shuffle plain keys, never the payload (an EventFn
// would relocate through an indirect call each time). The LIFO free list
// keeps the slab at the peak pending count and hands the most recently
// vacated (cache-warm) slot to the next push.
//
// Structure
//  - A power-of-two array of time buckets ("days"). Bucket width is a
//    power of two picoseconds (1 << shift_), so routing an event is a
//    shift+mask: day = when >> shift_, slot = day & mask_. The wheel
//    covers the window [cursor_day_, cursor_day_ + bucket_count) — one
//    day per slot, never more (no year wrap-around to disambiguate).
//  - Events outside the window — beyond the horizon OR behind the cursor
//    (legal: a push may be earlier than everything currently wheeled) —
//    land in an overflow heap (the hole-sifting binary heap from the
//    PR 1 event core). Whenever the cursor advances, overflow entries
//    whose day has entered the window migrate into buckets; when the
//    wheel drains completely the cursor jumps straight to the overflow's
//    earliest day. peek/pop compare the wheel candidate against the
//    overflow top, so a behind-the-window entry is returned first without
//    ever disturbing the bucket invariant (one day per slot).
//  - Buckets are append-only lanes, min-heapified by (when, seq) on first
//    visit by the cursor and consumed as a binary heap. An entry pushed
//    into the bucket currently being drained (a callback scheduling for
//    "now") is push_heap'ed in O(log bucket) — tie-storm workloads pile
//    thousands of same-time events into one bucket, where an ordered
//    insert would memmove half the lane on every re-entrant push.
//  - Pushes are staged: push is an O(1) sequential append to a staging
//    buffer, and the next peek routes the stage into the wheel. A stage
//    that rivals the wheel's capacity is integrated via one full rebuild
//    sized for the whole pool, so a fill burst of any size pays a single
//    integration pass instead of O(log n) incremental re-bucketings.
//  - Resize: a rebuild fires when wheel occupancy crosses 2x kLoadFactor
//    per bucket, when the overflow heap accumulates pressure (the window
//    is mis-placed for the live population), or when the wheel drains
//    below 1/4 bucket occupancy. A rebuild pulls every key — wheel,
//    overflow, and stage — into one pool, re-derives the bucket width
//    from the mean gap of the densest three quarters of the pool
//    (25%-trimmed, so a handful of far-future timeouts cannot blow the
//    width up), sizes the bucket array for kLoadFactor-per-bucket with 2x
//    headroom, and re-routes everything. Triggers are geometric (each
//    fires only after the relevant count at least doubles), so rebuild
//    cost amortizes to O(1) per operation.
//
// Ordering contract — identical to the heap it replaces: strictly
// ascending (when, seq), seq being the global push order, with no
// restriction on push times (the simulator additionally refuses
// scheduling in the past, but the queue itself orders arbitrary pushes
// correctly). The slot never takes part in a comparison, so where a
// payload is stored cannot change the order. The
// tests/sim_queue_differential_test.cpp oracle harness drives this
// structure and the retained reference heap (tests/sim_reference_heap.hpp)
// in lockstep to prove it.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/units.hpp"

namespace nadfs::sim {

template <typename Payload>
class CalendarQueue {
 public:
  /// What every ordering structure holds: the (when, seq) rank plus the
  /// slab slot of the payload.
  struct Key {
    TimePs when;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  static_assert(sizeof(Key) == 24 && std::is_trivially_copyable_v<Key>);

  /// A popped event: its rank and the payload moved out of the slab.
  struct Entry {
    TimePs when;
    std::uint64_t seq;
    Payload payload;
  };

  static constexpr std::size_t kMinBuckets = 16;
  static constexpr std::size_t kMaxBuckets = std::size_t{1} << 20;
  static constexpr unsigned kMaxShift = 40;  // widest bucket: 2^40 ps ≈ 1.1 s
  // Nominal events per bucket after a rebuild. Loading several events per
  // bucket (rather than ~1) costs a trivial sort per visited bucket but
  // shrinks the bucket array — and with it the per-push random cache/TLB
  // miss surface and the per-bucket allocation churn — by an order of
  // magnitude. Push cost is memory-bound, not compute-bound, at 1e6+
  // pending events.
  static constexpr std::size_t kLoadFactor = 8;

  CalendarQueue() : buckets_(kMinBuckets) {}
  CalendarQueue(const CalendarQueue&) = delete;
  CalendarQueue& operator=(const CalendarQueue&) = delete;

  /// Enqueue `payload` at absolute time `when`; returns the assigned
  /// sequence number (the tie-break rank among same-time entries). O(1)
  /// append: the payload is moved into its slab slot and the key goes to a
  /// staging buffer, routed into the wheel/overflow structure on the next
  /// peek (lazy insertion — a pure fill burst never pays intermediate
  /// re-bucketing).
  std::uint64_t push(TimePs when, Payload&& payload) {
    const std::uint64_t seq = next_seq_++;
    stage(when, seq, std::move(payload));
    return seq;
  }

  /// Key of the earliest entry by (when, seq), or nullptr if empty.
  /// Advances internal cursor/migration state (maintenance only — ordering
  /// is unaffected), so it is non-const; the pointer is valid until the
  /// next mutation.
  const Key* peek() {
    if (size_ == 0) return nullptr;
    if (!staged_.empty()) integrate_staged();
    if (wheel_size_ == 0) {
      // Wheel drained: jump the cursor to the overflow's earliest day.
      cursor_day_ = overflow_.front().when >> shift_;
    }
    migrate_overflow();
    while (buckets_[cursor_day_ & mask_].keys.empty()) ++cursor_day_;
    Bucket& b = buckets_[cursor_day_ & mask_];
    if (!b.heaped) {
      std::make_heap(b.keys.begin(), b.keys.end(), after);
      b.heaped = true;
    }
    // A behind-the-window overflow entry (pushed earlier than everything
    // wheeled) beats the wheel candidate; an ahead-of-window one never
    // does. One comparison decides.
    if (!overflow_.empty() && before(overflow_.front(), b.keys.front())) {
      return &overflow_.front();
    }
    return &b.keys.front();
  }

  /// The payload a queued key refers to (valid until the next mutation).
  const Payload& payload(const Key& k) const { return slab_[k.slot]; }

  /// Remove and return the earliest entry. Precondition: !empty().
  Entry pop() {
    [[maybe_unused]] const Key* top = peek();
    assert(top != nullptr);
    const Key k = [&] {
      Bucket& b = buckets_[cursor_day_ & mask_];  // non-empty after peek
      if (!overflow_.empty() && before(overflow_.front(), b.keys.front())) {
        return overflow_pop();
      }
      std::pop_heap(b.keys.begin(), b.keys.end(), after);
      const Key key = b.keys.back();
      b.keys.pop_back();
      if (b.keys.empty()) b.heaped = false;
      --wheel_size_;
      return key;
    }();
    --size_;
    if (buckets_.size() > kMinBuckets && wheel_size_ < buckets_.size() / 4) {
      rebuild();
    }
    free_.push_back(k.slot);
    return Entry{k.when, k.seq, std::move(slab_[k.slot])};
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  // Introspection (tests, DESIGN.md §"sim" parameter documentation).
  std::size_t bucket_count() const { return buckets_.size(); }
  unsigned bucket_shift() const { return shift_; }
  TimePs bucket_width() const { return TimePs{1} << shift_; }
  std::size_t overflow_size() const { return overflow_.size(); }
  std::uint64_t rebuilds() const { return rebuilds_; }
  /// Payload slots ever allocated: the peak pending count, since a pop's
  /// slot is reused by the next push.
  std::size_t slab_size() const { return slab_.size(); }

 private:
  struct Bucket {
    std::vector<Key> keys;
    bool heaped = false;  // min-heapified by (when, seq); cursor bucket only
  };

  static bool before(const Key& a, const Key& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;
  }

  // std:: heap algorithms build max-heaps; inverting the comparator makes
  // them min-heaps by (when, seq).
  static bool after(const Key& a, const Key& b) { return before(b, a); }

  std::uint64_t window_end() const { return cursor_day_ + buckets_.size(); }

  /// Move `payload` into a slab slot (the most recently freed one, else a
  /// new one) and stage its key.
  void stage(TimePs when, std::uint64_t seq, Payload&& payload) {
    std::uint32_t slot;
    if (free_.empty()) {
      slot = static_cast<std::uint32_t>(slab_.size());
      slab_.push_back(std::move(payload));
    } else {
      slot = free_.back();
      free_.pop_back();
      slab_[slot] = std::move(payload);
    }
    staged_.push_back(Key{when, seq, slot});
    ++size_;
  }

  /// Place a key in the wheel or, outside the window (either side), the
  /// overflow heap.
  void route(const Key& k) {
    const std::uint64_t day = k.when >> shift_;
    if (day < cursor_day_ || day >= window_end()) {
      overflow_push(k);
    } else {
      insert_wheel(k);
    }
  }

  void insert_wheel(const Key& k) {
    Bucket& b = buckets_[(k.when >> shift_) & mask_];
    if (b.keys.capacity() == 0) b.keys.reserve(2 * kLoadFactor);
    b.keys.push_back(k);
    if (b.heaped) std::push_heap(b.keys.begin(), b.keys.end(), after);
    ++wheel_size_;
  }

  /// Drain the staging buffer into the wheel/overflow structure. A stage
  /// that rivals the wheel's capacity goes through a full rebuild instead —
  /// one pass over the whole pool with exact sizing and a width re-derived
  /// from everything pending, rather than routing into a structure sized
  /// for a fraction of the population.
  void integrate_staged() {
    if (staged_.size() >= kLoadFactor * buckets_.size()) {
      rebuild();  // absorbs staged_
      return;
    }
    for (const Key& k : staged_) route(k);
    staged_.clear();
    const std::size_t n = buckets_.size();
    const bool wheel_pressure = wheel_size_ > 2 * kLoadFactor * n && n < kMaxBuckets;
    // Overflow pressure: the window is mis-sized or mis-placed for what is
    // actually being scheduled. The doubling guard against the floor left
    // by the previous rebuild keeps a far-future population (which a
    // rebuild cannot wheel) from re-triggering on every integration.
    const bool overflow_pressure =
        overflow_.size() > n + 64 && overflow_.size() >= 2 * overflow_floor_ + 64;
    if (wheel_pressure || overflow_pressure) rebuild();
  }

  /// Pull overflow entries whose day lies within the window into buckets.
  /// A behind-the-window top stops the loop: it stays in the heap (where
  /// peek finds it by direct comparison) so it never lands behind the
  /// cursor in an aliased bucket slot.
  void migrate_overflow() {
    while (!overflow_.empty()) {
      const std::uint64_t day = overflow_.front().when >> shift_;
      if (day < cursor_day_ || day >= window_end()) break;
      insert_wheel(overflow_pop());
    }
  }

  /// Pull every key — wheel AND overflow — into one pool, re-derive the
  /// bucket width from the pool's dense core, size the bucket array to the
  /// next power of two above the pool, re-anchor the cursor at the pool's
  /// earliest day, and re-route everything. Entries the new window still
  /// cannot cover (a far-future tail wider than kMaxShift x bucket count)
  /// fall back into the overflow heap, and overflow_floor_ records that
  /// residue so push()'s pressure trigger demands a doubling before firing
  /// again. Payloads stay in their slots throughout.
  void rebuild() {
    ++rebuilds_;
    std::vector<Key> live;
    live.reserve(size_);
    for (auto& b : buckets_) {
      live.insert(live.end(), b.keys.begin(), b.keys.end());
      b.keys.clear();
      b.heaped = false;
    }
    live.insert(live.end(), overflow_.begin(), overflow_.end());
    overflow_.clear();
    live.insert(live.end(), staged_.begin(), staged_.end());
    staged_.clear();
    TimePs lo = ~TimePs{0};
    for (const Key& k : live) lo = std::min(lo, k.when);
    if (live.size() >= 2) {
      // Width from the mean gap of the earliest three quarters: the 75th
      // percentile timestamp is an nth_element away (the reshuffle it does
      // to `live` is irrelevant — routing order never affects pop order),
      // and trimming the top quarter keeps a handful of far-future
      // timeouts from stretching the bucket width to the whole span.
      const std::size_t k = live.size() * 3 / 4;
      std::nth_element(live.begin(), live.begin() + static_cast<std::ptrdiff_t>(k), live.end(),
                       [](const Key& a, const Key& b) { return a.when < b.when; });
      const TimePs gap = std::max<TimePs>((live[k].when - lo) / k, 1);
      // Width = kLoadFactor mean gaps, rounded UP to a power of two:
      // bucket_count x width must cover at least the trimmed span, else a
      // systematic fraction of every future push leaks into the O(log n)
      // overflow heap.
      unsigned s = 0;
      while (s < kMaxShift && (TimePs{1} << s) < gap * kLoadFactor) ++s;
      shift_ = s;
    }
    // 2x headroom above the current population: the wheel-pressure trigger
    // then fires at ~4x the rebuilt size, so a monotonically growing fill
    // re-routes sum(n/4^i) ~ n/3 entries across all rebuilds instead of n.
    std::size_t target = kMinBuckets;
    while (target * kLoadFactor < 2 * live.size() && target < kMaxBuckets) target *= 2;
    // resize (not reassign) keeps the surviving buckets' vector capacity —
    // rebuilds are frequent enough that re-paying their allocations hurts.
    buckets_.resize(target);
    mask_ = buckets_.size() - 1;
    wheel_size_ = 0;
    if (!live.empty()) cursor_day_ = lo >> shift_;
    // (live empty: the stale cursor is harmless — route() sends any
    // out-of-window push to overflow and the next peek re-anchors.)
    for (const Key& k : live) route(k);
    overflow_floor_ = overflow_.size();
  }

  // ------------------------------------------------- far-future overflow
  // Hole-sifting binary min-heap (the PR 1 event core), ordered by `before`.

  void overflow_push(const Key& k) {
    overflow_.emplace_back();  // placeholder hole; sift_up fills it
    std::size_t hole = overflow_.size() - 1;
    while (hole > 0) {
      const std::size_t parent = (hole - 1) / 2;
      if (!before(k, overflow_[parent])) break;
      overflow_[hole] = overflow_[parent];
      hole = parent;
    }
    overflow_[hole] = k;
  }

  Key overflow_pop() {
    const Key top = overflow_.front();
    const Key last = overflow_.back();
    overflow_.pop_back();
    if (!overflow_.empty()) {
      const std::size_t n = overflow_.size();
      std::size_t hole = 0;
      std::size_t child = 1;
      while (child < n) {
        if (child + 1 < n && before(overflow_[child + 1], overflow_[child])) ++child;
        if (!before(overflow_[child], last)) break;
        overflow_[hole] = overflow_[child];
        hole = child;
        child = 2 * hole + 1;
      }
      overflow_[hole] = last;
    }
    return top;
  }

  std::vector<Bucket> buckets_;
  std::size_t mask_ = kMinBuckets - 1;
  unsigned shift_ = 10;  // initial bucket width 1024 ps ≈ 1 ns
  std::uint64_t cursor_day_ = 0;
  std::size_t wheel_size_ = 0;
  std::size_t size_ = 0;
  std::uint64_t next_seq_ = 0;
  std::vector<Key> overflow_;
  std::vector<Key> staged_;         // pushed but not yet routed (lazy insertion)
  std::size_t overflow_floor_ = 0;  // overflow residue after the last rebuild
  std::uint64_t rebuilds_ = 0;
  std::vector<Payload> slab_;        // payload of a queued key, by slot
  std::vector<std::uint32_t> free_;  // vacated slots, reused LIFO
};

}  // namespace nadfs::sim
