// Event queue: one binary min-heap of 24-byte (when, seq, slot) keys over a
// payload slab (DESIGN.md §3a). Sifts copy keys, never a payload; vacated
// slots are reused LIFO, so the slab stays at the peak pending count. Pop
// order is strictly ascending (when, seq), seq being the global push order;
// the slot is never compared. tests/sim_queue_differential_test.cpp checks
// it in lockstep against the retained reference heap (sim_reference_heap.hpp).
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/units.hpp"

namespace nadfs::sim {

template <typename Payload>
class EventQueue {
 public:
  /// What the heap holds: the (when, seq) rank plus the payload's slab slot.
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

  /// Enqueue `payload` at absolute time `when`; returns its tie-break seq.
  std::uint64_t push(TimePs when, Payload&& payload) {
    auto slot = static_cast<std::uint32_t>(slab_.size());
    if (free_.empty()) {
      slab_.push_back(std::move(payload));
    } else {
      slot = free_.back();
      free_.pop_back();
      slab_[slot] = std::move(payload);
    }
    const Key k{when, next_seq_++, slot};
    // Sift up through a hole: one key copy per level instead of a swap.
    std::size_t hole = heap_.size();
    heap_.emplace_back();
    for (; hole > 0 && before(k, heap_[(hole - 1) / 2]); hole = (hole - 1) / 2) {
      heap_[hole] = heap_[(hole - 1) / 2];
    }
    heap_[hole] = k;
    return k.seq;
  }

  /// The earliest key, or nullptr; valid, like payload()'s, until a mutation.
  const Key* peek() const { return heap_.empty() ? nullptr : &heap_.front(); }
  const Payload& payload(const Key& k) const { return slab_[k.slot]; }

  /// Remove and return the earliest entry. Precondition: !empty().
  Entry pop() {
    assert(!heap_.empty());
    const Key top = heap_.front();
    const Key last = heap_.back();
    heap_.pop_back();
    // Sift `last` down from the root through a hole.
    const std::size_t n = heap_.size();
    std::size_t hole = 0;
    for (std::size_t child = 1; child < n; child = 2 * hole + 1) {
      if (child + 1 < n && before(heap_[child + 1], heap_[child])) ++child;
      if (!before(heap_[child], last)) break;
      heap_[hole] = heap_[child];
      hole = child;
    }
    if (n > 0) heap_[hole] = last;
    free_.push_back(top.slot);
    return Entry{top.when, top.seq, std::move(slab_[top.slot])};
  }

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }
  /// Payload slots ever allocated: the peak pending count.
  std::size_t slab_size() const { return slab_.size(); }

 private:
  static bool before(const Key& a, const Key& b) {
    return a.when != b.when ? a.when < b.when : a.seq < b.seq;
  }

  std::uint64_t next_seq_ = 0;
  std::vector<Key> heap_;            // min-heap by (when, seq)
  std::vector<Payload> slab_;        // payload of a queued key, by slot
  std::vector<std::uint32_t> free_;  // vacated slots, reused LIFO
};

}  // namespace nadfs::sim
