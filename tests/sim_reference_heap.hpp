// Reference scheduler oracle: a minimal retained copy of the original
// binary min-heap event core (commit bf5d7b8, src/sim/simulator.cpp), which
// sifts whole (when, seq, payload) entries. The differential harness in
// sim_queue_differential_test.cpp runs it in lockstep with sim::EventQueue
// (a heap of keys over a payload slab) and asserts identical pop order.
// Do not "improve" this file — its value is being the old, trusted
// implementation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/units.hpp"

namespace nadfs::sim {

template <typename Payload>
class ReferenceEventHeap {
 public:
  struct Entry {
    TimePs when;
    std::uint64_t seq;
    Payload payload;
  };

  /// Enqueue `payload` at absolute time `when`; returns the assigned
  /// sequence number (same contract as EventQueue::push).
  std::uint64_t push(TimePs when, Payload payload) {
    const std::uint64_t seq = next_seq_++;
    Entry ev{when, seq, std::move(payload)};
    heap_.emplace_back();  // placeholder hole; sift_up fills it
    sift_up(heap_.size() - 1, std::move(ev));
    return seq;
  }

  const Entry* peek() const { return heap_.empty() ? nullptr : &heap_.front(); }

  /// Remove and return the top entry. Precondition: !empty().
  Entry pop() {
    Entry top = std::move(heap_.front());
    Entry last = std::move(heap_.back());
    heap_.pop_back();
    if (!heap_.empty()) {
      // Sift `last` down from the root through a hole, moving the smaller
      // child up each level — one move per level instead of a full swap.
      const std::size_t n = heap_.size();
      std::size_t hole = 0;
      std::size_t child = 1;
      while (child < n) {
        if (child + 1 < n && before(heap_[child + 1], heap_[child])) ++child;
        if (!before(heap_[child], last)) break;
        heap_[hole] = std::move(heap_[child]);
        hole = child;
        child = 2 * hole + 1;
      }
      heap_[hole] = std::move(last);
    }
    return top;
  }

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

 private:
  /// Min-heap order: earliest time first, scheduling order among ties.
  static bool before(const Entry& a, const Entry& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;
  }

  void sift_up(std::size_t hole, Entry ev) {
    while (hole > 0) {
      const std::size_t parent = (hole - 1) / 2;
      if (!before(ev, heap_[parent])) break;
      heap_[hole] = std::move(heap_[parent]);
      hole = parent;
    }
    heap_[hole] = std::move(ev);
  }

  std::uint64_t next_seq_ = 0;
  std::vector<Entry> heap_;
};

}  // namespace nadfs::sim
