// Shared-resource timing primitives.
//
// FifoServer models any serially-shared, rate-limited resource: a network
// link, a PCIe/DMA engine, a NIC egress port, a host memcpy unit. Work is
// served in arrival order at a fixed bandwidth; callers get back the
// (start, end) window their job occupies, which is how queueing delay and
// backpressure emerge in the model without explicit token buckets.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <vector>

#include "common/units.hpp"
#include "sim/simulator.hpp"

namespace nadfs::sim {

/// Occupancy window of a job on a shared resource.
struct Window {
  TimePs start;  ///< when the job begins occupying the resource
  TimePs end;    ///< when the job finishes (resource free again)
};

class FifoServer {
 public:
  FifoServer(Simulator& simulator, Bandwidth rate) : sim_(simulator), rate_(rate) {}

  using Window = sim::Window;

  /// Reserve the resource for `bytes` of work starting no earlier than
  /// `earliest` (defaults to now). Advances the busy horizon.
  Window reserve(std::size_t bytes, TimePs earliest = 0) {
    const TimePs start = std::max({sim_.now(), earliest, busy_until_});
    const TimePs end = start + rate_.transfer_time(bytes);
    busy_until_ = end;
    total_bytes_ += bytes;
    return {start, end};
  }

  /// Reserve a fixed-duration slot (for latency-type costs on a shared unit).
  Window reserve_time(TimePs duration, TimePs earliest = 0) {
    const TimePs start = std::max({sim_.now(), earliest, busy_until_});
    const TimePs end = start + duration;
    busy_until_ = end;
    return {start, end};
  }

  /// Earliest time a new job could start.
  TimePs free_at() const { return std::max(sim_.now(), busy_until_); }
  bool idle() const { return busy_until_ <= sim_.now(); }

  Bandwidth rate() const { return rate_; }
  std::uint64_t total_bytes() const { return total_bytes_; }

 private:
  Simulator& sim_;
  Bandwidth rate_;
  TimePs busy_until_ = 0;
  std::uint64_t total_bytes_ = 0;
};

/// Rate-limited shared resource with *gap-filling* (calendar) reservations.
///
/// Unlike FifoServer, whose busy horizon only moves forward in reservation
/// order, GapServer places each job in the earliest idle interval at or
/// after its ready time. This matters because handler timelines are
/// computed eagerly at packet-arrival events: two compute clusters with
/// very different backlogs reserve the same wire out of time order, and a
/// FIFO horizon would let one cluster's far-future send starve another
/// cluster's imminent one — a pure modelling artifact. With gap filling
/// the wire is used whenever it is physically idle.
///
/// Used for every resource reservable out of time order: network links,
/// PCIe/DMA engines, CPU cores, storage ingest, accelerator engines.
class GapServer {
 public:
  GapServer(Simulator& simulator, Bandwidth rate) : sim_(simulator), rate_(rate) {}

  Window reserve(std::size_t bytes, TimePs earliest = 0) {
    return reserve_time(rate_.transfer_time(bytes), earliest);
  }

  Window reserve_time(TimePs duration, TimePs earliest = 0) {
    const Window w = plan_time(duration, earliest);
    commit(w);
    return w;
  }

  /// The window reserve() *would* return, without taking it. Lets a caller
  /// look at the serialization start before committing — e.g. to decide
  /// whether the source is still reachable when the wire would pick the
  /// packet up, or whether a bounded port buffer overflows. plan + commit
  /// is exactly reserve (nothing can interleave within one event).
  Window plan(std::size_t bytes, TimePs earliest = 0) {
    return plan_time(rate_.transfer_time(bytes), earliest);
  }

  Window plan_time(TimePs duration, TimePs earliest = 0) {
    prune();
    TimePs t = std::max(sim_.now(), earliest);
    if (duration == 0) return {t, t};

    // Step back to the interval that may cover `t`.
    auto next = first_starting_at(t);
    if (next != live_begin()) {
      const auto prev = std::prev(next);
      if (prev->end > t) t = prev->end;
    }
    // Walk forward until a gap of `duration` fits before the next interval.
    while (next != busy_.end() && next->start < t + duration) {
      t = std::max(t, next->end);
      ++next;
    }
    return {t, t + duration};
  }

  /// Take a window previously returned by plan()/plan_time().
  void commit(const Window& w) {
    if (w.end == w.start) return;
    insert(w);
  }

  /// Earliest instant with no reservation at or after now (end of the last
  /// busy interval, or now if idle).
  TimePs horizon() const {
    if (head_ == busy_.size()) return sim_.now();
    return std::max(sim_.now(), busy_.back().end);
  }

  Bandwidth rate() const { return rate_; }
  std::size_t interval_count() const { return busy_.size() - head_; }

 private:
  using Iter = std::vector<Window>::iterator;

  Iter live_begin() { return busy_.begin() + static_cast<std::ptrdiff_t>(head_); }

  /// First live interval starting at or after `t`.
  Iter first_starting_at(TimePs t) {
    return std::partition_point(live_begin(), busy_.end(),
                                [t](const Window& b) { return b.start < t; });
  }

  void insert(Window w) {
    // Coalesce with touching/overlapping neighbours to keep the calendar
    // small; [first, last) is the run of intervals `w` absorbs.
    auto first = first_starting_at(w.start);
    if (first != live_begin()) {
      const auto prev = std::prev(first);
      if (prev->end >= w.start) {
        w.start = prev->start;
        first = prev;
      }
    }
    auto last = first;
    while (last != busy_.end() && last->start <= w.end) {
      w.end = std::max(w.end, last->end);
      ++last;
    }
    if (first == last) {
      busy_.insert(first, w);
    } else {
      *first = w;
      busy_.erase(std::next(first), last);
    }
  }

  void prune() {
    // Reservations never start before sim.now(), so fully-past intervals
    // can be dropped: the cursor skips them, and the array is compacted
    // once they outnumber the live ones (amortized O(1) moves each).
    const TimePs now = sim_.now();
    while (head_ < busy_.size() && busy_[head_].end <= now) ++head_;
    if (head_ > 0 && 2 * head_ >= busy_.size()) {
      busy_.erase(busy_.begin(), live_begin());
      head_ = 0;
    }
  }

  Simulator& sim_;
  Bandwidth rate_;
  // Busy intervals sorted by start, disjoint and non-touching from head_
  // on; the ones before head_ ended by the last prune().
  std::vector<Window> busy_;
  std::size_t head_ = 0;
};

}  // namespace nadfs::sim
