// Reference reservation calendars: minimal retained copies of the two
// out-of-order calendars as they stood before their contiguous rewrites.
//
//   ReferenceGapServer   — sim::GapServer over a std::map<start, end>
//                          (src/sim/resource.hpp before the sorted-vector
//                          calendar).
//   ReferenceEgressSlots — PsPinDevice's egress command-queue scan
//                          (src/pspin/device.cpp before pspin::EgressSlots):
//                          erase drained slots, collect every slot covering
//                          `want`, nth_element for the stall time.
//
// calendar_differential_test.cpp drives each in lockstep with its
// replacement and asserts identical results at every step. Do not
// "improve" this file — its value is being the old, trusted
// implementation.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <map>
#include <vector>

#include "common/units.hpp"
#include "sim/resource.hpp"
#include "sim/simulator.hpp"

namespace nadfs::sim {

class ReferenceGapServer {
 public:
  ReferenceGapServer(Simulator& simulator, Bandwidth rate) : sim_(simulator), rate_(rate) {}

  Window reserve(std::size_t bytes, TimePs earliest = 0) {
    return reserve_time(rate_.transfer_time(bytes), earliest);
  }

  Window reserve_time(TimePs duration, TimePs earliest = 0) {
    const Window w = plan_time(duration, earliest);
    commit(w);
    return w;
  }

  Window plan(std::size_t bytes, TimePs earliest = 0) {
    return plan_time(rate_.transfer_time(bytes), earliest);
  }

  Window plan_time(TimePs duration, TimePs earliest = 0) {
    prune();
    TimePs t = std::max(sim_.now(), earliest);
    if (duration == 0) return {t, t};

    auto next = busy_.lower_bound(t);
    if (next != busy_.begin()) {
      auto prev = std::prev(next);
      if (prev->second > t) t = prev->second;
    }
    while (next != busy_.end() && next->first < t + duration) {
      t = std::max(t, next->second);
      ++next;
    }
    return {t, t + duration};
  }

  void commit(const Window& w) {
    if (w.end == w.start) return;
    insert(w);
  }

  TimePs horizon() const {
    if (busy_.empty()) return sim_.now();
    return std::max(sim_.now(), busy_.rbegin()->second);
  }

  std::size_t interval_count() const { return busy_.size(); }

 private:
  void insert(Window w) {
    auto it = busy_.lower_bound(w.start);
    if (it != busy_.begin()) {
      auto prev = std::prev(it);
      if (prev->second >= w.start) {
        w.start = prev->first;
        w.end = std::max(w.end, prev->second);
        busy_.erase(prev);
      }
    }
    it = busy_.lower_bound(w.start);
    while (it != busy_.end() && it->first <= w.end) {
      w.end = std::max(w.end, it->second);
      it = busy_.erase(it);
    }
    busy_[w.start] = w.end;
  }

  void prune() {
    const TimePs now = sim_.now();
    while (!busy_.empty() && busy_.begin()->second <= now) {
      busy_.erase(busy_.begin());
    }
  }

  Simulator& sim_;
  Bandwidth rate_;
  std::map<TimePs, TimePs> busy_;  // start -> end, disjoint, sorted
};

}  // namespace nadfs::sim

namespace nadfs::pspin {

class ReferenceEgressSlots {
 public:
  explicit ReferenceEgressSlots(unsigned depth) : depth_(depth) {}

  /// The old PsPinDevice::egress_accept with sim_.now() passed in.
  TimePs accept(TimePs want, TimePs now) {
    std::erase_if(slots_, [now](const Slot& s) { return s.end <= now; });

    std::vector<TimePs> ends;
    ends.reserve(slots_.size());
    for (const auto& s : slots_) {
      if (s.issue <= want && s.end > want) ends.push_back(s.end);
    }
    if (ends.size() >= depth_) {
      const std::size_t idx = ends.size() - depth_;
      std::nth_element(ends.begin(), ends.begin() + static_cast<std::ptrdiff_t>(idx), ends.end());
      want = std::max(want, ends[idx]);
    }
    return want;
  }

  void add(TimePs issue, TimePs end) { slots_.push_back(Slot{issue, end}); }

  unsigned in_flight(TimePs t) const {
    unsigned n = 0;
    for (const auto& s : slots_) {
      if (s.issue <= t && s.end > t) ++n;
    }
    return n;
  }

  std::size_t size() const { return slots_.size(); }

 private:
  struct Slot {
    TimePs issue;
    TimePs end;
  };
  unsigned depth_;
  std::vector<Slot> slots_;
};

}  // namespace nadfs::pspin
