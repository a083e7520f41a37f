// On-NIC request table (paper §III-B.2).
//
// Every in-flight write holds a 77-byte descriptor carrying the state the
// payload handlers need (accept flag, forwarding coordinates, ...). The
// descriptors live in cluster L1 with L2 as swap-out area: 6 MiB total,
// bounding concurrency at ~82 K writes per storage node. When the table is
// full the request is denied and the client retries later.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "dfs/wire.hpp"

namespace nadfs::dfs {

/// Fixed-capacity pool of slot ids. Freed ids are reused LIFO, then fresh
/// ids are handed out in ascending order. Releasing an id that is not live
/// (a double release or a never-issued id) is refused: pushing it onto the
/// free list twice would hand one slot to two owners and underflow in_use.
class SlotPool {
 public:
  explicit SlotPool(std::size_t capacity) : capacity_(capacity) {}

  /// A free slot id, or nullopt when all `capacity` slots are live.
  std::optional<std::uint32_t> acquire() {
    auto slot = static_cast<std::uint32_t>(live_.size());
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
    } else if (live_.size() < capacity_) {
      live_.push_back(false);
    } else {
      return std::nullopt;
    }
    live_[slot] = true;
    high_water_ = std::max(high_water_, ++in_use_);
    return slot;
  }

  /// Frees a live slot; returns false, changing nothing, for any other id.
  bool release(std::uint32_t slot) {
    if (slot >= live_.size() || !live_[slot]) return false;
    live_[slot] = false;
    free_.push_back(slot);
    --in_use_;
    return true;
  }

  std::size_t capacity() const { return capacity_; }
  std::size_t in_use() const { return in_use_; }
  std::size_t high_water() const { return high_water_; }

 private:
  std::size_t capacity_;
  std::size_t in_use_ = 0;
  std::size_t high_water_ = 0;
  std::vector<std::uint32_t> free_;
  std::vector<bool> live_;  ///< by slot id; its size is the next fresh id
};

class ReqTable {
 public:
  explicit ReqTable(std::size_t memory_bytes) : slots_(memory_bytes / kReqDescriptorBytes) {}

  /// Allocate a descriptor slot; nullopt (a denial) when the table is full.
  std::optional<std::uint32_t> alloc() {
    const auto slot = slots_.acquire();
    if (!slot) ++denials_;
    return slot;
  }

  /// Releasing a slot that is not currently allocated (double release or a
  /// never-issued id) is ignored and counted.
  void release(std::uint32_t slot) {
    if (!slots_.release(slot)) ++bad_releases_;
  }

  std::size_t capacity() const { return slots_.capacity(); }
  std::size_t in_use() const { return slots_.in_use(); }
  std::size_t high_water() const { return slots_.high_water(); }
  std::uint64_t denials() const { return denials_; }
  std::uint64_t bad_releases() const { return bad_releases_; }

 private:
  SlotPool slots_;
  std::uint64_t denials_ = 0;
  std::uint64_t bad_releases_ = 0;
};

/// Pool of packet-sized parity accumulators (paper §VI-B.3). Exhaustion
/// triggers the CPU-aggregation fallback.
class AccumulatorPool {
 public:
  AccumulatorPool(std::size_t pool_bytes, std::size_t acc_bytes)
      : acc_bytes_(acc_bytes),
        slots_(acc_bytes ? pool_bytes / acc_bytes : 0),
        buffers_(slots_.capacity()) {}

  std::optional<std::uint32_t> alloc(std::size_t len) {
    // An accumulator is one packet buffer: a request for more than
    // acc_bytes_ would silently blow the pool's capacity math (total =
    // pool_bytes / acc_bytes), so it is denied like exhaustion and the
    // caller takes the CPU-aggregation fallback.
    const auto idx = len <= acc_bytes_ ? slots_.acquire() : std::nullopt;
    if (!idx) {
      ++failures_;
      return std::nullopt;
    }
    buffers_[*idx].assign(len, 0);
    return idx;
  }

  Bytes& buffer(std::uint32_t idx) { return buffers_[idx]; }

  /// Double releases are ignored.
  void release(std::uint32_t idx) {
    if (slots_.release(idx)) buffers_[idx].clear();
  }

  std::size_t total() const { return slots_.capacity(); }
  std::size_t in_use() const { return slots_.in_use(); }
  std::size_t high_water() const { return slots_.high_water(); }
  std::uint64_t failures() const { return failures_; }
  std::size_t acc_bytes() const { return acc_bytes_; }

 private:
  std::size_t acc_bytes_;
  SlotPool slots_;
  std::vector<Bytes> buffers_;
  std::uint64_t failures_ = 0;
};

}  // namespace nadfs::dfs
