#include "storage/target.hpp"

#include <algorithm>
#include <stdexcept>

namespace nadfs::storage {

Target::Target(sim::Simulator& simulator, TargetConfig config)
    : sim_(simulator),
      config_(config),
      engine_(make_engine(simulator, config.engine, config.ingest)) {}

TimePs Target::write(std::uint64_t addr, ByteSpan data, TimePs earliest) {
  if (beyond_capacity(addr, data.size())) {
    throw std::out_of_range("storage::Target::write: beyond capacity");
  }
  bytes_written_ += data.size();
  untrim(addr, data.size());
  return engine_->write(addr, data, earliest);
}

TimePs Target::trim(std::uint64_t addr, std::uint64_t len, TimePs earliest) {
  if (beyond_capacity(addr, len)) {
    throw std::out_of_range("storage::Target::trim: beyond capacity");
  }
  if (len == 0) return engine_->trim(addr, 0, earliest);
  // Merge [addr, addr+len) into the tombstone set.
  std::uint64_t lo = addr;
  std::uint64_t hi = addr + len;
  auto it = tombstones_.lower_bound(lo);
  if (it != tombstones_.begin()) {
    auto prev = std::prev(it);
    if (prev->second >= lo) it = prev;
  }
  while (it != tombstones_.end() && it->first <= hi) {
    lo = std::min(lo, it->first);
    hi = std::max(hi, it->second);
    it = tombstones_.erase(it);
  }
  tombstones_[lo] = hi;
  bytes_trimmed_ += len;
  // The engine zeroes the backing bytes so a stale extent never
  // resurrects deleted data, and prices the command.
  return engine_->trim(addr, len, earliest);
}

bool Target::trimmed(std::uint64_t addr, std::uint64_t len) const {
  if (len == 0) return false;
  const std::uint64_t hi = addr + len;
  auto it = tombstones_.upper_bound(addr);
  if (it != tombstones_.begin()) {
    auto prev = std::prev(it);
    if (prev->second > addr) return true;
  }
  return it != tombstones_.end() && it->first < hi;
}

void Target::untrim(std::uint64_t addr, std::uint64_t len) {
  if (len == 0 || tombstones_.empty()) return;
  const std::uint64_t lo = addr;
  const std::uint64_t hi = addr + len;
  auto it = tombstones_.upper_bound(lo);
  if (it != tombstones_.begin()) {
    auto prev = std::prev(it);
    if (prev->second > lo) it = prev;
  }
  while (it != tombstones_.end() && it->first < hi) {
    const std::uint64_t t_lo = it->first;
    const std::uint64_t t_hi = it->second;
    it = tombstones_.erase(it);
    if (t_lo < lo) tombstones_[t_lo] = lo;
    if (t_hi > hi) tombstones_[hi] = t_hi;
  }
}

Bytes Target::read(std::uint64_t addr, std::size_t len) const {
  if (beyond_capacity(addr, len)) {
    throw std::out_of_range("storage::Target::read: beyond capacity");
  }
  return engine_->read(addr, len);
}

StorageEngine::TimedRead Target::read_at(std::uint64_t addr, std::size_t len, TimePs earliest) {
  if (beyond_capacity(addr, len)) {
    throw std::out_of_range("storage::Target::read: beyond capacity");
  }
  return engine_->read_at(addr, len, earliest);
}

void Target::bind_metrics(obs::MetricRegistry& reg, const std::string& prefix) {
  reg.counter_cell(prefix + ".bytes_written", &bytes_written_);
  reg.counter_cell(prefix + ".bytes_trimmed", &bytes_trimmed_);
  engine_->bind_metrics(reg, prefix + ".engine");
}

}  // namespace nadfs::storage
