// Storage target model.
//
// The paper deliberately does not model a specific medium: "we assume that
// the storage medium can digest data at network bandwidth or higher"
// (§III). The Target keeps that assumption as its default backend and owns
// the parts every backend shares — capacity enforcement, the tombstone
// range set that makes trim/stat answer kNotFound, byte accounting — while
// delegating the functional byte store and all media timing to a pluggable
// StorageEngine (line-rate | NVMM | Bε-tree; DESIGN.md §3h). With the
// default LineRateEngine every reservation and returned time is
// bit-identical to the pre-engine model.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "common/bytes.hpp"
#include "sim/simulator.hpp"
#include "storage/engine/engine.hpp"

namespace nadfs::storage {

struct TargetConfig {
  std::uint64_t capacity = 1ull << 40;  ///< addressable bytes
  /// Ingest rate of the line-rate backend; default 64 GB/s > 50 GB/s
  /// (400 Gbit/s) line rate. Other backends budget on engine.device_bandwidth.
  Bandwidth ingest = Bandwidth::from_gbytes_per_sec(64.0);
  /// Backend selection + media model (kLineRate by default).
  EngineConfig engine;
};

class Target {
 public:
  Target(sim::Simulator& simulator, TargetConfig config = {});

  /// Functional write of `data` at `addr`; returns the time the data is
  /// durable (after queueing on the backend's device starting at
  /// `earliest`).
  TimePs write(std::uint64_t addr, ByteSpan data, TimePs earliest = 0);

  /// Functional read; missing (never-written) bytes read as zero. No
  /// media charge — control-plane peeks and test oracles.
  Bytes read(std::uint64_t addr, std::size_t len) const;

  /// Data-plane read: same bytes as read() plus the time the medium has
  /// them ready. Engines with a device budget charge the transfer and any
  /// read amplification here; the line-rate backend returns `earliest`.
  StorageEngine::TimedRead read_at(std::uint64_t addr, std::size_t len, TimePs earliest = 0);

  /// Tombstone [addr, addr+len): the data-plane half of a DFS delete. The
  /// backing bytes are zeroed and the range is remembered so a later access
  /// can be answered kNotFound instead of silently reading zeros; write()
  /// over a tombstoned range clears it (the extent is live again). Returns
  /// the time the trim is durable (device queueing like a write).
  TimePs trim(std::uint64_t addr, std::uint64_t len, TimePs earliest = 0);

  /// True when any byte of [addr, addr+len) lies in a tombstoned range.
  bool trimmed(std::uint64_t addr, std::uint64_t len) const;

  std::uint64_t bytes_written() const { return bytes_written_; }
  std::uint64_t bytes_trimmed() const { return bytes_trimmed_; }
  std::uint64_t capacity() const { return config_.capacity; }

  StorageEngine& engine() { return *engine_; }
  const StorageEngine& engine() const { return *engine_; }
  const TargetConfig& config() const { return config_; }

  /// Register target + engine instruments under `prefix` ("node3.storage");
  /// the engine's land under `<prefix>.engine.*`.
  void bind_metrics(obs::MetricRegistry& reg, const std::string& prefix);
  /// Background-job spans (flush/compaction) land on obs::kLaneStorage.
  void set_tracer(obs::SpanTracer* tracer, std::uint32_t node) {
    engine_->set_tracer(tracer, node);
  }

 private:
  void untrim(std::uint64_t addr, std::uint64_t len);
  /// Does [addr, addr+len) reach past the capacity? Compared without a sum
  /// that could wrap past 2^64.
  bool beyond_capacity(std::uint64_t addr, std::uint64_t len) const {
    return addr > config_.capacity || len > config_.capacity - addr;
  }

  sim::Simulator& sim_;
  TargetConfig config_;
  std::unique_ptr<StorageEngine> engine_;
  /// Tombstoned ranges, keyed by start address, non-overlapping (trim
  /// merges, write punches holes). std::map keeps lookups ordered and
  /// deterministic.
  std::map<std::uint64_t, std::uint64_t> tombstones_;  // start -> end
  std::uint64_t bytes_written_ = 0;
  std::uint64_t bytes_trimmed_ = 0;
};

}  // namespace nadfs::storage
