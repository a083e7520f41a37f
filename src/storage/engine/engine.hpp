// Pluggable storage backends (DESIGN.md §3h).
//
// The paper assumes "the storage medium can digest data at network
// bandwidth or higher" (§III). storage::Target keeps that assumption as
// its *default* backend, but delegates all byte storage and media timing
// to a StorageEngine so sweeps can also model the scenarios the paper
// couldn't: a device with finite bandwidth and per-op latency (NVMM), or
// a write-optimized Bε-tree/LSM index whose background flush+compaction
// traffic competes with foreground ops for the same device budget.
//
// Contract:
//  - write/read/trim are *functional* (bytes land, zeros read back) plus
//    a durability/ready time; the engine owns a device-bandwidth
//    sim::GapServer and charges all media traffic — foreground and
//    background — against it.
//  - LineRateEngine must stay byte-identical to the pre-engine Target:
//    same GapServer reservation sequence, zero extra sim events, so the
//    pinned star determinism digests (tests/determinism_test.cpp) and
//    every paper figure reproduce unchanged.
//  - Background jobs (BetaTreeEngine flush/compaction commits) are sim
//    events on the same simulator as the foreground ops.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>

#include "common/bytes.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "sim/resource.hpp"
#include "sim/simulator.hpp"

namespace nadfs::storage {

enum class EngineKind : std::uint8_t {
  kLineRate = 0,  ///< the paper's model: ingest at >= line rate, no index
  kNvmm = 1,      ///< finite device bandwidth + per-op media latency
  kBetaTree = 2,  ///< write-optimized Bε-tree/LSM with background compaction
};

const char* engine_kind_name(EngineKind kind);

/// Backend selection + media model knobs. Only the fields relevant to the
/// selected kind are read; kLineRate reads none of them (it uses
/// TargetConfig::ingest, unchanged from the pre-engine model).
struct EngineConfig {
  EngineKind kind = EngineKind::kLineRate;

  /// Device bandwidth budget (kNvmm, kBetaTree). Everything the medium
  /// moves — foreground writes/reads, WAL appends, flushes, compaction
  /// read+write traffic — shares this one GapServer.
  Bandwidth device_bandwidth = Bandwidth::from_gbytes_per_sec(8.0);
  TimePs write_latency = ns(300);  ///< per-command media latency (kNvmm, kBetaTree)
  TimePs read_latency = ns(300);   ///< per-command / per-run-touched read latency

  // --- kBetaTree only -----------------------------------------------------
  std::uint64_t memtable_bytes = 256 * KiB;   ///< freeze+flush trigger
  std::uint64_t buffer_capacity = 1 * MiB;    ///< total buffered bytes before writes stall
  unsigned fanout = 4;                        ///< runs per level before compaction
  std::uint64_t tombstone_msg_bytes = 64;     ///< buffer/WAL cost of a range-delete message
};

/// Sparse 4 KiB page store — the functional backing bytes shared by the
/// flat engines (line-rate, NVMM). Extracted verbatim from the pre-engine
/// Target so behaviour (zero-fill reads, page granularity) is unchanged.
class PageStore {
 public:
  void write(std::uint64_t addr, ByteSpan data);
  void zero(std::uint64_t addr, std::uint64_t len);
  Bytes read(std::uint64_t addr, std::size_t len) const;

 private:
  static constexpr std::uint64_t kPageBits = 12;  // 4 KiB pages
  static constexpr std::uint64_t kPageSize = 1ull << kPageBits;
  std::unordered_map<std::uint64_t, Bytes> pages_;
};

class StorageEngine {
 public:
  explicit StorageEngine(sim::Simulator& simulator) : sim_(simulator) {}
  virtual ~StorageEngine() = default;
  StorageEngine(const StorageEngine&) = delete;
  StorageEngine& operator=(const StorageEngine&) = delete;

  virtual const char* name() const = 0;
  virtual EngineKind kind() const = 0;

  /// Functional write; returns the time the data is durable on the medium.
  virtual TimePs write(std::uint64_t addr, ByteSpan data, TimePs earliest) = 0;

  /// Functional read: never-written bytes read as zero. No media charge —
  /// used by control-plane peeks (triggers, recovery oracles) and tests.
  virtual Bytes read(std::uint64_t addr, std::size_t len) const = 0;

  struct TimedRead {
    Bytes data;
    TimePs ready;  ///< when the medium has produced the bytes
  };
  /// Data-plane read: same bytes as read(), plus the media-ready time.
  /// Engines with a device budget charge the transfer (and any read
  /// amplification) here; LineRateEngine returns `earliest` unchanged.
  virtual TimedRead read_at(std::uint64_t addr, std::size_t len, TimePs earliest) = 0;

  /// Functional zero of [addr, addr+len) (tombstone bookkeeping stays in
  /// Target); returns the time the trim command is durable.
  virtual TimePs trim(std::uint64_t addr, std::uint64_t len, TimePs earliest) = 0;

  /// Register engine instruments under `prefix` ("node3.storage.engine").
  virtual void bind_metrics(obs::MetricRegistry& reg, const std::string& prefix);

  /// Background-job spans land on obs::kLaneStorage for `node`.
  void set_tracer(obs::SpanTracer* tracer, std::uint32_t node) {
    tracer_ = tracer;
    node_ = node;
  }

 protected:
  sim::Simulator& sim_;
  obs::SpanTracer* tracer_ = nullptr;
  std::uint32_t node_ = 0;
};

/// Factory. `line_rate_ingest` is TargetConfig::ingest, used only by
/// kLineRate (the other engines budget on cfg.device_bandwidth).
std::unique_ptr<StorageEngine> make_engine(sim::Simulator& simulator, const EngineConfig& cfg,
                                           Bandwidth line_rate_ingest);

}  // namespace nadfs::storage
