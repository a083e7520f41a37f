// Write-optimized Bε-tree/LSM engine (DESIGN.md §3h).
//
// Structure (extent-keyed, newest-shadows-oldest):
//   active memtable  -> RAM, absorbs writes + range-delete messages
//   frozen memtables -> RAM, FIFO, each being flushed to the device
//   level 0..N runs  -> on-device immutable sorted extent runs; a flush
//                       appends one run to L0, and when a level reaches
//                       `fanout` runs they are merged into one run on the
//                       next level.
//
// Timing: one GapServer models the device. Foreground writes pay a WAL
// append (their durability time), flushes pay their run's bytes, and a
// compaction pays input-read + output-write bytes — so background jobs
// *compete with foreground ops* for the same bandwidth, which is exactly
// the contention the line-rate assumption hides. Flush/compaction commits
// are sim events; the functional merge is computed eagerly (runs are immutable, so merging at schedule
// time and at commit time give identical bytes) which keeps reads correct
// while the job is in flight.
//
// Extent buffers: a write copies its bytes once into an immutable shared
// buffer, and every extent is a (buffer, offset, length) slice of one.
// Splitting an extent, flushing a run and merging runs into a compaction
// output all move references, never bytes. A compaction output gives any
// extent that no longer covers its whole buffer a tight private copy, so
// on-device levels keep alive only their logical bytes. Every cost is a
// function of extent lengths alone, so sharing cannot move any timing.
//
// Write stalls: when buffered bytes exceed `buffer_capacity` while a
// flush is in flight, write durability is pushed to the flush commit —
// the classic ingest collapse when compaction can't keep up. Stall time
// is surfaced in storage.engine.* metrics.
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "storage/engine/engine.hpp"

namespace nadfs::storage {

class BetaTreeEngine final : public StorageEngine {
 public:
  BetaTreeEngine(sim::Simulator& simulator, const EngineConfig& cfg);

  const char* name() const override { return "betree"; }
  EngineKind kind() const override { return EngineKind::kBetaTree; }

  TimePs write(std::uint64_t addr, ByteSpan data, TimePs earliest) override;
  Bytes read(std::uint64_t addr, std::size_t len) const override;
  TimedRead read_at(std::uint64_t addr, std::size_t len, TimePs earliest) override;
  TimePs trim(std::uint64_t addr, std::uint64_t len, TimePs earliest) override;

  void bind_metrics(obs::MetricRegistry& reg, const std::string& prefix) override;

  // --- introspection (tests, chaos scenarios, benches) --------------------
  /// Bytes currently buffered in RAM (active + frozen memtables); the
  /// write buffer a mid-flight kill would lose.
  std::uint64_t buffered_bytes() const { return active_cost_ + frozen_cost_; }
  std::uint64_t flushes() const { return flushes_; }
  std::uint64_t compactions() const { return compactions_; }
  std::uint64_t stalls() const { return stalls_; }
  std::uint64_t stall_ps() const { return stall_ps_; }
  std::uint64_t compact_read_bytes() const { return compact_read_bytes_; }
  std::uint64_t compact_write_bytes() const { return compact_write_bytes_; }
  /// On-device runs not yet merged away — the compaction backlog.
  std::uint64_t backlog_runs() const;
  std::size_t level_count() const { return levels_.size(); }
  /// Memory the compaction outputs (levels 1 and up) hold: their logical
  /// payload bytes, and the bytes of the extent buffers they keep alive,
  /// each buffer counted once. The two are equal: an output holds a tight
  /// copy of every extent that does not cover its whole buffer.
  struct Retained {
    std::uint64_t logical = 0;
    std::uint64_t held = 0;
  };
  Retained retained_bytes() const;

 private:
  /// Buffer/WAL/flush cost of a range-delete message.
  static constexpr std::uint64_t kTombstoneMsgBytes = 64;

  /// One extent of a run/memtable. A zero extent is a range-delete
  /// message: it reads as zeros and shadows older data, but costs only
  /// kTombstoneMsgBytes of buffer/WAL/flush traffic.
  struct Extent {
    std::shared_ptr<const Bytes> buf;  ///< null when zero == true
    std::uint64_t off = 0;             ///< first byte of the extent in *buf
    std::uint64_t len = 0;
    bool zero = false;

    const std::uint8_t* bytes() const { return buf->data() + off; }
  };
  /// Disjoint extents keyed by start address.
  using Run = std::map<std::uint64_t, Extent>;

  struct FrozenRun {
    Run run;
    std::uint64_t cost = 0;
  };
  struct Level {
    std::vector<Run> runs;           ///< oldest first, newest appended at back
    std::vector<std::uint64_t> costs;  ///< WAL/flush-size cost per run
    bool compacting = false;
    std::size_t compact_inputs = 0;  ///< prefix of `runs` being merged
    FrozenRun pending;               ///< eager merge result awaiting commit
  };

  std::uint64_t extent_cost(const Extent& e) const {
    return e.zero ? kTombstoneMsgBytes : e.len;
  }
  /// Insert [start, start+e.len) into `run`, splitting/erasing whatever it
  /// overlaps (newest wins); keeps `cost` in sync with the run's contents.
  void run_insert(Run& run, std::uint64_t start, Extent e, std::uint64_t& cost) const;

  struct Gap {
    std::uint64_t lo, hi;
  };
  /// Copy the parts of `gaps` this run covers into `out` (based at
  /// `base`), shrink `gaps` to what is still unserved, and return the
  /// payload bytes served (zero extents serve bytes but cost none).
  /// `touched` is set when the run served anything.
  std::uint64_t run_fill(const Run& run, std::uint64_t base, Bytes& out, std::vector<Gap>& gaps,
                         bool& touched) const;
  /// Newest-shadows-oldest assembly across memtables and all runs.
  /// `device_bytes`/`touched_runs` (when non-null) count the on-device
  /// payload bytes and distinct on-device runs consulted — the read
  /// amplification a data-plane read pays for.
  Bytes assemble(std::uint64_t addr, std::size_t len, std::uint64_t* device_bytes,
                 unsigned* touched_runs) const;

  void freeze_active(TimePs at);
  void start_flush(TimePs at);
  void commit_flush();
  void maybe_compact(std::size_t level, TimePs at);
  void commit_compaction(std::size_t level);
  /// Apply the buffer-full backpressure rule to a foreground durability
  /// time; counts stall time.
  TimePs apply_stall(TimePs durable);
  void schedule_commit(TimePs when, sim::EventFn fn);

  EngineConfig cfg_;
  sim::GapServer device_;

  Run active_;
  std::uint64_t active_cost_ = 0;
  std::deque<FrozenRun> frozen_;  ///< oldest (currently flushing) at front
  std::uint64_t frozen_cost_ = 0;
  bool flush_inflight_ = false;
  TimePs flush_done_ = 0;  ///< commit time of the in-flight flush
  std::vector<Level> levels_;

  // Instruments (storage.engine.*). Plain cells; registered as counters.
  std::uint64_t writes_ = 0;
  std::uint64_t reads_ = 0;
  std::uint64_t trims_ = 0;
  std::uint64_t write_logical_bytes_ = 0;
  std::uint64_t read_logical_bytes_ = 0;
  std::uint64_t log_bytes_ = 0;  ///< foreground WAL appends on the device
  std::uint64_t flushes_ = 0;
  std::uint64_t flush_bytes_ = 0;
  std::uint64_t compactions_ = 0;
  std::uint64_t compact_read_bytes_ = 0;
  std::uint64_t compact_write_bytes_ = 0;
  std::uint64_t read_device_bytes_ = 0;
  std::uint64_t read_runs_touched_ = 0;
  std::uint64_t stalls_ = 0;
  std::uint64_t stall_ps_ = 0;
};

}  // namespace nadfs::storage
