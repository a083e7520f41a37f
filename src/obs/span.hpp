// Cross-layer span tracing. Generalizes pspin::TraceSink (device-only
// handler spans) into whole-system spans: a client op attempt, the NIC
// doorbell/PCIe DMA it triggers, every network uplink/downlink hop, the
// HPU handler executions on the storage nodes, egress commands and the
// ack back to the client — all correlated by the operation's greq id
// (carried end-to-end in Packet::user_tag) falling back to msg_id.
//
// Recording is an append to a vector: no simulation events, no RNG, no
// sim-time reads beyond values the caller already has — attaching a
// tracer cannot change a run's digest. Export is Chrome trace-event JSON
// (the Perfetto legacy format): pid = node id, tid = lane. HPU handler
// spans keep pspin::TraceSink's lane convention (cluster*1000 + hpu);
// other layers use the well-known lanes below.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

namespace nadfs::obs {

// Well-known lanes (Perfetto tids). Device handler spans use
// cluster*1000 + hpu (0..3007 with the default 4x8 geometry), so these
// start far above.
inline constexpr std::uint32_t kLaneClientOp = 9001;  ///< client op attempts
inline constexpr std::uint32_t kLaneNicDma = 9002;    ///< doorbell + PCIe DMA
inline constexpr std::uint32_t kLaneUplink = 9003;    ///< node -> switch hop
inline constexpr std::uint32_t kLaneDownlink = 9004;  ///< switch -> node hop
inline constexpr std::uint32_t kLaneEgress = 9005;    ///< handler egress commands
inline constexpr std::uint32_t kLaneAck = 9006;       ///< acks/nacks at the client NIC
inline constexpr std::uint32_t kLaneTrunk = 9007;     ///< inter-switch fabric hops
inline constexpr std::uint32_t kLaneRebalance = 9008;  ///< rebalancer chunk migrations
inline constexpr std::uint32_t kLaneStorage = 9009;    ///< storage engine flush/compaction

struct Span {
  std::uint32_t node = 0;     ///< Perfetto pid
  std::uint32_t lane = 0;     ///< Perfetto tid
  const char* cat = "";       ///< static category ("op", "net", "dma", "handler", ...)
  const char* name = "";      ///< static event name
  std::uint64_t corr = 0;     ///< correlation id: greq (user_tag) or msg_id
  std::uint64_t msg = 0;      ///< message id, when one exists
  std::uint32_t seq = 0;      ///< packet seq, when one exists
  std::uint64_t val = 0;      ///< payload bytes / handler instructions / ...
  std::uint64_t start_ps = 0;
  std::uint64_t end_ps = 0;   ///< == start_ps for instant events
};

class SpanTracer {
 public:
  SpanTracer() { spans_.reserve(4096); }

  void record(const Span& s) {
    if (sample_every_ > 1) {
      // Sample by *operation*, not by span: keep every span of every Nth
      // correlation id (so a kept op's trace stays complete end-to-end),
      // and always keep uncorrelated spans. Pure function of span content
      // — sampling never changes event order or digests.
      const std::uint64_t key = s.corr != 0 ? s.corr : s.msg;
      if (key != 0 && key % sample_every_ != 0) return;
    }
    spans_.push_back(s);
  }

  /// Keep only every Nth operation's spans (1 = keep everything, the
  /// default). Long runs pay ~8% for always-on full tracing; sampling
  /// keeps the instrument usable at scale.
  void set_sample_every(std::uint64_t n) { sample_every_ = n == 0 ? 1 : n; }
  std::uint64_t sample_every() const { return sample_every_; }

  const std::vector<Span>& spans() const { return spans_; }
  std::size_t size() const { return spans_.size(); }
  void clear() { spans_.clear(); }

  /// All spans sharing a correlation id, in recording order.
  std::vector<Span> spans_for(std::uint64_t corr) const;

  /// Optional pretty name for a node, emitted as Perfetto process_name
  /// metadata ("client0", "storage3", ...).
  void set_node_label(std::uint32_t node, std::string label);

  /// Chrome trace-event JSON: "M" process/thread-name metadata followed
  /// by one "X" complete event per span (ts/dur in microseconds).
  void export_chrome_json(std::ostream& os) const;
  std::string to_chrome_json() const;

  /// Human name for a lane ("client-op", "uplink", "hpu c2/5", ...).
  static std::string lane_name(std::uint32_t lane);

 private:
  std::uint64_t sample_every_ = 1;
  std::vector<Span> spans_;
  std::unordered_map<std::uint32_t, std::string> labels_;
};

}  // namespace nadfs::obs
