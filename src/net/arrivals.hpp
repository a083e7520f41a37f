// Which packets of a multi-packet message count as its arrivals.
//
// Every reassembly point (the PsPIN message table, the NIC's host-path
// write assemblies, net::Reassembly for its send and DFS-request messages,
// and its pending reads) counts a message's arrivals by *distinct* seq, so
// a duplicated packet can neither complete a message early nor run a
// handler twice.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "net/packet.hpp"

namespace nadfs::net {

/// The distinct seqs seen of one message. Seqs below 64 live in an inline
/// mask, so tracking a message of up to 64 packets allocates nothing.
/// Higher seqs go to a sorted list that holds only the seqs actually seen,
/// so a forged packet count cannot make it reserve memory.
class SeqSet {
 public:
  /// Seqs tracked in the inline mask.
  static constexpr std::uint32_t kInlineSeqs = 64;

  /// Record `seq`; false when it was already recorded.
  bool insert(std::uint32_t seq) {
    if (seq < kInlineSeqs) {
      const std::uint64_t bit = std::uint64_t{1} << seq;
      if ((low_ & bit) != 0) return false;
      low_ |= bit;
      return true;
    }
    const auto it = std::lower_bound(high_.begin(), high_.end(), seq);
    if (it != high_.end() && *it == seq) return false;
    high_.insert(it, seq);
    return true;
  }

 private:
  std::uint64_t low_ = 0;
  std::vector<std::uint32_t> high_;
};

/// Arrivals of one message: the packet count its first admitted packet
/// declared, and the distinct seqs admitted since.
class Arrivals {
 public:
  /// Count `pkt` as an arrival unless it repeats a seq, lies at or past the
  /// packet count, or declares a count other than the first admitted
  /// packet's. A rejected packet changes nothing.
  bool admit(const Packet& pkt) {
    const std::uint32_t expected = arrived_ == 0 ? pkt.pkt_count : expected_;
    if (pkt.pkt_count != expected || pkt.seq >= expected || !seen_.insert(pkt.seq)) return false;
    expected_ = expected;
    ++arrived_;
    return true;
  }
  std::uint32_t expected() const { return expected_; }
  std::uint32_t arrived() const { return arrived_; }
  bool complete() const { return arrived_ != 0 && arrived_ == expected_; }

 private:
  std::uint32_t expected_ = 0;
  std::uint32_t arrived_ = 0;
  SeqSet seen_;
};

}  // namespace nadfs::net
