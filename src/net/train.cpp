#include "net/train.hpp"

#include <algorithm>
#include <stdexcept>

namespace nadfs::net {

std::uint32_t packet_count(std::size_t data, std::size_t mtu, std::size_t head) {
  const std::size_t first = std::min(mtu - head, data);
  return static_cast<std::uint32_t>(1 + (data - first + mtu - 1) / mtu);
}

std::vector<Packet> cut(const Packet& proto, ByteSpan head, ByteSpan data, std::size_t mtu) {
  if (head.size() >= mtu) {
    throw std::length_error("net::cut: header leaves no room for data in packet 0");
  }
  const std::uint32_t count = packet_count(data.size(), mtu, head.size());
  std::vector<Packet> train(count, proto);
  std::size_t off = 0;
  for (std::uint32_t s = 0; s < count; ++s) {
    Packet& p = train[s];
    p.seq = s;
    p.pkt_count = count;
    p.raddr = proto.raddr + off;
    const ByteSpan lead = s == 0 ? head : ByteSpan{};
    const std::size_t n = std::min(mtu - lead.size(), data.size() - off);
    p.data.reserve(lead.size() + n);
    p.data.assign(lead.begin(), lead.end());
    p.data.insert(p.data.end(), data.begin() + static_cast<std::ptrdiff_t>(off),
                  data.begin() + static_cast<std::ptrdiff_t>(off + n));
    off += n;
  }
  return train;
}

bool Reassembly::admit(Packet& pkt) {
  if (!arrivals_.admit(pkt)) return false;
  if (parts_.empty()) parts_.reserve(std::min(arrivals_.expected(), SeqSet::kInlineSeqs));
  bytes_ += pkt.data.size();
  const auto at = std::upper_bound(parts_.begin(), parts_.end(), pkt.seq,
                                   [](std::uint32_t seq, const Part& p) { return seq < p.seq; });
  parts_.insert(at, Part{pkt.seq, std::move(pkt.data)});
  return true;
}

Bytes Reassembly::join() const {
  Bytes msg;
  msg.reserve(bytes_);
  for (const Part& p : parts_) msg.insert(msg.end(), p.data.begin(), p.data.end());
  return msg;
}

}  // namespace nadfs::net
