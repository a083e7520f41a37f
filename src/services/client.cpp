#include "services/client.hpp"

#include <algorithm>
#include <limits>
#include <memory>
#include <stdexcept>

namespace nadfs::services {

namespace {
bool transient_error(dfs::DfsError err) {
  switch (err) {
    case dfs::DfsError::kDenied:     // request-table denial classics retry
    case dfs::DfsError::kTableFull:
    case dfs::DfsError::kTimeout:
    case dfs::DfsError::kDegraded:
    case dfs::DfsError::kNoQuorum:
      return true;
    default:
      return false;  // kNotFound/kExists/kBadArg/kMalformed won't heal by retrying
  }
}
}  // namespace

OpCb join(std::size_t n, TimePs now, OpCb cb) {
  if (n == 0) {
    cb(dfs::DfsError::kOk, now);
    return {};
  }
  struct State {
    std::size_t remaining;
    dfs::DfsError err;
    TimePs last;
    OpCb cb;
  };
  auto state = std::make_shared<State>(State{n, dfs::DfsError::kOk, now, std::move(cb)});
  return [state](dfs::DfsError err, TimePs at) {
    if (state->err == dfs::DfsError::kOk) state->err = err;
    state->last = std::max(state->last, at);
    if (--state->remaining == 0) state->cb(state->err, state->last);
  };
}

void AckTracker::install(rdma::Nic& nic) {
  nic.set_control_handler([this](const net::Packet& pkt, TimePs at) {
    auto it = ops_.find(pkt.user_tag);
    if (it == ops_.end()) {
      // Control packet for a tag we no longer track: the op was cancelled
      // (deadline expiry) or already completed. Count it — a climbing
      // late_acks with no timeouts configured would mean a tracking bug.
      ++(pkt.opcode == net::Opcode::kNack ? stray_nacks_ : late_acks_);
      return;
    }
    if (pkt.opcode == net::Opcode::kNack) {
      auto cb = std::move(it->second.cb);
      ops_.erase(it);
      // The typed error rides the control packet's raddr; 0 is a legacy
      // NACK (pre-typed peer) and maps to the old blanket meaning.
      dfs::DfsError err = dfs::DfsError::kDenied;
      if (pkt.raddr != 0 &&
          pkt.raddr <= static_cast<std::uint64_t>(dfs::DfsError::kMalformed)) {
        err = static_cast<dfs::DfsError>(pkt.raddr);
      }
      cb(err, at);
      return;
    }
    if (++it->second.got >= it->second.needed) {
      auto cb = std::move(it->second.cb);
      ops_.erase(it);
      cb(dfs::DfsError::kOk, at);
    }
  });
}

void AckTracker::expect(std::uint64_t tag, unsigned acks_needed, OpCb cb) {
  if (ops_.count(tag) != 0) {
    throw std::logic_error("AckTracker::expect: tag already pending (use replace())");
  }
  ops_.emplace(tag, Op{acks_needed, 0, std::move(cb)});
}

void AckTracker::replace(std::uint64_t tag, unsigned acks_needed, OpCb cb) {
  if (ops_.erase(tag) != 0) ++replaced_ops_;
  ops_.emplace(tag, Op{acks_needed, 0, std::move(cb)});
}

void AckTracker::cancel(std::uint64_t tag) { ops_.erase(tag); }

std::optional<OpCb> AckTracker::take(std::uint64_t tag) {
  auto it = ops_.find(tag);
  if (it == ops_.end()) return std::nullopt;
  OpCb cb = std::move(it->second.cb);
  ops_.erase(it);
  return cb;
}

Client::Client(Cluster& cluster, std::size_t client_idx)
    : cluster_(cluster),
      node_(cluster.client(client_idx)),
      client_id_(cluster.management().register_client()),
      metrics_prefix_("client" + std::to_string(client_id_)) {
  tracker_.install(node_.nic());
  auto& reg = cluster_.metrics();
  reg.counter_cell(metrics_prefix_ + ".retries_performed", &retries_performed_);
  reg.counter_cell(metrics_prefix_ + ".deny_retries", &deny_retries_);
  reg.counter_cell(metrics_prefix_ + ".timeout_retries", &timeout_retries_);
  reg.counter_cell(metrics_prefix_ + ".op_timeouts", &op_timeouts_);
  reg.counter_cell(metrics_prefix_ + ".late_acks", &tracker_.late_acks_);
  reg.counter_cell(metrics_prefix_ + ".stray_nacks", &tracker_.stray_nacks_);
  reg.counter_cell(metrics_prefix_ + ".replaced_ops", &tracker_.replaced_ops_);
  reg.gauge(metrics_prefix_ + ".pending_ops",
            [this] { return static_cast<long long>(tracker_.pending_count()); });
  reg.sketch(metrics_prefix_ + ".write_latency_q", write_latency_q_);
  reg.sketch(metrics_prefix_ + ".read_latency_q", read_latency_q_);
}

Client::~Client() { cluster_.metrics().remove_prefix(metrics_prefix_); }

void Client::note_op(const char* name, const char* failed_name, bool ok, std::uint64_t greq,
                     TimePs issued, TimePs at, obs::QuantileSketch* sketch) {
  if (auto* tracer = cluster_.tracer()) {
    tracer->record({node_.id(), obs::kLaneClientOp, "op", ok ? name : failed_name, greq, greq, 0,
                    0, issued, at});
  }
  if (ok && sketch) sketch->record(at - issued);
}

unsigned Client::acks_for(const FileLayout& layout) {
  switch (layout.policy.resiliency) {
    case dfs::Resiliency::kNone:
      return 1;
    case dfs::Resiliency::kReplication:
      return layout.policy.repl_k;
    case dfs::Resiliency::kErasureCoding:
      return layout.policy.ec_k + layout.policy.ec_m;
  }
  return 1;
}

void Client::write(const FileLayout& layout, const auth::Capability& cap, Bytes data, OpCb cb) {
  write_at(layout, cap, 0, std::move(data), std::move(cb));
}

void Client::write_at(const FileLayout& layout, const auth::Capability& cap,
                      std::uint64_t offset, Bytes data, OpCb cb) {
  if (offset + data.size() > layout.size) {
    throw std::length_error("Client::write_at: write exceeds object size");
  }
  if (offset != 0 && layout.policy.resiliency == dfs::Resiliency::kErasureCoding) {
    throw std::invalid_argument("Client::write_at: EC objects are whole-object writes");
  }
  if (layout.striped()) {
    striped_write(layout, cap, offset, std::move(data), std::move(cb));
    return;
  }
  start_write(layout, cap, offset, std::move(data), std::move(cb), max_retries_);
}

void Client::striped_write(const FileLayout& layout, const auth::Capability& cap,
                           std::uint64_t offset, Bytes data, OpCb cb) {
  // RAID-0 style: each overlapped stripe unit becomes one plain DFS write
  // against its stripe's extent; the op completes when every unit acked,
  // failing with the first unit error seen.
  const std::uint64_t ss = layout.policy.stripe_size;
  std::vector<std::tuple<dfs::Coord, Bytes>> units;
  std::uint64_t pos = offset;
  std::size_t consumed = 0;
  while (consumed < data.size()) {
    const auto [stripe, within] = layout.locate(pos);
    const std::uint64_t in_unit = pos % ss;
    const std::size_t n =
        std::min<std::size_t>(data.size() - consumed, static_cast<std::size_t>(ss - in_unit));
    dfs::Coord target = layout.targets[stripe];
    target.addr += within;
    units.emplace_back(target, Bytes(data.begin() + static_cast<std::ptrdiff_t>(consumed),
                                     data.begin() + static_cast<std::ptrdiff_t>(consumed + n)));
    pos += n;
    consumed += n;
  }
  const OpCb done = join(units.size(), cluster_.sim().now(), std::move(cb));
  for (auto& [target, bytes] : units) write_extent(target, cap, std::move(bytes), done);
}

void Client::striped_read(const FileLayout& layout, const auth::Capability& cap,
                          std::uint64_t offset, std::uint32_t len, ReadCb cb) {
  const std::uint64_t ss = layout.policy.stripe_size;
  struct Unit {
    dfs::Coord target;
    std::uint32_t n;
    std::size_t out_off;
  };
  std::vector<Unit> units;
  std::uint64_t pos = offset;
  std::size_t consumed = 0;
  while (consumed < len) {
    const auto [stripe, within] = layout.locate(pos);
    const std::uint64_t in_unit = pos % ss;
    const auto n = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(len - consumed, ss - in_unit));
    dfs::Coord target = layout.targets[stripe];
    target.addr += within;
    units.push_back(Unit{target, n, consumed});
    pos += n;
    consumed += n;
  }
  auto data = std::make_shared<Bytes>(len, 0);
  const OpCb done = join(units.size(), cluster_.sim().now(),
                         [data, cb = std::move(cb)](dfs::DfsError err, TimePs at) {
                           cb(err, err == dfs::DfsError::kOk ? std::move(*data) : Bytes{}, at);
                         });
  for (const auto& unit : units) {
    read_extent(unit.target, cap, unit.n,
                [data, done, out_off = unit.out_off](dfs::DfsError err, Bytes part, TimePs at) {
                  std::copy(part.begin(), part.end(),
                            data->begin() + static_cast<std::ptrdiff_t>(out_off));
                  done(err, at);
                });
  }
}

OpCb Client::make_completion(dfs::OpType op, std::uint64_t greq, OpCb cb, unsigned attempts_left,
                             std::function<void(unsigned)> reissue) {
  // A failed attempt is either a NACK (typed error from the storage node,
  // e.g. request table full — paper §III-B.2) or a deadline expiry
  // (arm_write_deadline fails the op with kTimeout). Transient errors back
  // off and reissue, booked under the matching retry counter; permanent
  // errors (kNotFound, kBadArg, ...) surface immediately.
  const TimePs issued = cluster_.sim().now();
  return [this, greq, issued, cb = std::move(cb), attempts_left, op,
          reissue = std::move(reissue)](dfs::DfsError err, TimePs at) mutable {
    const bool ok = err == dfs::DfsError::kOk;
    switch (op) {
      case dfs::OpType::kTrim:
        note_op("trim", "trim_failed", ok, greq, issued, at, nullptr);
        break;
      case dfs::OpType::kStat:
        note_op("stat", "stat_failed", ok, greq, issued, at, nullptr);
        break;
      default:
        note_op("write", "write_failed", ok, greq, issued, at, &write_latency_q_);
    }
    if (ok || attempts_left == 0 || !transient_error(err)) {
      cb(err, at);
      return;
    }
    ++(err == dfs::DfsError::kTimeout ? timeout_retries_ : deny_retries_);
    ++retries_performed_;
    cluster_.sim().schedule(
        retry_delay(attempts_left),
        [attempts_left, reissue = std::move(reissue)] { reissue(attempts_left - 1); });
  };
}

void Client::arm_write_deadline(std::uint64_t greq) {
  if (timeout_ == 0) return;
  cluster_.sim().schedule(timeout_, [this, greq] {
    if (auto cb = tracker_.take(greq)) {
      // Still pending at the deadline: cancel, so straggler acks land in
      // late_acks instead of completing a dead op, and fail the attempt.
      ++op_timeouts_;
      (*cb)(dfs::DfsError::kTimeout, cluster_.sim().now());
    }
  });
}

TimePs Client::retry_delay(unsigned attempts_left) const {
  // attempts_left counts down from max_retries_, so retry n (n = 0 for the
  // first) sees attempts_left == max_retries_ - n and waits
  // min(backoff * 2^n, cap).
  const unsigned n = max_retries_ - attempts_left;
  const TimePs cap = retry_backoff_cap_ != 0 ? retry_backoff_cap_ : retry_backoff_ * 16;
  TimePs delay = retry_backoff_;
  for (unsigned i = 0; i < n && delay < cap; ++i) delay *= 2;
  return std::min(delay, cap);
}

void Client::start_write(const FileLayout& layout, const auth::Capability& cap,
                         std::uint64_t offset, Bytes data, OpCb cb, unsigned attempts_left) {
  const std::uint64_t greq = next_greq();
  std::function<void(unsigned)> reissue;
  if (attempts_left > 0) {
    // The reissue closure owns a copy of the payload; a retry is a fresh
    // attempt under a fresh greq against the same layout.
    reissue = [this, layout, cap, offset, data, cb](unsigned attempts) mutable {
      start_write(layout, cap, offset, std::move(data), std::move(cb), attempts);
    };
  }
  tracker_.expect(greq, acks_for(layout), make_completion(dfs::OpType::kWrite, greq, std::move(cb),
                                                         attempts_left, std::move(reissue)));
  arm_write_deadline(greq);
  switch (layout.policy.resiliency) {
    case dfs::Resiliency::kNone:
      write_plain(layout, cap, offset, std::move(data), greq);
      break;
    case dfs::Resiliency::kReplication:
      write_replicated(layout, cap, offset, std::move(data), greq);
      break;
    case dfs::Resiliency::kErasureCoding:
      write_erasure_coded(layout, cap, std::move(data), greq);
      break;
  }
}

template <class OpHeader>
std::vector<net::Packet> Client::request(dfs::OpType op, std::uint64_t greq,
                                         const auth::Capability& cap, net::NodeId dst,
                                         const OpHeader& op_header, ByteSpan data) const {
  return dfs::build_request_packets(node_.id(), dst, cluster_.network().mtu(),
                                    dfs::DfsHeader{op, greq, node_.id(), cap}, op_header, data);
}

void Client::write_plain(const FileLayout& layout, const auth::Capability& cap,
                         std::uint64_t offset, Bytes data, std::uint64_t greq) {
  dfs::WriteRequestHeader wrh;
  wrh.dest_addr = layout.targets.front().addr + offset;
  wrh.total_len = data.size();
  node_.nic().post_message(
      request(dfs::OpType::kWrite, greq, cap, layout.targets.front().node, wrh, data));
}

void Client::write_replicated(const FileLayout& layout, const auth::Capability& cap,
                              std::uint64_t offset, Bytes data, std::uint64_t greq) {
  dfs::WriteRequestHeader wrh;
  wrh.dest_addr = layout.targets.front().addr + offset;
  wrh.total_len = data.size();
  wrh.resiliency = dfs::Resiliency::kReplication;
  wrh.strategy = layout.policy.strategy;
  wrh.virtual_rank = 0;
  wrh.replicas = layout.targets;
  for (auto& coord : wrh.replicas) coord.addr += offset;
  node_.nic().post_message(
      request(dfs::OpType::kWrite, greq, cap, layout.targets.front().node, wrh, data));
}

void Client::write_erasure_coded(const FileLayout& layout, const auth::Capability& cap,
                                 Bytes data, std::uint64_t greq) {
  const unsigned k = layout.policy.ec_k;
  const auto chunk_len = static_cast<std::size_t>(layout.chunk_len);
  data.resize(chunk_len * k, 0);  // zero-pad to k equal chunks

  std::vector<std::vector<net::Packet>> trains;
  trains.reserve(k);
  for (unsigned i = 0; i < k; ++i) {
    dfs::WriteRequestHeader wrh;
    wrh.dest_addr = layout.targets[i].addr;
    wrh.total_len = chunk_len;
    wrh.resiliency = dfs::Resiliency::kErasureCoding;
    wrh.ec_k = layout.policy.ec_k;
    wrh.ec_m = layout.policy.ec_m;
    wrh.role = dfs::EcRole::kData;
    wrh.data_idx = static_cast<std::uint8_t>(i);
    wrh.parity_nodes = layout.parity;

    const ByteSpan chunk(data.data() + static_cast<std::size_t>(i) * chunk_len, chunk_len);
    trains.push_back(
        request(dfs::OpType::kWrite, greq, cap, layout.targets[i].node, wrh, chunk));
  }
  if (ec_interleave_) {
    node_.nic().post_message(interleave(std::move(trains)));
  } else {
    std::vector<net::Packet> sequential;
    for (auto& t : trains) {
      for (auto& p : t) sequential.push_back(std::move(p));
    }
    node_.nic().post_message(std::move(sequential));
  }
}

void Client::read(const FileLayout& layout, const auth::Capability& cap, std::uint32_t len,
                  ReadCb cb) {
  read_at(layout, cap, 0, len, std::move(cb));
}

void Client::read_at(const FileLayout& layout, const auth::Capability& cap,
                     std::uint64_t offset, std::uint32_t len, ReadCb cb) {
  // A zero-length read takes the plain path on every layout: start_read
  // answers it kBadArg inline.
  if (layout.striped() && len != 0) {
    striped_read(layout, cap, offset, len, std::move(cb));
    return;
  }
  dfs::Coord coord = layout.targets.front();
  coord.addr += offset;
  start_read(coord, cap, len, std::move(cb), max_retries_);
}

void Client::read_extent(const dfs::Coord& coord, const auth::Capability& cap,
                         std::uint32_t len, ReadCb cb) {
  start_read(coord, cap, len, std::move(cb), max_retries_);
}

void Client::start_read(const dfs::Coord& coord, const auth::Capability& cap, std::uint32_t len,
                        ReadCb cb, unsigned attempts_left) {
  if (len == 0) {
    // A client bug, not a cluster condition: fail typed without touching
    // the wire (and without burning a greq).
    cb(dfs::DfsError::kBadArg, Bytes{}, cluster_.sim().now());
    return;
  }
  const std::uint64_t greq = next_greq();
  const TimePs issued = cluster_.sim().now();
  // Three completion paths share the callback: response data, a typed NACK
  // (fail-fast), and the deadline. Exactly one fires; the others are
  // cancelled when it does.
  auto shared_cb = std::make_shared<ReadCb>(std::move(cb));
  if (timeout_ != 0) {
    // Deadline: if the NIC still holds the pending read, cancel it (any
    // straggler response packets then count as late) and retry under a
    // fresh greq, or give up with kTimeout.
    cluster_.sim().schedule(timeout_, [this, coord, cap, len, shared_cb, attempts_left,
                                       greq, issued]() mutable {
      if (!node_.nic().cancel_read(greq)) return;  // answered or NACKed in time
      tracker_.cancel(greq);
      note_op("read", "read_failed", false, greq, issued, cluster_.sim().now(), &read_latency_q_);
      ++op_timeouts_;
      if (attempts_left == 0) {
        (*shared_cb)(dfs::DfsError::kTimeout, Bytes{}, cluster_.sim().now());
        return;
      }
      ++timeout_retries_;
      ++retries_performed_;
      cluster_.sim().schedule(
          retry_delay(attempts_left), [this, coord, cap, len, shared_cb, attempts_left]() {
            start_read(coord, cap, len, std::move(*shared_cb), attempts_left - 1);
          });
    });
  }
  // NACK fail-fast: a denied or not-found read is answered with a typed
  // control packet instead of silence, so the client need not ride out the
  // deadline. The huge acks_needed keeps stray ACKs from completing it.
  tracker_.expect(
      greq, std::numeric_limits<unsigned>::max(),
      OpCb([this, coord, cap, len, shared_cb, attempts_left, greq,
            issued](dfs::DfsError err, TimePs at) mutable {
        node_.nic().cancel_read(greq);
        note_op("read", "read_failed", false, greq, issued, at, &read_latency_q_);
        if (attempts_left == 0 || !transient_error(err)) {
          (*shared_cb)(err, Bytes{}, at);
          return;
        }
        ++deny_retries_;
        ++retries_performed_;
        cluster_.sim().schedule(
            retry_delay(attempts_left), [this, coord, cap, len, shared_cb, attempts_left]() {
              start_read(coord, cap, len, std::move(*shared_cb), attempts_left - 1);
            });
      }));
  node_.nic().expect_read_response(
      greq, len, [this, greq, issued, shared_cb](Bytes data, TimePs at) {
        tracker_.cancel(greq);
        note_op("read", "read_failed", true, greq, issued, at, &read_latency_q_);
        (*shared_cb)(dfs::DfsError::kOk, std::move(data), at);
      });
  node_.nic().post_message(request(dfs::OpType::kRead, greq, cap, coord.node,
                                   dfs::ReadRequestHeader{coord.addr, len}));
}

void Client::write_extent(const dfs::Coord& coord, const auth::Capability& cap, Bytes data,
                          OpCb cb) {
  start_extent_write(coord, cap, std::move(data), std::move(cb), max_retries_);
}

void Client::start_extent_write(const dfs::Coord& coord, const auth::Capability& cap, Bytes data,
                                OpCb cb, unsigned attempts_left) {
  const std::uint64_t greq = next_greq();
  std::function<void(unsigned)> reissue;
  if (attempts_left > 0) {
    reissue = [this, coord, cap, data, cb](unsigned attempts) mutable {
      start_extent_write(coord, cap, std::move(data), std::move(cb), attempts);
    };
  }
  tracker_.expect(greq, 1, make_completion(dfs::OpType::kWrite, greq, std::move(cb), attempts_left,
                                           std::move(reissue)));
  arm_write_deadline(greq);
  dfs::WriteRequestHeader wrh;
  wrh.dest_addr = coord.addr;
  wrh.total_len = data.size();
  node_.nic().post_message(request(dfs::OpType::kWrite, greq, cap, coord.node, wrh, data));
}

void Client::trim_extent(const dfs::Coord& coord, const auth::Capability& cap, std::uint64_t len,
                         OpCb cb) {
  start_extent_op(dfs::OpType::kTrim, coord, cap, len, std::move(cb), max_retries_);
}

void Client::stat_extent(const dfs::Coord& coord, const auth::Capability& cap, std::uint64_t len,
                         OpCb cb) {
  start_extent_op(dfs::OpType::kStat, coord, cap, len, std::move(cb), max_retries_);
}

void Client::start_extent_op(dfs::OpType op, const dfs::Coord& coord,
                             const auth::Capability& cap, std::uint64_t len, OpCb cb,
                             unsigned attempts_left) {
  const std::uint64_t greq = next_greq();
  std::function<void(unsigned)> reissue;
  if (attempts_left > 0) {
    reissue = [this, op, coord, cap, len, cb](unsigned attempts) mutable {
      start_extent_op(op, coord, cap, len, std::move(cb), attempts);
    };
  }
  tracker_.expect(greq, 1,
                  make_completion(op, greq, std::move(cb), attempts_left, std::move(reissue)));
  arm_write_deadline(greq);
  node_.nic().post_message(
      request(op, greq, cap, coord.node, dfs::ExtentRequestHeader{coord.addr, len}));
}

// ---- name-based operations ------------------------------------------------

dfs::DfsError Client::create(const std::string& name, std::uint64_t size, FilePolicy policy) {
  return cluster_.metadata().try_create(name, size, policy).first;
}

MetadataService::StatInfo Client::stat(const std::string& name) const {
  return cluster_.metadata().stat(name);
}

std::vector<std::string> Client::list(const std::string& prefix) const {
  return cluster_.metadata().list(prefix);
}

void Client::append(const std::string& name, const auth::Capability& cap, Bytes data, OpCb cb) {
  const FileLayout* layout = cluster_.metadata().lookup(name);
  if (!layout) {
    cb(dfs::DfsError::kNotFound, cluster_.sim().now());
    return;
  }
  if (layout->policy.resiliency == dfs::Resiliency::kErasureCoding) {
    // EC objects are whole-object writes; there is no incremental tail.
    cb(dfs::DfsError::kBadArg, cluster_.sim().now());
    return;
  }
  // The reservation is the serialization point: concurrent appends each get
  // a disjoint [offset, offset+len) before any data-plane traffic starts.
  const auto [err, offset] = cluster_.metadata().append_reserve(name, data.size());
  if (err != dfs::DfsError::kOk) {
    cb(err, cluster_.sim().now());
    return;
  }
  write_at(*layout, cap, offset, std::move(data), std::move(cb));
}

void Client::remove(const std::string& name, const auth::Capability& cap, OpCb cb) {
  const FileLayout* layout = cluster_.metadata().lookup(name);
  if (!layout) {
    cb(dfs::DfsError::kNotFound, cluster_.sim().now());
    return;
  }
  // Trim every extent of the layout; the namespace entry is dropped only
  // after all trims acked, so a failure leaves the (possibly degraded) file
  // visible rather than leaking unreachable live extents.
  const std::uint64_t span = MetadataService::extent_span(*layout);
  std::vector<dfs::Coord> extents = layout->targets;
  extents.insert(extents.end(), layout->parity.begin(), layout->parity.end());

  const OpCb done =
      join(extents.size(), cluster_.sim().now(),
           [this, name, cb = std::move(cb)](dfs::DfsError err, TimePs at) {
             if (err == dfs::DfsError::kOk) cluster_.metadata().remove(name);
             cb(err, at);
           });
  for (const auto& coord : extents) trim_extent(coord, cap, span, done);
}

std::vector<net::Packet> interleave(std::vector<std::vector<net::Packet>> trains) {
  std::vector<net::Packet> out;
  std::size_t total = 0;
  std::size_t longest = 0;
  for (const auto& t : trains) {
    total += t.size();
    longest = std::max(longest, t.size());
  }
  out.reserve(total);
  for (std::size_t i = 0; i < longest; ++i) {
    for (auto& t : trains) {
      if (i < t.size()) out.push_back(std::move(t[i]));
    }
  }
  return out;
}

}  // namespace nadfs::services
