#include "services/metadata_node.hpp"

#include <stdexcept>

namespace nadfs::services {

namespace {
constexpr std::uint8_t kStatusOk = 0;
constexpr std::uint8_t kStatusNotFound = 1;
constexpr std::uint8_t kStatusMalformed = 2;
/// CPU cost to look an object up and mint a capability.
constexpr TimePs kLookupCost = ns(400);
}  // namespace

MetadataNode::MetadataNode(Cluster& cluster)
    : cluster_(cluster),
      node_(std::make_unique<ClientNode>(cluster.sim(), cluster.network(),
                                         cluster.config().nic, cluster.config().cpu)) {
  node_->nic().set_recv_handler(
      [this](net::NodeId src, std::uint64_t tag, Bytes request, TimePs at) {
        serve(src, tag, std::move(request), at);
      });
}

void MetadataNode::serve(net::NodeId src, std::uint64_t tag, Bytes request, TimePs at) {
  auto& cpu = node_->cpu();
  const TimePs done = cpu.busy(cpu.config().rpc_dispatch + kLookupCost,
                               at + cpu.config().notify_latency);
  ++lookups_;

  Bytes response;
  ByteWriter w(response);
  try {
    // Request: [client_id:8][rights:1][name bytes].
    ByteReader r(request);
    const auto client_id = r.get<std::uint64_t>();
    const auto rights = static_cast<auth::Right>(r.get<std::uint8_t>());
    const auto name_bytes = r.get_bytes(r.remaining());
    const std::string name(name_bytes.begin(), name_bytes.end());
    const FileLayout* layout = cluster_.metadata().lookup(name);
    if (!layout) {
      w.put(kStatusNotFound);
    } else {
      w.put(kStatusOk);
      layout->serialize(w);
      cluster_.metadata().grant(client_id, *layout, rights).serialize(w);
    }
  } catch (const std::out_of_range&) {
    response.assign(1, kStatusMalformed);  // a truncated request
  }
  cluster_.sim().schedule_at(done, [this, src, tag, response = std::move(response)]() mutable {
    node_->nic().post_send(src, tag, std::move(response));
  });
}

void MetadataClient::open(const std::string& name, auth::Right rights, OpenCb cb) {
  if (!handler_installed_) {
    handler_installed_ = true;
    client_.node().nic().set_recv_handler(
        [this](net::NodeId, std::uint64_t tag, Bytes response, TimePs at) {
          auto it = pending_.find(tag);
          if (it == pending_.end()) return;
          auto done = std::move(it->second);
          pending_.erase(it);
          ByteReader r(response);
          if (r.get<std::uint8_t>() != 0) {
            done(std::nullopt, at);
            return;
          }
          OpenResult result;
          result.layout = FileLayout::deserialize(r);
          result.cap = auth::Capability::deserialize(r);
          done(std::move(result), at);
        });
  }
  const std::uint64_t tag = next_tag_++;
  pending_[tag] = std::move(cb);

  Bytes request;
  ByteWriter w(request);
  w.put(client_.client_id());
  w.put(static_cast<std::uint8_t>(rights));
  w.put_bytes(ByteSpan(reinterpret_cast<const std::uint8_t*>(name.data()), name.size()));
  client_.node().nic().post_send(server_, tag, std::move(request));
}

}  // namespace nadfs::services
