#include "services/metadata.hpp"

#include <algorithm>

#include <stdexcept>

namespace nadfs::services {

namespace {
void put_coords(ByteWriter& w, const std::vector<dfs::Coord>& coords) {
  w.put(static_cast<std::uint16_t>(coords.size()));
  for (const auto& c : coords) {
    w.put(c.node);
    w.put(c.addr);
  }
}
std::vector<dfs::Coord> get_coords(ByteReader& r) {
  std::vector<dfs::Coord> coords(r.get<std::uint16_t>());
  for (auto& c : coords) {
    c.node = r.get<net::NodeId>();
    c.addr = r.get<std::uint64_t>();
  }
  return coords;
}
}  // namespace

void FileLayout::serialize(ByteWriter& w) const {
  w.put(object_id);
  w.put(size);
  w.put(static_cast<std::uint8_t>(policy.resiliency));
  w.put(static_cast<std::uint8_t>(policy.strategy));
  w.put(policy.repl_k);
  w.put(policy.ec_k);
  w.put(policy.ec_m);
  w.put(policy.stripe_count);
  w.put(policy.stripe_size);
  put_coords(w, targets);
  put_coords(w, parity);
  w.put(chunk_len);
}

FileLayout FileLayout::deserialize(ByteReader& r) {
  FileLayout l;
  l.object_id = r.get<std::uint64_t>();
  l.size = r.get<std::uint64_t>();
  l.policy.resiliency = static_cast<dfs::Resiliency>(r.get<std::uint8_t>());
  l.policy.strategy = static_cast<dfs::ReplStrategy>(r.get<std::uint8_t>());
  l.policy.repl_k = r.get<std::uint8_t>();
  l.policy.ec_k = r.get<std::uint8_t>();
  l.policy.ec_m = r.get<std::uint8_t>();
  l.policy.stripe_count = r.get<std::uint8_t>();
  l.policy.stripe_size = r.get<std::uint64_t>();
  l.targets = get_coords(r);
  l.parity = get_coords(r);
  l.chunk_len = r.get<std::uint64_t>();
  return l;
}

std::uint64_t MetadataService::allocate_on(std::size_t node_idx, std::uint64_t len) {
  const std::uint64_t addr = alloc_ptr_[node_idx];
  // 4 KiB-align allocations so extents never straddle unrelated objects.
  alloc_ptr_[node_idx] += (len + 4095) & ~std::uint64_t{4095};
  return addr;
}

const FileLayout& MetadataService::create(const std::string& name, std::uint64_t size,
                                          FilePolicy policy) {
  auto [err, layout] = try_create(name, size, policy);
  switch (err) {
    case dfs::DfsError::kOk:
      return *layout;
    case dfs::DfsError::kExists:
      throw std::invalid_argument("MetadataService::create: file exists: " + name);
    default:
      throw std::invalid_argument("MetadataService::create: bad parameters for " + name);
  }
}

std::pair<dfs::DfsError, const FileLayout*> MetadataService::try_create(const std::string& name,
                                                                        std::uint64_t size,
                                                                        FilePolicy policy) {
  if (files_.count(name)) {
    return {dfs::DfsError::kExists, nullptr};
  }
  if (policy.stripe_count > 1 && policy.resiliency != dfs::Resiliency::kNone) {
    return {dfs::DfsError::kBadArg, nullptr};  // striping composes only with plain
  }
  FileLayout layout;
  layout.object_id = next_object_id_++;
  layout.size = size;
  layout.policy = policy;

  // Target-count checks split by cause: a policy wider than the cluster
  // itself (non-removed nodes) is a request error, kBadArg; one the cluster
  // could satisfy but for failed/held/draining nodes is a retryable
  // cluster-state error, kNoQuorum — it succeeds again once nodes rejoin.
  auto capacity_error = [&](std::size_t want) {
    return want > placeable_node_count() ? dfs::DfsError::kBadArg : dfs::DfsError::kNoQuorum;
  };
  bool exhausted = false;
  auto place = [&](std::uint64_t bytes) {
    auto coord = try_place_next(bytes, {});
    if (!coord) exhausted = true;
    return coord.value_or(dfs::Coord{});
  };

  switch (policy.resiliency) {
    case dfs::Resiliency::kNone: {
      if (policy.stripe_count <= 1) {
        layout.targets.push_back(place(size));
        break;
      }
      if (policy.stripe_size == 0) return {dfs::DfsError::kBadArg, nullptr};
      if (policy.stripe_count > eligible_node_count()) {
        return {capacity_error(policy.stripe_count), nullptr};
      }
      // Per-stripe extent: ceil of the stripe's share of the object.
      const std::uint64_t per_stripe =
          ((size + policy.stripe_count - 1) / policy.stripe_count + policy.stripe_size - 1) /
              policy.stripe_size * policy.stripe_size;
      for (unsigned s = 0; s < policy.stripe_count; ++s) {
        layout.targets.push_back(place(per_stripe));
      }
      break;
    }
    case dfs::Resiliency::kReplication: {
      if (policy.repl_k == 0) return {dfs::DfsError::kBadArg, nullptr};
      if (policy.repl_k > eligible_node_count()) {
        return {capacity_error(policy.repl_k), nullptr};
      }
      for (unsigned i = 0; i < policy.repl_k; ++i) layout.targets.push_back(place(size));
      break;
    }
    case dfs::Resiliency::kErasureCoding: {
      if (policy.ec_k == 0 || policy.ec_m == 0) return {dfs::DfsError::kBadArg, nullptr};
      if (policy.ec_k + policy.ec_m > eligible_node_count()) {
        return {capacity_error(std::size_t{policy.ec_k} + policy.ec_m), nullptr};
      }
      layout.chunk_len = (size + policy.ec_k - 1) / policy.ec_k;
      for (unsigned i = 0; i < policy.ec_k; ++i) layout.targets.push_back(place(layout.chunk_len));
      for (unsigned i = 0; i < policy.ec_m; ++i) layout.parity.push_back(place(layout.chunk_len));
      break;
    }
  }
  if (exhausted) {
    // Every placement passed the count checks above, so exhaustion here
    // means the eligible set shrank to zero mid-run: typed NACK instead of
    // tearing down the simulation.
    return {dfs::DfsError::kNoQuorum, nullptr};
  }
  lengths_[name] = 0;
  return {dfs::DfsError::kOk, &files_.emplace(name, std::move(layout)).first->second};
}

dfs::DfsError MetadataService::remove(const std::string& name) {
  if (files_.erase(name) == 0) return dfs::DfsError::kNotFound;
  lengths_.erase(name);
  return dfs::DfsError::kOk;
}

MetadataService::StatInfo MetadataService::stat(const std::string& name) const {
  StatInfo info;
  auto it = files_.find(name);
  if (it == files_.end()) return info;
  info.exists = true;
  info.size = it->second.size;
  info.policy = it->second.policy;
  auto lit = lengths_.find(name);
  info.length = lit == lengths_.end() ? 0 : lit->second;
  return info;
}

std::vector<std::string> MetadataService::list(const std::string& prefix) const {
  std::vector<std::string> names;
  for (const auto& [name, layout] : files_) {
    if (name.compare(0, prefix.size(), prefix) == 0) names.push_back(name);
  }
  std::sort(names.begin(), names.end());
  return names;
}

std::pair<dfs::DfsError, std::uint64_t> MetadataService::append_reserve(const std::string& name,
                                                                        std::uint64_t len) {
  auto it = files_.find(name);
  if (it == files_.end()) return {dfs::DfsError::kNotFound, 0};
  if (len == 0) return {dfs::DfsError::kBadArg, 0};
  std::uint64_t& length = lengths_[name];
  if (length + len > it->second.size) return {dfs::DfsError::kBadArg, 0};  // over capacity
  const std::uint64_t offset = length;
  length += len;
  return {dfs::DfsError::kOk, offset};
}

std::optional<dfs::Coord> MetadataService::try_place_next(std::uint64_t len,
                                                          const std::vector<net::NodeId>& avoid) {
  // Round-robin over the eligible nodes: excluded (failed), partition-held,
  // draining, and removed nodes plus the caller's avoid list are skipped
  // without burning their rotation slot's fairness — consecutive placements
  // still land on distinct nodes as long as enough nodes are eligible.
  // Partition-held nodes matter here: the detector deliberately does not
  // *exclude* them (they are not declared dead), but a spare placed on the
  // far side of a cut would stall its rebuild until the heal.
  for (std::size_t tries = 0; tries < nodes_.size(); ++tries) {
    const std::size_t idx = next_placement_++ % nodes_.size();
    if (!placeable(nodes_[idx])) continue;
    if (std::find(avoid.begin(), avoid.end(), nodes_[idx]) != avoid.end()) continue;
    return dfs::Coord{nodes_[idx], allocate_on(idx, len)};
  }
  return std::nullopt;
}

std::size_t MetadataService::eligible_node_count() const {
  std::size_t n = 0;
  for (const net::NodeId node : nodes_) {
    if (placeable(node)) ++n;
  }
  return n;
}

std::optional<dfs::Coord> MetadataService::try_allocate_spare(
    std::uint64_t len, const std::vector<net::NodeId>& avoid) {
  return try_place_next(len, avoid);
}

std::uint64_t MetadataService::extent_span(const FileLayout& layout) {
  if (layout.policy.resiliency == dfs::Resiliency::kErasureCoding) return layout.chunk_len;
  if (layout.striped()) {
    const auto count = layout.policy.stripe_count;
    const auto ss = layout.policy.stripe_size;
    return ((layout.size + count - 1) / count + ss - 1) / ss * ss;
  }
  return layout.size;
}

std::unordered_map<net::NodeId, std::uint64_t> MetadataService::placement_load() const {
  std::unordered_map<net::NodeId, std::uint64_t> load;
  for (const net::NodeId node : nodes_) {
    if (removed_.count(node) == 0) load.emplace(node, 0);
  }
  for (const auto& [name, layout] : files_) {
    const std::uint64_t span = extent_span(layout);
    auto charge = [&](const dfs::Coord& c) {
      auto it = load.find(c.node);
      if (it != load.end()) it->second += span;
    };
    for (const auto& c : layout.targets) charge(c);
    for (const auto& c : layout.parity) charge(c);
  }
  return load;
}

dfs::DfsError MetadataService::update_layout(const std::string& name, const FileLayout& updated) {
  auto it = files_.find(name);
  if (it == files_.end()) return dfs::DfsError::kNotFound;
  it->second = updated;
  return dfs::DfsError::kOk;
}

const FileLayout* MetadataService::lookup(const std::string& name) const {
  auto it = files_.find(name);
  return it == files_.end() ? nullptr : &it->second;
}

auth::Capability MetadataService::grant(std::uint64_t client_id, const FileLayout& layout,
                                        auth::Right rights, std::uint64_t expiry_ps) const {
  // Conservative extent: cover the address range any target of this object
  // occupies. All allocations are bump-pointer per node, so granting
  // [min_addr, max_addr+len) is tight enough for the simulation while
  // keeping a single capability per object (see paper §IV's rkey-per-file
  // scalability discussion).
  std::uint64_t lo = ~std::uint64_t{0};
  std::uint64_t hi = 0;
  const std::uint64_t span =
      layout.policy.resiliency == dfs::Resiliency::kErasureCoding ? layout.chunk_len : layout.size;
  auto widen = [&](const dfs::Coord& c) {
    lo = std::min(lo, c.addr);
    hi = std::max(hi, c.addr + span);
  };
  for (const auto& c : layout.targets) widen(c);
  for (const auto& c : layout.parity) widen(c);
  // Parity nodes stage fallback contributions just past the extent.
  hi += span * 2;
  return mgmt_.grant(client_id, layout.object_id, rights, expiry_ps, lo, hi - lo);
}

}  // namespace nadfs::services
