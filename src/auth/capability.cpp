#include "auth/capability.hpp"

#include <array>
#include <cstring>

namespace nadfs::auth {

void Capability::serialize(ByteWriter& w) const {
  w.put(client_id);
  w.put(object_id);
  w.put(static_cast<std::uint8_t>(rights));
  w.put(expiry_ps);
  w.put(extent_base);
  w.put(extent_len);
  w.put(mac);
}

Capability Capability::deserialize(ByteReader& r) {
  Capability cap;
  cap.client_id = r.get<std::uint64_t>();
  cap.object_id = r.get<std::uint64_t>();
  cap.rights = static_cast<Right>(r.get<std::uint8_t>());
  cap.expiry_ps = r.get<std::uint64_t>();
  cap.extent_base = r.get<std::uint64_t>();
  cap.extent_len = r.get<std::uint64_t>();
  cap.mac = r.get<std::uint64_t>();
  return cap;
}

std::uint64_t CapabilityAuthority::compute_mac(const Capability& cap) const {
  // The signed fields in wire order (every field but the MAC), packed into
  // a stack array: verify() runs once per request, so no heap buffer.
  std::array<std::uint8_t, Capability::kWireBytes - sizeof(cap.mac)> buf;
  std::size_t at = 0;
  const auto put = [&buf, &at](auto v) {
    std::memcpy(buf.data() + at, &v, sizeof(v));
    at += sizeof(v);
  };
  put(cap.client_id);
  put(cap.object_id);
  put(static_cast<std::uint8_t>(cap.rights));
  put(cap.expiry_ps);
  put(cap.extent_base);
  put(cap.extent_len);
  return siphash24(key_, buf);
}

Capability CapabilityAuthority::mint(std::uint64_t client_id, std::uint64_t object_id,
                                     Right rights, std::uint64_t expiry_ps,
                                     std::uint64_t extent_base,
                                     std::uint64_t extent_len) const {
  Capability cap;
  cap.client_id = client_id;
  cap.object_id = object_id;
  cap.rights = rights;
  cap.expiry_ps = expiry_ps;
  cap.extent_base = extent_base;
  cap.extent_len = extent_len;
  cap.mac = compute_mac(cap);
  return cap;
}

bool CapabilityAuthority::verify_mac(const Capability& cap) const {
  return cap.mac == compute_mac(cap);
}

bool CapabilityAuthority::verify(const Capability& cap, std::uint64_t now_ps, Right requested,
                                 std::uint64_t addr, std::uint64_t len) const {
  if (!verify_mac(cap)) return false;
  if (cap.expiry_ps != 0 && now_ps > cap.expiry_ps) return false;
  if (!allows(cap.rights, requested)) return false;
  // Compared as an offset into the extent, so no sum can wrap: with
  // `addr + len` a huge len would wrap below the extent's end and pass.
  if (addr < cap.extent_base) return false;
  const std::uint64_t off = addr - cap.extent_base;
  return off <= cap.extent_len && len <= cap.extent_len - off;
}

}  // namespace nadfs::auth
