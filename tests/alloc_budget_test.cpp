// Heap allocations per packet on the sPIN data path. A counting global
// operator new (the technique perfbench/perfbench.cpp uses) counts every
// allocation from the call that issues an op through sim.run(). A payload
// byte moves once per hop: the storage NIC's payload handler DMAs straight
// from the packet, every handler run records into the device's one command
// buffer, and a read gathers each response payload from storage once.
// The operator new replacement is why this is a test binary of its own.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "net/train.hpp"
#include "services/client.hpp"
#include "services/cluster.hpp"

namespace {

struct AllocCounter {
  bool on = false;
  std::uint64_t calls = 0;
};
AllocCounter g_alloc;

void* counted_alloc(std::size_t n) {
  if (g_alloc.on) ++g_alloc.calls;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* counted_alloc_aligned(std::size_t n, std::align_val_t al) {
  if (g_alloc.on) ++g_alloc.calls;
  const auto a = static_cast<std::size_t>(al);
  const std::size_t rounded = (std::max<std::size_t>(n, 1) + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t al) { return counted_alloc_aligned(n, al); }
void* operator new[](std::size_t n, std::align_val_t al) { return counted_alloc_aligned(n, al); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace nadfs {
namespace {

using services::Client;
using services::Cluster;

/// The budget: under 1.5 heap allocations per packet of a 256 KiB op,
/// all of it counted — client, network, NICs, PsPIN, handlers, storage.
constexpr double kAllocsPerPacket = 1.5;
constexpr std::uint32_t kOpBytes = 256 * KiB;

/// Heap allocations `fn` makes.
template <class Fn>
std::uint64_t allocations(Fn&& fn) {
  const std::uint64_t before = g_alloc.calls;
  g_alloc.on = true;
  fn();
  g_alloc.on = false;
  return g_alloc.calls - before;
}

Bytes pattern(std::size_t n, std::uint8_t salt) {
  Bytes out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = static_cast<std::uint8_t>(i * 31 + salt);
  return out;
}

/// A default cluster and one client that wrote and read a 1 MiB plain
/// object once, so maps, pages and buffers the first ops grow are warm.
struct WarmCluster {
  Cluster cluster;
  Client client{cluster, 0};
  const services::FileLayout& layout =
      cluster.metadata().create("obj", 1 * MiB, services::FilePolicy{});
  const auth::Capability cap =
      cluster.metadata().grant(client.client_id(), layout, auth::Right::kReadWrite);

  WarmCluster() {
    dfs::DfsError werr = dfs::DfsError::kTimeout;
    client.write(layout, cap, pattern(1 * MiB, 1), [&](dfs::DfsError e, TimePs) { werr = e; });
    cluster.sim().run();
    EXPECT_EQ(werr, dfs::DfsError::kOk);
    Bytes got;
    client.read(layout, cap, 1 * MiB, [&](dfs::DfsError, Bytes d, TimePs) { got = std::move(d); });
    cluster.sim().run();
    EXPECT_EQ(got, pattern(1 * MiB, 1));
  }

  std::uint64_t payload_handler_runs() {
    return cluster.storage_by_node(layout.targets[0].node)
        .pspin()
        .stats()
        .duration_ns(spin::HandlerType::kPayload)
        .count();
  }
};

TEST(AllocBudget, PlainWriteUnderOneAndAHalfAllocationsPerPacket) {
  WarmCluster w;
  const Bytes data = pattern(kOpBytes, 2);
  const std::uint64_t runs_before = w.payload_handler_runs();
  dfs::DfsError err = dfs::DfsError::kTimeout;
  const std::uint64_t allocs = allocations([&] {
    w.client.write(w.layout, w.cap, data, [&](dfs::DfsError e, TimePs) { err = e; });
    w.cluster.sim().run();
  });
  ASSERT_EQ(err, dfs::DfsError::kOk);
  const std::uint64_t packets = w.payload_handler_runs() - runs_before;
  EXPECT_EQ(packets, 129u);  // 256 KiB of data behind the request headers
  const double per_packet = static_cast<double>(allocs) / static_cast<double>(packets);
  EXPECT_LT(per_packet, kAllocsPerPacket) << allocs << " allocations for " << packets << " packets";
  EXPECT_EQ(w.cluster.storage_by_node(w.layout.targets[0].node)
                .target()
                .read(w.layout.targets[0].addr, kOpBytes),
            data);
}

TEST(AllocBudget, PlainReadUnderOneAndAHalfAllocationsPerPacket) {
  WarmCluster w;
  Bytes got;
  const std::uint64_t allocs = allocations([&] {
    w.client.read(w.layout, w.cap, kOpBytes,
                  [&](dfs::DfsError, Bytes d, TimePs) { got = std::move(d); });
    w.cluster.sim().run();
  });
  const Bytes object = pattern(1 * MiB, 1);
  ASSERT_EQ(got, Bytes(object.begin(), object.begin() + kOpBytes));
  const std::uint32_t packets = net::packet_count(kOpBytes, w.cluster.network().mtu());
  EXPECT_EQ(packets, 128u);
  const double per_packet = static_cast<double>(allocs) / packets;
  EXPECT_LT(per_packet, kAllocsPerPacket) << allocs << " allocations for " << packets << " packets";
}

}  // namespace
}  // namespace nadfs
