// Client-failure handling (paper §VII "What happens if a client fails?").
//
// A client dies mid-write, leaving a dangling request descriptor in the
// storage NIC's request table. The PsPIN cleanup-handler extension reaps it
// after an inactivity timeout, frees the 77-byte descriptor, and raises an
// event on the storage node's host event queue so the DFS software can run
// its recovery protocol. Meanwhile, healthy clients are unaffected.
//
//   $ ./build/examples/failure_cleanup
#include <cstdio>

#include "common/rng.hpp"
#include "services/client.hpp"
#include "services/cluster.hpp"

using namespace nadfs;
using namespace nadfs::services;

int main() {
  ClusterConfig cfg;
  cfg.storage_nodes = 1;
  cfg.clients = 2;
  cfg.pspin.cleanup_timeout = us(25);
  Cluster cluster(cfg);
  Client victim(cluster, 0);
  Client healthy(cluster, 1);
  auto& node = cluster.storage_node(0);

  const auto& doomed = cluster.metadata().create("/tmp/doomed", 256 * KiB, FilePolicy{});
  const auto& fine = cluster.metadata().create("/tmp/fine", 256 * KiB, FilePolicy{});
  const auto cap_doomed =
      cluster.metadata().grant(victim.client_id(), doomed, auth::Right::kWrite);
  const auto cap_fine =
      cluster.metadata().grant(healthy.client_id(), fine, auth::Right::kWrite);

  // The victim "crashes" after injecting only 3 packets of a 100-packet
  // write: we emulate that by truncating the packet train it posts.
  Rng rng(1);
  Bytes partial(200 * KiB);
  for (auto& b : partial) b = rng.next_byte();
  const dfs::DfsHeader hdr{dfs::OpType::kWrite, victim.next_greq(), victim.node().id(),
                           cap_doomed};
  dfs::WriteRequestHeader wrh;
  wrh.dest_addr = doomed.targets[0].addr;
  wrh.total_len = partial.size();
  auto pkts = dfs::build_request_packets(victim.node().id(), node.id(), cluster.network().mtu(),
                                         hdr, wrh, partial);
  std::printf("victim client starts a %zu-packet write, crashes after 3 packets\n",
              pkts.size());
  pkts.resize(3);
  victim.node().nic().post_message(std::move(pkts));

  // A healthy client keeps working against the same node.
  Bytes good(64 * KiB, 0x5A);
  bool healthy_ok = false;
  healthy.write(fine, cap_fine, good, [&](dfs::DfsError err, TimePs at) {
    healthy_ok = err == dfs::DfsError::kOk;
    std::printf("healthy client's write acked at %s\n", format_time(at).c_str());
  });

  // Let the cluster run past the inactivity timeout.
  cluster.sim().run();

  std::printf("\nafter the inactivity timeout (%s):\n",
              format_time(cfg.pspin.cleanup_timeout).c_str());
  std::printf("  cleanup handler runs:        %llu\n",
              static_cast<unsigned long long>(node.pspin().cleanup_runs()));
  std::printf("  request-table slots in use:  %zu (dangling descriptor reclaimed)\n",
              node.dfs_state()->table.in_use());
  std::printf("  live NIC message states:     %zu\n", node.pspin().live_messages());

  bool saw_cleanup_event = false;
  for (const auto& ev : node.host_events()) {
    if (ev.code == dfs::kEvCleanup) {
      saw_cleanup_event = true;
      std::printf("  host event queue: CLEANUP for request %llx at %s\n",
                  static_cast<unsigned long long>(ev.arg), format_time(ev.at).c_str());
    }
  }
  std::printf("  healthy client unaffected:   %s\n", healthy_ok ? "yes" : "NO");

  const bool ok = node.pspin().cleanup_runs() == 1 && node.dfs_state()->table.in_use() == 0 &&
                  saw_cleanup_event && healthy_ok;
  std::printf("\n%s\n", ok ? "client-failure recovery: OK" : "client-failure recovery: FAILED");
  return ok ? 0 : 1;
}
