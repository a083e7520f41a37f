// An erasure-coded archive: large objects stored RS(6,3) with sPIN-TriEC —
// the storage NICs encode the packet stream on the fly (paper §VI) — then a
// simulated failure of three storage nodes and full recovery from the
// surviving chunks, plus the storage-overhead comparison against 3-way
// replication that motivates EC in the first place.
//
//   $ ./build/examples/erasure_coded_archive
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "ec/reed_solomon.hpp"
#include "services/client.hpp"
#include "services/cluster.hpp"

using namespace nadfs;
using namespace nadfs::services;

int main() {
  ClusterConfig cfg;
  cfg.storage_nodes = 9;  // 6 data + 3 parity failure domains
  Cluster cluster(cfg);
  Client client(cluster, 0);

  FilePolicy policy;
  policy.resiliency = dfs::Resiliency::kErasureCoding;
  policy.ec_k = 6;
  policy.ec_m = 3;

  // Archive three 1.5 MiB objects.
  constexpr std::size_t kObjectSize = 1536 * KiB;
  Rng rng(7);
  std::vector<Bytes> originals;
  std::vector<const FileLayout*> layouts;
  int stored = 0;
  for (int i = 0; i < 3; ++i) {
    Bytes data(kObjectSize);
    for (auto& b : data) b = rng.next_byte();
    const auto& layout =
        cluster.metadata().create("/archive/obj" + std::to_string(i), kObjectSize, policy);
    const auto cap = cluster.metadata().grant(client.client_id(), layout, auth::Right::kWrite);
    client.write(layout, cap, data, [&](dfs::DfsError err, TimePs at) {
      if (err == dfs::DfsError::kOk) ++stored;
      std::printf("object stored (data on 6 nodes, parity on 3) at %s\n",
                  format_time(at).c_str());
    });
    originals.push_back(std::move(data));
    layouts.push_back(&layout);
  }
  cluster.sim().run();
  std::printf("archived %d/3 objects\n\n", stored);

  // Storage accounting: RS(6,3) stores 1.5x the data; 3-way replication
  // would store 3x.
  std::uint64_t stored_bytes = 0;
  for (std::size_t n = 0; n < cluster.storage_node_count(); ++n) {
    stored_bytes += cluster.storage_node(n).target().bytes_written();
  }
  const double overhead =
      static_cast<double>(stored_bytes) / static_cast<double>(3 * kObjectSize);
  std::printf("raw bytes on disk: %s for %s of user data -> %.2fx overhead "
              "(3-way replication: 3.00x)\n\n",
              format_size(stored_bytes).c_str(), format_size(3 * kObjectSize).c_str(), overhead);

  // Disaster: lose 3 of the 9 nodes (one data-heavy mix). RS(6,3) tolerates
  // any 3 losses.
  const std::set<net::NodeId> failed = {layouts[0]->targets[1].node,
                                        layouts[0]->targets[4].node,
                                        layouts[0]->parity[0].node};
  std::printf("simulating failure of nodes:");
  for (const auto n : failed) std::printf(" %u", n);
  std::printf("\n");

  // Recovery: for each object, collect surviving chunks and decode.
  ec::ReedSolomon rs(6, 3);
  int recovered = 0;
  for (std::size_t o = 0; o < layouts.size(); ++o) {
    const auto& layout = *layouts[o];
    const auto chunk_len = static_cast<std::size_t>(layout.chunk_len);
    std::vector<std::pair<unsigned, Bytes>> present;
    for (unsigned i = 0; i < 6 && present.size() < 6; ++i) {
      if (!failed.count(layout.targets[i].node)) {
        present.emplace_back(i, cluster.storage_by_node(layout.targets[i].node)
                                    .target()
                                    .read(layout.targets[i].addr, chunk_len));
      }
    }
    for (unsigned i = 0; i < 3 && present.size() < 6; ++i) {
      if (!failed.count(layout.parity[i].node)) {
        present.emplace_back(6 + i, cluster.storage_by_node(layout.parity[i].node)
                                        .target()
                                        .read(layout.parity[i].addr, chunk_len));
      }
    }
    auto chunks = rs.decode(present);
    if (!chunks) {
      std::printf("object %zu: UNRECOVERABLE\n", o);
      continue;
    }
    Bytes flat;
    for (const auto& c : *chunks) flat.insert(flat.end(), c.begin(), c.end());
    flat.resize(kObjectSize);
    const bool ok = flat == originals[o];
    std::printf("object %zu: rebuilt from %zu surviving chunks -> %s\n", o, present.size(),
                ok ? "bit-exact" : "CORRUPT");
    if (ok) ++recovered;
  }
  std::printf("\nrecovered %d/3 objects after losing 3/9 nodes\n", recovered);
  return recovered == 3 && stored == 3 ? 0 : 1;
}
