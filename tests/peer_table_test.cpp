// PeerTable: the sorted per-peer table behind the runtime's S/R tables and
// the protocol's per-peer state, and its end-to-end property: a rank and
// its checkpoint images hold only the peers it communicated with.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "apps/simple.hpp"
#include "ckpt/checkpointer.hpp"
#include "ckpt/image.hpp"
#include "core/group_protocol.hpp"
#include "core/metrics.hpp"
#include "core/recovery.hpp"
#include "group/strategies.hpp"
#include "mpi/peer_table.hpp"
#include "mpi/runtime.hpp"
#include "sim/cluster.hpp"

namespace gcr {
namespace {

std::vector<mpi::RankId> keys(const mpi::PeerTable<std::int64_t>& t) {
  std::vector<mpi::RankId> out;
  for (const auto& [peer, value] : t) out.push_back(peer);
  return out;
}

TEST(PeerTable, AbsentPeerReadsAsZero) {
  mpi::PeerTable<std::int64_t> t;
  EXPECT_EQ(t.get(7), 0);
  EXPECT_EQ(t.find(7), nullptr);
  EXPECT_TRUE(t.empty());  // reading inserts nothing
}

TEST(PeerTable, IteratesInPeerOrderWhateverTheInsertionOrder) {
  mpi::PeerTable<std::int64_t> t;
  for (mpi::RankId p : {40, 3, 17, 0, 1023}) t.at(p) = p * 10;
  EXPECT_EQ(keys(t), (std::vector<mpi::RankId>{0, 3, 17, 40, 1023}));
  EXPECT_EQ(t.get(17), 170);
  t.at(17) += 1;  // existing entry, no second insert
  EXPECT_EQ(t.size(), 5u);
  EXPECT_EQ(*t.find(17), 171);
}

TEST(PeerTable, EraseAndClear) {
  mpi::PeerTable<std::int64_t> t;
  t.at(2) = 5;
  t.at(9) = 6;
  t.erase(2);
  t.erase(2);  // absent: no-op
  EXPECT_EQ(t.get(2), 0);
  EXPECT_EQ(keys(t), (std::vector<mpi::RankId>{9}));
  t.clear();
  EXPECT_TRUE(t.empty());
}

// A 1024-rank ring in groups of 8: every group checkpoints, one group fails
// and restores from its images (exchanging volumes with all 1016
// out-of-group ranks), and the job runs to completion. Each rank talks to
// its two ring neighbours only, so its table — and every committed image —
// must hold exactly those two peers, not n.
TEST(PeerTable, RingRanksAndImagesHoldOnlyTheirNeighbours) {
  constexpr int n = 1024;
  sim::ClusterParams cp;
  cp.num_nodes = n + 1;
  cp.jitter.enabled = false;
  sim::Cluster cluster(cp);
  mpi::Runtime rt(cluster, n);
  ckpt::Checkpointer checkpointer(cluster);
  ckpt::ImageRegistry registry;
  core::Metrics metrics;
  apps::RingParams rp;
  rp.iterations = 60;
  rp.bytes = 4096;
  const apps::AppSpec app = apps::make_ring(n, rp);
  const group::GroupSet groups = group::make_blocks(n, 8);
  core::GroupProtocol protocol(rt, groups, checkpointer, registry,
                               app.image_bytes, metrics);
  rt.set_protocol(&protocol);
  core::RecoveryManager recovery(rt, protocol, registry, checkpointer);
  cluster.engine().call_at(sim::from_seconds(0.02), [&] {
    for (int g = 0; g < groups.num_groups(); ++g) {
      protocol.request_group_checkpoint(g);
    }
  });
  recovery.fail_group_at(5, sim::from_seconds(0.5));
  rt.start_app(app.body);
  cluster.engine().run_while([&] { return !rt.job_finished(); });
  ASSERT_TRUE(rt.job_finished());
  ASSERT_EQ(recovery.failures_injected(), 1);
  ASSERT_EQ(metrics.ckpts.size(), static_cast<std::size_t>(n));
  ASSERT_EQ(metrics.restarts.size(), 8u);

  for (mpi::RankId r = 0; r < n; ++r) {
    const std::vector<mpi::RankId> neighbours = {
        std::min((r + 1) % n, (r + n - 1) % n),
        std::max((r + 1) % n, (r + n - 1) % n)};
    std::vector<mpi::RankId> live;
    for (const auto& [peer, traffic] : rt.rank(r).peers()) {
      live.push_back(peer);
    }
    EXPECT_EQ(live, neighbours) << "rank " << r;
    const ckpt::StoredCheckpoint* image = registry.latest(r);
    ASSERT_NE(image, nullptr) << "rank " << r;
    std::vector<mpi::RankId> imaged;
    for (const auto& [peer, traffic] : image->runtime_state.peers) {
      imaged.push_back(peer);
    }
    EXPECT_EQ(imaged, neighbours) << "rank " << r;
  }
}

}  // namespace
}  // namespace gcr
