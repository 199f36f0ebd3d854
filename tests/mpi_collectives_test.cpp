// Collectives built on p2p: completion, message accounting, and semantics
// across rank counts (parameterized).
#include <gtest/gtest.h>

#include <vector>

#include "mpi/runtime.hpp"
#include "sim/cluster.hpp"

namespace gcr::mpi {
namespace {

sim::ClusterParams cluster_params(int nranks) {
  sim::ClusterParams p;
  p.num_nodes = nranks + 1;
  p.jitter.enabled = false;
  return p;
}

class CollectivesTest : public ::testing::TestWithParam<int> {};

TEST_P(CollectivesTest, BarrierCompletesForAll) {
  const int n = GetParam();
  sim::Cluster cluster(cluster_params(n));
  Runtime rt(cluster, n);
  int done = 0;
  rt.start_app([&done](AppHandle h) -> sim::Co<void> {
    co_await h.safepoint(0);
    co_await h.barrier();
    ++done;
    co_await h.safepoint(1);
  });
  cluster.engine().run();
  EXPECT_EQ(done, n);
  EXPECT_TRUE(rt.job_finished());
}

TEST_P(CollectivesTest, BcastReachesEveryoneOnce) {
  const int n = GetParam();
  sim::Cluster cluster(cluster_params(n));
  Runtime rt(cluster, n);
  rt.start_app([](AppHandle h) -> sim::Co<void> {
    co_await h.safepoint(0);
    // Roots 0 and a non-zero root to exercise the rotation.
    co_await h.bcast(0, 1 << 16);
    co_await h.bcast(h.nranks() - 1, 1 << 10);
    co_await h.safepoint(1);
  });
  cluster.engine().run();
  ASSERT_TRUE(rt.job_finished());
  // A binomial bcast sends exactly n-1 messages per operation.
  EXPECT_EQ(rt.app_messages_sent(), 2 * (n - 1));
}

TEST_P(CollectivesTest, ReduceSendsExactlyNMinus1) {
  const int n = GetParam();
  sim::Cluster cluster(cluster_params(n));
  Runtime rt(cluster, n);
  rt.start_app([](AppHandle h) -> sim::Co<void> {
    co_await h.safepoint(0);
    co_await h.reduce(0, 4096);
    co_await h.safepoint(1);
  });
  cluster.engine().run();
  ASSERT_TRUE(rt.job_finished());
  EXPECT_EQ(rt.app_messages_sent(), n - 1);
}

TEST_P(CollectivesTest, AllreduceAndGatherComplete) {
  const int n = GetParam();
  sim::Cluster cluster(cluster_params(n));
  Runtime rt(cluster, n);
  rt.start_app([](AppHandle h) -> sim::Co<void> {
    co_await h.safepoint(0);
    co_await h.allreduce(8);
    co_await h.gather(0, 1024);
    co_await h.alltoall(512);
    co_await h.safepoint(1);
  });
  cluster.engine().run();
  EXPECT_TRUE(rt.job_finished());
}

INSTANTIATE_TEST_SUITE_P(RankCounts, CollectivesTest,
                         ::testing::Values(1, 2, 3, 4, 5, 8, 13, 16, 32));

TEST(Collectives, GatherPayloadGrowsTowardsRoot) {
  // Total gathered bytes at the root equal n * bytes_per_rank; the binomial
  // tree forwards growing subtree payloads, so total traffic exceeds that.
  const int n = 8;
  sim::Cluster cluster(cluster_params(n));
  Runtime rt(cluster, n);
  rt.start_app([](AppHandle h) -> sim::Co<void> {
    co_await h.safepoint(0);
    co_await h.gather(0, 1000);
    co_await h.safepoint(1);
  });
  cluster.engine().run();
  ASSERT_TRUE(rt.job_finished());
  // Root receives all 7000 bytes from subtrees; intermediate hops add more.
  EXPECT_EQ(rt.rank(0).peer(4).recvd_bytes +
                rt.rank(0).peer(2).recvd_bytes +
                rt.rank(0).peer(1).recvd_bytes,
            7000);
}

TEST(Collectives, ConsecutiveBarriersDoNotCrosstalk) {
  const int n = 6;
  sim::Cluster cluster(cluster_params(n));
  Runtime rt(cluster, n);
  rt.start_app([](AppHandle h) -> sim::Co<void> {
    co_await h.safepoint(0);
    for (int i = 0; i < 10; ++i) co_await h.barrier();
    co_await h.safepoint(1);
  });
  cluster.engine().run();
  EXPECT_TRUE(rt.job_finished());  // FIFO seq matching keeps rounds straight
}

}  // namespace
}  // namespace gcr::mpi
