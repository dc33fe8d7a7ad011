// The asynchronous sharded runtime (ExecMode::kAsync): worker pools,
// bounded mailboxes with cooperative backpressure, coalesced flushes.
// Covers count equality vs the serial engine and lockstep, the
// mode-independent shipped-continuation invariant, zero retransmits on a
// fault-free channel however the workers are scheduled, shard isolation
// under poisoned non-resident adjacency, backpressure observability with
// a one-frame mailbox, and bounded execution (expired deadline, pre-set
// cancel, root budget) through the multi-threaded executor.
#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "api/graphpi.h"
#include "dist/runtime.h"
#include "dist/shard.h"
#include "support/exec_control.h"
#include "test_util.h"

namespace graphpi {
namespace {

using dist::ClusterOptions;
using dist::ClusterStats;
using dist::ExecMode;
using dist::PartitionStrategy;

ClusterOptions async_options(int nodes, int workers = 1) {
  ClusterOptions options;
  options.nodes = nodes;
  options.exec = ExecMode::kAsync;
  options.workers_per_node = workers;
  return options;
}

TEST(DistAsync, ExecModeStrings) {
  EXPECT_STREQ(dist::to_string(ExecMode::kLockstep), "lockstep");
  EXPECT_STREQ(dist::to_string(ExecMode::kAsync), "async");
  ExecMode mode = ExecMode::kLockstep;
  EXPECT_TRUE(dist::parse_exec_mode("async", mode));
  EXPECT_EQ(mode, ExecMode::kAsync);
  EXPECT_TRUE(dist::parse_exec_mode("lockstep", mode));
  EXPECT_EQ(mode, ExecMode::kLockstep);
  EXPECT_FALSE(dist::parse_exec_mode("eager", mode));
}

TEST(DistAsync, MatchesSerialAcrossNodesStrategiesAndWorkers) {
  // THE determinism sweep: async counts are bit-identical to the serial
  // engine for every node count x partition x pool size, including a
  // boundary-heavy pattern mix (cycles that must leave the halo).
  const Graph g = clustered_power_law(70, 280, 2.2, 0.5, 31);
  const GraphPi engine(g);
  for (const Pattern& p : {patterns::pentagon(), patterns::rectangle(),
                           patterns::clique(4), patterns::path(4)}) {
    const Configuration config = engine.plan(p);
    const Count expected = count_embeddings(g, config);
    for (const auto strategy :
         {PartitionStrategy::kHash, PartitionStrategy::kRange}) {
      for (int nodes : {1, 2, 4, 7}) {
        for (int workers : {1, 4}) {
          ClusterOptions options = async_options(nodes, workers);
          options.partition = strategy;
          EXPECT_EQ(dist::distributed_count(g, config, options), expected)
              << p.to_string() << " nodes=" << nodes << " workers=" << workers
              << " strategy=" << dist::to_string(strategy);
        }
      }
    }
  }
}

TEST(DistAsync, ShippedContinuationsMatchLockstep) {
  // What a node ships is decided by residency alone (walk-deterministic),
  // so the shipped PAYLOAD count is identical in both exec modes even
  // though async coalesces many payloads into few frames.
  const Graph g = clustered_power_law(70, 280, 2.2, 0.5, 32);
  const GraphPi engine(g);
  const Configuration config = engine.plan(patterns::pentagon());
  const Count expected = count_embeddings(g, config);

  ClusterOptions lockstep;
  lockstep.nodes = 4;
  ClusterStats ls;
  EXPECT_EQ(dist::distributed_count(g, config, lockstep, &ls), expected);

  ClusterOptions async = async_options(4);
  ClusterStats as;
  EXPECT_EQ(dist::distributed_count(g, config, async, &as), expected);

  EXPECT_GT(ls.shipped_continuations, 0u);
  EXPECT_EQ(ls.shipped_continuations, as.shipped_continuations);
  EXPECT_EQ(ls.shipped_set_vertices, as.shipped_set_vertices);
  // Coalescing must actually compress the frame count.
  EXPECT_LT(as.continuation_messages, ls.continuation_messages);
  EXPECT_GT(as.coalesced_frames, 0u);
  // A fault-free channel never retransmits, so the strict frame economy
  // holds: one continuation frame per flush, and every payload travels
  // inside a batch frame or as a single-payload plain frame, once.
  EXPECT_EQ(ls.retransmits, 0u);
  EXPECT_EQ(as.retransmits, 0u);
  EXPECT_EQ(ls.continuation_messages, ls.shipped_continuations);
  EXPECT_EQ(as.flushes, as.continuation_messages);
  EXPECT_EQ(as.coalesced_payloads +
                (as.continuation_messages - as.coalesced_frames),
            as.shipped_continuations)
      << "every shipped payload travels exactly once";
}

TEST(DistAsync, FaultFreeRunsNeverRetransmitUnderOversubscription) {
  // Regression for a spurious retransmit: a receiver used to pop a frame
  // and queue its ack only after the CRC check and unpack, and in that
  // window both inboxes read empty, so a sender whose retransmit timer
  // had run out resent a frame that was never lost. 4 nodes x 2 workers
  // oversubscribe a 4-core box, and flushing only when a worker runs out
  // of local work makes few, large batch frames whose CRC and unpack
  // hold that window open; with it open, nearly every run retransmitted.
  const Graph g = rmat(7, 650, 103);
  const GraphPi engine(g);
  const Configuration config = engine.plan(patterns::pentagon());
  const Count expected = count_embeddings(g, config);
  ClusterOptions options = async_options(4, 2);
  options.flush_payloads = 1 << 12;
  options.flush_bytes = 1 << 24;
  for (int run = 0; run < 20; ++run) {
    ClusterStats stats;
    ASSERT_EQ(dist::distributed_count(g, config, options, &stats), expected)
        << "run " << run;
    ASSERT_GT(stats.coalesced_frames, 0u);
    ASSERT_EQ(stats.retransmits, 0u) << "run " << run;
  }
}

TEST(DistAsync, PoisonedNonResidentAdjacencyDoesNotChangeCounts) {
  // Shard isolation holds under concurrency: no worker ever reads
  // adjacency outside its node's shard.
  const Graph g = clustered_power_law(70, 280, 2.2, 0.5, 33);
  const GraphPi engine(g);
  // census4 adds an IEP suffix set reused as candidates and a memoized
  // leaf, both run per worker against the garbage rows.
  const std::vector<Pattern> batches[] = {
      {patterns::pentagon(), patterns::house()},
      patterns::connected_motifs(4)};
  const PlanForest census = engine.plan_batch(batches[1]);
  ASSERT_TRUE(testing::reuses_suffix_set(census));
  ASSERT_GE(census.stats().memoized_leaves, 1u);
  for (const std::vector<Pattern>& ps : batches) {
    std::vector<Count> expected;
    for (const Pattern& p : ps) expected.push_back(engine.count(p));
    const PlanForest forest = engine.plan_batch(ps);
    for (int nodes : {2, 4}) {
      dist::ShardOptions shard_options;
      shard_options.nodes = nodes;
      shard_options.poison_nonresident = true;
      const dist::ShardedGraph sharded(g, shard_options);
      for (int workers : {1, 4}) {
        EXPECT_EQ(dist::distributed_count_batch(
                      sharded, forest, async_options(nodes, workers)),
                  expected)
            << ps.size() << " patterns, nodes=" << nodes
            << " workers=" << workers;
      }
    }
  }
}

TEST(DistAsync, OneFrameMailboxBackpressuresAndStaysExact) {
  // Worst-case mailbox: every flush but the first finds the peer full, so
  // senders must stall + drain their own inbox (the deadlock-free path)
  // — and counts still come out exact.
  const Graph g = clustered_power_law(70, 280, 2.2, 0.5, 34);
  const GraphPi engine(g);
  const Configuration config = engine.plan(patterns::pentagon());
  const Count expected = count_embeddings(g, config);
  ClusterOptions options = async_options(4);
  options.mailbox_capacity = 1;
  options.flush_payloads = 1;  // no coalescing: maximum frame pressure
  ClusterStats stats;
  EXPECT_EQ(dist::distributed_count(g, config, options, &stats), expected);
  EXPECT_GT(stats.mailbox_stalls, 0u);
  EXPECT_GE(stats.mailbox_high_water, 1u);
}

TEST(DistAsync, HaloContainedPatternShipsNothing) {
  // A star explores only the root's own adjacency — entirely inside the
  // 1-hop halo — so even the async executor moves zero continuations.
  const Graph g = clustered_power_law(70, 280, 2.2, 0.5, 35);
  const GraphPi engine(g);
  const Configuration config = engine.plan(patterns::star(4));
  const Count expected = count_embeddings(g, config);
  ClusterStats stats;
  EXPECT_EQ(dist::distributed_count(g, config, async_options(3), &stats),
            expected);
  EXPECT_EQ(stats.shipped_continuations, 0u);
  EXPECT_EQ(stats.continuation_messages, 0u);
}

TEST(DistAsync, ExpiredDeadlineStopsPromptly) {
  const Graph g = clustered_power_law(70, 280, 2.2, 0.5, 36);
  const GraphPi engine(g);
  const Configuration config = engine.plan(patterns::pentagon());
  support::ExecControl control;
  control.arm_deadline_ms(0.0);  // already past when the pool starts
  ClusterOptions options = async_options(4, 2);
  options.control = &control;
  support::RunReport report;
  (void)dist::distributed_count(g, config, options, nullptr, &report);
  EXPECT_EQ(report.status, support::RunStatus::kTimeout);
  EXPECT_EQ(report.completed_roots, 0u);
}

TEST(DistAsync, PreSetCancelStopsBeforeWork) {
  const Graph g = clustered_power_law(70, 280, 2.2, 0.5, 37);
  const GraphPi engine(g);
  const Configuration config = engine.plan(patterns::pentagon());
  std::atomic<bool> cancel{true};
  support::ExecControl control;
  control.set_cancel_flag(&cancel);
  ClusterOptions options = async_options(4, 2);
  options.control = &control;
  support::RunReport report;
  (void)dist::distributed_count(g, config, options, nullptr, &report);
  EXPECT_EQ(report.status, support::RunStatus::kCancelled);
  EXPECT_EQ(report.completed_roots, 0u);
}

TEST(DistAsync, RootBudgetStopsNearTheBudget) {
  const Graph g = clustered_power_law(70, 280, 2.2, 0.5, 38);
  const GraphPi engine(g);
  const Configuration config = engine.plan(patterns::pentagon());
  support::ExecControl control;
  control.set_root_budget(8);
  control.set_poll_stride(1);  // poll every root: tight stop latency
  ClusterOptions options = async_options(4);
  options.control = &control;
  support::RunReport report;
  (void)dist::distributed_count(g, config, options, nullptr, &report);
  EXPECT_EQ(report.status, support::RunStatus::kBudget);
  EXPECT_GE(report.completed_roots, 8u);
  EXPECT_LT(report.completed_roots,
            static_cast<std::uint64_t>(g.vertex_count()));
}

TEST(DistAsync, UnboundedRunReportsOkWithAllRoots) {
  const Graph g = clustered_power_law(70, 280, 2.2, 0.5, 39);
  const GraphPi engine(g);
  const Configuration config = engine.plan(patterns::rectangle());
  const Count expected = count_embeddings(g, config);
  support::ExecControl control;
  control.set_root_budget(1u << 30);  // armed, but never binding
  ClusterOptions options = async_options(3, 2);
  options.control = &control;
  support::RunReport report;
  EXPECT_EQ(dist::distributed_count(g, config, options, nullptr, &report),
            expected);
  EXPECT_EQ(report.status, support::RunStatus::kOk);
  EXPECT_EQ(report.completed_roots,
            static_cast<std::uint64_t>(g.vertex_count()));
}

TEST(DistAsync, ApiBackendExposesAsyncMode) {
  // The MatchOptions knobs reach the runtime through GraphPi::count.
  const Graph g = clustered_power_law(70, 280, 2.2, 0.5, 40);
  const GraphPi engine(g);
  const Pattern p = patterns::house();
  const Count expected = engine.count(p);
  MatchOptions options;
  options.backend = Backend::kDistributed;
  options.nodes = 4;
  options.dist_exec = ExecMode::kAsync;
  options.dist_workers = 2;
  ClusterStats stats;
  options.cluster_stats = &stats;
  EXPECT_EQ(engine.count(p, options), expected);
  EXPECT_EQ(stats.owned_per_node.size(), 4u);
}

}  // namespace
}  // namespace graphpi
