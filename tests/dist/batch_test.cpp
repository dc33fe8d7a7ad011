// Sharded distributed runtime: dist-vs-serial equality across node
// counts, partition strategies and kernel backends; shard isolation under
// poisoned non-resident adjacency; the shipped-candidate byte economy;
// and batch == per-pattern on Backend::kDistributed (the mirror of
// tests/engine/batch_test.cpp the ISSUE's acceptance criteria name).
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "api/graphpi.h"
#include "dist/runtime.h"
#include "dist/shard.h"
#include "dist/simulator.h"
#include "engine/forest.h"
#include "graph/vertex_set.h"
#include "test_util.h"

namespace graphpi {
namespace {

using dist::ClusterOptions;
using dist::ClusterStats;
using dist::PartitionStrategy;

std::vector<Pattern> boundary_patterns() {
  return {patterns::clique(4), patterns::house(), patterns::pentagon(),
          patterns::rectangle(), patterns::path(4)};
}

TEST(DistBatch, MatchesSerialAcrossNodesStrategiesAndKernels) {
  const Graph g = clustered_power_law(70, 280, 2.2, 0.5, 21);
  const GraphPi engine(g);
  for (const Pattern& p : boundary_patterns()) {
    const Configuration config = engine.plan(p);
    const Count expected = count_embeddings(g, config);
    for (bool scalar : {false, true}) {
      force_scalar_kernels(scalar);
      for (const auto strategy :
           {PartitionStrategy::kHash, PartitionStrategy::kRange}) {
        for (int nodes : {1, 2, 3, 7}) {
          ClusterOptions options;
          options.nodes = nodes;
          options.partition = strategy;
          EXPECT_EQ(dist::distributed_count(g, config, options), expected)
              << p.to_string() << " nodes=" << nodes << " scalar=" << scalar
              << " strategy=" << dist::to_string(strategy);
        }
      }
      force_scalar_kernels(false);
    }
  }
}

TEST(DistBatch, PoisonedNonResidentAdjacencyDoesNotChangeCounts) {
  // THE shard-isolation assertion: every non-resident row is filled with
  // garbage; counts stay bit-identical to the serial engine, so no node
  // ever read adjacency outside its own shard.
  const Graph g = clustered_power_law(70, 280, 2.2, 0.5, 22);
  const GraphPi engine(g);
  // The census4 forest copies an IEP suffix set as an extension's
  // candidates and memoizes a leaf, so both of those shard paths run
  // against the garbage rows too.
  const std::vector<Pattern> batches[] = {boundary_patterns(),
                                          patterns::connected_motifs(4)};
  const PlanForest census = engine.plan_batch(batches[1]);
  ASSERT_TRUE(testing::reuses_suffix_set(census));
  ASSERT_GE(census.stats().memoized_leaves, 1u);
  for (const std::vector<Pattern>& ps : batches) {
    std::vector<Count> expected;
    for (const Pattern& p : ps) expected.push_back(engine.count(p));
    const PlanForest forest = engine.plan_batch(ps);
    for (const auto strategy :
         {PartitionStrategy::kHash, PartitionStrategy::kRange}) {
      for (int nodes : {2, 3}) {
        dist::ShardOptions shard_options;
        shard_options.nodes = nodes;
        shard_options.strategy = strategy;
        shard_options.poison_nonresident = true;
        const dist::ShardedGraph sharded(g, shard_options);
        EXPECT_EQ(dist::distributed_count_batch(sharded, forest), expected)
            << ps.size() << " patterns, nodes=" << nodes
            << " strategy=" << dist::to_string(strategy);
      }
    }
  }
}

TEST(DistBatch, BoundaryCrossingPatternShipsCandidateBytes) {
  // The pentagon's cycle-closing walk leaves the 1-hop halo, so a
  // multi-node run must ship continuations — and some of them carry
  // in-flight candidate sets ("candidates travel").
  const Graph g = clustered_power_law(70, 280, 2.2, 0.5, 23);
  const GraphPi engine(g);
  const Configuration config = engine.plan(patterns::pentagon());
  const Count expected = count_embeddings(g, config);
  for (const auto strategy :
       {PartitionStrategy::kHash, PartitionStrategy::kRange}) {
    ClusterOptions options;
    options.nodes = 3;
    options.partition = strategy;
    ClusterStats stats;
    EXPECT_EQ(dist::distributed_count(g, config, options, &stats), expected);
    EXPECT_GT(stats.continuation_messages, 0u)
        << dist::to_string(strategy);
    EXPECT_GT(stats.continuation_bytes, 0u) << dist::to_string(strategy);
    EXPECT_GT(stats.shipped_set_vertices, 0u) << dist::to_string(strategy);
    // Every node reports its partial counts to the master exactly once.
    EXPECT_EQ(stats.count_messages, 2u);
    // Transport traffic = data frames + their reliability-layer acks
    // (one ack per intact data frame on a fault-free channel).
    EXPECT_EQ(stats.messages, stats.continuation_messages +
                                  stats.count_messages + stats.ack_messages);
    EXPECT_EQ(stats.ack_messages,
              stats.continuation_messages + stats.count_messages);
    EXPECT_EQ(stats.retransmits, 0u);
    EXPECT_EQ(stats.corrupt_frames_detected, 0u);
    EXPECT_EQ(stats.seconds_per_node.size(), 3u);
    EXPECT_GT(stats.replication_factor, 1.0);
  }
}

TEST(DistBatch, BatchEqualsPerPatternOnDistributedBackend) {
  // Mirror of engine/batch_test: count_batch on Backend::kDistributed no
  // longer falls back — it runs ONE sharded batch traversal — and must
  // equal both the serial per-pattern engine and per-pattern distributed
  // runs.
  const std::vector<Graph> graphs = {rmat(7, 600, 5), erdos_renyi(70, 300, 6)};
  for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
    const GraphPi engine(graphs[gi]);
    for (int k : {3, 4}) {
      const auto motifs = patterns::connected_motifs(k);
      std::vector<Count> expected;
      for (const Pattern& p : motifs) expected.push_back(engine.count(p));
      for (bool scalar : {false, true}) {
        force_scalar_kernels(scalar);
        for (int nodes : {2, 3}) {
          MatchOptions opt;
          opt.backend = Backend::kDistributed;
          opt.nodes = nodes;
          const std::vector<Count> batch = engine.count_batch(motifs, opt);
          ASSERT_EQ(batch.size(), motifs.size());
          for (std::size_t i = 0; i < motifs.size(); ++i) {
            EXPECT_EQ(batch[i], expected[i])
                << "graph " << gi << " k=" << k << " motif " << i
                << " scalar=" << scalar << " nodes=" << nodes;
            EXPECT_EQ(engine.count(motifs[i], opt), expected[i])
                << "per-pattern dist, graph " << gi << " k=" << k
                << " motif " << i;
          }
        }
      }
      force_scalar_kernels(false);
    }
  }
}

TEST(DistBatch, SingleNodeRunsLocallyWithoutMessages) {
  const Graph g = erdos_renyi(50, 220, 25);
  const GraphPi engine(g);
  const auto motifs = patterns::connected_motifs(3);
  const PlanForest forest = engine.plan_batch(motifs);
  std::vector<Count> expected;
  for (const Pattern& p : motifs) expected.push_back(engine.count(p));
  ClusterOptions options;
  options.nodes = 1;
  ClusterStats stats;
  EXPECT_EQ(dist::distributed_count_batch(g, forest, options, &stats),
            expected);
  EXPECT_EQ(stats.messages, 0u);
  EXPECT_EQ(stats.owned_per_node, std::vector<std::uint32_t>{g.vertex_count()});
}

TEST(DistBatch, ApiStatsOutAndForestOverload) {
  const Graph g = clustered_power_law(60, 260, 2.2, 0.5, 26);
  const GraphPi engine(g);
  const auto motifs = patterns::connected_motifs(4);
  std::vector<Count> expected;
  for (const Pattern& p : motifs) expected.push_back(engine.count(p));

  MatchOptions opt;
  opt.backend = Backend::kDistributed;
  opt.nodes = 3;
  opt.partition = PartitionStrategy::kRange;
  ClusterStats stats;
  opt.cluster_stats = &stats;
  EXPECT_EQ(engine.count_batch(motifs, opt), expected);
  EXPECT_GT(stats.bytes, 0u);
  EXPECT_EQ(stats.owned_per_node.size(), 3u);

  // The forest overload runs distributed directly (no fallback left).
  const PlanForest forest = engine.plan_batch(motifs);
  opt.cluster_stats = nullptr;
  EXPECT_EQ(engine.count_batch(forest, opt), expected);
}

TEST(DistBatch, CommCostModelProjectsMeasuredRun) {
  const Graph g = clustered_power_law(60, 240, 2.3, 0.5, 27);
  const GraphPi engine(g);
  const Configuration config = engine.plan(patterns::pentagon());
  ClusterOptions options;
  options.nodes = 3;
  ClusterStats stats;
  (void)dist::distributed_count(g, config, options, &stats);
  const dist::ShardSimResult sim = dist::simulate_sharded_cluster(
      stats.seconds_per_node, stats.sent_messages_per_node,
      stats.sent_bytes_per_node);
  double max_busy = 0.0;
  for (double s : stats.seconds_per_node) max_busy = std::max(max_busy, s);
  // Comm costs only ever add on top of the slowest node's compute.
  EXPECT_GE(sim.makespan_seconds, max_busy);
  // A zero-bandwidth-cost model never beats one that charges for bytes.
  dist::CommCostModel slow;
  slow.bytes_per_second = 1e3;
  const dist::ShardSimResult congested = dist::simulate_sharded_cluster(
      stats.seconds_per_node, stats.sent_messages_per_node,
      stats.sent_bytes_per_node, slow);
  EXPECT_GE(congested.makespan_seconds, sim.makespan_seconds);
}

TEST(DistBatch, AsyncBatchForestMatchesLockstepAndSerial) {
  // The whole prefix-sharing forest through the async executor: per-plan
  // counts bit-identical to both the serial batch engine and the
  // lockstep executor, across strategies, node counts and pool sizes.
  const Graph g = clustered_power_law(70, 280, 2.2, 0.5, 23);
  const GraphPi engine(g);
  const std::vector<Pattern> ps = boundary_patterns();
  const PlanForest forest = engine.plan_batch(ps);
  const std::vector<Count> expected = ForestExecutor(g, forest).count();
  for (const auto strategy :
       {PartitionStrategy::kHash, PartitionStrategy::kRange}) {
    for (int nodes : {2, 4, 7}) {
      ClusterOptions lockstep;
      lockstep.nodes = nodes;
      lockstep.partition = strategy;
      EXPECT_EQ(dist::distributed_count_batch(g, forest, lockstep), expected)
          << "lockstep nodes=" << nodes;
      for (int workers : {1, 4}) {
        ClusterOptions async = lockstep;
        async.exec = dist::ExecMode::kAsync;
        async.workers_per_node = workers;
        EXPECT_EQ(dist::distributed_count_batch(g, forest, async), expected)
            << "async nodes=" << nodes << " workers=" << workers
            << " strategy=" << dist::to_string(strategy);
      }
    }
  }
}

}  // namespace
}  // namespace graphpi
