// Batch forest executor: count_batch must equal the per-pattern engine
// for every connected 3- and 4-motif on random R-MAT/ER graphs, under
// the serial and parallel backends, with the vector kernels forced off
// and on — the property the ISSUE's acceptance criteria name.
#include <gtest/gtest.h>

#include <omp.h>

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "api/graphpi.h"
#include "core/plan.h"
#include "core/plan_forest.h"
#include "engine/forest.h"
#include "engine/matcher.h"
#include "engine/parallel.h"
#include "graph/datasets.h"
#include "graph/vertex_set.h"
#include "test_util.h"

namespace graphpi {
namespace {

std::vector<Count> per_pattern_reference(const GraphPi& engine,
                                         const std::vector<Pattern>& ps) {
  std::vector<Count> counts;
  counts.reserve(ps.size());
  for (const Pattern& p : ps) counts.push_back(engine.count(p));
  return counts;
}

TEST(Batch, MatchesPerPatternAcrossBackendsAndKernels) {
  const std::vector<Graph> graphs = {rmat(7, 600, 5),
                                     erdos_renyi(70, 300, 6)};
  for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
    const GraphPi engine(graphs[gi]);
    for (int k : {3, 4}) {
      const auto motifs = patterns::connected_motifs(k);
      const std::vector<Count> expected =
          per_pattern_reference(engine, motifs);
      for (bool scalar : {false, true}) {
        force_scalar_kernels(scalar);
        for (Backend backend : {Backend::kSerial, Backend::kParallel}) {
          MatchOptions opt;
          opt.backend = backend;
          const std::vector<Count> batch = engine.count_batch(motifs, opt);
          ASSERT_EQ(batch.size(), motifs.size());
          for (std::size_t i = 0; i < motifs.size(); ++i)
            EXPECT_EQ(batch[i], expected[i])
                << "graph " << gi << " k=" << k << " motif " << i
                << " scalar=" << scalar
                << " parallel=" << (backend == Backend::kParallel);
        }
      }
      force_scalar_kernels(false);
    }
  }
}

TEST(Batch, FiveMotifForestsInterleaveCorrectly) {
  // k = 5 produces forests where IEP leaf nodes are interior nodes of
  // other plans — the shape that once exposed a stale suffix-set reuse
  // across sibling subtrees. All 21 motifs, serial and parallel.
  const Graph g = clustered_power_law(40, 170, 2.3, 0.5, 2002);
  const GraphPi engine(g);
  const auto motifs = patterns::connected_motifs(5);
  ASSERT_EQ(motifs.size(), 21u);
  const std::vector<Count> expected = per_pattern_reference(engine, motifs);
  EXPECT_EQ(engine.count_batch(motifs), expected);
  MatchOptions par;
  par.backend = Backend::kParallel;
  EXPECT_EQ(engine.count_batch(motifs, par), expected);
}

TEST(Batch, PlainEnumerationPlansAlsoBatch) {
  // use_iep=false exercises the CountLeaf path of the forest.
  const Graph g = clustered_power_law(60, 260, 2.3, 0.4, 11);
  const GraphPi engine(g);
  const auto motifs = patterns::connected_motifs(4);
  MatchOptions no_iep;
  no_iep.use_iep = false;
  std::vector<Count> expected;
  for (const Pattern& p : motifs) expected.push_back(engine.count(p, no_iep));
  EXPECT_EQ(engine.count_batch(motifs, no_iep), expected);
}

TEST(Batch, MixedSizesAndDuplicates) {
  const Graph g = clustered_power_law(80, 350, 2.3, 0.5, 12);
  const GraphPi engine(g);
  const std::vector<Pattern> batch = {
      patterns::clique(3), patterns::clique(4),    patterns::clique(3),
      patterns::house(),   patterns::rectangle(),  patterns::path(4),
  };
  const std::vector<Count> counts = engine.count_batch(batch);
  ASSERT_EQ(counts.size(), batch.size());
  EXPECT_EQ(counts[0], counts[2]);  // duplicates get equal counters
  for (std::size_t i = 0; i < batch.size(); ++i)
    EXPECT_EQ(counts[i], engine.count(batch[i])) << i;
}

TEST(Batch, EmptyBatchYieldsNoCounts) {
  const Graph g = erdos_renyi(20, 60, 13);
  EXPECT_TRUE(GraphPi(g).count_batch(std::vector<Pattern>{}).empty());
}

TEST(Batch, MotifCensusWrapperMatchesCountBatch) {
  const Graph g = erdos_renyi(50, 220, 14);
  const GraphPi engine(g);
  const auto census = engine.motif_census(3);
  const auto motifs = patterns::connected_motifs(3);
  ASSERT_EQ(census.size(), motifs.size());
  const std::vector<Count> counts = engine.count_batch(motifs);
  for (std::size_t i = 0; i < motifs.size(); ++i) {
    EXPECT_EQ(census[i].pattern, motifs[i]);
    EXPECT_EQ(census[i].count, counts[i]);
  }
}

TEST(Batch, PrebuiltForestIsReusableAndBackendAgnostic) {
  const Graph g = rmat(7, 700, 15);
  const GraphPi engine(g);
  const auto motifs = patterns::connected_motifs(4);
  const PlanForest forest = engine.plan_batch(motifs);
  const std::vector<Count> serial = engine.count_batch(forest);
  EXPECT_EQ(engine.count_batch(forest), serial);  // rerun, same forest
  MatchOptions par;
  par.backend = Backend::kParallel;
  EXPECT_EQ(engine.count_batch(forest, par), serial);
  ParallelRunStats stats;
  EXPECT_EQ(count_batch_parallel(g, forest, ParallelOptions{}, &stats),
            serial);
  EXPECT_EQ(stats.tasks, g.vertex_count());
}

TEST(Batch, MemoizedLeavesStayExactOnHubHeavyGraphs) {
  // Hub-heavy R-MAT activates the invariant-leaf memo (the rectangle's
  // wedge leaf); counts must not depend on cache hits, evictions or the
  // adaptive shutoff.
  const Graph g = rmat(8, 2600, 17);
  const GraphPi engine(g);
  const auto motifs = patterns::connected_motifs(4);
  const PlanForest forest = engine.plan_batch(motifs);
  ASSERT_GE(forest.stats().memoized_leaves, 1u);
  const std::vector<Count> expected = per_pattern_reference(engine, motifs);
  EXPECT_EQ(ForestExecutor(g, forest).count(), expected);
}

/// Every memo table a workspace holds stays within the fixed geometry
/// (2^16 slots, 1 MB), whatever the graph's key space.
void expect_fixed_memo_footprint(const ForestExecutor::Workspace& ws,
                                 const char* where) {
  for (const auto& table : ws.memo) {
    EXPECT_LE(table.keys.size(), ForestExecutor::kMemoSlots) << where;
    EXPECT_LE(table.values.size(), ForestExecutor::kMemoSlots) << where;
  }
}

TEST(Batch, MemoReviewSkipsTheColdFill) {
  // The pentagon's leaf table hits ~95% once warm, but its first 2^16
  // probes are mostly fill misses (~66%, under the 2/3 keep-alive rate);
  // judging that window used to switch the table off.
  const Graph g = datasets::load("wiki_vote", 0.1);
  const GraphPi engine(g);
  const std::vector<Pattern> ps = {patterns::pentagon(), patterns::house(),
                                   patterns::evaluation_pattern(2)};
  const PlanForest forest = engine.plan_batch(ps);
  ASSERT_GE(forest.stats().memoized_leaves, 1u);
  ForestExecutor::Workspace ws;
  EXPECT_EQ(ForestExecutor(g, forest).count(ws),
            per_pattern_reference(engine, ps));
  const ForestExecutor::MemoStats memo = ForestExecutor::memo_stats(ws);
  EXPECT_EQ(memo.shutoffs, 0u);
  ASSERT_GT(memo.lookups, ForestExecutor::kMemoProbeWindow);
  EXPECT_GE(static_cast<double>(memo.hits) / static_cast<double>(memo.lookups),
            0.8);
}

TEST(Batch, MemoTablesKeepTheirFixedFootprint) {
  static_assert(ForestExecutor::kMemoSlots *
                    (sizeof(std::uint64_t) + sizeof(Count)) <=
                std::size_t{1} << 20);
  // 1,024 vertices: a two-vertex memo key spans |V|^2 = 2^20 values, so a
  // table sized from the key space would be 16x larger. The rectangle's
  // wedge leaf is memoized and hits on ~80% of its lookups here.
  const Graph g = rmat(10, 8000, 29);
  ASSERT_GE(g.vertex_count(), 600u);
  const GraphPi engine(g);

  // Rectangle: cross-checked against the Matcher's listing, which has no
  // memo. Census4: counted with 2^20-slot tables before they shrank.
  MatchOptions plain;
  plain.use_iep = false;
  Count listed = 0;
  Matcher(g, engine.plan(patterns::rectangle(), plain))
      .enumerate([&listed](std::span<const VertexId>) { ++listed; });
  ASSERT_EQ(listed, 2028571u);
  const std::pair<std::vector<Pattern>, std::vector<Count>> cases[] = {
      {{patterns::rectangle()}, {2028571}},
      {patterns::connected_motifs(4),
       {35492136, 37467234, 14990932, 2028571, 2256390, 170304}},
  };
  for (const auto& [ps, want] : cases) {
    const PlanForest forest = engine.plan_batch(ps);
    ASSERT_GE(forest.stats().memoized_leaves, 1u);
    const ForestExecutor executor(g, forest);

    ForestExecutor::Workspace serial_ws;
    EXPECT_EQ(executor.count(serial_ws), want);
    EXPECT_GT(ForestExecutor::memo_stats(serial_ws).lookups, 0u);
    expect_fixed_memo_footprint(serial_ws, "serial");

    // Four workers with one workspace each, claiming roots the way
    // count_batch_parallel does.
    constexpr int kWorkers = 4;
    std::vector<ForestExecutor::Workspace> workers(kWorkers);
    for (auto& ws : workers) executor.reset(ws);
    const auto n = static_cast<std::int64_t>(g.vertex_count());
#pragma omp parallel for num_threads(kWorkers) \
    schedule(dynamic, support::kRootChunk)
    for (std::int64_t v = 0; v < n; ++v)
      executor.accumulate_root(
          workers[static_cast<std::size_t>(omp_get_thread_num())],
          static_cast<VertexId>(v));
    std::vector<Count> sums(want.size(), 0);
    for (const auto& ws : workers) {
      for (std::size_t i = 0; i < sums.size(); ++i) sums[i] += ws.sums[i];
      expect_fixed_memo_footprint(ws, "worker");
    }
    EXPECT_EQ(executor.finalize(sums), want);
    EXPECT_EQ(count_batch_parallel(g, forest, {kWorkers}), want);
  }
}

TEST(Batch, WorkspaceReuseAcrossRuns) {
  // A worker reusing one workspace across forests must get clean sums.
  const Graph g = erdos_renyi(60, 250, 18);
  const GraphPi engine(g);
  const PlanForest forest3 = engine.plan_batch(patterns::connected_motifs(3));
  const PlanForest forest4 = engine.plan_batch(patterns::connected_motifs(4));
  const ForestExecutor ex3(g, forest3);
  const ForestExecutor ex4(g, forest4);
  ForestExecutor::Workspace ws;
  const std::vector<Count> first3 = ex3.count(ws);
  const std::vector<Count> first4 = ex4.count(ws);
  EXPECT_EQ(ex3.count(ws), first3);
  EXPECT_EQ(ex4.count(ws), first4);
}

}  // namespace
}  // namespace graphpi
