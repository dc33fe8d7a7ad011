// Cross-engine consistency: the serial count (a one-plan forest, any
// schedule, any restriction set, with/without IEP) and the Matcher's
// listing must agree with the brute-force oracle on every test graph.
#include <gtest/gtest.h>

#include <set>

#include "api/graphpi.h"
#include "core/automorphism.h"
#include "core/configuration.h"
#include "core/plan_forest.h"
#include "engine/forest.h"
#include "engine/graphzero.h"
#include "engine/matcher.h"
#include "engine/naive.h"
#include "engine/oracle.h"
#include "engine/parallel.h"
#include "support/exec_control.h"
#include "test_util.h"

namespace graphpi {
namespace {

using testing::assorted_patterns;
using testing::small_test_graphs;

TEST(Matcher, TriangleCountMatchesGraphStatistic) {
  for (const auto& g : small_test_graphs()) {
    const Count c = count_embeddings(g, patterns::clique(3));
    EXPECT_EQ(c, g.triangle_count());
  }
}

TEST(Matcher, EdgeCountPattern) {
  const Pattern edge(2, std::vector<std::pair<int, int>>{{0, 1}});
  for (const auto& g : small_test_graphs())
    EXPECT_EQ(count_embeddings(g, edge), g.edge_count());
}

TEST(Matcher, MatchesOracleAcrossPatternsAndGraphs) {
  const auto graphs = small_test_graphs();
  for (const auto& p : assorted_patterns()) {
    for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
      const Count expected = oracle_count(graphs[gi], p);
      const Count actual = count_embeddings(graphs[gi], p);
      EXPECT_EQ(actual, expected)
          << "pattern " << p.to_string() << " graph#" << gi;
    }
  }
}

TEST(Matcher, EveryConfigurationGivesTheSameCount) {
  // The count must be invariant across all (schedule, restriction set)
  // combinations — only the cost varies (Section II-C).
  const Pattern p = patterns::house();
  const Graph g = erdos_renyi(50, 220, 7);
  const Count expected = oracle_count(g, p);
  const auto schedules = generate_schedules(p);
  const auto restriction_sets = generate_restriction_sets(p);
  for (const auto& sched : schedules.efficient) {
    for (const auto& rs : restriction_sets) {
      Configuration config;
      config.pattern = p;
      config.schedule = sched;
      config.restrictions = rs;
      EXPECT_EQ(count_embeddings(g, config), expected)
          << sched.to_string() << " " << to_string(rs);
    }
  }
}

TEST(Matcher, Phase1OnlySchedulesAlsoCorrect) {
  // Even schedules eliminated by phase 2 (and inefficient ones with full
  // vertex-set loops) must count correctly — Figure 9 runs them.
  const Pattern p = patterns::rectangle();
  const Graph g = erdos_renyi(40, 150, 11);
  const Count expected = oracle_count(g, p);
  const auto rs = generate_restriction_sets(p).front();
  for (const auto& sched : all_schedules(p)) {
    Configuration config;
    config.pattern = p;
    config.schedule = sched;
    config.restrictions = rs;
    EXPECT_EQ(count_embeddings(g, config), expected) << sched.to_string();
  }
}

TEST(Matcher, RedundantEnumerationIsAutTimesLarger) {
  for (const auto& p : {patterns::clique(3), patterns::rectangle(),
                        patterns::house(), patterns::star(4)}) {
    const Graph g = clustered_power_law(60, 240, 2.3, 0.4, 13);
    const Count distinct = count_embeddings(g, p);
    EXPECT_EQ(naive_count_redundant(g, p),
              distinct * automorphism_count(p))
        << p.to_string();
    EXPECT_EQ(naive_count(g, p), distinct);
  }
}

TEST(Matcher, GraphZeroBaselineAgrees) {
  for (const auto& p : {patterns::house(), patterns::pentagon(),
                        patterns::clique(4)}) {
    const Graph g = clustered_power_law(60, 250, 2.4, 0.4, 17);
    EXPECT_EQ(graphzero::count(g, p), count_embeddings(g, p))
        << p.to_string();
  }
}

TEST(Matcher, EnumerationEmitsDistinctValidEmbeddings) {
  const Pattern p = patterns::house();
  const Graph g = erdos_renyi(40, 170, 23);
  const Configuration config =
      plan_configuration(p, GraphStats::of(g), PlannerOptions{});
  const Matcher matcher(g, config);

  std::set<std::vector<VertexId>> seen;
  Count n = 0;
  matcher.enumerate([&](std::span<const VertexId> emb) {
    ++n;
    // Every pattern edge must exist in the data graph.
    for (auto [u, v] : p.edges())
      EXPECT_TRUE(g.has_edge(emb[static_cast<std::size_t>(u)],
                             emb[static_cast<std::size_t>(v)]));
    // Vertices must be distinct.
    std::set<VertexId> distinct(emb.begin(), emb.end());
    EXPECT_EQ(distinct.size(), emb.size());
    // As *vertex sets + edge sets* embeddings must be unique; since the
    // mapping is recorded per pattern vertex and restrictions kill
    // automorphic duplicates, the full tuples are unique too.
    EXPECT_TRUE(seen.emplace(emb.begin(), emb.end()).second);
  });
  EXPECT_EQ(n, count_embeddings(g, config));
  EXPECT_EQ(n, oracle_count(g, p));
}

TEST(Matcher, SingleVertexPatternCountsEveryVertexOnEveryPath) {
  const Graph g = erdos_renyi(30, 90, 41);
  const Pattern single(1, std::vector<std::pair<int, int>>{});
  EXPECT_EQ(count_embeddings(g, single), g.vertex_count());

  // A 1-vertex plan is a root count leaf: the per-root paths (parallel,
  // and serial under an armed control) count each root once.
  const Configuration config =
      plan_configuration(single, GraphStats::of(g), PlannerOptions{});
  EXPECT_EQ(count_parallel(g, config, {2}), g.vertex_count());
  const PlanForest forest({compile_plan(config)});
  ForestExecutor::Workspace ws;
  support::ExecControl control;
  control.set_root_budget(1000);
  support::RunReport report;
  EXPECT_EQ(ForestExecutor(g, forest).count(ws, &control, &report).front(),
            g.vertex_count());
  EXPECT_EQ(report.completed_roots, g.vertex_count());
  Count listed = 0;
  Matcher(g, config).enumerate([&listed](std::span<const VertexId>) {
    ++listed;
  });
  EXPECT_EQ(listed, g.vertex_count());

  // The generated backend declines a 1-step plan and falls back to the
  // interpreter; the sharded runtime counts each owned root once. Alone
  // and batched next to a triangle.
  const GraphPi engine(g);
  const std::vector<Pattern> batch = {single, patterns::clique(3)};
  const std::vector<Count> want = {g.vertex_count(), g.triangle_count()};
  MatchOptions generated;
  generated.backend = Backend::kGenerated;
  MatchOptions lockstep;
  lockstep.backend = Backend::kDistributed;
  lockstep.nodes = 3;
  MatchOptions async = lockstep;
  async.dist_exec = dist::ExecMode::kAsync;
  const std::pair<const char*, MatchOptions> arms[] = {
      {"generated", generated}, {"lockstep", lockstep}, {"async", async}};
  for (const auto& [label, options] : arms) {
    EXPECT_EQ(engine.count(single, options), g.vertex_count()) << label;
    EXPECT_EQ(engine.count_batch(batch, options), want) << label;
  }
}

}  // namespace
}  // namespace graphpi
