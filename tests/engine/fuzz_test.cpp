// Randomized end-to-end fuzzing: random connected patterns on random
// graphs, full pipeline (plan -> IEP count / plain count / parallel /
// distributed) against the independent oracle. Seeded and deterministic.
#include <gtest/gtest.h>

#include "core/configuration.h"
#include "dist/runtime.h"
#include "engine/forest.h"
#include "engine/oracle.h"
#include "engine/parallel.h"
#include "graph/generators.h"
#include "support/rng.h"
#include "test_util.h"

namespace graphpi {
namespace {

/// Random connected pattern with `n` vertices: a random spanning tree
/// plus extra edges with probability `extra_p`.
Pattern random_connected_pattern(int n, double extra_p,
                                 support::Xoshiro256StarStar& rng) {
  std::vector<std::pair<int, int>> edges;
  for (int v = 1; v < n; ++v)
    edges.emplace_back(static_cast<int>(rng.bounded(v)), v);
  for (int u = 0; u < n; ++u)
    for (int v = u + 1; v < n; ++v) {
      const bool tree_edge = [&] {
        for (auto [a, b] : edges)
          if ((a == u && b == v) || (a == v && b == u)) return true;
        return false;
      }();
      if (!tree_edge && rng.chance(extra_p)) edges.emplace_back(u, v);
    }
  return Pattern(n, edges);
}

class FuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzTest, RandomPatternsMatchOracleEverywhere) {
  support::Xoshiro256StarStar rng(GetParam());
  for (int round = 0; round < 6; ++round) {
    const int n = 3 + static_cast<int>(rng.bounded(4));  // 3..6 vertices
    const Pattern p = random_connected_pattern(n, 0.4, rng);
    const Graph g =
        round % 2 == 0
            ? erdos_renyi(30 + static_cast<VertexId>(rng.bounded(30)),
                          120 + rng.bounded(120), rng.next())
            : clustered_power_law(
                  30 + static_cast<VertexId>(rng.bounded(30)),
                  120 + rng.bounded(120), 2.3, 0.4, rng.next());

    const Count expected = oracle_count(g, p);

    PlannerOptions planner;
    planner.use_iep = true;
    const Configuration config =
        plan_configuration(p, GraphStats::of(g), planner);
    Configuration plain = config;
    plain.iep = IepPlan{};
    ASSERT_EQ(count_embeddings(g, config), expected)
        << "IEP " << p.to_string() << " round " << round;
    ASSERT_EQ(count_embeddings(g, plain), expected)
        << "plain " << p.to_string() << " round " << round;
    ASSERT_EQ(count_parallel(g, config), expected)
        << "parallel " << p.to_string() << " round " << round;

    dist::ClusterOptions cluster;
    cluster.nodes = 2 + static_cast<int>(rng.bounded(3));
    ASSERT_EQ(dist::distributed_count(g, config, cluster), expected)
        << "distributed " << p.to_string() << " round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

TEST(FuzzRestrictions, EverySetOfRandomPatternsValidates) {
  support::Xoshiro256StarStar rng(0xFACE);
  for (int round = 0; round < 20; ++round) {
    const int n = 3 + static_cast<int>(rng.bounded(4));
    const Pattern p = random_connected_pattern(n, 0.5, rng);
    RestrictionGenOptions options;
    options.max_sets = 16;
    for (const auto& rs : generate_restriction_sets(p, options))
      ASSERT_TRUE(validate_restriction_set(p, rs))
          << p.to_string() << " " << to_string(rs);
  }
}

}  // namespace
}  // namespace graphpi
