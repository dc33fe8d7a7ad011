// Exhaustive motif property sweep: every connected 3- and 4-vertex
// pattern (and a sample of 5-vertex ones) must count identically through
// the full GraphPi pipeline (with and without IEP, serial and parallel)
// and the independent brute-force oracle, across structurally diverse
// graphs. This is the widest correctness net in the suite.
#include <gtest/gtest.h>

#include "core/automorphism.h"
#include "core/configuration.h"
#include "core/pattern_library.h"
#include "engine/forest.h"
#include "engine/oracle.h"
#include "engine/parallel.h"
#include "test_util.h"

namespace graphpi {
namespace {

class MotifSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(MotifSweepTest, AllEnginesAgreeOnAllMotifs) {
  const int k = GetParam();
  const auto motifs = patterns::connected_motifs(k);
  const std::vector<Graph> graphs = {
      erdos_renyi(45, 200, 1001),
      clustered_power_law(50, 220, 2.3, 0.5, 1002),
      complete_graph(10),
      cycle_graph(18),
      grid_graph(5, 6),
  };
  for (std::size_t mi = 0; mi < motifs.size(); ++mi) {
    const Pattern& p = motifs[mi];
    for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
      const Graph& g = graphs[gi];
      const Count expected = oracle_count(g, p);

      PlannerOptions iep;
      iep.use_iep = true;
      const Configuration config =
          plan_configuration(p, GraphStats::of(g), iep);
      Configuration plain = config;
      plain.iep = IepPlan{};
      EXPECT_EQ(count_embeddings(g, config), expected)
          << "motif " << mi << " graph " << gi << " (IEP)";
      EXPECT_EQ(count_embeddings(g, plain), expected)
          << "motif " << mi << " graph " << gi << " (plain)";
      EXPECT_EQ(count_parallel(g, config), expected)
          << "motif " << mi << " graph " << gi << " (parallel)";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, MotifSweepTest, ::testing::Values(3, 4));

TEST(MotifSweep, FiveVertexSample) {
  // All 21 5-motifs on two graphs (kept to a sample for runtime).
  const auto motifs = patterns::connected_motifs(5);
  ASSERT_EQ(motifs.size(), 21u);
  const Graph a = erdos_renyi(35, 140, 2001);
  const Graph b = clustered_power_law(40, 170, 2.3, 0.5, 2002);
  for (const auto& g : {a, b}) {
    for (const auto& p : motifs) {
      const Count expected = oracle_count(g, p);
      EXPECT_EQ(count_embeddings(g, p, /*use_iep=*/true), expected)
          << p.to_string();
    }
  }
}

TEST(MotifSweep, MotifCountsPartitionSubsetCounts) {
  // Cross-motif invariant: the number of connected induced 3-subsets of
  // a graph equals triangles + paths2 when counting *induced* instances.
  // Our semantics are non-induced, which obey: every triangle contains 3
  // path-2 embeddings, so path2_count = wedges = sum C(deg,2).
  const Graph g = clustered_power_law(60, 260, 2.3, 0.4, 2003);
  const Count paths2 = count_embeddings(g, patterns::path(3));
  std::uint64_t wedges = 0;
  for (VertexId v = 0; v < g.vertex_count(); ++v) {
    const std::uint64_t d = g.degree(v);
    wedges += d * (d - 1) / 2;
  }
  EXPECT_EQ(paths2, wedges);

  // Stars: star(4) embeddings = sum C(deg, 3).
  std::uint64_t claws = 0;
  for (VertexId v = 0; v < g.vertex_count(); ++v) {
    const std::uint64_t d = g.degree(v);
    claws += d * (d - 1) * (d - 2) / 6;
  }
  EXPECT_EQ(count_embeddings(g, patterns::star(4)), claws);
}

TEST(MotifSweep, CompleteGraphClosedForms) {
  // On K_m, count(pattern) = m!/(m-n)!/|Aut| for every n-pattern.
  const Graph g = complete_graph(11);
  for (int k : {3, 4}) {
    for (const auto& p : patterns::connected_motifs(k)) {
      std::uint64_t arrangements = 1;
      for (int i = 0; i < p.size(); ++i)
        arrangements *= static_cast<std::uint64_t>(11 - i);
      const Count expected =
          arrangements / automorphism_count(p);
      EXPECT_EQ(count_embeddings(g, p), expected) << p.to_string();
    }
  }
}

}  // namespace
}  // namespace graphpi
