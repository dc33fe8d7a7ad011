// Hub bitmap index: row contents vs CSR adjacency, threshold and budget
// behavior, has_edge consistency, and end-to-end matcher equality with
// the index enabled, disabled, and combined with the scalar fallback.
#include <gtest/gtest.h>

#include <cstdint>

#include "core/configuration.h"
#include "core/pattern_library.h"
#include "engine/forest.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/vertex_set.h"

namespace graphpi {
namespace {

TEST(HubIndex, RowsMatchAdjacencyExactly) {
  const Graph g = rmat(10, 6000, 5);
  ASSERT_TRUE(g.validate());
  g.build_hub_index(32);
  ASSERT_TRUE(g.has_hub_index());
  EXPECT_EQ(g.hub_min_degree(), 32u);
  EXPECT_GT(g.hub_count(), 0u);
  EXPECT_EQ(g.hub_words(), (g.vertex_count() + 63) / 64);

  std::uint32_t hubs_seen = 0;
  for (VertexId v = 0; v < g.vertex_count(); ++v) {
    const std::uint64_t* row = g.hub_bits(v);
    if (g.degree(v) < 32) {
      // Vertices below the threshold may only lack a row (the budget cap
      // can also drop above-threshold vertices, never add below ones).
      if (row == nullptr) continue;
    }
    if (row == nullptr) continue;
    ++hubs_seen;
    const auto adj = g.neighbors(v);
    for (VertexId w = 0; w < g.vertex_count(); ++w) {
      const bool bit = ((row[w >> 6] >> (w & 63)) & 1u) != 0;
      EXPECT_EQ(bit, contains(adj, w)) << "v=" << v << " w=" << w;
    }
  }
  EXPECT_EQ(hubs_seen, g.hub_count());
}

TEST(HubIndex, HasEdgeAgreesBeforeAndAfterBuild) {
  const Graph g = clustered_power_law(400, 2400, 2.2, 0.4, 9);
  const Graph g_indexed = g;  // copy, then index one of them
  g_indexed.build_hub_index(8);
  ASSERT_GT(g_indexed.hub_count(), 0u);
  for (VertexId u = 0; u < g.vertex_count(); u += 3)
    for (VertexId v = 0; v < g.vertex_count(); v += 7)
      EXPECT_EQ(g.has_edge(u, v), g_indexed.has_edge(u, v))
          << u << "-" << v;
}

TEST(HubIndex, DisabledIndexHasNoRows) {
  const Graph g = star_graph(300);
  g.build_hub_index(0xffffffffu);
  EXPECT_TRUE(g.has_hub_index());
  EXPECT_EQ(g.hub_count(), 0u);
  for (VertexId v = 0; v < g.vertex_count(); ++v)
    EXPECT_EQ(g.hub_bits(v), nullptr);
  EXPECT_TRUE(g.has_edge(0, 17));
  EXPECT_FALSE(g.has_edge(17, 18));
}

TEST(HubIndex, AutoThresholdIndexesHighDegreeStar) {
  const Graph g = star_graph(600);  // center degree 599 >= max(128, 600/64)
  g.ensure_hub_index();
  EXPECT_NE(g.hub_bits(0), nullptr);
  EXPECT_EQ(g.hub_bits(1), nullptr);  // leaves have degree 1
  EXPECT_EQ(g.hub_count(), 1u);
}

TEST(HubIndex, CountsIdenticalWithAndWithoutAcceleration) {
  const Graph fast = rmat(9, 2500, 11);
  const Graph slow = fast;
  slow.build_hub_index(0xffffffffu);  // no rows
  fast.build_hub_index(16);           // aggressive: many rows
  ASSERT_GT(fast.hub_count(), 0u);

  for (const Pattern& p : {patterns::house(), patterns::clique(4),
                           patterns::rectangle()}) {
    for (bool use_iep : {false, true}) {
      PlannerOptions planner;
      planner.use_iep = use_iep;
      const Configuration config =
          plan_configuration(p, GraphStats::of(slow), planner);
      const Count baseline = count_embeddings(slow, config);
      EXPECT_EQ(count_embeddings(fast, config), baseline)
          << p.to_string() << " iep=" << use_iep;

      // Hub rows combined with the forced scalar merge kernels.
      force_scalar_kernels(true);
      EXPECT_EQ(count_embeddings(fast, config), baseline)
          << p.to_string() << " iep=" << use_iep << " forced scalar";
      force_scalar_kernels(false);
    }
  }
}

TEST(Rmat, GeneratesValidSkewedGraph) {
  const Graph g = rmat(9, 2000, 3);
  EXPECT_EQ(g.vertex_count(), 512u);
  EXPECT_TRUE(g.validate());
  EXPECT_GT(g.edge_count(), 1000u);
  // Heavy-tailed: the max degree dwarfs the average.
  const double avg = 2.0 * static_cast<double>(g.edge_count()) /
                     static_cast<double>(g.vertex_count());
  EXPECT_GT(g.max_degree(), 4 * avg);
}

}  // namespace
}  // namespace graphpi
