// Public facade: planning, counting and listing through every backend,
// plus dataset stand-ins.
#include <gtest/gtest.h>

#include "api/graphpi.h"
#include "engine/oracle.h"

namespace graphpi {
namespace {

TEST(Api, CountAgreesAcrossBackends) {
  const Graph g = clustered_power_law(110, 550, 2.3, 0.4, 19);
  const GraphPi engine(g);
  for (const auto& p : {patterns::house(), patterns::pentagon(),
                        patterns::clique(4)}) {
    const Count expected = oracle_count(g, p);
    for (const Backend backend :
         {Backend::kSerial, Backend::kParallel, Backend::kDistributed}) {
      MatchOptions opt;
      opt.backend = backend;
      EXPECT_EQ(engine.count(p, opt), expected)
          << p.to_string() << " backend " << static_cast<int>(backend);
    }
  }
}

TEST(Api, IepToggleDoesNotChangeResults) {
  const Graph g = clustered_power_law(100, 520, 2.2, 0.5, 23);
  const GraphPi engine(g);
  for (int i = 1; i <= 4; ++i) {
    const Pattern p = patterns::evaluation_pattern(i);
    MatchOptions with;
    with.use_iep = true;
    MatchOptions without;
    without.use_iep = false;
    EXPECT_EQ(engine.count(p, with), engine.count(p, without)) << "P" << i;
  }
}

TEST(Api, PlanReportsDiagnostics) {
  const Graph g = erdos_renyi(80, 300, 29);
  const GraphPi engine(g);
  PlanningStats diag;
  const Configuration config =
      engine.plan(patterns::house(), MatchOptions{}, &diag);
  EXPECT_EQ(diag.schedules_total, 120u);
  EXPECT_GT(diag.schedules_phase1, 0u);
  EXPECT_GE(diag.schedules_phase1, diag.schedules_efficient);
  EXPECT_GT(diag.restriction_sets, 1u);
  EXPECT_EQ(diag.configurations_evaluated,
            diag.schedules_efficient * diag.restriction_sets);
  EXPECT_GT(diag.planning_seconds, 0.0);
  EXPECT_EQ(config.pattern, patterns::house());
}

TEST(Api, EmpiricalValidationAcceptsPlannedConfigs) {
  const Graph g = clustered_power_law(90, 400, 2.3, 0.4, 31);
  const GraphPi engine(g);
  for (const auto& p : {patterns::house(), patterns::cycle_6_tri()})
    EXPECT_TRUE(empirically_validate(engine.plan(p))) << p.to_string();
}

TEST(Api, FindAllMatchesCount) {
  const Graph g = erdos_renyi(50, 200, 37);
  const GraphPi engine(g);
  const Pattern p = patterns::rectangle();
  const auto embeddings = engine.find_all(p);
  MatchOptions no_iep;
  no_iep.use_iep = false;
  EXPECT_EQ(embeddings.size(), engine.count(p, no_iep));
  for (const auto& e : embeddings)
    for (auto [u, v] : p.edges())
      EXPECT_TRUE(g.has_edge(e[static_cast<std::size_t>(u)],
                             e[static_cast<std::size_t>(v)]));
}

TEST(Datasets, SpecsAndLoading) {
  EXPECT_EQ(datasets::specs().size(), 6u);  // Table I rows
  const auto& wiki = datasets::spec("wiki_vote");
  EXPECT_EQ(wiki.paper_vertices, 7'100u);
  EXPECT_THROW(datasets::spec("nope"), std::out_of_range);

  // Tiny scale keeps this test fast while exercising the full generator.
  const Graph g = datasets::load("mico", /*scale=*/0.05);
  EXPECT_TRUE(g.validate());
  EXPECT_GT(g.edge_count(), 0u);
  // Determinism.
  const Graph h = datasets::load("mico", 0.05);
  EXPECT_EQ(g.raw_neighbors(), h.raw_neighbors());
}

TEST(Datasets, ScaleChangesSize) {
  const Graph small = datasets::load("patents", 0.02);
  const Graph larger = datasets::load("patents", 0.05);
  EXPECT_LT(small.vertex_count(), larger.vertex_count());
  EXPECT_LT(small.edge_count(), larger.edge_count());
}

}  // namespace
}  // namespace graphpi
