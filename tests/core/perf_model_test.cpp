// The performance-prediction model (Section IV-C): statistics, filter
// probabilities, and ranking quality on real workloads.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/configuration.h"
#include "core/pattern_library.h"
#include "core/perf_model.h"
#include "core/restriction.h"
#include "engine/forest.h"
#include "graph/generators.h"
#include "support/timer.h"

namespace graphpi {
namespace {

TEST(GraphStats, ProbabilitiesMatchDefinitions) {
  const Graph g = clustered_power_law(500, 2500, 2.3, 0.4, 21);
  const GraphStats s = GraphStats::of(g);
  EXPECT_DOUBLE_EQ(s.vertices, g.vertex_count());
  EXPECT_DOUBLE_EQ(s.edges, g.edge_count());
  EXPECT_DOUBLE_EQ(s.p1(), 2.0 * s.edges / (s.vertices * s.vertices));
  EXPECT_DOUBLE_EQ(s.p2(),
                   s.triangles * s.vertices / (4.0 * s.edges * s.edges));
  EXPECT_DOUBLE_EQ(s.average_degree(), 2.0 * s.edges / s.vertices);
  // Cardinality chain: m=0 -> |V|, m=1 -> avg degree, m>=2 shrinks by p2.
  EXPECT_DOUBLE_EQ(s.expected_cardinality(0), s.vertices);
  EXPECT_DOUBLE_EQ(s.expected_cardinality(1), s.average_degree());
  EXPECT_GT(s.expected_cardinality(2), s.expected_cardinality(3));
}

TEST(FilterProbabilities, PaperExampleHalvesFirstLoop) {
  // Figure 5(b): restriction id(A) > id(B) checked in the second loop
  // filters n!/2 of the relative orders; the paper states f = 1/2.
  const Pattern house = patterns::house();
  const Schedule sched({0, 1, 2, 3, 4});  // A,B,C,D,E
  const RestrictionSet rs{{0, 1}};        // id(A) > id(B), checked at depth 1
  const auto f = filter_probabilities(house, sched, rs);
  EXPECT_DOUBLE_EQ(f[0], 0.0);
  EXPECT_DOUBLE_EQ(f[1], 0.5);
  EXPECT_DOUBLE_EQ(f[2], 0.0);
}

TEST(FilterProbabilities, SequentialFiltering) {
  // Chain id(0)>id(1), id(1)>id(2) on a triangle with schedule 0,1,2:
  // depth 1 filters 1/2; of the survivors, ranks with 1>2 ... among orders
  // with r0>r1, exactly 1/3 also have r1>r2 (the single total order), so
  // depth 2 filters 2/3.
  const Pattern tri = patterns::clique(3);
  const Schedule sched({0, 1, 2});
  const RestrictionSet rs{{0, 1}, {1, 2}};
  const auto f = filter_probabilities(tri, sched, rs);
  EXPECT_DOUBLE_EQ(f[1], 0.5);
  EXPECT_NEAR(f[2], 2.0 / 3.0, 1e-12);
}

TEST(FilterProbabilities, NoRestrictionsMeansNoFiltering) {
  const Pattern p = patterns::rectangle();
  const auto f = filter_probabilities(p, Schedule({0, 1, 2, 3}), {});
  for (double v : f) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(PerfModel, CostIsPositiveAndFiniteAcrossConfigs) {
  const Graph g = clustered_power_law(300, 1500, 2.3, 0.4, 31);
  const GraphStats stats = GraphStats::of(g);
  const Pattern p = patterns::house();
  const auto schedules = generate_schedules(p);
  const auto sets = generate_restriction_sets(p);
  for (const auto& sched : schedules.efficient)
    for (const auto& rs : sets) {
      const double c = predict_total_cost(p, sched, rs, stats);
      EXPECT_GT(c, 0.0);
      EXPECT_TRUE(std::isfinite(c));
    }
}

TEST(PerfModel, RestrictionsReducePredictedCost) {
  // Adding a restriction can only prune the search, and the model must
  // reflect that.
  const Graph g = erdos_renyi(400, 2400, 41);
  const GraphStats stats = GraphStats::of(g);
  const Pattern p = patterns::rectangle();
  const Schedule sched = generate_schedules(p).efficient.front();
  const auto rs = generate_restriction_sets(p).front();
  EXPECT_LT(predict_total_cost(p, sched, rs, stats),
            predict_total_cost(p, sched, {}, stats));
}

TEST(PerfModel, RankingCorrelatesWithRealRuntime) {
  // The model is a *relative* predictor (Section IV-C). Check that on a
  // real workload the model-selected schedule is within a small factor of
  // the oracle (Figure 11's claim: 32% slower on average), using work
  // counts via actual timing on a modest graph.
  const Graph g = clustered_power_law(800, 6000, 2.25, 0.5, 51);
  const GraphStats stats = GraphStats::of(g);
  const Pattern p = patterns::house();
  const auto schedules = generate_schedules(p);
  const auto sets = generate_restriction_sets(p);

  double best_time = 1e100, selected_time = 0.0, worst_time = 0.0;
  double best_cost = 1e100;
  for (const auto& sched : schedules.efficient) {
    // Model-best restriction set for this schedule.
    const Configuration config =
        best_configuration_for_schedule(p, sched, sets, stats);
    support::Timer t;
    (void)count_embeddings(g, config);
    const double secs = t.elapsed_seconds();
    best_time = std::min(best_time, secs);
    worst_time = std::max(worst_time, secs);
    if (config.predicted_cost < best_cost) {
      best_cost = config.predicted_cost;
      selected_time = secs;
    }
  }
  // The selected schedule must be much closer to the oracle than to the
  // worst case; allow generous slack for timing noise on a busy machine.
  EXPECT_LT(selected_time, best_time * 8 + 1e-3)
      << "best " << best_time << " selected " << selected_time << " worst "
      << worst_time;
}

TEST(PerfModel, LoopOverheadOptionChangesAbsoluteNotSign) {
  const Graph g = erdos_renyi(200, 900, 61);
  const GraphStats stats = GraphStats::of(g);
  const Pattern p = patterns::rectangle();
  const Schedule sched = generate_schedules(p).efficient.front();
  const auto rs = generate_restriction_sets(p).front();
  PerfModelOptions heavy;
  heavy.loop_overhead = 10.0;
  EXPECT_GT(predict_total_cost(p, sched, rs, stats, heavy),
            predict_total_cost(p, sched, rs, stats, PerfModelOptions{}));
}

}  // namespace
}  // namespace graphpi
