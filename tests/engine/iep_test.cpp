// Inclusion–Exclusion counting (Section IV-D): IEP counts must equal
// plain enumeration for every pattern/graph pair, for every valid suffix
// length, with both the aggregated and the paper-verbatim term expansion.
#include <gtest/gtest.h>

#include "core/automorphism.h"
#include "core/configuration.h"
#include "core/iep.h"
#include "engine/forest.h"
#include "engine/oracle.h"
#include "test_util.h"

namespace graphpi {
namespace {

using testing::small_test_graphs;

/// Best planned configuration with an IEP plan attached.
Configuration iep_config(const Pattern& p, const Graph& g) {
  PlannerOptions options;
  options.use_iep = true;
  return plan_configuration(p, GraphStats::of(g), options);
}

class IepPatternTest
    : public ::testing::TestWithParam<std::tuple<const char*, Pattern>> {};

TEST_P(IepPatternTest, IepEqualsPlainEnumerationOnAllGraphs) {
  const Pattern& p = std::get<1>(GetParam());
  for (const auto& g : small_test_graphs()) {
    const Configuration config = iep_config(p, g);
    Configuration plain = config;
    plain.iep = IepPlan{};
    EXPECT_EQ(count_embeddings(g, config), count_embeddings(g, plain))
        << config.to_string();
  }
}

TEST_P(IepPatternTest, IepPlanIsAttachedAndValidated) {
  const Pattern& p = std::get<1>(GetParam());
  const Graph g = erdos_renyi(30, 100, 3);
  const Configuration config = iep_config(p, g);
  // Connected patterns with >= 2 vertices always admit k >= 1.
  EXPECT_GE(config.iep.k, 1);
  EXPECT_TRUE(validate_iep_plan(p, config.schedule, config.iep));
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, IepPatternTest,
    ::testing::Values(
        std::make_tuple("edgepair", patterns::path(3)),
        std::make_tuple("triangle", patterns::clique(3)),
        std::make_tuple("rectangle", patterns::rectangle()),
        std::make_tuple("house", patterns::house()),
        std::make_tuple("pentagon", patterns::pentagon()),
        std::make_tuple("hourglass", patterns::hourglass()),
        std::make_tuple("cycle6tri", patterns::cycle_6_tri()),
        std::make_tuple("clique4", patterns::clique(4)),
        std::make_tuple("star5", patterns::star(5)),
        std::make_tuple("P1", patterns::evaluation_pattern(1)),
        std::make_tuple("P2", patterns::evaluation_pattern(2)),
        std::make_tuple("P4", patterns::evaluation_pattern(4))),
    [](const auto& info) { return std::get<0>(info.param); });

TEST(Iep, EverySuffixLengthCounts) {
  // For each k from 1 to the schedule's independent suffix length, the
  // IEP count must be identical.
  const Pattern p = patterns::cycle_6_tri();
  const Graph g = clustered_power_law(50, 200, 2.3, 0.5, 5);
  Configuration base = plan_configuration(p, GraphStats::of(g));
  const Count expected = count_embeddings(g, base);
  const int max_k = base.schedule.independent_suffix_length(p);
  EXPECT_GE(max_k, 1);
  for (int k = 1; k <= max_k; ++k) {
    Configuration config = base;
    config.iep = build_iep_plan(p, config.schedule, config.restrictions, k);
    if (!validate_iep_plan(p, config.schedule, config.iep)) continue;
    EXPECT_EQ(count_embeddings(g, config), expected) << "k=" << k;
  }
}

TEST(Iep, Cycle6TriHasIndependentTriple) {
  // Figure 6: "at most three vertices (D, E and F) ... therefore k = 3".
  EXPECT_EQ(patterns::cycle_6_tri().max_independent_set_size(), 3);
  const auto schedules = generate_schedules(patterns::cycle_6_tri());
  EXPECT_EQ(schedules.k, 3);
}

TEST(Iep, AggregatedAndVerbatimTermsAgree) {
  const Pattern p = patterns::cycle_6_tri();
  const Graph g = erdos_renyi(40, 170, 9);
  Configuration config = plan_configuration(p, GraphStats::of(g));
  const int k = config.schedule.independent_suffix_length(p);
  ASSERT_GE(k, 2);

  Configuration agg = config;
  agg.iep = build_iep_plan(p, config.schedule, config.restrictions, k,
                           /*aggregate_partitions=*/true);
  Configuration verbatim = config;
  verbatim.iep = build_iep_plan(p, config.schedule, config.restrictions, k,
                                /*aggregate_partitions=*/false);
  EXPECT_EQ(count_embeddings(g, agg), count_embeddings(g, verbatim));
  // Aggregation folds 2^(k(k-1)/2) signed terms into at most Bell(k).
  EXPECT_LT(agg.iep.terms.size(), verbatim.iep.terms.size());
}

TEST(Iep, MoebiusCoefficientsMatchClosedForm) {
  // The numerically-accumulated per-partition coefficient must equal
  // prod_B (-1)^(|B|-1) (|B|-1)!.
  const Pattern p = patterns::cycle_6_tri();
  const Graph g = complete_graph(8);
  Configuration config = plan_configuration(p, GraphStats::of(g));
  const IepPlan plan =
      build_iep_plan(p, config.schedule, config.restrictions, 3);
  for (const auto& term : plan.terms) {
    std::int64_t expected = 1;
    for (const auto& block : term.blocks) {
      std::int64_t factorial = 1;
      for (std::size_t i = 2; i < block.size(); ++i)
        factorial *= static_cast<std::int64_t>(i);
      expected *= (block.size() % 2 == 0 ? -1 : 1) * factorial;
    }
    EXPECT_EQ(term.coefficient, expected);
  }
}

TEST(Iep, DivisorIsTheKnOvercountFactor) {
  // x = LE(n, outer) * |Aut| / n! — the factor by which enumeration
  // without the suffix restrictions overcounts each subgraph.
  const Pattern p = patterns::rectangle();
  const auto schedules = generate_schedules(p);
  const auto sets = generate_restriction_sets(p);
  const std::uint64_t aut = automorphism_count(p);
  for (const auto& sched : schedules.efficient) {
    for (const auto& rs : sets) {
      const int k = sched.independent_suffix_length(p);
      const IepPlan plan = build_iep_plan(p, sched, rs, k);
      if (plan.divisor == 0) continue;  // factor did not divide evenly
      EXPECT_EQ(plan.divisor * 24u,
                linear_extension_count(4, plan.outer_restrictions) * aut);
    }
  }
}

TEST(Iep, TriangleDivisorIsThreeNotFive) {
  // Regression for the closed-form factor: with schedule A,B,C and outer
  // restriction {id(A)>id(B)} the paper's no_conflict-survivor reading
  // yields 5, but each triangle is actually enumerated 3 times.
  const Pattern p = patterns::clique(3);
  const Schedule sched({0, 1, 2});
  const RestrictionSet rs{{0, 1}, {1, 2}};  // chain: a valid full set
  ASSERT_TRUE(validate_restriction_set(p, rs));
  const IepPlan plan = build_iep_plan(p, sched, rs, /*k=*/1);
  EXPECT_EQ(plan.outer_restrictions, (RestrictionSet{{0, 1}}));
  EXPECT_EQ(plan.divisor, 3u);
  EXPECT_NE(plan.divisor,
            surviving_permutations(automorphisms(p),
                                   plan.outer_restrictions));
  EXPECT_TRUE(validate_iep_plan(p, sched, plan));
}

TEST(Iep, CountsOnCompleteGraphsMatchTheory) {
  // On K_m the number of embeddings of any n-pattern is
  // C(m, n) * n! / |Aut| — validated through the whole IEP pipeline.
  const Pattern p = patterns::house();
  for (VertexId m : {8u, 10u, 12u}) {
    const Graph g = complete_graph(m);
    std::uint64_t arrangements = 1;
    for (VertexId i = 0; i < 5; ++i) arrangements *= (m - i);
    const Count expected = arrangements / automorphism_count(p);
    const Configuration config = iep_config(p, g);
    EXPECT_EQ(count_embeddings(g, config), expected) << "K_" << m;
  }
}

}  // namespace
}  // namespace graphpi
