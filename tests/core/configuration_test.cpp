// Configuration planning pipeline: IEP admissibility, selection
// consistency, diagnostics.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "core/configuration.h"
#include "core/pattern_library.h"
#include "graph/generators.h"

namespace graphpi {
namespace {

GraphStats test_stats() {
  return GraphStats::of(clustered_power_law(300, 1500, 2.3, 0.4, 3));
}

/// The selection rule of plan_configuration without any memo: every
/// (efficient schedule, restriction set) pair is scored, and each one
/// whose raw cost beats the best IEP score gets the public
/// attach_iep_plan. Same first-minimum and cost * divisor rules.
Configuration reference_plan(const Pattern& p, const GraphStats& stats) {
  Configuration best;
  best.pattern = p;
  best.predicted_cost = std::numeric_limits<double>::infinity();
  Configuration best_iep = best;
  double best_iep_score = std::numeric_limits<double>::infinity();
  const auto sets = generate_restriction_sets(p);
  for (const auto& sched : generate_schedules(p).efficient) {
    for (const auto& rs : sets) {
      const double cost = predict_total_cost(p, sched, rs, stats);
      if (cost < best.predicted_cost) {
        best.predicted_cost = cost;
        best.schedule = sched;
        best.restrictions = rs;
      }
      if (cost >= best_iep_score) continue;
      Configuration candidate;
      candidate.pattern = p;
      candidate.schedule = sched;
      candidate.restrictions = rs;
      candidate.predicted_cost = cost;
      attach_iep_plan(candidate);
      if (candidate.iep.k == 0) continue;
      const double score = cost * static_cast<double>(candidate.iep.divisor);
      if (score < best_iep_score) {
        best_iep_score = score;
        best_iep = std::move(candidate);
      }
    }
  }
  return best_iep.iep.k > 0 ? best_iep : best;
}

void expect_bit_equal(const Configuration& got, const Configuration& want,
                      const std::string& label) {
  EXPECT_EQ(got.schedule, want.schedule) << label;
  EXPECT_EQ(got.restrictions, want.restrictions) << label;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.predicted_cost),
            std::bit_cast<std::uint64_t>(want.predicted_cost))
      << label;
  EXPECT_EQ(got.iep.k, want.iep.k) << label;
  EXPECT_EQ(got.iep.divisor, want.iep.divisor) << label;
  EXPECT_EQ(got.iep.outer_restrictions, want.iep.outer_restrictions)
      << label;
  ASSERT_EQ(got.iep.terms.size(), want.iep.terms.size()) << label;
  for (std::size_t i = 0; i < got.iep.terms.size(); ++i) {
    EXPECT_EQ(got.iep.terms[i].coefficient, want.iep.terms[i].coefficient)
        << label;
    EXPECT_EQ(got.iep.terms[i].blocks, want.iep.terms[i].blocks) << label;
  }
}

/// True when, on the planner's path (k from the largest down to the first
/// valid plan), some outer restriction set that admits IEP is reached
/// with two different k.
bool two_k_share_a_valid_outer_set(const Pattern& p) {
  std::map<RestrictionSet, std::set<int>> ks;
  std::set<RestrictionSet> valid;
  const auto sets = generate_restriction_sets(p);
  for (const auto& sched : generate_schedules(p).efficient) {
    const int max_k =
        std::min(sched.independent_suffix_length(p), p.size() - 1);
    for (const auto& rs : sets)
      for (int k = max_k; k >= 1; --k) {
        const IepPlan plan = build_iep_plan(p, sched, rs, k);
        RestrictionSet outer = plan.outer_restrictions;
        std::sort(outer.begin(), outer.end());
        ks[outer].insert(k);
        if (validate_iep_plan(p, sched, plan)) {
          valid.insert(outer);
          break;
        }
      }
  }
  return std::any_of(ks.begin(), ks.end(), [&](const auto& entry) {
    return entry.second.size() > 1 && valid.count(entry.first) > 0;
  });
}

TEST(Planner, SelectsValidatedConfiguration) {
  const GraphStats stats = test_stats();
  for (int i = 1; i <= 6; ++i) {
    const Pattern p = patterns::evaluation_pattern(i);
    const Configuration config =
        plan_configuration(p, stats, PlannerOptions{});
    EXPECT_EQ(config.schedule.size(), p.size());
    EXPECT_TRUE(config.schedule.prefix_connected(p));
    EXPECT_TRUE(validate_restriction_set(p, config.restrictions));
    EXPECT_EQ(config.iep.k, 0) << "IEP off by default";
  }
}

TEST(Planner, IepRequestAttachesValidPlan) {
  const GraphStats stats = test_stats();
  PlannerOptions planner;
  planner.use_iep = true;
  for (int i = 1; i <= 6; ++i) {
    const Pattern p = patterns::evaluation_pattern(i);
    const Configuration config = plan_configuration(p, stats, planner);
    ASSERT_GT(config.iep.k, 0) << "P" << i;
    EXPECT_TRUE(validate_iep_plan(p, config.schedule, config.iep));
    EXPECT_GE(config.iep.divisor, 1u);
    // The IEP suffix must be independent in the pattern.
    EXPECT_LE(config.iep.k,
              config.schedule.independent_suffix_length(p));
  }
}

TEST(Planner, IepSelectionPrefersAdmissibleCombos) {
  // Patterns where not every restriction set admits IEP (rectangle,
  // pentagon) must still end up with a valid plan.
  const GraphStats stats = test_stats();
  PlannerOptions planner;
  planner.use_iep = true;
  for (const auto& p : {patterns::rectangle(), patterns::pentagon(),
                        patterns::hourglass(), patterns::clique(4)}) {
    const Configuration config = plan_configuration(p, stats, planner);
    EXPECT_GT(config.iep.k, 0) << p.to_string();
    EXPECT_TRUE(validate_iep_plan(p, config.schedule, config.iep))
        << p.to_string();
  }
}

TEST(Planner, SelectedCostIsMinimumOverCombos) {
  const GraphStats stats = test_stats();
  const Pattern p = patterns::house();
  const Configuration best = plan_configuration(p, stats, PlannerOptions{});
  const auto schedules = generate_schedules(p);
  const auto sets = generate_restriction_sets(p);
  for (const auto& sched : schedules.efficient)
    for (const auto& rs : sets)
      EXPECT_GE(predict_total_cost(p, sched, rs, stats) * (1 + 1e-12),
                best.predicted_cost);
}

TEST(Planner, BestForScheduleRespectsTheSchedule) {
  const GraphStats stats = test_stats();
  const Pattern p = patterns::rectangle();
  const auto sets = generate_restriction_sets(p);
  for (const auto& sched : generate_schedules(p).efficient) {
    const Configuration config =
        best_configuration_for_schedule(p, sched, sets, stats);
    EXPECT_EQ(config.schedule, sched);
    // The returned set must be one of the candidates.
    EXPECT_NE(std::find(sets.begin(), sets.end(), config.restrictions),
              sets.end());
  }
}

TEST(Planner, DiagnosticsAreConsistent) {
  const GraphStats stats = test_stats();
  PlanningStats diag;
  (void)plan_configuration(patterns::cycle_6_tri(), stats, PlannerOptions{},
                           &diag);
  EXPECT_EQ(diag.schedules_total, 720u);
  EXPECT_LE(diag.schedules_efficient, diag.schedules_phase1);
  EXPECT_LE(diag.schedules_phase1, diag.schedules_total);
  EXPECT_EQ(diag.configurations_evaluated,
            diag.schedules_efficient * diag.restriction_sets);
}

TEST(Planner, IepSelectionEqualsUnmemoizedReference) {
  const GraphStats stats = test_stats();
  std::vector<std::pair<std::string, Pattern>> cases = {
      {"house", patterns::house()},
      {"clique4", patterns::clique(4)},
      {"clique5", patterns::clique(5)},
      {"cycle6tri", patterns::cycle_6_tri()},
      {"rectangle", patterns::rectangle()},
      {"pentagon", patterns::pentagon()},
      {"hourglass", patterns::hourglass()},
      {"tailed_triangle", patterns::tailed_triangle()}};
  for (int i = 1; i <= 5; ++i)
    cases.emplace_back(patterns::evaluation_pattern_name(i),
                       patterns::evaluation_pattern(i));
  for (int n = 4; n <= 5; ++n) {
    const auto motifs = patterns::connected_motifs(n);
    for (std::size_t i = 0; i < motifs.size(); ++i)
      cases.emplace_back("motif" + std::to_string(n) + "." + std::to_string(i),
                         motifs[i]);
  }
  PlannerOptions planner;
  planner.use_iep = true;
  for (const auto& [label, p] : cases)
    expect_bit_equal(plan_configuration(p, stats, planner),
                     reference_plan(p, stats), label);
}

TEST(Planner, SharedOuterSetKeepsEachCombinationsK) {
  // K_{3,3} minus one edge: some combinations fail IEP at k = 2 and fall
  // back to k = 1 with an outer set that other combinations reach, valid,
  // at k = 2. The memo keys the verdict on the outer set alone; k and the
  // terms must come from the combination being tried (a memo returning
  // the plan cached for the first k selects a different configuration
  // here under every statistics below).
  const Pattern p =
      patterns::parse_spec("6:000111000111000110111000111000110000");
  ASSERT_TRUE(two_k_share_a_valid_outer_set(p));
  PlannerOptions planner;
  planner.use_iep = true;
  for (const GraphStats& stats :
       {test_stats(), GraphStats{10000, 20000, 500},
        GraphStats{10000, 200000, 5000000}})
    expect_bit_equal(plan_configuration(p, stats, planner),
                     reference_plan(p, stats), p.to_string());
}

TEST(Planner, IepAdmissibilityIsDecidedOncePerOuterSet) {
  PlanningStats diag;
  PlannerOptions planner;
  planner.use_iep = true;
  (void)plan_configuration(patterns::clique(5), test_stats(), planner, &diag);
  // 120 schedules x 64 restriction sets leave 138 distinct outer sets.
  EXPECT_EQ(diag.configurations_evaluated, 7680u);
  EXPECT_EQ(diag.iep_validations, 138u);

  PlanningStats plain;
  (void)plan_configuration(patterns::clique(5), test_stats(),
                           PlannerOptions{}, &plain);
  EXPECT_EQ(plain.iep_validations, 0u);
}

TEST(Planner, DeterministicAcrossRuns) {
  const GraphStats stats = test_stats();
  const Configuration a =
      plan_configuration(patterns::evaluation_pattern(2), stats);
  const Configuration b =
      plan_configuration(patterns::evaluation_pattern(2), stats);
  EXPECT_EQ(a.schedule, b.schedule);
  EXPECT_EQ(a.restrictions, b.restrictions);
  EXPECT_DOUBLE_EQ(a.predicted_cost, b.predicted_cost);
}

TEST(Planner, StatsShiftCanChangeSelection) {
  // The whole point of data-aware planning: different graph statistics
  // may select different configurations. Verify the machinery responds
  // to statistics at all (cost values must differ).
  const Pattern p = patterns::house();
  GraphStats sparse{10000, 20000, 500};     // low clustering
  GraphStats dense{10000, 200000, 5000000};  // heavy clustering
  const Configuration a = plan_configuration(p, sparse);
  const Configuration b = plan_configuration(p, dense);
  EXPECT_NE(a.predicted_cost, b.predicted_cost);
}

}  // namespace
}  // namespace graphpi
