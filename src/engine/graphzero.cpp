#include "engine/graphzero.h"

#include <bit>
#include <limits>

#include "engine/forest.h"
#include "support/check.h"

namespace graphpi::graphzero {

RestrictionSet restriction_set(const Pattern& pattern) {
  // Deterministic first branch of the 2-cycle elimination recursion: the
  // single symmetry-breaking set a GraphZero-style generator emits.
  RestrictionGenOptions options;
  options.max_sets = 1;
  const auto sets = generate_restriction_sets(pattern, options);
  return sets.front();
}

double estimate_cost(const Pattern& pattern, const Schedule& schedule,
                     const GraphStats& stats) {
  // AutoMine-style estimator: candidate-set cardinalities are extrapolated
  // from edge density alone (|V| * p1^m for the intersection of m
  // neighborhoods) and restrictions are invisible (f_i = 0).
  const int n = pattern.size();
  const double v = stats.vertices;
  const double p1 = stats.p1();

  auto cardinality = [&](int m) {
    if (m <= 0) return v;
    double c = v;
    for (int j = 0; j < m; ++j) c *= p1;
    return c;
  };

  double cost = 0.0;
  for (int d = n - 1; d >= 0; --d) {
    std::uint32_t placed = 0;
    for (int e = 0; e < d; ++e) placed |= 1u << schedule.vertex_at(e);
    const int m =
        std::popcount(pattern.neighbor_mask(schedule.vertex_at(d)) & placed);
    const double l = cardinality(m);
    cost = d == n - 1 ? l : l * (1.0 + cost);
  }
  return cost;
}

Schedule select_schedule(const Pattern& pattern, const GraphStats& stats) {
  const auto generated = generate_schedules(pattern);
  GRAPHPI_CHECK(!generated.phase1.empty());
  const Schedule* best = nullptr;
  double best_cost = std::numeric_limits<double>::infinity();
  for (const auto& sched : generated.phase1) {
    const double c = estimate_cost(pattern, sched, stats);
    if (c < best_cost) {
      best_cost = c;
      best = &sched;
    }
  }
  return *best;
}

Configuration plan(const Pattern& pattern, const GraphStats& stats) {
  Configuration config;
  config.pattern = pattern;
  config.schedule = select_schedule(pattern, stats);
  config.restrictions = restriction_set(pattern);
  config.predicted_cost = estimate_cost(pattern, config.schedule, stats);
  return config;
}

Count count(const Graph& graph, const Pattern& pattern) {
  const Configuration config = plan(pattern, GraphStats::of(graph));
  return count_embeddings(graph, config);
}

}  // namespace graphpi::graphzero
