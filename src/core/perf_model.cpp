#include "core/perf_model.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "support/check.h"

namespace graphpi {

GraphStats GraphStats::of(const Graph& g) {
  return GraphStats{static_cast<double>(g.vertex_count()),
                    static_cast<double>(g.edge_count()),
                    static_cast<double>(g.triangle_count())};
}

double GraphStats::expected_cardinality(int m) const noexcept {
  if (m <= 0) return vertices;
  if (m == 1) return average_degree();
  return vertices * p1() * std::pow(p2(), m - 1);
}

namespace {

/// filter_probabilities into f[0..n), without touching the heap (the
/// planner scores tens of thousands of configurations per pattern).
void fill_filter_probabilities(const Pattern& pattern,
                               const Schedule& schedule,
                               const RestrictionSet& restrictions,
                               double* f) {
  const int n = pattern.size();
  GRAPHPI_CHECK(schedule.size() == n);

  // The loop in which a restriction is checked is the depth of its
  // later-scheduled endpoint. An assignment of relative magnitudes enters
  // loop d iff it satisfies every restriction checked at depths < d, so
  //   entering[d] = LE({r : check_depth(r) < d})
  // (the number of total orders compatible with that partial order), and
  //   f_d = 1 - entering[d+1] / entering[d].
  // LE is computed with the O(2^n n) bitmask DP in restriction.cpp —
  // orders of magnitude cheaper than walking all n! assignments when the
  // planner sweeps thousands of configurations.
  auto check_depth = [&schedule](const Restriction& r) {
    return std::max(schedule.depth_of(r.greater),
                    schedule.depth_of(r.smaller));
  };

  std::uint64_t entering[Pattern::kMaxVertices + 1];
  std::uint32_t must_precede[Pattern::kMaxVertices] = {};
  for (int d = 0; d <= n; ++d) {
    bool grew = d == 0;
    if (d > 0)
      for (const auto& r : restrictions)
        if (check_depth(r) == d - 1) {
          must_precede[r.greater] |= 1u << r.smaller;
          grew = true;
        }
    entering[d] = grew ? linear_extension_count_by_mask(n, must_precede)
                       : entering[d - 1];
  }

  for (int d = 0; d < n; ++d) {
    const std::uint64_t in = entering[d];
    const std::uint64_t out = entering[d + 1];
    f[d] = in > 0 ? 1.0 - static_cast<double>(out) / static_cast<double>(in)
                  : 0.0;
  }
}

/// predict_cost into caller-provided arrays of n entries each; returns
/// the total.
double fill_cost(const Pattern& pattern, const Schedule& schedule,
                 const RestrictionSet& restrictions, const GraphStats& stats,
                 const PerfModelOptions& options, double* loop_size,
                 double* intersection_cost, double* filter_probability) {
  const int n = pattern.size();
  GRAPHPI_CHECK(schedule.size() == n);
  fill_filter_probabilities(pattern, schedule, restrictions,
                            filter_probability);

  const double avg_deg = stats.average_degree();
  std::uint32_t placed = 0;
  for (int d = 0; d < n; ++d) {
    const int v = schedule.vertex_at(d);
    const int m = std::popcount(pattern.neighbor_mask(v) & placed);
    loop_size[d] = stats.expected_cardinality(m);

    // Expected cost of materializing the candidate set: a left-to-right
    // chain of sorted intersections, each costing the sum of its two input
    // cardinalities (Section IV-C "Measurement of ci").
    double c = 0.0;
    if (m >= 2) {
      double running = avg_deg;  // first neighborhood
      for (int j = 2; j <= m; ++j) {
        c += running + avg_deg;
        running = stats.expected_cardinality(j);
      }
    }
    intersection_cost[d] = c;
    placed |= 1u << v;
  }

  // cost_i = l_i (1 - f_i) (c_{i+1} + o + cost_{i+1});  cost_n = l_n (1-f_n).
  // The executor builds the candidate set of depth i+1 inside the body of
  // loop i (no hoisting), so that intersection's cost is attributed there.
  double cost = 0.0;
  for (int d = n - 1; d >= 0; --d) {
    const double l = loop_size[d];
    const double keep = 1.0 - filter_probability[d];
    if (d == n - 1) {
      cost = l * keep;
    } else {
      cost = l * keep *
             (intersection_cost[d + 1] + options.loop_overhead + cost);
    }
  }
  return cost;
}

}  // namespace

std::vector<double> filter_probabilities(const Pattern& pattern,
                                         const Schedule& schedule,
                                         const RestrictionSet& restrictions) {
  std::vector<double> f(static_cast<std::size_t>(pattern.size()));
  fill_filter_probabilities(pattern, schedule, restrictions, f.data());
  return f;
}

CostBreakdown predict_cost(const Pattern& pattern, const Schedule& schedule,
                           const RestrictionSet& restrictions,
                           const GraphStats& stats,
                           const PerfModelOptions& options) {
  const auto n = static_cast<std::size_t>(pattern.size());
  CostBreakdown out;
  out.loop_size.resize(n);
  out.intersection_cost.resize(n);
  out.filter_probability.resize(n);
  out.total = fill_cost(pattern, schedule, restrictions, stats, options,
                        out.loop_size.data(), out.intersection_cost.data(),
                        out.filter_probability.data());
  return out;
}

double predict_total_cost(const Pattern& pattern, const Schedule& schedule,
                          const RestrictionSet& restrictions,
                          const GraphStats& stats,
                          const PerfModelOptions& options) {
  double loop_size[Pattern::kMaxVertices];
  double intersection_cost[Pattern::kMaxVertices];
  double filter_probability[Pattern::kMaxVertices];
  return fill_cost(pattern, schedule, restrictions, stats, options, loop_size,
                   intersection_cost, filter_probability);
}

}  // namespace graphpi
