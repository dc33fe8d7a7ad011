// Configuration = schedule + restriction set (+ optional IEP plan), and
// the selection pipeline of Figure 3: generate all efficient schedules and
// all restriction sets, predict the cost of every combination, pick the
// best one.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/iep.h"
#include "core/pattern.h"
#include "core/perf_model.h"
#include "core/restriction.h"
#include "core/schedule.h"

namespace graphpi {

/// Everything the execution engine needs to run one pattern matching job.
struct Configuration {
  Pattern pattern;
  Schedule schedule;
  RestrictionSet restrictions;
  /// IEP plan; iep.k == 0 means IEP disabled (required when listing
  /// embeddings rather than counting them).
  IepPlan iep;
  /// Relative cost predicted by the performance model (comparable only
  /// within one (pattern, graph) planning run).
  double predicted_cost = 0.0;

  [[nodiscard]] std::string to_string() const;
};

struct PlannerOptions {
  /// Attach an IEP plan to the selected configuration (counting only).
  bool use_iep = false;
  /// Cap on Algorithm 1's output (see RestrictionGenOptions).
  std::size_t max_restriction_sets = 64;
  PerfModelOptions model;
};

/// Diagnostics of one planning run (feeds Table III and Figure 9).
struct PlanningStats {
  std::size_t schedules_total = 0;      ///< n!
  std::size_t schedules_phase1 = 0;     ///< surviving phase 1
  std::size_t schedules_efficient = 0;  ///< surviving both phases
  std::size_t restriction_sets = 0;     ///< Algorithm 1 output size
  std::size_t configurations_evaluated = 0;
  /// Distinct outer restriction sets whose IEP admissibility was decided
  /// (0 without IEP): each is validated once per run, however many
  /// scored combinations share it.
  std::size_t iep_validations = 0;
  double planning_seconds = 0.0;
};

/// Full GraphPi planning pipeline: returns the predicted-optimal
/// configuration of `pattern` for a graph with statistics `stats`.
[[nodiscard]] Configuration plan_configuration(const Pattern& pattern,
                                               const GraphStats& stats,
                                               const PlannerOptions& options = {},
                                               PlanningStats* diag = nullptr);

/// Scores one specific schedule against every restriction set and returns
/// the best configuration for it (used by the restriction-set experiments
/// of Table II and the schedule sweeps of Figures 9/11).
[[nodiscard]] Configuration best_configuration_for_schedule(
    const Pattern& pattern, const Schedule& schedule,
    const std::vector<RestrictionSet>& restriction_sets,
    const GraphStats& stats, const PlannerOptions& options = {});

/// Attaches the largest valid IEP plan to `config` (k = the schedule's
/// independent suffix length, decremented until validate_iep_plan
/// accepts). No-op when the pattern has a single vertex.
void attach_iep_plan(Configuration& config);

}  // namespace graphpi
