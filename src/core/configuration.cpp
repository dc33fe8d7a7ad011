#include "core/configuration.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <sstream>
#include <unordered_map>

#include "core/automorphism.h"
#include "support/check.h"
#include "support/metrics.h"
#include "support/timer.h"
#include "support/trace.h"

namespace graphpi {

std::string Configuration::to_string() const {
  std::ostringstream oss;
  oss << "schedule " << schedule.to_string() << " restrictions "
      << graphpi::to_string(restrictions);
  if (iep.k > 0) oss << " " << iep.to_string();
  return oss.str();
}

Configuration best_configuration_for_schedule(
    const Pattern& pattern, const Schedule& schedule,
    const std::vector<RestrictionSet>& restriction_sets,
    const GraphStats& stats, const PlannerOptions& options) {
  GRAPHPI_CHECK_MSG(!restriction_sets.empty(),
                    "at least one restriction set is required");
  Configuration best;
  best.pattern = pattern;
  best.schedule = schedule;
  best.predicted_cost = std::numeric_limits<double>::infinity();
  for (const auto& rs : restriction_sets) {
    const double cost =
        predict_total_cost(pattern, schedule, rs, stats, options.model);
    if (cost < best.predicted_cost) {
      best.predicted_cost = cost;
      best.restrictions = rs;
    }
  }
  if (options.use_iep) attach_iep_plan(best);
  return best;
}

namespace {

/// Bit g*8+s is set iff id(g) > id(s) is in the set: a canonical encoding
/// of a restriction set over <= 8 vertices (equal sets, equal masks).
using RestrictionMask = std::uint64_t;
static_assert(Pattern::kMaxVertices <= 8, "restriction masks use 64 bits");

RestrictionMask restriction_bit(const Restriction& r) {
  return RestrictionMask{1} << (r.greater * 8 + r.smaller);
}

/// IEP admissibility of every outer restriction set met in one planning
/// run. validate_iep_plan and build_iep_plan's divisor depend on a
/// combination only through its outer set, which many (schedule,
/// restriction set, k) triples share, so each set is decided once. The
/// memo stores the verdict and the divisor, never a whole plan: the k and
/// the terms belong to the combination being tried (two k can leave the
/// same outer set).
class IepMemo {
 public:
  IepMemo(const Pattern& pattern, const std::vector<Permutation>& aut)
      : pattern_(pattern), aut_(aut) {}

  /// Divisor of the plan for suffix length k of (schedule, restrictions),
  /// or 0 when that plan is not valid.
  std::uint64_t divisor(const Schedule& schedule,
                        const RestrictionSet& restrictions, int k) {
    const int n = pattern_.size();
    RestrictionMask outer = 0;
    for (const auto& r : restrictions)
      if (std::max(schedule.depth_of(r.greater),
                   schedule.depth_of(r.smaller)) < n - k)
        outer |= restriction_bit(r);
    const auto [it, inserted] = verdicts_.try_emplace(outer, 0);
    if (inserted) {
      const IepPlan plan =
          build_iep_plan(pattern_, schedule, restrictions, k, aut_);
      if (validate_iep_plan(pattern_, plan, aut_)) it->second = plan.divisor;
    }
    return it->second;
  }

  /// Distinct outer sets decided so far.
  std::size_t validations() const { return verdicts_.size(); }

 private:
  const Pattern& pattern_;
  const std::vector<Permutation>& aut_;
  std::unordered_map<RestrictionMask, std::uint64_t> verdicts_;
};

/// IEP suffix lengths attach_iep_plan tries for `schedule`, largest
/// first: k = n would leave no outer loop; the suffix of a connected
/// pattern of n >= 2 vertices is at most n-1 anyway, but clamp
/// defensively.
int max_iep_suffix(const Pattern& pattern, const Schedule& schedule) {
  return std::min(schedule.independent_suffix_length(pattern),
                  pattern.size() - 1);
}

/// A scored combination, by index into the planner's candidate lists.
struct Pick {
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::size_t schedule = kNone;
  std::size_t restrictions = 0;
  double cost = std::numeric_limits<double>::infinity();
  int k = 0;  ///< IEP suffix length; 0 = no IEP plan
};

}  // namespace

Configuration plan_configuration(const Pattern& pattern,
                                 const GraphStats& stats,
                                 const PlannerOptions& options,
                                 PlanningStats* diag) {
  const support::trace::Span span("plan");
  support::Timer timer;

  const auto schedules = generate_schedules(pattern);
  const std::vector<Permutation> aut = automorphisms(pattern);
  const auto restriction_sets = generate_restriction_sets_for_group(
      pattern.size(), aut,
      RestrictionGenOptions{options.max_restriction_sets});
  const bool use_iep = options.use_iep && pattern.size() > 1;
  IepMemo iep_memo(pattern, aut);

  // Score every (schedule, restriction set) combination. When IEP is
  // requested we additionally require the combination to admit a valid
  // IEP plan — not every restriction set does (dropping its suffix
  // restrictions can leave a non-constant overcount; see iep.h). IEP
  // candidates are ranked by cost * divisor: dropping the suffix
  // restrictions makes the outer loops enumerate every embedding
  // `divisor` times, so a cheap-looking schedule with a large surviving-
  // automorphism factor is really divisor-times the work (cycle(6)'s
  // order-uniform plans are k=1 with divisors up to 6 — the weighting
  // steers selection to the divisor-1 combos, which run at restricted-
  // enumeration speed). Falls back to plain enumeration only if no
  // combination qualifies. Winners are tracked by index, so scoring a
  // combination touches no heap.
  Pick best;
  Pick best_iep;
  double best_iep_score = std::numeric_limits<double>::infinity();
  std::size_t evaluated = 0;
  for (std::size_t si = 0; si < schedules.efficient.size(); ++si) {
    const Schedule& sched = schedules.efficient[si];
    const int max_k = use_iep ? max_iep_suffix(pattern, sched) : 0;
    for (std::size_t ri = 0; ri < restriction_sets.size(); ++ri) {
      const RestrictionSet& rs = restriction_sets[ri];
      ++evaluated;
      const double cost =
          predict_total_cost(pattern, sched, rs, stats, options.model);
      if (cost < best.cost) best = {si, ri, cost, 0};
      // divisor >= 1, so a combination whose raw cost already exceeds
      // the best weighted score cannot improve — skip the admissibility
      // lookup. As in attach_iep_plan, the largest valid k wins.
      if (use_iep && cost < best_iep_score) {
        for (int k = max_k; k >= 1; --k) {
          const std::uint64_t divisor = iep_memo.divisor(sched, rs, k);
          if (divisor == 0) continue;
          const double score = cost * static_cast<double>(divisor);
          if (score < best_iep_score) {
            best_iep_score = score;
            best_iep = {si, ri, cost, k};
          }
          break;
        }
      }
    }
  }
  GRAPHPI_CHECK_MSG(best.schedule != Pick::kNone,
                    "planning must select a schedule");
  const Pick& pick = best_iep.k > 0 ? best_iep : best;
  Configuration config;
  config.pattern = pattern;
  config.schedule = schedules.efficient[pick.schedule];
  config.restrictions = restriction_sets[pick.restrictions];
  config.predicted_cost = pick.cost;
  if (pick.k > 0)
    config.iep = build_iep_plan(pattern, config.schedule, config.restrictions,
                                pick.k, aut);

  if (diag != nullptr) {
    std::size_t factorial = 1;
    for (int i = 2; i <= pattern.size(); ++i)
      factorial *= static_cast<std::size_t>(i);
    diag->schedules_total = factorial;
    diag->schedules_phase1 = schedules.phase1.size();
    diag->schedules_efficient = schedules.efficient.size();
    diag->restriction_sets = restriction_sets.size();
    diag->configurations_evaluated = evaluated;
    diag->iep_validations = iep_memo.validations();
    diag->planning_seconds = timer.elapsed_seconds();
  }
  if (support::metrics::enabled())
    support::metrics::metric_histogram("core.plan_ms")
        .observe(timer.elapsed_millis());
  return config;
}

void attach_iep_plan(Configuration& config) {
  const int n = config.pattern.size();
  if (n <= 1) return;
  const std::vector<Permutation> aut = automorphisms(config.pattern);
  for (int k = max_iep_suffix(config.pattern, config.schedule); k >= 1; --k) {
    IepPlan plan = build_iep_plan(config.pattern, config.schedule,
                                  config.restrictions, k, aut);
    if (validate_iep_plan(config.pattern, plan, aut)) {
      config.iep = std::move(plan);
      return;
    }
  }
  config.iep = IepPlan{};  // IEP not applicable; engine falls back
}

}  // namespace graphpi
