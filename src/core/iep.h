// Counting with the Inclusion–Exclusion Principle (Section IV-D).
//
// When the optimal schedule searches its last k vertices without any
// intersection operation (phase 2 guarantees those vertices are pairwise
// non-adjacent), enumeration of the innermost k loops can be replaced by a
// closed-form count: with S_1..S_k the candidate sets of the k suffix
// vertices,
//
//   |S_IEP| = |{(e_1..e_k) : e_i ∈ S_i, all distinct}|
//
// evaluated by inclusion–exclusion over the "e_i = e_j" collision events.
// Each intersection term factorizes over the connected components of the
// collision-pair graph (Algorithm 2).
//
// Restrictions checked in the innermost k loops are dropped under IEP,
// which overcounts by a constant factor x — the number of automorphic
// arrangements of one embedding compatible with the remaining outer
// restrictions. x is computed in closed form on the complete graph K_n
// (the same calibration the authors' artifact performs empirically); the
// engine divides the aggregated sum by x.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/pattern.h"
#include "core/permutation.h"
#include "core/restriction.h"
#include "core/schedule.h"

namespace graphpi {

/// A precompiled IEP evaluation plan for a (pattern, schedule,
/// restriction-set, k) combination. The plan is data-graph independent;
/// the engine instantiates it once per match.
struct IepPlan {
  /// Suffix length replaced by IEP counting (0 disables IEP).
  int k = 0;

  /// One additive term of the inclusion–exclusion sum: the signed
  /// coefficient times the product over `blocks` of |∩_{i∈B} S_i|.
  /// Block elements index the k suffix candidate sets (0-based).
  struct Term {
    std::int64_t coefficient = 0;
    std::vector<std::vector<int>> blocks;
  };
  std::vector<Term> terms;

  /// Overcount factor x = LE(n, outer_restrictions) * |Aut| / n!; zero
  /// marks an invalid plan (the factor did not divide evenly).
  std::uint64_t divisor = 1;

  /// Restrictions still checked by the outer n-k loops.
  RestrictionSet outer_restrictions;

  [[nodiscard]] std::string to_string() const;
};

/// The subset of `restrictions` whose check loop (depth of the
/// later-scheduled endpoint) lies in the outer n-k loops.
[[nodiscard]] RestrictionSet outer_restrictions(
    const Schedule& schedule, const RestrictionSet& restrictions, int k);

/// Builds the IEP plan for suffix length `k` of `schedule`.
/// Requirements (checked): 1 <= k <= independent_suffix_length(pattern).
///
/// When `aggregate_partitions` is true (default), the 2^(k(k-1)/2)
/// collision-pair subsets of the paper's formula are folded into one term
/// per set partition of {1..k} with the Möbius coefficient
/// ∏_B (-1)^(|B|-1) (|B|-1)!, which is algebraically identical but
/// evaluates Bell(k) instead of 2^(k(k-1)/2) terms. With the flag false
/// the plan contains one term per pair subset, exactly as Section IV-D
/// writes the sum (kept for the ablation bench and equivalence tests).
[[nodiscard]] IepPlan build_iep_plan(const Pattern& pattern,
                                     const Schedule& schedule,
                                     const RestrictionSet& restrictions,
                                     int k, bool aggregate_partitions = true);

/// Validates an IEP plan in two stages. (1) Closed form on the complete
/// graph K_n: every injective outer assignment is an embedding and all
/// suffix candidate sets equal the k unused vertices, so
///   ansIEP = (#outer arrangements compatible with outer restrictions) * k!
/// must equal divisor * n!/|Aut|. (2) Order uniformity: the K_n identity
/// only pins the overcount AVERAGED over all id orderings; the division
/// is sound only when every ordering is overcounted exactly `divisor`
/// times, so the per-rank-order automorphism-survivor count is checked to
/// be constant (this is what rejects the cycle(6) plans whose undivided
/// sums were not divisible by x=3 on real graphs). Returns true iff both
/// hold. Selection re-validates every IEP configuration before use.
[[nodiscard]] bool validate_iep_plan(const Pattern& pattern,
                                     const Schedule& schedule,
                                     const IepPlan& plan);

/// The two steps above with `aut` = automorphisms(pattern) supplied by the
/// caller, so a planner that scores thousands of combinations enumerates
/// Aut(P) once. The verdict of validate_iep_plan depends only on the
/// pattern, `plan.outer_restrictions` (as a set) and `plan.divisor`, and
/// build_iep_plan's divisor only on the outer set: the planner memoizes
/// both per outer restriction set.
[[nodiscard]] IepPlan build_iep_plan(const Pattern& pattern,
                                     const Schedule& schedule,
                                     const RestrictionSet& restrictions,
                                     int k,
                                     const std::vector<Permutation>& aut,
                                     bool aggregate_partitions = true);
[[nodiscard]] bool validate_iep_plan(const Pattern& pattern,
                                     const IepPlan& plan,
                                     const std::vector<Permutation>& aut);

}  // namespace graphpi
