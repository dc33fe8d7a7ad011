// Asymmetric restrictions and the 2-cycle based automorphism elimination
// algorithm (Section IV-A, Algorithm 1).
//
// A restriction is a required ordering `id(greater) > id(smaller)` between
// the data-graph ids matched to two pattern vertices. A *set* of
// restrictions is correct when, of the |Aut| automorphic copies of every
// embedding, exactly one satisfies all restrictions — redundant computation
// is then eliminated completely.
//
// GraphPi's contribution over GraphZero is generating *multiple* correct
// sets (one per choice of 2-cycles during elimination), so the performance
// model can pick the cheapest one for a given schedule.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/pattern.h"
#include "core/permutation.h"

namespace graphpi {

/// One asymmetric restriction: id(greater) > id(smaller).
struct Restriction {
  PatternVertex greater;
  PatternVertex smaller;

  friend bool operator==(const Restriction&, const Restriction&) = default;
  friend auto operator<=>(const Restriction&, const Restriction&) = default;
};

/// A set of restrictions, kept sorted for canonical comparison.
using RestrictionSet = std::vector<Restriction>;

/// Renders e.g. "{id(0)>id(1), id(2)>id(3)}".
[[nodiscard]] std::string to_string(const RestrictionSet& rs);

/// The `no_conflict` check of Algorithm 1: returns true iff permutation
/// `perm` *survives* (is NOT eliminated by) the restriction set. The check
/// builds a directed graph with edges greater->smaller for every
/// restriction and its image under `perm`; the permutation survives iff
/// the graph is acyclic.
[[nodiscard]] bool no_conflict(const Permutation& perm,
                               const RestrictionSet& rs);

/// Number of permutations in `group` that survive `rs` (identity survives
/// any consistent set). Used for validation and for the IEP divisor x of
/// Section IV-D.
[[nodiscard]] std::size_t surviving_permutations(
    const std::vector<Permutation>& group, const RestrictionSet& rs);

/// Number of total orders of {0..n-1} compatible with `rs` viewed as a
/// partial order (linear extensions). On the complete graph K_n every
/// injective assignment is an embedding, so a correct restriction set has
/// exactly n!/|Aut| extensions — this is Algorithm 1's `validate`.
[[nodiscard]] std::uint64_t linear_extension_count(int n,
                                                   const RestrictionSet& rs);

/// The same count over a precedence table: `must_precede[v]` is the
/// bitmask of vertices that v must outrank (n entries). Allocation-free,
/// so the planner can call it for every scored configuration.
[[nodiscard]] std::uint64_t linear_extension_count_by_mask(
    int n, const std::uint32_t* must_precede);

/// Algorithm 1's validation: true iff matching the pattern on K_n with
/// `rs` yields n!/|Aut| embeddings.
[[nodiscard]] bool validate_restriction_set(const Pattern& pattern,
                                            const RestrictionSet& rs);

/// Options for restriction-set generation.
struct RestrictionGenOptions {
  /// Stop after this many distinct valid sets (the search space can hold
  /// thousands for 7-vertex patterns; the model only needs a diverse
  /// sample).
  std::size_t max_sets = 64;
};

/// Algorithm 1: generates multiple distinct restriction sets for
/// `pattern`, each of which eliminates all automorphisms. The first set
/// returned equals the deterministic single set a GraphZero-style
/// generator would produce (lexicographically first branch). Every
/// returned set passes validate_restriction_set.
[[nodiscard]] std::vector<RestrictionSet> generate_restriction_sets(
    const Pattern& pattern, const RestrictionGenOptions& options = {});

/// Algorithm 1 on an arbitrary permutation group over n elements (used by
/// the labeled extension, where only label-preserving automorphisms cause
/// redundancy). Each returned set eliminates every non-identity
/// permutation of `group` and passes the complete-graph validation
/// LE(n, rs) * |group| == n!. `group` must contain the identity.
[[nodiscard]] std::vector<RestrictionSet> generate_restriction_sets_for_group(
    int n, const std::vector<Permutation>& group,
    const RestrictionGenOptions& options = {});

}  // namespace graphpi
