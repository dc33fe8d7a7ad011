#include "core/restriction.h"

#include <algorithm>
#include <numeric>
#include <set>
#include <sstream>

#include "core/automorphism.h"
#include "support/check.h"

namespace graphpi {

std::string to_string(const RestrictionSet& rs) {
  std::ostringstream oss;
  oss << "{";
  for (std::size_t i = 0; i < rs.size(); ++i) {
    if (i) oss << ", ";
    oss << "id(" << int(rs[i].greater) << ")>id(" << int(rs[i].smaller) << ")";
  }
  oss << "}";
  return oss.str();
}

namespace {

/// Cycle detection on a directed graph over <= 8 nodes stored as adjacency
/// bitmasks. Iterative reachability closure: acyclic iff no node reaches
/// itself.
bool acyclic(const std::uint32_t adj[8], int n) {
  std::uint32_t reach[8];
  for (int i = 0; i < n; ++i) reach[i] = adj[i];
  // Floyd–Warshall style closure over bitmasks.
  for (int k = 0; k < n; ++k)
    for (int i = 0; i < n; ++i)
      if ((reach[i] >> k) & 1u) reach[i] |= reach[k];
  for (int i = 0; i < n; ++i)
    if ((reach[i] >> i) & 1u) return false;
  return true;
}

}  // namespace

bool no_conflict(const Permutation& perm, const RestrictionSet& rs) {
  const int n = perm.size();
  std::uint32_t adj[8] = {};
  for (const auto& r : rs) {
    adj[r.greater] |= 1u << r.smaller;
    adj[perm(r.greater)] |= 1u << perm(r.smaller);
  }
  return acyclic(adj, n);
}

std::size_t surviving_permutations(const std::vector<Permutation>& group,
                                   const RestrictionSet& rs) {
  std::size_t n = 0;
  for (const auto& p : group)
    if (no_conflict(p, rs)) ++n;
  return n;
}

std::uint64_t linear_extension_count(int n, const RestrictionSet& rs) {
  GRAPHPI_CHECK(n >= 1 && n <= Pattern::kMaxVertices);
  std::uint32_t must_precede[Pattern::kMaxVertices] = {};
  for (const auto& r : rs)
    must_precede[r.greater] |= 1u << r.smaller;
  return linear_extension_count_by_mask(n, must_precede);
}

std::uint64_t linear_extension_count_by_mask(
    int n, const std::uint32_t* must_precede) {
  GRAPHPI_CHECK(n >= 1 && n <= Pattern::kMaxVertices);
  // Bitmask DP assigning ranks from lowest to highest: dp[S] = number of
  // orderings of S as the |S| lowest ranks. Vertex v may receive the next
  // rank only if every u it must dominate (v > u) is already placed.
  // O(2^n * n) instead of the naive O(n! * |rs|); the table fits on the
  // stack because n <= Pattern::kMaxVertices.
  const std::uint32_t full = (1u << n) - 1;
  std::uint64_t dp[std::size_t{1} << Pattern::kMaxVertices];
  dp[0] = 1;
  for (std::uint32_t s = 1; s <= full; ++s) {
    std::uint64_t total = 0;
    for (int v = 0; v < n; ++v) {
      if (!((s >> v) & 1u)) continue;
      const std::uint32_t without = s & ~(1u << v);
      // v takes the highest rank within s: all of must_precede[v] must be
      // inside `without`.
      if ((must_precede[v] & ~without) == 0) total += dp[without];
    }
    dp[s] = total;
  }
  return dp[full];
}

bool validate_restriction_set(const Pattern& pattern,
                              const RestrictionSet& rs) {
  const int n = pattern.size();
  std::uint64_t factorial = 1;
  for (int i = 2; i <= n; ++i) factorial *= static_cast<std::uint64_t>(i);
  const std::uint64_t aut = automorphism_count(pattern);
  if (factorial % aut != 0) return false;  // cannot happen for a group
  return linear_extension_count(n, rs) == factorial / aut;
}

namespace {

/// Recursive worker for Algorithm 1. `group` is the set of automorphisms
/// not yet eliminated by `current`; branches on every 2-cycle of every
/// surviving non-identity permutation.
struct Generator {
  int n;
  std::uint64_t group_order;
  std::size_t max_sets;
  std::set<RestrictionSet> visited;   // partial sets already expanded
  std::set<RestrictionSet> results;   // valid complete sets (canonical)
  std::vector<RestrictionSet> ordered_results;  // discovery order

  void generate(const std::vector<Permutation>& group,
                const RestrictionSet& current) {
    if (ordered_results.size() >= max_sets) return;

    if (group.size() <= 1) {
      // Only the identity remains (the branch pruning below guarantees the
      // identity always survives). Validate per Algorithm 1: on K_n the
      // restricted count LE(n, rs) must equal n!/|group|.
      std::uint64_t factorial = 1;
      for (int i = 2; i <= n; ++i) factorial *= static_cast<std::uint64_t>(i);
      const bool valid =
          factorial % group_order == 0 &&
          linear_extension_count(n, current) == factorial / group_order;
      if (valid && results.insert(current).second) {
        ordered_results.push_back(current);
      }
      return;
    }

    bool branched = false;
    for (const auto& perm : group) {
      if (perm.is_identity()) continue;
      for (auto [a, b] : perm.two_cycles()) {
        branched = true;
        // Both orientations of the 2-cycle are candidate restrictions
        // (Algorithm 1 reaches both by iterating `vertex` over the cycle).
        for (const auto orientation :
             {Restriction{static_cast<PatternVertex>(a),
                          static_cast<PatternVertex>(b)},
              Restriction{static_cast<PatternVertex>(b),
                          static_cast<PatternVertex>(a)}}) {
          RestrictionSet next = current;
          if (std::find(next.begin(), next.end(), orientation) != next.end())
            continue;  // already present
          next.push_back(orientation);
          std::sort(next.begin(), next.end());
          if (!visited.insert(next).second) continue;  // subtree already done

          // Keep only the permutations that still survive. A consistent
          // set never eliminates the identity; if it would, the set is
          // self-contradictory and the branch dies here.
          std::vector<Permutation> remaining;
          remaining.reserve(group.size());
          bool identity_ok = false;
          for (const auto& p : group)
            if (no_conflict(p, next)) {
              remaining.push_back(p);
              if (p.is_identity()) identity_ok = true;
            }
          if (!identity_ok) continue;
          generate(remaining, next);
          if (ordered_results.size() >= max_sets) return;
        }
      }
    }

    if (!branched) {
      // Extension beyond the paper: every surviving non-identity
      // permutation decomposes into cycles of length >= 3 only (no
      // 2-cycles to branch on). The smallest such *undirected* pattern
      // needs 9 vertices, but directed/labeled groups hit this (e.g. the
      // Z3 rotation group of a directed triangle). Break the symmetry
      // with orbit-max restrictions: for a surviving k-cycle
      // (c_0 .. c_{k-1}), exactly one of its k rotations places the
      // maximum id at a chosen position m, so the bundle
      // {m > c : c in cycle, c != m} eliminates all rotations at once.
      for (const auto& perm : group) {
        if (perm.is_identity()) continue;
        for (const auto& cycle : perm.cycles()) {
          if (cycle.size() < 3) continue;
          for (int m : cycle) {
            RestrictionSet next = current;
            for (int c : cycle)
              if (c != m)
                next.push_back({static_cast<PatternVertex>(m),
                                static_cast<PatternVertex>(c)});
            std::sort(next.begin(), next.end());
            next.erase(std::unique(next.begin(), next.end()), next.end());
            if (!visited.insert(next).second) continue;

            std::vector<Permutation> remaining;
            bool identity_ok = false;
            for (const auto& p : group)
              if (no_conflict(p, next)) {
                remaining.push_back(p);
                if (p.is_identity()) identity_ok = true;
              }
            if (!identity_ok || remaining.size() >= group.size()) continue;
            generate(remaining, next);
            if (ordered_results.size() >= max_sets) return;
          }
        }
        break;  // one permutation's cycles give enough branches
      }
    }
  }
};

}  // namespace

std::vector<RestrictionSet> generate_restriction_sets_for_group(
    int n, const std::vector<Permutation>& group,
    const RestrictionGenOptions& options) {
  GRAPHPI_CHECK(n >= 1 && n <= Pattern::kMaxVertices);
  GRAPHPI_CHECK_MSG(!group.empty(), "group must contain the identity");

  if (group.size() == 1) {
    // Trivial group: the empty restriction set is the unique answer.
    return {RestrictionSet{}};
  }

  Generator gen{n, group.size(), options.max_sets, {}, {}, {}};
  gen.generate(group, {});
  // Note: graphs on <= 8 vertices cannot have an automorphism group whose
  // non-identity elements all lack 2-cycles (the smallest graph with a
  // fixed-point-free odd-order group, e.g. Z3, needs 9 vertices), so the
  // recursion always finds at least one valid set here.
  GRAPHPI_CHECK_MSG(!gen.ordered_results.empty(),
                    "Algorithm 1 must produce at least one valid set");
  return gen.ordered_results;
}

std::vector<RestrictionSet> generate_restriction_sets(
    const Pattern& pattern, const RestrictionGenOptions& options) {
  GRAPHPI_CHECK_MSG(pattern.size() >= 1, "empty pattern");
  return generate_restriction_sets_for_group(
      pattern.size(), automorphisms(pattern), options);
}

}  // namespace graphpi
