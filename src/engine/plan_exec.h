// Shared plan-execution primitives.
//
// The building blocks every plan executor composes: hub-aware candidate
// construction, the counting-only leaf kernel, IEP suffix-set
// materialization, and IEP term evaluation. ForestExecutor (counting a
// prefix-sharing trie of one or many plans), the sharded distributed
// walk and the listing Matcher drive their loops through these
// functions, so the SIMD kernel selection and the hub-bitmap heuristics
// live in exactly one place.
//
// Conventions: `mapped` spans the data vertices assigned to schedule
// depths [0, depth); every predecessor/bound depth referenced by the
// callee indexes into it. All functions are thread-safe given distinct
// output buffers.
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "core/iep.h"
#include "graph/graph.h"
#include "graph/types.h"
#include "graph/vertex_set.h"

namespace graphpi::exec {

/// Restriction window [lo_inclusive, hi_exclusive) implied by a step's
/// bound depth lists under the current mapping.
struct Window {
  VertexId lo_inclusive = 0;
  VertexId hi_exclusive = kNoVertexBound;

  [[nodiscard]] bool empty() const noexcept {
    return lo_inclusive >= hi_exclusive;
  }
  [[nodiscard]] bool contains(VertexId v) const noexcept {
    return v >= lo_inclusive && v < hi_exclusive;
  }
  [[nodiscard]] bool unbounded() const noexcept {
    return lo_inclusive == 0 && hi_exclusive == kNoVertexBound;
  }
};

[[nodiscard]] inline Window restriction_window(
    const VertexId* mapped, std::span<const int> lower_bound_depths,
    std::span<const int> upper_bound_depths) {
  Window w;
  for (int d : lower_bound_depths)
    w.lo_inclusive = std::max(w.lo_inclusive, mapped[d] + 1);
  for (int d : upper_bound_depths)
    w.hi_exclusive = std::min(w.hi_exclusive, mapped[d]);
  return w;
}

/// restriction_window over any plan/forest element carrying bound-depth
/// lists (PlanStep, PlanForest::Branch/CountLeaf). The single place the
/// window-resolution convention lives — ForestExecutor, the sharded
/// distributed runtime and the Matcher all resolve through it.
template <typename Bounded>
[[nodiscard]] inline Window bounded_window(const VertexId* mapped,
                                           const Bounded& b) {
  return restriction_window(mapped, b.lower_bound_depths,
                            b.upper_bound_depths);
}

/// True iff v collides with an already-mapped vertex.
[[nodiscard]] inline bool already_used(std::span<const VertexId> mapped,
                                       VertexId v) {
  for (VertexId u : mapped)
    if (u == v) return true;
  return false;
}

/// Hub-aware intersection of two adjacency lists: when one endpoint has a
/// bitmap row, probe the other (smaller) adjacency against it in O(|adj|)
/// instead of merging.
void intersect_adjacencies(const Graph& g, VertexId u, VertexId v,
                           std::vector<VertexId>& out);

/// Hub-aware refinement step: out = set ∩ N(v).
void intersect_with_vertex(const Graph& g, std::span<const VertexId> set,
                           VertexId v, std::vector<VertexId>& out);

/// Builds the candidate set of a loop whose predecessors (depths into
/// `mapped`) are `preds`. Returns a view into `out` (>= 2 predecessors),
/// into the graph's adjacency storage (1 predecessor), or into `all`
/// (0 predecessors; lazily filled with the full vertex range).
[[nodiscard]] std::span<const VertexId> build_candidates(
    const Graph& g, std::span<const int> preds,
    std::span<const VertexId> mapped, std::vector<VertexId>& out,
    std::vector<VertexId>& tmp, std::vector<VertexId>& all);

/// |∩_p N(mapped[p]) ∩ [lo, hi)| with NO used-vertex corrections,
/// computed with size-only kernels — no candidate vector is materialized
/// for the final intersection step. Empty `preds` counts the id range
/// itself. This is the memoizable half of a counting leaf: its value
/// depends only on the mapped values the predecessors and bounds name.
[[nodiscard]] Count count_intersection_bounded(
    const Graph& g, std::span<const int> preds,
    std::span<const VertexId> mapped, VertexId lo_inclusive,
    VertexId hi_exclusive, std::vector<VertexId>& buf,
    std::vector<VertexId>& tmp);

/// Number of vertices of `mapped` inside the window that are adjacent to
/// every predecessor — the correction subtracted from
/// count_intersection_bounded to exclude already-used vertices.
[[nodiscard]] Count count_used_in_intersection(const Graph& g,
                                               std::span<const int> preds,
                                               std::span<const VertexId> mapped,
                                               VertexId lo_inclusive,
                                               VertexId hi_exclusive);

/// Materializes one IEP suffix candidate set: the intersection of the
/// predecessors' adjacencies minus the already-mapped vertices.
void build_suffix_set(const Graph& g, std::span<const int> preds,
                      std::span<const VertexId> mapped,
                      std::vector<VertexId>& set,
                      std::vector<VertexId>& scratch);

/// Evaluates the signed inclusion–exclusion term sum (Algorithm 2) over
/// materialized suffix sets. `set_ids[i]` names the entry of `sets`
/// holding S_i — executors that share sets across plans pass their
/// dedup mapping; a single-plan executor passes the identity. Returns the
/// *undivided* sum (callers divide the aggregate by the plan's divisor).
[[nodiscard]] Count evaluate_iep_terms(
    std::span<const IepPlan::Term> terms,
    const std::vector<std::vector<VertexId>>& sets,
    std::span<const int> set_ids, std::vector<VertexId>& scratch_a,
    std::vector<VertexId>& scratch_b);

}  // namespace graphpi::exec
