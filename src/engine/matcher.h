// The nested-loop pattern-matching executor.
//
// Compiles its Configuration (schedule + restriction set + optional IEP
// plan) into a core::Plan at construction and executes that IR against a
// CSR data graph — the same one-plan specialization of the loop structure
// the batch ForestExecutor (engine/forest.h) runs for many plans at once,
// built from the shared primitives in engine/plan_exec.h. The executed
// loops are exactly what GraphPi's code generator would emit
// (Figure 5(b)/6(b)):
//
//   * loop depth i searches the pattern vertex schedule[i];
//   * its candidate set is the intersection of the neighborhoods of the
//     already-mapped pattern neighbors (sorted, so intersections are
//     O(n + m) merges — vectorized, see graph/vertex_set.h);
//   * a restriction id(u) > id(v) is enforced in the loop of the
//     later-scheduled endpoint as a range bound on the sorted candidates
//     (an upper bound prunes with an early break, exactly like the
//     generated code's `if (id(vA) <= id(vB)) break;`);
//   * the innermost counting loop and single-block IEP terms never
//     materialize their candidate sets — the intersection size inside the
//     restriction window is computed directly by the size-only kernels;
//   * with an IEP plan, the innermost k loops are replaced by the
//     inclusion–exclusion evaluation of Section IV-D and the total is
//     divided by the surviving-automorphism factor x.
//
// The matcher is immutable after construction and safe to share across
// threads: all mutable state lives in a Workspace. Every traversal entry
// point has an overload taking an externally owned Workspace& so callers
// that issue millions of calls (the parallel and distributed runtimes)
// allocate the buffers once per worker and reuse them; the plain
// overloads construct a throwaway workspace and are convenience wrappers.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "core/configuration.h"
#include "core/plan.h"
#include "graph/graph.h"
#include "graph/types.h"
#include "support/exec_control.h"

namespace graphpi {

/// Receives one embedding as data-graph vertices indexed by *pattern
/// vertex* (not schedule position).
using EmbeddingCallback =
    std::function<void(std::span<const VertexId> embedding)>;

class Matcher {
 public:
  /// Mutable traversal state: the partial embedding plus reusable buffers.
  /// Construct once per worker thread and pass to every call — steady-state
  /// traversals then perform no heap allocation. A workspace may be reused
  /// across matchers; prefix reuse state is invalidated automatically when
  /// it is handed to a different matcher.
  struct Workspace {
    Workspace();

    VertexId mapped[Pattern::kMaxVertices] = {};
    // Double-buffered candidate storage per depth (intersection chains).
    std::vector<VertexId> buf_a[Pattern::kMaxVertices];
    std::vector<VertexId> buf_b[Pattern::kMaxVertices];
    // IEP: suffix candidate sets and block-intersection scratch.
    std::vector<std::vector<VertexId>> suffix_sets;
    std::vector<VertexId> scratch_a;
    std::vector<VertexId> scratch_b;
    std::vector<VertexId> all_vertices;  // lazy iota for 0-pred depths
    // Prefix-reuse state: mapped[0 .. applied_depth) is a validated prefix
    // for the matcher with id `bound_matcher`; apply_prefix skips
    // re-validating (and re-running the candidate intersections of) the
    // longest shared prefix. Ids are process-unique per Matcher lifetime
    // (a raw pointer would false-match a new matcher constructed at a
    // destroyed one's address). 0 = bound to nothing.
    std::uint64_t bound_matcher = 0;
    int applied_depth = 0;
    // Run-local observability tally (flushed as a delta into the
    // metrics registry; see flush_metrics).
    std::uint64_t iep_terms = 0;
    std::uint64_t iep_terms_flushed = 0;
  };

  /// Total Workspace constructions process-wide — observability hook used
  /// by tests to assert the parallel runtime reuses per-thread workspaces
  /// instead of constructing one per task.
  [[nodiscard]] static std::uint64_t workspace_constructions() noexcept;

  /// `config.schedule` must cover `config.pattern`; the graph must satisfy
  /// the CSR invariants (see Graph). Builds the graph's hub bitmap index
  /// (with the automatic threshold) if not already built.
  Matcher(const Graph& graph, Configuration config);

  /// Counts embeddings. Uses the configuration's IEP plan when present,
  /// otherwise plain enumeration. Single-threaded (see count_parallel).
  [[nodiscard]] Count count() const;
  [[nodiscard]] Count count(Workspace& ws) const;

  /// Bounded counting: runs the depth-0 root loop explicitly and polls an
  /// armed `control` stride-gated after each root vertex. On a stop the
  /// remaining roots are skipped and the accumulated sum is finalized
  /// without the IEP divisibility check (best-effort partial count).
  /// `report` (optional) receives the stop status and completed-root
  /// tally. With a null/unarmed control and a null report this is exactly
  /// count(ws).
  [[nodiscard]] Count count(Workspace& ws,
                            const support::ExecControl* control,
                            support::RunReport* report) const;

  /// Counts by full enumeration, ignoring any IEP plan (the "without IEP"
  /// arm of Figure 10).
  [[nodiscard]] Count count_plain() const;
  [[nodiscard]] Count count_plain(Workspace& ws) const;

  /// Enumerates all embeddings, invoking `cb` once per embedding. IEP is
  /// never used when listing.
  void enumerate(const EmbeddingCallback& cb) const;
  void enumerate(Workspace& ws, const EmbeddingCallback& cb) const;

  /// Counts all completions of a partial embedding that maps the first
  /// `prefix.size()` schedule positions to the given data vertices. The
  /// prefix is validated (edges + restrictions); an invalid prefix yields
  /// 0. This is the worker-side entry point of the distributed runtime.
  ///
  /// Consecutive calls on the same workspace skip re-validating the
  /// longest prefix shared with the previous call, so feeding tasks in
  /// lexicographic order makes the shared apply_prefix intersections free.
  ///
  /// IMPORTANT: when an IEP plan is active the returned value is the
  /// *undivided* inclusion–exclusion sum for this prefix — per-prefix sums
  /// are not individually divisible by x. Aggregate all task results and
  /// pass the total through finalize_partial_counts().
  [[nodiscard]] Count count_from_prefix(std::span<const VertexId> prefix) const;
  [[nodiscard]] Count count_from_prefix(Workspace& ws,
                                        std::span<const VertexId> prefix) const;

  /// Converts an aggregated sum of count_from_prefix results into the
  /// final embedding count (divides by the IEP factor x; identity when
  /// IEP is inactive). Checks divisibility.
  [[nodiscard]] Count finalize_partial_counts(Count aggregated) const;

  /// Enumerates all embeddings extending the given schedule-position
  /// prefix (validated like count_from_prefix; invalid prefixes produce no
  /// callbacks). IEP must be inactive.
  void enumerate_from_prefix(std::span<const VertexId> prefix,
                             const EmbeddingCallback& cb) const;
  void enumerate_from_prefix(Workspace& ws, std::span<const VertexId> prefix,
                             const EmbeddingCallback& cb) const;

  /// Enumerates all *valid* partial embeddings of the first `depth`
  /// schedule positions — the master-side task generator of the
  /// distributed runtime (Section IV-E: "the master thread executes the
  /// outer loops and packs the values of the outer loops into a task").
  /// Prefixes are produced in lexicographic order.
  void enumerate_prefixes(
      int depth,
      const std::function<void(std::span<const VertexId>)>& cb) const;
  void enumerate_prefixes(
      Workspace& ws, int depth,
      const std::function<void(std::span<const VertexId>)>& cb) const;

  /// Publishes the workspace's observability tallies (IEP terms
  /// evaluated) plus `roots` completed root vertices into the process
  /// metrics registry (engine.matcher.roots_completed,
  /// engine.iep.terms_evaluated). The counting entry points call this
  /// once per run; the parallel runtime calls it once per worker after
  /// a count_from_prefix task loop.
  void flush_metrics(Workspace& ws, std::uint64_t roots) const;

  [[nodiscard]] const Configuration& configuration() const noexcept {
    return config_;
  }
  /// The compiled IR this matcher executes.
  [[nodiscard]] const Plan& plan() const noexcept { return plan_; }
  [[nodiscard]] const Graph& graph() const noexcept { return *graph_; }

 private:
  /// Builds the candidate span for `depth` given the current mapping.
  [[nodiscard]] std::span<const VertexId> build_candidates(Workspace& ws,
                                                           int depth) const;

  /// Applies restriction bounds for `depth`, returning the [first, last)
  /// subrange of `cands` to iterate.
  [[nodiscard]] std::span<const VertexId> bounded_range(
      const Workspace& ws, int depth, std::span<const VertexId> cands) const;

  /// Counting-only innermost loop: |candidates(depth) ∩ window| minus the
  /// already-used vertices, computed with size-only kernels — no candidate
  /// vector is materialized for the final intersection step.
  [[nodiscard]] Count count_leaf(Workspace& ws, int depth) const;

  /// Recursive enumeration core; `depth` is the next schedule position to
  /// fill. Counts leaves; when `cb` is non-null also reports embeddings.
  Count recurse(Workspace& ws, int depth, const EmbeddingCallback* cb) const;

  /// Recursive core for IEP counting over the outer loops; returns the
  /// *undivided* inclusion–exclusion sum.
  [[nodiscard]] Count recurse_iep(Workspace& ws, int depth) const;

  /// Evaluates the IEP plan at a leaf of the outer loops.
  [[nodiscard]] Count evaluate_iep_leaf(Workspace& ws) const;

  /// Prepares a workspace with `prefix` applied; returns false when the
  /// prefix violates edges, distinctness or restriction bounds. Reuses the
  /// longest already-applied shared prefix (see Workspace).
  [[nodiscard]] bool apply_prefix(Workspace& ws,
                                  std::span<const VertexId> prefix) const;

  /// Marks the workspace as holding no reusable prefix for this matcher
  /// (full-traversal entry points overwrite mapped[0]).
  void invalidate_prefix(Workspace& ws) const {
    ws.bound_matcher = id_;
    ws.applied_depth = 0;
  }

  const Graph* graph_;
  Configuration config_;
  Plan plan_;                       ///< compiled IR (see core/plan.h)
  std::uint64_t id_;                ///< process-unique (see Workspace)
  int n_ = 0;                       ///< pattern size
  int outer_depth_ = 0;             ///< n - iep.k when IEP active, else n
  bool iep_active_ = false;
  std::vector<int> identity_set_ids_;  ///< 0..k-1 (unshared suffix sets)
};

/// Convenience one-shot helpers.
[[nodiscard]] Count count_embeddings(const Graph& graph,
                                     const Configuration& config);
[[nodiscard]] Count count_embeddings(const Graph& graph,
                                     const Pattern& pattern,
                                     bool use_iep = false);

}  // namespace graphpi
