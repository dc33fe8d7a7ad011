// Batch executor for prefix-sharing plan forests.
//
// Runs a core::PlanForest against a CSR data graph in a single traversal:
// every trie edge (one distinct loop shape) is executed once per partial
// embedding, so work that per-pattern runs repeat — the outer vertex
// scan, shared candidate intersections, shared IEP suffix sets — is done
// once and feeds every plan's counter. Per-plan restriction windows
// narrow an active-plan bitmask as the traversal descends (see the
// Branch model in core/plan_forest.h); terminal counting and IEP term
// evaluation fire only for plans whose bit survived the path.
//
// This is the one in-memory counting walker: a single pattern counts as
// a one-plan forest (count_embeddings below, and every in-memory backend
// of GraphPi::count). The executor is immutable after construction and
// safe to share across threads; all mutable state lives in a Workspace.
// The parallel runtime (count_batch_parallel in engine/parallel.h)
// partitions work by root vertex via accumulate_root().
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "core/configuration.h"
#include "core/pattern.h"
#include "core/plan_forest.h"
#include "engine/plan_exec.h"
#include "graph/graph.h"
#include "graph/types.h"
#include "support/exec_control.h"

namespace graphpi {

/// Restriction windows of one trie extension resolved under a concrete
/// mapping and active-plan mask: the surviving branches' windows and
/// plan masks, plus their union window (the loop range). Shared by the
/// in-memory ForestExecutor and the sharded distributed executor so the
/// window/mask-narrowing semantics live in exactly one place.
struct ResolvedBranches {
  std::array<exec::Window, PlanForest::kMaxPlans> windows;
  std::array<PlanForest::PlanMask, PlanForest::kMaxPlans> masks;
  std::size_t live = 0;
  exec::Window union_window{kNoVertexBound, 0};

  /// Plans whose window admits v (narrowing step of the candidate loop).
  [[nodiscard]] PlanForest::PlanMask mask_at(VertexId v) const noexcept {
    PlanForest::PlanMask m = 0;
    for (std::size_t b = 0; b < live; ++b)
      if (windows[b].contains(v)) m |= masks[b];
    return m;
  }
};

/// Resolves `ext`'s branches against `mapped` under `active`; branches
/// that are masked out or whose window is empty do not survive.
[[nodiscard]] ResolvedBranches resolve_branches(
    const VertexId* mapped, const PlanForest::Extension& ext,
    PlanForest::PlanMask active);

class ForestExecutor {
 public:
  /// Mutable traversal state. Construct once per worker and reuse —
  /// steady-state traversals perform no heap allocation.
  struct Workspace {
    VertexId mapped[Pattern::kMaxVertices] = {};
    /// Per-depth candidate storage: cand[d] holds the current
    /// predecessor-group intersection for depth d, tmp[d] is the chain
    /// swap buffer. Leaves at depth d may also use both (leaves are
    /// evaluated before the extensions that would overwrite them).
    std::vector<VertexId> cand[Pattern::kMaxVertices];
    std::vector<VertexId> tmp[Pattern::kMaxVertices];
    /// Shared IEP suffix sets of the node being evaluated, indexed by the
    /// node's suffix_defs.
    std::vector<std::vector<VertexId>> suffix_sets;
    std::vector<VertexId> scratch_a;
    std::vector<VertexId> scratch_b;
    std::vector<VertexId> all_vertices;  // lazy iota for 0-pred loops
    /// One memo table per memoized leaf (PlanForest::Stats): a
    /// direct-mapped cache from the packed dependency key to the leaf's
    /// raw intersection size — one slot probe, overwrite on collision,
    /// allocated lazily on first probe. Memoization only pays when keys
    /// repeat (the skipped loop revisits dependency tuples — high
    /// common-neighbor multiplicity), so each table self-tunes: it tracks
    /// its hit rate and shuts itself off (freeing its storage) after a
    /// probe window below kMemoMinHitNum/Den. Correctness never depends
    /// on a hit.
    struct MemoTable {
      std::vector<std::uint64_t> keys;  ///< kEmptyKey marks a free slot
      std::vector<Count> values;
      std::uint64_t probes = 0;
      std::uint64_t hits = 0;
      std::uint64_t last_review_probes = 0;
      std::uint64_t last_review_hits = 0;
      bool disabled = false;
    };
    std::vector<MemoTable> memo;
    /// Executor the memo tables belong to (ids are process-unique per
    /// ForestExecutor lifetime, so a new executor constructed at a
    /// destroyed one's address never matches); reset() drops the tables
    /// when the workspace is handed to a different executor.
    std::uint64_t bound_executor = 0;
    /// IEP terms evaluated by this workspace (run-local tally; see
    /// flush_metrics()).
    std::uint64_t iep_terms = 0;
    /// Values already flushed into the metrics registry, so repeated
    /// flushes publish deltas (memo counters persist across runs).
    struct MetricsMark {
      std::uint64_t lookups = 0;
      std::uint64_t hits = 0;
      std::uint64_t shutoffs = 0;
      std::uint64_t iep_terms = 0;
    };
    MetricsMark metrics_mark;
    /// Per-plan accumulators; *undivided* inclusion–exclusion sums for
    /// IEP plans (see finalize()).
    std::vector<Count> sums;
  };

  /// Direct-mapped memo geometry: every table has 2^16 slots (1 MB),
  /// whatever the graph. The slot map is linear in the innermost mapped
  /// value, so a key that repeats inside one outer iteration comes back
  /// within a few slots; the size only has to hold the keys that repeat
  /// across outer iterations (the pentagon's (v2, v3) leaf key, about
  /// |N2(v0)| x deg(v0) of them per root, hits 30% at 2^12 slots and 87%
  /// at 2^16 with 4 workers on a 300-vertex wiki_vote stand-in).
  static constexpr std::size_t kMemoSlots = std::size_t{1} << 16;
  /// Minimum predecessor degree sum for a probe: below this the
  /// intersection is cheaper in cache than a (likely cold) table slot, so
  /// it is recomputed directly.
  static constexpr std::size_t kMemoMinWork = 32;
  static constexpr std::uint64_t kMemoEmptyKey = ~std::uint64_t{0};
  /// Hit-rate review cadence and the minimum keep-alive rate (2/3).
  static constexpr std::uint64_t kMemoProbeWindow = std::uint64_t{1} << 16;
  static constexpr std::uint64_t kMemoMinHitNum = 2;
  static constexpr std::uint64_t kMemoMinHitDen = 3;

  /// The forest must outlive the executor. Builds the graph's hub bitmap
  /// index when any plan wants it.
  ForestExecutor(const Graph& graph, const PlanForest& forest);

  /// One full traversal; returns the finalized per-plan counts, indexed
  /// like forest().plans(). An armed `control` turns this into
  /// count_roots() over every vertex; `report` (optional) receives the
  /// status and completed-root tally, |V| for a complete run.
  [[nodiscard]] std::vector<Count> count() const;
  [[nodiscard]] std::vector<Count> count(
      Workspace& ws, const support::ExecControl* control = nullptr,
      support::RunReport* report = nullptr) const;

  /// Traversal restricted to an explicit depth-0 vertex domain: counts
  /// only embeddings rooted at `roots` (duplicates count twice — pass a
  /// set). This is the shard-local entry point of the distributed
  /// runtime: a node that owns a subset of the vertex space runs the
  /// whole forest over exactly its owned roots. Equals count() when
  /// `roots` is the full vertex range.
  ///
  /// An armed `control` is polled stride-gated after each root; on a stop
  /// the remaining roots are skipped and the partial sums are finalized
  /// without the IEP divisibility check (best-effort counts). `report`
  /// receives the status and completed-root tally.
  [[nodiscard]] std::vector<Count> count_roots(
      Workspace& ws, std::span<const VertexId> roots,
      const support::ExecControl* control = nullptr,
      support::RunReport* report = nullptr) const;

  /// Zeroes ws.sums (sizing it to the plan count). Call once before a
  /// sequence of accumulate_root() calls.
  void reset(Workspace& ws) const;

  /// Runs the forest with the depth-0 loop pinned to `v0`, adding
  /// undivided per-plan sums into ws.sums — the work unit of the parallel
  /// batch runtime. A 1-vertex plan counts the root itself.
  void accumulate_root(Workspace& ws, VertexId v0) const;

  /// Converts aggregated undivided sums into final per-plan counts
  /// (divides IEP plans by their surviving-automorphism factor x).
  [[nodiscard]] std::vector<Count> finalize(std::span<const Count> sums) const;

  /// Best-effort finalization of a stopped run: partial IEP sums are
  /// generally not divisible by x, so this divides without the check.
  [[nodiscard]] std::vector<Count> finalize_partial(
      std::span<const Count> sums) const;

  [[nodiscard]] const PlanForest& forest() const noexcept { return *forest_; }
  [[nodiscard]] const Graph& graph() const noexcept { return *graph_; }

  /// Aggregate of the self-tuning memo counters across a workspace's
  /// tables (probes/hits accumulate across runs; shutoffs counts tables
  /// that reviewed themselves off).
  struct MemoStats {
    std::uint64_t lookups = 0;
    std::uint64_t hits = 0;
    std::uint64_t shutoffs = 0;
  };
  [[nodiscard]] static MemoStats memo_stats(const Workspace& ws) noexcept;

  /// Publishes this workspace's observability tallies — memo lookups /
  /// hits / window shutoffs, IEP terms evaluated, plus `roots` completed
  /// root units — into the process metrics registry
  /// (engine.memo.*, engine.iep.*, engine.forest.*) as deltas since the
  /// workspace's last flush. The counting entry points call this once
  /// per run; callers that drive accumulate_root() directly (the
  /// parallel and distributed runtimes) call it per worker.
  void flush_metrics(Workspace& ws, std::uint64_t roots) const;

 private:
  void exec_node(Workspace& ws, const PlanForest::Node& node,
                 PlanForest::PlanMask active) const;
  void eval_leaves(Workspace& ws, const PlanForest::Node& node,
                   PlanForest::PlanMask active) const;
  Count memoized_raw_count(Workspace& ws, int memo_id,
                           std::span<const int> key_depths,
                           std::span<const int> preds,
                           std::span<const VertexId> mapped, VertexId lo,
                           VertexId hi) const;

  const Graph* graph_;
  const PlanForest* forest_;
  std::uint64_t id_;  ///< process-unique (see Workspace::bound_executor)
};

/// Counts `config`'s embeddings serially: one traversal of the one-plan
/// forest PlanForest({compile_plan(config)}). Applies the configuration's
/// IEP plan when it has one; clear `config.iep` to count by plain
/// enumeration.
[[nodiscard]] Count count_embeddings(const Graph& graph,
                                     const Configuration& config);
/// Plans `pattern` for `graph` (with or without IEP) and counts it.
[[nodiscard]] Count count_embeddings(const Graph& graph,
                                     const Pattern& pattern,
                                     bool use_iep = false);

}  // namespace graphpi
