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
// This is the one counting walker: a single pattern counts as a one-plan
// forest (count_embeddings below, and every interpreted backend of
// GraphPi::count), the parallel runtime (count_batch_parallel in
// engine/parallel.h) partitions work by root vertex via
// accumulate_root(), and the sharded distributed runtime (dist/runtime.h)
// runs one executor per shard. A shard executor is built over the shard's
// global-id view plus its resident set; a workspace whose `shipper` hook
// is set hands every step that needs a non-resident adjacency to the hook
// instead of intersecting, and the hook's completed chains come back
// through resume_extension(). A null hook is in-memory execution. The
// executor is immutable after construction and safe to share across
// threads; all mutable state lives in a Workspace.
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

class ForestExecutor {
 public:
  /// What a hand-off leaves unfinished at trie node `trie_node`.
  enum class Step : std::uint8_t {
    kExtension = 0,  ///< extension `item`'s candidate set and loop
    kCountLeaf = 1,  ///< count leaf `item`'s intersection
    kIepNode = 2,    ///< the node's IEP suffix sets and term evaluation
  };
  /// The walk state at a step that needs a non-resident adjacency.
  struct HandOff {
    std::uint32_t trie_node = 0;
    Step step = Step::kExtension;
    std::uint16_t item = 0;
    PlanForest::PlanMask mask = 0;     ///< active plans at the node
    std::span<const VertexId> mapped;  ///< schedule depths [0, node depth)
  };
  /// The shipping hook (see the file header). hand_off() takes over the
  /// step: it may finish it on the spot, through resume_extension() or by
  /// adding to the workspace's sums, or carry it elsewhere.
  class Shipper {
   public:
    virtual void hand_off(const HandOff& h) = 0;

   protected:
    ~Shipper() = default;
  };

  /// Residency map entry of a vertex whose adjacency the graph does not
  /// hold (see the sharded constructor).
  static constexpr std::uint32_t kNotResident = 0xffffffffu;

  /// Mutable traversal state. Construct once per worker and reuse —
  /// steady-state traversals perform no heap allocation.
  struct Workspace {
    /// Null: in-memory execution. Set: this worker's shipping hook, which
    /// receives every step that reads a non-resident adjacency. Requires
    /// an executor built with a residency map.
    Shipper* shipper = nullptr;
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
    /// probe window below kMemoMinHitNum/Den. The first window is the
    /// cold fill and is never judged. Correctness never depends on a hit.
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

  /// A shard executor: `graph` holds adjacency only for the vertices v
  /// with residency[v] != kNotResident (both must outlive the executor).
  /// Workspaces with a shipping hook hand the other steps off.
  ForestExecutor(const Graph& graph, const PlanForest& forest,
                 std::span<const std::uint32_t> residency);

  /// One full traversal; returns the finalized per-plan counts, indexed
  /// like forest().plans(). An armed `control` is polled stride-gated
  /// after each root; on a stop the remaining roots are skipped and the
  /// partial sums are finalized without the IEP divisibility check
  /// (best-effort counts). `report` (optional) receives the status and
  /// completed-root tally, |V| for a complete run.
  [[nodiscard]] std::vector<Count> count() const;
  [[nodiscard]] std::vector<Count> count(
      Workspace& ws, const support::ExecControl* control = nullptr,
      support::RunReport* report = nullptr) const;

  /// Zeroes ws.sums (sizing it to the plan count). Call once before a
  /// sequence of accumulate_root() calls.
  void reset(Workspace& ws) const;

  /// Runs the forest with the depth-0 loop pinned to `v0`, adding
  /// undivided per-plan sums into ws.sums — the work unit of the parallel
  /// batch runtime and of every distributed worker. A 1-vertex plan
  /// counts the root itself.
  void accumulate_root(Workspace& ws, VertexId v0) const;

  /// Restriction window of extension `item` of trie node `trie_node`
  /// under `mapped` and `mask`: the union of the surviving branches'
  /// windows, empty when none survives. A hand-off's chain clamps the
  /// candidate set it builds to this window.
  [[nodiscard]] exec::Window extension_window(const VertexId* mapped,
                                              std::uint32_t trie_node,
                                              std::uint16_t item,
                                              PlanForest::PlanMask mask) const;

  /// Resumes a handed-off extension: runs its candidate loop over
  /// `candidates` (sorted, already intersected) and the subtree below,
  /// exactly as the walk would have. ws.mapped must hold the hand-off's
  /// mapped prefix.
  void resume_extension(Workspace& ws, std::uint32_t trie_node,
                        std::uint16_t item, PlanForest::PlanMask mask,
                        std::span<const VertexId> candidates) const;

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
  /// An extension's restriction windows resolved under the current
  /// mapping and active mask (defined in forest.cpp).
  struct Branches;

  void exec_node(Workspace& ws, const PlanForest::Node& node,
                 PlanForest::PlanMask active) const;
  /// False when the node's IEP step was handed off, so its suffix sets
  /// were not built on this visit.
  bool eval_leaves(Workspace& ws, const PlanForest::Node& node,
                   PlanForest::PlanMask active) const;
  void run_loop(Workspace& ws, const PlanForest::Extension& ext,
                const Branches& rb, std::span<const VertexId> cands,
                int depth) const;
  [[nodiscard]] bool resident(std::span<const int> preds,
                              const VertexId* mapped) const noexcept {
    for (int p : preds)
      if (residency_[mapped[p]] == kNotResident) return false;
    return true;
  }
  void hand_off(Workspace& ws, const PlanForest::Node& node, Step step,
                std::size_t item, PlanForest::PlanMask active) const;
  Count memoized_raw_count(Workspace& ws, int memo_id,
                           std::span<const int> key_depths,
                           std::span<const int> preds,
                           std::span<const VertexId> mapped, VertexId lo,
                           VertexId hi) const;

  const Graph* graph_;
  const PlanForest* forest_;
  const std::uint32_t* residency_ = nullptr;  ///< null: everything resident
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
