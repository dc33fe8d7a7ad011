// GraphPi public facade.
//
// The paper's user-facing contract (Section III): "Users only need to
// input a pattern and a data graph in the form of adjacency lists to run
// GraphPi." This header is that entry point — it wires together
// configuration generation (Algorithm 1 + the 2-phase schedule generator),
// performance prediction, and the execution engines.
//
//   #include "api/graphpi.h"
//   graphpi::Graph g = graphpi::load_edge_list("graph.txt");
//   graphpi::Pattern house = graphpi::patterns::house();
//   graphpi::Count n = graphpi::GraphPi(g).count(house);
//
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/configuration.h"
#include "core/pattern.h"
#include "core/pattern_library.h"
#include "core/plan.h"
#include "core/plan_forest.h"
#include "dist/comm.h"
#include "dist/runtime.h"
#include "engine/forest.h"
#include "engine/matcher.h"
#include "engine/parallel.h"
#include "graph/builder.h"
#include "graph/datasets.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/io.h"
#include "graph/vertex_set.h"
#include "io/shard_snapshot.h"
#include "io/snapshot.h"
#include "support/exec_control.h"
#include "support/metrics.h"
#include "support/trace.h"

namespace graphpi {

/// Execution backend selection.
enum class Backend {
  kSerial,       ///< single-thread plan-forest walk (engine/forest.h)
  kParallel,     ///< OpenMP engine (Section IV-E, intra-node)
  kDistributed,  ///< simulated multi-node cluster (Section IV-E)
  /// Generated C++ kernel: the plan IR is emitted, compiled by the system
  /// compiler, dlopened and executed (engine/jit.h). Kernels are built
  /// with OpenMP when available and partition the root-vertex loop over
  /// `MatchOptions::threads` workers. Falls back to the serial forest
  /// walk transparently when no compiler is available; listing always
  /// uses the Matcher.
  kGenerated,
};

struct MatchOptions {
  /// Count with the Inclusion–Exclusion Principle when a valid plan
  /// exists (Section IV-D). Ignored for listing.
  bool use_iep = true;
  Backend backend = Backend::kSerial;
  /// Worker threads for the parallel and generated backends (0 = OpenMP
  /// runtime default). Both split the work by root vertex.
  int threads = 0;
  /// Distributed backend only: logical nodes (dist::ClusterOptions).
  int nodes = 2;
  /// How the distributed backend partitions the data graph into per-node
  /// CSR shards (dist/shard.h).
  dist::PartitionStrategy partition = dist::PartitionStrategy::kHash;
  /// How the distributed backend drives its logical nodes
  /// (dist/runtime.h): kLockstep is the deterministic single-threaded
  /// round-robin reference; kAsync runs one worker pool per node with
  /// bounded mailboxes and coalesced continuation flushes. Counts are
  /// bit-identical either way.
  dist::ExecMode dist_exec = dist::ExecMode::kLockstep;
  /// Async distributed mode only: worker threads per logical node (>= 1).
  int dist_workers = 1;
  /// Async distributed mode only: mailbox frames before senders stall
  /// (0 = unbounded; see dist::ClusterOptions::mailbox_capacity).
  int dist_mailbox_capacity = 1024;
  /// Observability out-param: when non-null, the distributed backend
  /// writes the statistics of the call here — messages, serialized
  /// bytes, shipped candidate vertices, per-node load, and the shard
  /// shape. Each public call overwrites (a batch spanning several 64-plan
  /// forest chunks reports its chunks' aggregate). Ignored by the serial
  /// and parallel backends.
  dist::ClusterStats* cluster_stats = nullptr;
  /// Cap on Algorithm 1's restriction-set generation.
  std::size_t max_restriction_sets = 64;

  // --- Bounded execution (support/exec_control.h). All four backends
  // poll cooperatively at root-vertex granularity; a stopped run returns
  // best-effort partial counts and the RunReport out-param of the
  // counting calls carries status + completed-root tally.

  /// Wall-clock deadline for one counting call, in milliseconds measured
  /// from the start of execution (planning is not included). 0 = none.
  double timeout_ms = 0.0;
  /// Caller-owned cooperative cancel flag; set it (from any thread) to
  /// stop an in-flight counting call at the next poll. Null = none. The
  /// flag must outlive the call.
  const std::atomic<bool>* cancel = nullptr;
  /// Stop after ~this many completed root vertices. 0 = unlimited.
  /// Enforced at poll boundaries.
  std::uint64_t work_budget = 0;
  /// Root units between deadline/cancel/budget polls (rounded up to a
  /// power of two; 0 = default 64). Smaller strides tighten stop latency
  /// at the cost of more clock reads on the hot path.
  std::uint32_t poll_stride = 0;

  /// Observability: when non-null, trace spans emitted during this call
  /// (per-backend run phases, JIT compiles, shard partitioning, ...) are
  /// recorded into this caller-owned ring buffer (support/trace.h) for
  /// the duration of the call; export with TraceBuffer::to_chrome_json().
  /// Spans are run/phase granular — never per-root — so the overhead is
  /// negligible. Null leaves the process-wide sink (if any) in place.
  /// Requires metrics to be enabled (default; see support/metrics.h).
  support::trace::TraceBuffer* trace_sink = nullptr;

  /// Deterministic fault injection for the distributed backend's
  /// message channel (dist/comm.h): seeded per-kind drop / duplicate /
  /// reorder / corrupt probabilities. The reliability layer (CRC frames,
  /// retransmit, dedup) masks the injected faults, so counts stay
  /// bit-identical; the injected/recovered event tallies surface through
  /// `cluster_stats`. Inactive (all-zero rates) by default; ignored by
  /// the other backends.
  dist::FaultPlan faults{};
};

/// High-level handle binding a data graph; plans and runs pattern jobs.
class GraphPi {
 public:
  explicit GraphPi(const Graph& graph);

  /// Plans the optimal configuration of `pattern` for this graph
  /// (Figure 3's preprocessing stage). Deterministic.
  [[nodiscard]] Configuration plan(const Pattern& pattern,
                                   const MatchOptions& options = {},
                                   PlanningStats* diag = nullptr) const;

  /// Counts embeddings of `pattern` (deduplicated, each subgraph once).
  ///
  /// When `report` is non-null it receives the run's outcome: kOk with
  /// the exact count, or — if `timeout_ms` / `cancel` / `work_budget`
  /// stopped the run early — the stop status plus the completed root
  /// tally, with the return value a best-effort partial count. With a
  /// null report a stopped run still returns the partial count; pass a
  /// report to distinguish it from an exact one.
  [[nodiscard]] Count count(const Pattern& pattern,
                            const MatchOptions& options = {},
                            support::RunReport* report = nullptr) const;

  /// Runs a previously planned configuration.
  [[nodiscard]] Count count(const Configuration& config,
                            const MatchOptions& options = {},
                            support::RunReport* report = nullptr) const;

  /// Counts every pattern of a batch in ONE traversal of the data graph:
  /// each pattern is planned independently, the plans are compiled into
  /// the executable IR (core/plan.h) and merged into a prefix-sharing
  /// trie (core/plan_forest.h), and shared loop prefixes — the outer
  /// vertex scan, common candidate intersections, common IEP suffix sets
  /// — are extended once for all patterns. Results are indexed like
  /// `patterns`; duplicates are allowed and each gets its own counter.
  /// Every backend runs batched: the distributed backend executes the
  /// forest as one sharded batch traversal (dist/runtime.h).
  ///
  /// Bounded execution spans the whole batch: one deadline covers every
  /// 64-plan chunk (a work budget applies per chunk), `report` (optional)
  /// aggregates across chunks (root tallies add, the first non-ok status
  /// wins), and once a chunk stops the remaining chunks are skipped
  /// (their counts return 0).
  [[nodiscard]] std::vector<Count> count_batch(
      std::span<const Pattern> patterns, const MatchOptions& options = {},
      support::RunReport* report = nullptr) const;

  /// Plans `patterns` and merges the compiled plans into a forest — the
  /// planning half of count_batch, exposed so callers can reuse a forest
  /// across runs or inspect its sharing stats.
  [[nodiscard]] PlanForest plan_batch(std::span<const Pattern> patterns,
                                      const MatchOptions& options = {}) const;

  /// Runs a previously built forest; results indexed like forest.plans().
  [[nodiscard]] std::vector<Count> count_batch(
      const PlanForest& forest, const MatchOptions& options = {},
      support::RunReport* report = nullptr) const;

  /// One entry of a motif census: a connected k-vertex pattern and its
  /// (deduplicated) embedding count.
  struct MotifCount {
    Pattern pattern;
    Count count = 0;
  };

  /// Counts every connected k-motif (3 <= k <= 5) with one batched
  /// traversal — the convenience wrapper the motif-census example and
  /// bench use. Order matches patterns::connected_motifs(k).
  [[nodiscard]] std::vector<MotifCount> motif_census(
      int k, const MatchOptions& options = {}) const;

  /// Lists all embeddings (never uses IEP). The callback receives the
  /// data-graph vertices indexed by pattern vertex.
  void find_all(const Pattern& pattern, const EmbeddingCallback& cb,
                const MatchOptions& options = {}) const;

  /// Collects embeddings into a vector (convenience; prefer the callback
  /// form for large result sets).
  [[nodiscard]] std::vector<std::vector<VertexId>> find_all(
      const Pattern& pattern, const MatchOptions& options = {}) const;

  [[nodiscard]] const Graph& graph() const noexcept { return *graph_; }
  [[nodiscard]] const GraphStats& stats() const noexcept { return stats_; }

  /// Snapshot of the process-wide metrics registry (support/metrics.h):
  /// every engine/JIT/distributed counter, gauge, and latency histogram
  /// accumulated since process start. Diff two snapshots to isolate one
  /// call: `auto before = GraphPi::metrics_snapshot(); ...;
  /// auto delta = GraphPi::metrics_snapshot().diff(before);`. Export with
  /// Snapshot::to_json() / to_prometheus().
  [[nodiscard]] static support::metrics::Snapshot metrics_snapshot();

 private:
  /// Runs one forest with an externally owned control so a chunked batch
  /// shares a single deadline/budget across its chunks.
  std::vector<Count> count_batch_impl(const PlanForest& forest,
                                      const MatchOptions& options,
                                      const support::ExecControl* control,
                                      support::RunReport* report) const;

  /// Runs a forest on the serial, parallel or generated backend — the
  /// one in-memory execution path of count and count_batch. `control`
  /// is null or armed; `report` is optional.
  std::vector<Count> run_forest(const PlanForest& forest,
                                const MatchOptions& options,
                                const support::ExecControl* control,
                                support::RunReport* report) const;

  const Graph* graph_;
  GraphStats stats_;
};

/// The one mapping from a call's options to its execution bounds: arms
/// the deadline (from now — callers build the control when execution
/// starts, after planning), the cancel flag, the root budget and the
/// poll stride.
[[nodiscard]] support::ExecControl make_control(const MatchOptions& options);

/// The distributed backend's cluster options for one call, bounded by
/// `control` (null = unbounded; not owned).
[[nodiscard]] dist::ClusterOptions cluster_options(
    const MatchOptions& options, const support::ExecControl* control);

/// Cross-checks a planned configuration on small deterministic graphs:
/// IEP count == plain count and restricted count * |Aut| == unrestricted
/// count. Returns true when all checks pass.
[[nodiscard]] bool empirically_validate(const Configuration& config);

}  // namespace graphpi
