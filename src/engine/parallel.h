// OpenMP parallel matching engine (the intra-node half of Section IV-E).
//
// Every entry point runs on one root-partitioned loop: a task is one
// depth-0 (root) vertex, and workers claim roots from a dynamic schedule
// in chunks of support::kRootChunk so that power-law degree skew cannot
// starve threads — the hubs of a degree-ordered graph hold the lowest
// ids, so the first few roots carry most of the work. Each worker owns
// one workspace for the whole run (steady state allocates nothing). The
// team is sized per call by a `num_threads` clause; the process's OpenMP
// default is never written. Generated kernels (codegen/codegen.h) emit
// the same schedule with the same chunk.
#pragma once

#include <cstdint>
#include <vector>

#include "core/configuration.h"
#include "core/plan_forest.h"
#include "engine/matcher.h"
#include "graph/graph.h"
#include "support/exec_control.h"

namespace graphpi {

struct ParallelOptions {
  /// OpenMP threads for this call's team; 0 = runtime default.
  int num_threads = 0;
};

/// Per-run load statistics (consumed by the scalability analysis).
struct ParallelRunStats {
  /// Root vertices in the run's domain (|V|).
  std::uint64_t tasks = 0;
  /// Roots each worker completed; sums to `tasks` unless a bounded run
  /// stopped early.
  std::vector<std::uint64_t> per_thread_tasks;
  std::vector<double> per_thread_seconds;
};

/// Counts embeddings of `config` on `graph` using OpenMP: the one-plan
/// forest PlanForest({compile_plan(config)}) through
/// count_batch_parallel. Exactly equal to count_embeddings() (asserted
/// by tests).
///
/// An armed `control` is polled per worker every poll-stride roots (a
/// shared completed-root counter is flushed at stride boundaries, so the
/// hot loop stays free of shared-cacheline traffic); on a stop workers
/// skip their remaining roots and the partial sum is finalized without
/// the IEP divisibility check. `report` receives the status and the
/// number of completed roots (|V| for a complete run).
[[nodiscard]] Count count_parallel(const Graph& graph,
                                   const Configuration& config,
                                   const ParallelOptions& options = {},
                                   ParallelRunStats* stats = nullptr,
                                   const support::ExecControl* control = nullptr,
                                   support::RunReport* report = nullptr);

/// Lists embeddings in parallel, root by root; each worker collects one
/// root's embeddings locally and emits them under a lock (listing
/// throughput is bounded by the consumer anyway; counting uses
/// count_parallel).
void enumerate_parallel(const Graph& graph, const Configuration& config,
                        const EmbeddingCallback& cb,
                        const ParallelOptions& options = {});

/// Counts every plan of a prefix-sharing forest in one parallel traversal
/// (engine/forest.h executes each worker's roots). Returns finalized
/// per-plan counts, indexed like forest.plans(); exactly equal to
/// counting each plan alone (asserted by tests). Bounded runs behave as
/// in count_parallel.
[[nodiscard]] std::vector<Count> count_batch_parallel(
    const Graph& graph, const PlanForest& forest,
    const ParallelOptions& options = {}, ParallelRunStats* stats = nullptr,
    const support::ExecControl* control = nullptr,
    support::RunReport* report = nullptr);

}  // namespace graphpi
