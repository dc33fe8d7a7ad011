#include "engine/parallel.h"

#include <omp.h>

#include <atomic>
#include <mutex>
#include <span>
#include <vector>

#include "engine/forest.h"
#include "support/check.h"
#include "support/metrics.h"
#include "support/timer.h"
#include "support/trace.h"

namespace graphpi {

namespace {

/// Publishes one parallel run's scheduling stats into the metrics
/// registry: root/chunk totals, the number of workers that claimed any
/// work, and (when metrics are enabled) a per-worker busy-time
/// histogram whose spread exposes load imbalance.
void flush_parallel_metrics(std::uint64_t roots,
                            std::span<const std::uint64_t> thread_tasks,
                            std::span<const double> thread_seconds) {
  using support::metrics::Counter;
  using support::metrics::metric_counter;
  using support::metrics::metric_histogram;
  static Counter& c_runs = metric_counter("engine.parallel.runs");
  static Counter& c_tasks = metric_counter("engine.parallel.tasks");
  static Counter& c_chunks = metric_counter("engine.parallel.chunks_claimed");
  static Counter& c_workers = metric_counter("engine.parallel.workers");
  c_runs.inc();
  c_tasks.inc(roots);
  c_chunks.inc((roots + support::kRootChunk - 1) / support::kRootChunk);
  std::uint64_t busy_workers = 0;
  auto& h_busy = metric_histogram("engine.parallel.worker_busy_ms");
  const bool observe = support::metrics::enabled();
  for (std::size_t i = 0; i < thread_tasks.size(); ++i) {
    if (thread_tasks[i] == 0) continue;
    ++busy_workers;
    if (observe) h_busy.observe(thread_seconds[i] * 1e3);
  }
  c_workers.inc(busy_workers);
}

/// The one root-partitioned loop behind every entry point. Each
/// worker of a `num_threads` team builds its state once with
/// `make_worker()`, runs `visit(worker, v)` for every root v it claims
/// (dynamic chunks of kRootChunk), then `merge(worker, roots)` once —
/// merges run one worker at a time, so they may reduce into shared
/// totals unsynchronized.
///
/// Cooperative stop (worksharing loops cannot break): workers count
/// roots locally and flush to a shared tally only at poll-stride
/// boundaries, where they also run the clock/flag/budget check; once a
/// worker stops the run, every worker skips its remaining roots.
template <typename MakeWorker, typename Visit, typename Merge>
support::RunStatus drive_roots(VertexId n, const ParallelOptions& options,
                               const support::ExecControl* control,
                               ParallelRunStats* stats,
                               support::RunReport* report,
                               MakeWorker make_worker, Visit visit,
                               Merge merge) {
  const int team =
      options.num_threads > 0 ? options.num_threads : omp_get_max_threads();
  std::vector<std::uint64_t> thread_tasks(static_cast<std::size_t>(team), 0);
  std::vector<double> thread_seconds(static_cast<std::size_t>(team), 0.0);

  const support::ExecControl* ctl =
      control != nullptr && control->armed() ? control : nullptr;
  const std::uint64_t mask = ctl != nullptr ? ctl->poll_mask() : 0;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> done_roots{0};
  std::atomic<int> stop_status{static_cast<int>(support::RunStatus::kOk)};

#pragma omp parallel num_threads(team)
  {
    auto worker = make_worker();
    const support::Timer timer;
    std::uint64_t local_done = 0;
#pragma omp for schedule(dynamic, support::kRootChunk)
    for (std::int64_t v = 0; v < static_cast<std::int64_t>(n); ++v) {
      if (ctl != nullptr && stop.load(std::memory_order_relaxed)) continue;
      visit(worker, static_cast<VertexId>(v));
      ++local_done;
      if (ctl != nullptr && (local_done & mask) == 0) {
        const std::uint64_t total =
            done_roots.fetch_add(mask + 1, std::memory_order_relaxed) + mask +
            1;
        const support::RunStatus s = ctl->check(total);
        if (s != support::RunStatus::kOk) {
          int expected = static_cast<int>(support::RunStatus::kOk);
          stop_status.compare_exchange_strong(expected, static_cast<int>(s));
          stop.store(true, std::memory_order_relaxed);
        }
      }
    }
    if (ctl != nullptr)  // flush the sub-stride remainder
      done_roots.fetch_add(local_done & mask, std::memory_order_relaxed);
    const auto tid = static_cast<std::size_t>(omp_get_thread_num());
    thread_tasks[tid] = local_done;
    thread_seconds[tid] = timer.elapsed_seconds();
#pragma omp critical(graphpi_parallel_merge)
    merge(worker, local_done);
  }

  if (stats != nullptr) {
    stats->tasks = n;
    stats->per_thread_tasks = thread_tasks;
    stats->per_thread_seconds = thread_seconds;
  }
  flush_parallel_metrics(n, thread_tasks, thread_seconds);
  const auto status = static_cast<support::RunStatus>(stop_status.load());
  support::observe_run_status(status);
  if (report != nullptr) {
    report->status = status;
    report->completed_roots = ctl != nullptr ? done_roots.load() : n;
  }
  return status;
}

}  // namespace

Count count_parallel(const Graph& graph, const Configuration& config,
                     const ParallelOptions& options, ParallelRunStats* stats,
                     const support::ExecControl* control,
                     support::RunReport* report) {
  const PlanForest forest({compile_plan(config)});
  return count_batch_parallel(graph, forest, options, stats, control, report)
      .front();
}

void enumerate_parallel(const Graph& graph, const Configuration& config,
                        const EmbeddingCallback& cb,
                        const ParallelOptions& options) {
  GRAPHPI_CHECK_MSG(config.iep.k == 0,
                    "IEP configurations cannot list embeddings");
  const Matcher matcher(graph, config);
  struct Worker {
    Matcher::Workspace ws;
    std::vector<VertexId> flat;  // one root's embeddings, back to back
  };
  const auto width = static_cast<std::size_t>(config.pattern.size());
  std::mutex emit_mutex;
  (void)drive_roots(
      graph.vertex_count(), options, nullptr, nullptr, nullptr,
      [] { return Worker{}; },
      [&](Worker& w, VertexId v) {
        w.flat.clear();
        matcher.enumerate_root(
            w.ws, v, [&w](std::span<const VertexId> emb) {
              w.flat.insert(w.flat.end(), emb.begin(), emb.end());
            });
        if (w.flat.empty()) return;
        const std::scoped_lock lock(emit_mutex);
        for (std::size_t i = 0; i < w.flat.size(); i += width)
          cb({w.flat.data() + i, width});
      },
      [](Worker&, std::uint64_t) {});
}

std::vector<Count> count_batch_parallel(const Graph& graph,
                                        const PlanForest& forest,
                                        const ParallelOptions& options,
                                        ParallelRunStats* stats,
                                        const support::ExecControl* control,
                                        support::RunReport* report) {
  const support::trace::Span span("parallel.count_batch");
  const ForestExecutor executor(graph, forest);
  std::vector<Count> aggregated(forest.plans().size(), 0);
  const support::RunStatus status = drive_roots(
      graph.vertex_count(), options, control, stats, report,
      [&executor] {
        ForestExecutor::Workspace ws;
        executor.reset(ws);
        return ws;
      },
      [&executor](ForestExecutor::Workspace& ws, VertexId v) {
        executor.accumulate_root(ws, v);
      },
      [&](ForestExecutor::Workspace& ws, std::uint64_t roots) {
        // Memo/IEP tallies plus this worker's completed roots.
        executor.flush_metrics(ws, roots);
        for (std::size_t i = 0; i < aggregated.size(); ++i)
          aggregated[i] += ws.sums[i];
      });
  return status == support::RunStatus::kOk ? executor.finalize(aggregated)
                                           : executor.finalize_partial(aggregated);
}

}  // namespace graphpi
