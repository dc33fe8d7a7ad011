#include "api/graphpi.h"

#include <algorithm>

#include "core/automorphism.h"
#include "engine/forest.h"
#include "engine/jit.h"
#include "support/timer.h"

namespace graphpi {

namespace {

/// Span name for one public counting call on a given backend.
const char* backend_span_name(Backend backend) noexcept {
  switch (backend) {
    case Backend::kSerial: return "count.serial";
    case Backend::kParallel: return "count.parallel";
    case Backend::kGenerated: return "count.generated";
    case Backend::kDistributed: return "count.distributed";
  }
  return "count";
}

/// Records one public counting call's wall time in api.count_ms.
class CountTimer {
 public:
  CountTimer() = default;
  ~CountTimer() {
    if (support::metrics::enabled())
      support::metrics::metric_histogram("api.count_ms")
          .observe(timer_.elapsed_millis());
  }
  CountTimer(const CountTimer&) = delete;
  CountTimer& operator=(const CountTimer&) = delete;

 private:
  support::Timer timer_;
};

}  // namespace

support::ExecControl make_control(const MatchOptions& options) {
  support::ExecControl control;
  if (options.timeout_ms > 0.0) control.arm_deadline_ms(options.timeout_ms);
  if (options.cancel != nullptr) control.set_cancel_flag(options.cancel);
  if (options.work_budget != 0) control.set_root_budget(options.work_budget);
  if (options.poll_stride != 0) control.set_poll_stride(options.poll_stride);
  return control;
}

dist::ClusterOptions cluster_options(const MatchOptions& options,
                                     const support::ExecControl* control) {
  dist::ClusterOptions copt;
  copt.nodes = options.nodes;
  copt.partition = options.partition;
  copt.faults = options.faults;
  copt.control = control;
  copt.exec = options.dist_exec;
  copt.workers_per_node = options.dist_workers;
  copt.mailbox_capacity = options.dist_mailbox_capacity;
  return copt;
}

GraphPi::GraphPi(const Graph& graph)
    : graph_(&graph), stats_(GraphStats::of(graph)) {}

Configuration GraphPi::plan(const Pattern& pattern,
                            const MatchOptions& options,
                            PlanningStats* diag) const {
  PlannerOptions planner;
  planner.use_iep = options.use_iep;
  planner.max_restriction_sets = options.max_restriction_sets;
  return plan_configuration(pattern, stats_, planner, diag);
}

Count GraphPi::count(const Pattern& pattern, const MatchOptions& options,
                     support::RunReport* report) const {
  // Installed here too, so the per-query sink also records the planner.
  const support::trace::ScopedSink sink(options.trace_sink);
  return count(plan(pattern, options), options, report);
}

support::metrics::Snapshot GraphPi::metrics_snapshot() {
  return support::metrics::Registry::instance().snapshot();
}

Count GraphPi::count(const Configuration& config, const MatchOptions& options,
                     support::RunReport* report) const {
  const support::trace::ScopedSink sink(options.trace_sink);
  const support::trace::Span span(backend_span_name(options.backend));
  const CountTimer count_timer;
  const support::ExecControl control = make_control(options);
  const support::ExecControl* ctl = control.armed() ? &control : nullptr;
  if (report != nullptr) *report = support::RunReport{};
  if (options.backend == Backend::kDistributed)
    return dist::distributed_count(*graph_, config,
                                   cluster_options(options, ctl),
                                   options.cluster_stats, report);
  // Every in-memory backend runs the one-plan forest.
  const PlanForest forest({compile_plan(config)});
  return run_forest(forest, options, ctl, report).front();
}

PlanForest GraphPi::plan_batch(std::span<const Pattern> patterns,
                               const MatchOptions& options) const {
  std::vector<Plan> plans;
  plans.reserve(patterns.size());
  for (const Pattern& p : patterns)
    plans.push_back(compile_plan(plan(p, options)));
  return PlanForest(std::move(plans));
}

std::vector<Count> GraphPi::count_batch(const PlanForest& forest,
                                        const MatchOptions& options,
                                        support::RunReport* report) const {
  const support::ExecControl control = make_control(options);
  return count_batch_impl(forest, options,
                          control.armed() ? &control : nullptr, report);
}

std::vector<Count> GraphPi::count_batch_impl(
    const PlanForest& forest, const MatchOptions& options,
    const support::ExecControl* control, support::RunReport* report) const {
  const support::trace::ScopedSink sink(options.trace_sink);
  const support::trace::Span span(backend_span_name(options.backend));
  const CountTimer count_timer;
  const support::ExecControl* ctl =
      control != nullptr && control->armed() ? control : nullptr;
  if (report != nullptr) *report = support::RunReport{};
  if (options.backend == Backend::kDistributed)
    return dist::distributed_count_batch(*graph_, forest,
                                         cluster_options(options, ctl),
                                         options.cluster_stats, report);
  return run_forest(forest, options, ctl, report);
}

std::vector<Count> GraphPi::run_forest(const PlanForest& forest,
                                       const MatchOptions& options,
                                       const support::ExecControl* control,
                                       support::RunReport* report) const {
  if (options.backend == Backend::kGenerated) {
    if (auto counts = jit::run_generated(*graph_, forest, options.threads,
                                         control, report))
      return *counts;
  }
  if (options.backend == Backend::kParallel)
    return count_batch_parallel(*graph_, forest, {options.threads}, nullptr,
                                control, report);
  // Serial, and the generated backend's fallback when no system compiler
  // is available (or the kernel build failed).
  ForestExecutor::Workspace ws;
  return ForestExecutor(*graph_, forest).count(ws, control, report);
}

std::vector<Count> GraphPi::count_batch(std::span<const Pattern> patterns,
                                        const MatchOptions& options,
                                        support::RunReport* report) const {
  if (report != nullptr) *report = support::RunReport{};
  if (patterns.empty()) return {};
  // One forest per kMaxPlans chunk (the active-plan mask is 64 bits wide).
  // Like every public entry point, a stats out-param describes THIS call
  // only: it is reset here and the chunks accumulate into it. Bounded
  // execution likewise spans the call: ONE control is armed here and
  // shared by every chunk, so timeout_ms bounds the whole batch.
  if (options.cluster_stats != nullptr)
    *options.cluster_stats = dist::ClusterStats{};
  MatchOptions chunk_options = options;
  dist::ClusterStats chunk_stats;
  if (options.cluster_stats != nullptr)
    chunk_options.cluster_stats = &chunk_stats;
  const support::ExecControl control = make_control(options);
  const support::ExecControl* ctl = control.armed() ? &control : nullptr;
  std::vector<Count> out;
  out.reserve(patterns.size());
  for (std::size_t offset = 0; offset < patterns.size();
       offset += PlanForest::kMaxPlans) {
    const std::size_t len =
        std::min(PlanForest::kMaxPlans, patterns.size() - offset);
    support::RunReport chunk_report;
    const std::vector<Count> chunk = count_batch_impl(
        plan_batch(patterns.subspan(offset, len), chunk_options),
        chunk_options, ctl,
        ctl != nullptr || report != nullptr ? &chunk_report : nullptr);
    out.insert(out.end(), chunk.begin(), chunk.end());
    if (options.cluster_stats != nullptr)
      options.cluster_stats->accumulate(chunk_stats);
    if (report != nullptr) report->merge(chunk_report);
    if (chunk_report.status != support::RunStatus::kOk) break;
  }
  out.resize(patterns.size(), 0);  // chunks skipped after a stop report 0
  return out;
}

std::vector<GraphPi::MotifCount> GraphPi::motif_census(
    int k, const MatchOptions& options) const {
  const std::vector<Pattern> motifs = patterns::connected_motifs(k);
  const std::vector<Count> counts = count_batch(motifs, options);
  std::vector<MotifCount> out;
  out.reserve(motifs.size());
  for (std::size_t i = 0; i < motifs.size(); ++i)
    out.push_back({motifs[i], counts[i]});
  return out;
}

void GraphPi::find_all(const Pattern& pattern, const EmbeddingCallback& cb,
                       const MatchOptions& options) const {
  const support::trace::ScopedSink sink(options.trace_sink);
  const support::trace::Span span("find_all");
  MatchOptions listing = options;
  listing.use_iep = false;  // IEP cannot list embeddings
  const Configuration config = plan(pattern, listing);
  if (options.backend == Backend::kParallel) {
    enumerate_parallel(*graph_, config, cb, {options.threads});
  } else {
    Matcher(*graph_, config).enumerate(cb);
  }
}

std::vector<std::vector<VertexId>> GraphPi::find_all(
    const Pattern& pattern, const MatchOptions& options) const {
  std::vector<std::vector<VertexId>> out;
  find_all(
      pattern,
      [&out](std::span<const VertexId> emb) {
        out.emplace_back(emb.begin(), emb.end());
      },
      options);
  return out;
}

bool empirically_validate(const Configuration& config) {
  // Two structurally different probe graphs plus the clique K_{n+2}.
  const int n = config.pattern.size();
  const std::vector<Graph> probes = {
      erdos_renyi(24, 80, /*seed=*/0xC0FFEE),
      clustered_power_law(30, 110, 2.3, 0.5, /*seed=*/0xBEEF),
      complete_graph(static_cast<VertexId>(n + 2)),
  };
  Configuration plain_config = config;
  plain_config.iep = IepPlan{};
  // Restriction correctness: unrestricted enumeration finds each
  // embedding |Aut| times.
  Configuration unrestricted = plain_config;
  unrestricted.restrictions.clear();
  for (const auto& g : probes) {
    const Count plain = count_embeddings(g, plain_config);
    if (config.iep.k > 0 && count_embeddings(g, config) != plain) return false;
    const Count redundant = count_embeddings(g, unrestricted);
    if (redundant != plain * automorphism_count(config.pattern)) return false;
  }
  return true;
}

}  // namespace graphpi
