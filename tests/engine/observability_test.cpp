// End-to-end observability: the engines feed the metrics registry
// (support/metrics.h) and trace layer, and disabling the instruments
// never changes a count.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "api/graphpi.h"
#include "core/pattern_library.h"
#include "graph/generators.h"
#include "support/metrics.h"
#include "support/trace.h"

namespace graphpi {
namespace {

using support::metrics::Registry;
using support::metrics::Snapshot;

Graph census_graph() { return erdos_renyi(120, 700, /*seed=*/9); }

/// Diff of the registry across one thunk.
template <typename F>
Snapshot metered(F&& fn) {
  const Snapshot before = Registry::instance().snapshot();
  std::forward<F>(fn)();
  return Registry::instance().snapshot().diff(before);
}

// The 4-motif census runs through the ForestExecutor, whose
// invariant-leaf memo should see repeated windows — the self-tuning
// counters must surface nonzero lookups AND hits through the registry.
TEST(Observability, MemoCountersNonZeroOnMotifCensus) {
  const Graph g = census_graph();
  const GraphPi engine(g);
  const Snapshot delta =
      metered([&] { (void)engine.motif_census(4); });
  EXPECT_GT(delta.counter_or("engine.forest.runs"), 0u);
  EXPECT_GT(delta.counter_or("engine.forest.roots_completed"), 0u);
  EXPECT_GT(delta.counter_or("engine.memo.lookups"), 0u);
  EXPECT_GT(delta.counter_or("engine.memo.hits"), 0u);
}

// A single-pattern serial count is a one-plan forest run.
TEST(Observability, SerialCountFeedsForestCounters) {
  const Graph g = census_graph();
  const GraphPi engine(g);
  const Snapshot delta = metered(
      [&] { (void)engine.count(patterns::house()); });
  EXPECT_EQ(delta.counter_or("engine.forest.runs"), 1u);
  EXPECT_EQ(delta.counter_or("engine.forest.roots_completed"),
            static_cast<std::uint64_t>(g.vertex_count()));
  EXPECT_GT(delta.counter_or("engine.iep.terms_evaluated"), 0u);
}

TEST(Observability, ParallelCountFeedsWorkerCounters) {
  const Graph g = census_graph();
  const GraphPi engine(g);
  MatchOptions options;
  options.backend = Backend::kParallel;
  const Snapshot delta = metered(
      [&] { (void)engine.count(patterns::house(), options); });
  EXPECT_EQ(delta.counter_or("engine.parallel.runs"), 1u);
  EXPECT_GT(delta.counter_or("engine.parallel.tasks"), 0u);
  EXPECT_GT(delta.counter_or("engine.parallel.workers"), 0u);
}

TEST(Observability, DistributedRunBridgesClusterStats) {
  const Graph g = census_graph();
  const GraphPi engine(g);
  for (const dist::ExecMode exec :
       {dist::ExecMode::kLockstep, dist::ExecMode::kAsync}) {
    MatchOptions options;
    options.backend = Backend::kDistributed;
    options.nodes = 3;
    options.dist_exec = exec;
    const Snapshot delta = metered(
        [&] { (void)engine.count(patterns::house(), options); });
    EXPECT_EQ(delta.counter_or("dist.runs"), 1u) << dist::to_string(exec);
    // Every node's workers run the one forest walker over its owned roots.
    EXPECT_EQ(delta.counter_or("engine.forest.roots_completed"),
              static_cast<std::uint64_t>(g.vertex_count()))
        << dist::to_string(exec);
    EXPECT_GT(delta.counter_or("dist.messages"), 0u) << dist::to_string(exec);
    EXPECT_GT(delta.counter_or("dist.bytes"), 0u) << dist::to_string(exec);
  }
}

TEST(Observability, BoundedRunsRecordStopStatus) {
  const Graph g = census_graph();
  const GraphPi engine(g);
  MatchOptions options;
  options.work_budget = 5;
  support::RunReport report;
  const Snapshot delta = metered([&] {
    (void)engine.count(patterns::house(), options, &report);
  });
  ASSERT_EQ(report.status, support::RunStatus::kBudget);
  EXPECT_EQ(delta.counter_or("exec.budget_exhausted"), 1u);
}

// The acceptance bar for the whole layer: turning the instruments off
// changes nothing about the counts, on every backend.
TEST(Observability, DisabledMetricsPreserveCounts) {
  const Graph g = census_graph();
  const GraphPi engine(g);
  const Pattern p = patterns::house();
  const bool was = support::metrics::enabled();
  for (const Backend backend :
       {Backend::kSerial, Backend::kParallel, Backend::kDistributed}) {
    MatchOptions options;
    options.backend = backend;
    options.nodes = 2;
    support::metrics::set_enabled(true);
    const Count on = engine.count(p, options);
    support::metrics::set_enabled(false);
    const Count off = engine.count(p, options);
    EXPECT_EQ(on, off) << "backend " << static_cast<int>(backend);
  }
  support::metrics::set_enabled(was);
}

TEST(Observability, TraceSinkCapturesBackendSpans) {
  const Graph g = census_graph();
  const GraphPi engine(g);
  const bool was = support::metrics::enabled();
  support::metrics::set_enabled(true);
  support::trace::TraceBuffer buf;
  MatchOptions options;
  options.trace_sink = &buf;
  (void)engine.count(patterns::house(), options);
  support::metrics::set_enabled(was);
  const auto events = buf.events();
  ASSERT_FALSE(events.empty());
  bool saw_count_span = false;
  bool saw_plan_span = false;
  for (const auto& e : events) {
    if (std::string_view(e.name) == "count.serial") saw_count_span = true;
    if (std::string_view(e.name) == "plan") saw_plan_span = true;
  }
  EXPECT_TRUE(saw_count_span);
  EXPECT_TRUE(saw_plan_span) << "counting a Pattern plans inside the call";
  // The sink is scoped to the call: nothing records after it returns.
  const std::size_t after_call = events.size();
  (void)engine.count(patterns::house());
  EXPECT_EQ(buf.events().size(), after_call);
}

// Every planning call observes core.plan_ms once, whichever caller
// planned, and only while metrics are enabled.
TEST(Observability, PlanningObservesOneHistogramSamplePerCall) {
  const Graph g = census_graph();
  const GraphPi engine(g);
  const bool was = support::metrics::enabled();
  auto plan_samples = [](const Snapshot& delta) -> std::uint64_t {
    const auto it = delta.histograms.find("core.plan_ms");
    return it == delta.histograms.end() ? 0 : it->second.count;
  };
  support::metrics::set_enabled(true);
  const Snapshot on = metered([&] {
    (void)engine.plan(patterns::house());
    (void)engine.count(patterns::rectangle());
  });
  support::metrics::set_enabled(false);
  const Snapshot off = metered([&] { (void)engine.plan(patterns::house()); });
  support::metrics::set_enabled(was);
  EXPECT_EQ(plan_samples(on), 2u);
  EXPECT_EQ(plan_samples(off), 0u);
}

}  // namespace
}  // namespace graphpi
