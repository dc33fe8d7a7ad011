// Bounded execution across all four backends: deadlines, cooperative
// cancellation, and work budgets must stop a run early on every backend
// {serial, parallel, generated, distributed}, report WHY through the
// RunReport out-param, and stop within ~a poll stride per worker of the
// trigger. Triggers are made deterministic (pre-set cancel flags,
// already-expired deadlines, fixed budgets) so none of this races the
// wall clock.
#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "api/graphpi.h"
#include "graph/generators.h"
#include "support/exec_control.h"

namespace graphpi {
namespace {

using support::RunReport;
using support::RunStatus;

constexpr Backend kAllBackends[] = {Backend::kSerial, Backend::kParallel,
                                    Backend::kGenerated,
                                    Backend::kDistributed};

MatchOptions arm(Backend backend) {
  MatchOptions options;
  options.backend = backend;
  options.threads = 3;  // force a real multi-worker split
  options.nodes = 3;
  return options;
}

std::vector<Pattern> batch_patterns() {
  return {patterns::house(), patterns::pentagon(), patterns::clique(4)};
}

TEST(Bounded, UnarmedRunsReportOkWithExactCounts) {
  const Graph graph = rmat(8, 1500, 11);
  const GraphPi engine(graph);
  const std::vector<Pattern> patterns = batch_patterns();
  const std::vector<Count> want = GraphPi(graph).count_batch(patterns);

  for (const Backend backend : kAllBackends) {
    const MatchOptions options = arm(backend);
    RunReport report;
    const std::vector<Count> got =
        engine.count_batch(patterns, options, &report);
    EXPECT_EQ(report.status, RunStatus::kOk)
        << "backend " << static_cast<int>(backend);
    EXPECT_TRUE(report.complete());
    EXPECT_EQ(got, want) << "backend " << static_cast<int>(backend);
  }
}

TEST(Bounded, PreSetCancelFlagStopsEveryBackend) {
  // Large enough that the run cannot finish before the generated
  // backend's watchdog thread has had a chance to observe the flag.
  const Graph graph = rmat(10, 14000, 17);
  const GraphPi engine(graph);
  const std::vector<Pattern> patterns = batch_patterns();
  const std::atomic<bool> cancel{true};

  for (const Backend backend : kAllBackends) {
    MatchOptions options = arm(backend);
    options.cancel = &cancel;
    options.poll_stride = 8;
    RunReport report;
    (void)engine.count_batch(patterns, options, &report);
    EXPECT_EQ(report.status, RunStatus::kCancelled)
        << "backend " << static_cast<int>(backend);
    EXPECT_FALSE(report.complete());
    // Every worker observes the pre-set flag at its FIRST poll, so almost
    // nothing runs: well under one stride per worker plus slack.
    EXPECT_LT(report.completed_roots,
              static_cast<std::uint64_t>(graph.vertex_count()))
        << "backend " << static_cast<int>(backend);
  }
}

TEST(Bounded, ExpiredDeadlineStopsWithinStrides) {
  // The acceptance shape: a deadline-armed count on a larger R-MAT must
  // return kTimeout with a partial completed-root tally within ~2 poll
  // strides per worker. The deadline is effectively already expired when
  // execution starts, so the outcome does not depend on machine speed.
  const Graph graph = rmat(10, 14000, 17);
  const GraphPi engine(graph);
  const std::vector<Pattern> patterns = batch_patterns();
  constexpr std::uint32_t kStride = 16;
  constexpr std::uint64_t kWorkers = 4;  // threads=3 / nodes=3, plus slack

  for (const Backend backend : kAllBackends) {
    MatchOptions options = arm(backend);
    options.timeout_ms = 1e-3;
    options.poll_stride = kStride;
    RunReport report;
    (void)engine.count_batch(patterns, options, &report);
    EXPECT_EQ(report.status, RunStatus::kTimeout)
        << "backend " << static_cast<int>(backend);
    // In-band pollers (serial/parallel/distributed) read the clock at
    // their poll points, so they stop within ~2 strides per worker. The
    // generated backend's deadline is serviced by a host watchdog thread
    // whose spin-up adds slack — only strict partiality is guaranteed.
    if (backend != Backend::kGenerated) {
      EXPECT_LT(report.completed_roots, 2 * kStride * kWorkers)
          << "backend " << static_cast<int>(backend);
    }
    EXPECT_LT(report.completed_roots,
              static_cast<std::uint64_t>(graph.vertex_count()))
        << "backend " << static_cast<int>(backend);
  }
}

TEST(Bounded, RootBudgetStopsEveryBackend) {
  const Graph graph = rmat(9, 4000, 13);
  const GraphPi engine(graph);
  const std::vector<Pattern> patterns = batch_patterns();
  constexpr std::uint64_t kBudget = 32;
  constexpr std::uint32_t kStride = 8;

  for (const Backend backend : kAllBackends) {
    MatchOptions options = arm(backend);
    options.work_budget = kBudget;
    options.poll_stride = kStride;
    RunReport report;
    (void)engine.count_batch(patterns, options, &report);
    EXPECT_EQ(report.status, RunStatus::kBudget)
        << "backend " << static_cast<int>(backend);
    EXPECT_GT(report.completed_roots, 0u)
        << "backend " << static_cast<int>(backend);
    // The budget is enforced at poll boundaries: the overshoot is bounded
    // by ~one stride per worker (plus sub-stride tallies in flight).
    EXPECT_LE(report.completed_roots, kBudget + kStride * 4 + 4)
        << "backend " << static_cast<int>(backend);
  }
}

TEST(Bounded, SerialBudgetIsExactAtStrideBoundary) {
  // Single-threaded root loop: polls fire at done = 8, 16, 24, 32, and
  // check(32) trips a budget of 32 exactly — no worker slack involved.
  const Graph graph = rmat(9, 4000, 13);
  const GraphPi engine(graph);
  MatchOptions options;
  options.work_budget = 32;
  options.poll_stride = 8;
  RunReport report;
  (void)engine.count_batch(batch_patterns(), options, &report);
  EXPECT_EQ(report.status, RunStatus::kBudget);
  EXPECT_EQ(report.completed_roots, 32u);
}

TEST(Bounded, SinglePatternCountReportsStatusToo) {
  // The per-pattern count path (a one-plan forest on every in-memory
  // backend, distributed_count) honors the same options.
  const Graph graph = rmat(10, 14000, 17);
  const GraphPi engine(graph);
  const Pattern house = patterns::house();
  const Count want = engine.count(house);
  const std::atomic<bool> cancel{true};

  for (const Backend backend : kAllBackends) {
    MatchOptions options = arm(backend);
    RunReport report;
    const Count got = engine.count(house, options, &report);
    EXPECT_EQ(report.status, RunStatus::kOk)
        << "backend " << static_cast<int>(backend);
    EXPECT_EQ(got, want) << "backend " << static_cast<int>(backend);

    MatchOptions cancelled = arm(backend);
    cancelled.cancel = &cancel;
    cancelled.poll_stride = 8;
    RunReport cancel_report;
    (void)engine.count(house, cancelled, &cancel_report);
    EXPECT_EQ(cancel_report.status, RunStatus::kCancelled)
        << "backend " << static_cast<int>(backend);
  }
}

TEST(Bounded, BatchDeadlineSpansChunksAndPadsSkippedCounts) {
  // 70 patterns = two 64-plan chunks. An expired deadline stops inside
  // the first chunk; the second chunk is skipped and its counts pad to 0.
  const Graph graph = rmat(8, 1500, 11);
  const GraphPi engine(graph);
  std::vector<Pattern> many;
  for (int i = 0; i < 70; ++i)
    many.push_back(i % 2 == 0 ? patterns::rectangle() : patterns::clique(3));
  MatchOptions options;
  options.timeout_ms = 1e-3;
  RunReport report;
  const std::vector<Count> got = engine.count_batch(many, options, &report);
  EXPECT_EQ(report.status, RunStatus::kTimeout);
  ASSERT_EQ(got.size(), many.size());
  for (std::size_t i = PlanForest::kMaxPlans; i < got.size(); ++i)
    EXPECT_EQ(got[i], 0u) << "skipped chunk entry " << i;
}

}  // namespace
}  // namespace graphpi
