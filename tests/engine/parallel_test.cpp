// OpenMP engine: the root-partitioned loop behind count_parallel,
// enumerate_parallel and count_batch_parallel — equality with the serial
// engines across configurations and thread counts, per-worker root
// accounting, scoped team sizing and exact bounded stops.
#include <gtest/gtest.h>

#include <omp.h>

#include <numeric>
#include <set>

#include "api/graphpi.h"
#include "core/configuration.h"
#include "engine/forest.h"
#include "engine/matcher.h"
#include "engine/parallel.h"
#include "test_util.h"

namespace graphpi {
namespace {

std::uint64_t sum_tasks(const ParallelRunStats& stats) {
  return std::accumulate(stats.per_thread_tasks.begin(),
                         stats.per_thread_tasks.end(), std::uint64_t{0});
}

TEST(Parallel, CountsEqualSerialAcrossPatterns) {
  const Graph g = clustered_power_law(120, 600, 2.3, 0.4, 91);
  for (const auto& p : testing::assorted_patterns()) {
    const Configuration config =
        plan_configuration(p, GraphStats::of(g), PlannerOptions{});
    EXPECT_EQ(count_parallel(g, config), count_embeddings(g, config))
        << p.to_string();
  }
}

TEST(Parallel, IepConfigurationsSupported) {
  const Graph g = clustered_power_law(100, 500, 2.3, 0.4, 93);
  PlannerOptions planner;
  planner.use_iep = true;
  for (const auto& p :
       {patterns::house(), patterns::cycle_6_tri(), patterns::pentagon()}) {
    const Configuration config =
        plan_configuration(p, GraphStats::of(g), planner);
    const Count serial = count_embeddings(g, config);
    ParallelRunStats stats;
    EXPECT_EQ(count_parallel(g, config, ParallelOptions{}, &stats), serial)
        << p.to_string();
    EXPECT_EQ(stats.tasks, g.vertex_count());
  }
}

TEST(Parallel, DegreeOrderedCountsBitIdenticalAtEveryThreadCount) {
  // Degree order puts the hubs at the lowest ids, so the first chunks of
  // the dynamic root schedule carry most of the work.
  const Graph g = rmat(9, 3000, 43).reorder_by_degree();
  const GraphPi engine(g);
  const std::vector<Pattern> batch = {patterns::house(), patterns::rectangle(),
                                      patterns::clique(4),
                                      patterns::cycle_6_tri()};
  std::vector<Configuration> configs;
  std::vector<Count> serial;
  for (const Pattern& p : batch) {
    configs.push_back(engine.plan(p));
    serial.push_back(engine.count(configs.back()));
  }
  const PlanForest forest = engine.plan_batch(batch);
  ASSERT_EQ(engine.count_batch(forest), serial);
  for (int threads : {1, 2, 4}) {
    MatchOptions options;
    options.backend = Backend::kParallel;
    options.threads = threads;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(engine.count(configs[i], options), serial[i])
          << batch[i].to_string() << " threads=" << threads;
    }
    EXPECT_EQ(engine.count_batch(forest, options), serial)
        << "threads=" << threads;
  }
}

TEST(Parallel, PerThreadTasksSumToVertexCountOnBothPaths) {
  const Graph g = erdos_renyi(150, 700, 95).reorder_by_degree();
  const Configuration config = plan_configuration(
      patterns::house(), GraphStats::of(g), PlannerOptions{});
  const PlanForest forest({compile_plan(config)});
  for (int threads : {1, 3}) {
    ParallelOptions opt;
    opt.num_threads = threads;
    ParallelRunStats stats;
    (void)count_parallel(g, config, opt, &stats);
    EXPECT_EQ(stats.tasks, g.vertex_count());
    EXPECT_EQ(sum_tasks(stats), g.vertex_count()) << threads << " threads";
    ParallelRunStats batch_stats;
    (void)count_batch_parallel(g, forest, opt, &batch_stats);
    EXPECT_EQ(batch_stats.tasks, g.vertex_count());
    EXPECT_EQ(sum_tasks(batch_stats), g.vertex_count())
        << threads << " threads";
  }
}

TEST(Parallel, TeamSizeIsScopedToTheCall) {
  // The root loop sizes its team with a num_threads clause; the process's
  // OpenMP default must survive a threads=1 call on every path.
  const int previous = omp_get_max_threads();
  omp_set_num_threads(3);
  const Graph g = erdos_renyi(80, 300, 96);
  const Configuration config = plan_configuration(
      patterns::rectangle(), GraphStats::of(g), PlannerOptions{});
  ParallelOptions one;
  one.num_threads = 1;
  (void)count_parallel(g, config, one);
  EXPECT_EQ(omp_get_max_threads(), 3);
  (void)count_batch_parallel(g, PlanForest({compile_plan(config)}), one);
  EXPECT_EQ(omp_get_max_threads(), 3);
  enumerate_parallel(g, config, [](std::span<const VertexId>) {}, one);
  EXPECT_EQ(omp_get_max_threads(), 3);
  omp_set_num_threads(previous);
}

TEST(Parallel, SingleThreadBudgetStopsAtExactlyTheBudget) {
  // One worker polls at 8, 16, 24, 32 completed roots, and check(32)
  // trips a budget of 32 with no other worker's roots in flight.
  const Graph g = rmat(9, 4000, 13);
  const GraphPi engine(g);
  MatchOptions options;
  options.backend = Backend::kParallel;
  options.threads = 1;
  options.work_budget = 32;
  options.poll_stride = 8;
  support::RunReport report;
  (void)engine.count(patterns::house(), options, &report);
  EXPECT_EQ(report.status, support::RunStatus::kBudget);
  EXPECT_EQ(report.completed_roots, 32u);
}

TEST(Parallel, EnumerationMatchesSerialSet) {
  const Graph g = erdos_renyi(60, 250, 97);
  const Pattern p = patterns::rectangle();
  Configuration config =
      plan_configuration(p, GraphStats::of(g), PlannerOptions{});

  std::set<std::vector<VertexId>> serial;
  Matcher(g, config).enumerate([&serial](std::span<const VertexId> e) {
    serial.emplace(e.begin(), e.end());
  });

  for (int threads : {1, 3}) {
    ParallelOptions opt;
    opt.num_threads = threads;
    std::set<std::vector<VertexId>> parallel;
    enumerate_parallel(
        g, config,
        [&parallel](std::span<const VertexId> e) {
          parallel.emplace(e.begin(), e.end());
        },
        opt);
    EXPECT_EQ(parallel, serial) << threads << " threads";
  }
  EXPECT_EQ(serial.size(), count_embeddings(g, config));
}

TEST(Parallel, DeterministicAcrossThreadCounts) {
  const Graph g = rmat(8, 900, 41);
  for (const auto& p : {patterns::house(), patterns::clique(4)}) {
    for (bool use_iep : {false, true}) {
      PlannerOptions planner;
      planner.use_iep = use_iep;
      const Configuration config =
          plan_configuration(p, GraphStats::of(g), planner);
      const Count serial = count_embeddings(g, config);
      for (int threads : {1, 2, 4}) {
        ParallelOptions opt;
        opt.num_threads = threads;
        EXPECT_EQ(count_parallel(g, config, opt), serial)
            << p.to_string() << " iep=" << use_iep << " threads=" << threads;
      }
    }
  }
}

}  // namespace
}  // namespace graphpi
