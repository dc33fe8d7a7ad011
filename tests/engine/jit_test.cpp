// KernelCache / Backend::kGenerated integration: the emit -> compile ->
// dlopen -> execute pipeline behind the generated backend, its caching
// behavior, and the transparent interpreter fallback.
#include <dlfcn.h>
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "api/graphpi.h"
#include "core/pattern_library.h"
#include "engine/forest.h"
#include "engine/jit.h"
#include "graph/generators.h"
#include "graph/vertex_set.h"
#include "test_util.h"

namespace graphpi {
namespace {

Graph test_graph() { return clustered_power_law(200, 900, 2.3, 0.4, 3); }

MatchOptions generated_backend() {
  MatchOptions options;
  options.backend = Backend::kGenerated;
  return options;
}

TEST(KernelCache, GeneratedBackendMatchesSerial) {
  if (!jit::compiler_available()) GTEST_SKIP() << "no system compiler";
  const Graph g = test_graph();
  const GraphPi engine(g);
  for (const auto& [name, pattern] :
       {std::pair<const char*, Pattern>{"house", patterns::house()},
        {"pentagon", patterns::pentagon()},
        {"rectangle", patterns::rectangle()},
        {"clique4", patterns::clique(4)}}) {
    EXPECT_EQ(engine.count(pattern, generated_backend()),
              engine.count(pattern))
        << name;
  }
}

TEST(KernelCache, BatchGeneratedMatchesForestExecutor) {
  if (!jit::compiler_available()) GTEST_SKIP() << "no system compiler";
  const Graph g = test_graph();
  const GraphPi engine(g);
  const std::vector<Pattern> batch = {patterns::clique(3),
                                      patterns::rectangle(),
                                      patterns::house()};
  EXPECT_EQ(engine.count_batch(batch, generated_backend()),
            engine.count_batch(batch));
}

TEST(KernelCache, ParallelGeneratedMatchesSerial) {
  if (!jit::compiler_available()) GTEST_SKIP() << "no system compiler";
  // MatchOptions::threads reaches the kernel through the ABI's
  // KernelRunOptions: the OpenMP root partitioning must reproduce the
  // interpreter's counts exactly.
  const Graph g = test_graph();
  const GraphPi engine(g);
  MatchOptions options = generated_backend();
  options.threads = 4;
  EXPECT_EQ(engine.count(patterns::pentagon(), options),
            engine.count(patterns::pentagon()));
  const std::vector<Pattern> batch = {patterns::clique(3),
                                      patterns::rectangle(),
                                      patterns::house()};
  EXPECT_EQ(engine.count_batch(batch, options), engine.count_batch(batch));
}

TEST(KernelCache, SecondUseHitsTheCache) {
  if (!jit::compiler_available()) GTEST_SKIP() << "no system compiler";
  const Graph g = test_graph();
  const GraphPi engine(g);
  const Count first = engine.count(patterns::house(), generated_backend());
  const auto before = jit::KernelCache::instance().stats();
  const Count second = engine.count(patterns::house(), generated_backend());
  const auto after = jit::KernelCache::instance().stats();
  EXPECT_EQ(first, second);
  // The second identical run must not recompile.
  EXPECT_EQ(after.compiles, before.compiles);
  EXPECT_GT(after.memory_hits, before.memory_hits);
}

TEST(KernelCache, StaleAbiArtifactIsEvictedAndRebuilt) {
  if (!jit::compiler_available()) GTEST_SKIP() << "no system compiler";
  // A warm disk cache from a build with an older kernel ABI: the artifact
  // sits under the exact name get() computes, but reports version 3.
  // get() must refuse it, evict it and compile a current one in its place.
  const Graph g = test_graph();
  const GraphStats stats = GraphStats::of(g);
  std::vector<Plan> plans;
  for (const Pattern& p : {patterns::cycle(5), patterns::hourglass()})
    plans.push_back(compile_plan(plan_configuration(p, stats, {})));
  const PlanForest forest(std::move(plans));
  jit::KernelCache& cache = jit::KernelCache::instance();
  const std::filesystem::path so = cache.artifact_path(forest);
  std::filesystem::create_directories(so.parent_path());
  const std::filesystem::path stale_cpp = so.string() + ".stale.cpp";
  {
    std::ofstream out(stale_cpp);
    out << "extern \"C\" unsigned graphpi_kernel_batch_abi() { return 3; }\n"
           "extern \"C\" void graphpi_kernel_batch(const void*, const void*,"
           " const void*, unsigned long long*) {}\n";
  }
  ASSERT_EQ(std::system((jit::compiler_command() + " -shared -fPIC -o '" +
                         so.string() + "' '" + stale_cpp.string() + "'")
                            .c_str()),
            0);
  std::filesystem::remove(stale_cpp);

  const auto before = cache.stats();
  const auto counts = jit::run_generated(g, forest);
  const auto after = cache.stats();
  ASSERT_TRUE(counts.has_value());
  EXPECT_EQ(*counts, ForestExecutor(g, forest).count());
  EXPECT_EQ(after.compiles - before.compiles, 1u);
  EXPECT_EQ(after.disk_hits - before.disk_hits, 0u);

  void* handle = dlopen(so.c_str(), RTLD_NOW | RTLD_LOCAL);
  ASSERT_NE(handle, nullptr) << dlerror();
  const auto abi = reinterpret_cast<unsigned (*)()>(
      dlsym(handle, "graphpi_kernel_batch_abi"));
  ASSERT_NE(abi, nullptr);
  EXPECT_EQ(abi(), codegen::kKernelAbiVersion);
  dlclose(handle);
}

TEST(KernelCache, ScalarDispatchReachesGeneratedKernels) {
  if (!jit::compiler_available()) GTEST_SKIP() << "no system compiler";
  const Graph g = test_graph();
  const GraphPi engine(g);
  const Count want = engine.count(patterns::house());
  const std::string before = active_isa();
  {
    // The generated kernel calls back into the host's dispatched set
    // kernels, so the scalar selection applies to it too.
    const testing::IsaGuard guard(KernelIsa::kScalar);
    ASSERT_TRUE(guard.selected());
    EXPECT_EQ(std::string(active_isa()), "scalar");
    EXPECT_EQ(engine.count(patterns::house(), generated_backend()), want);
  }
  EXPECT_EQ(std::string(active_isa()), before);
}

TEST(KernelCache, DisabledJitFallsBackToInterpreter) {
  const Graph g = test_graph();
  const GraphPi engine(g);
  const Count want = engine.count(patterns::house());
  ::setenv("GRAPHPI_JIT_DISABLE", "1", 1);
  EXPECT_FALSE(jit::compiler_available());
  EXPECT_EQ(engine.count(patterns::house(), generated_backend()), want);
  ::unsetenv("GRAPHPI_JIT_DISABLE");
}

TEST(KernelCache, ListingUsesInterpreter) {
  // find_all has no generated path; the backend silently serves it with
  // the Matcher.
  const Graph g = erdos_renyi(40, 140, 7);
  const GraphPi engine(g);
  const auto serial = engine.find_all(patterns::clique(3));
  const auto generated = engine.find_all(patterns::clique(3),
                                         generated_backend());
  EXPECT_EQ(serial, generated);
}

}  // namespace
}  // namespace graphpi
