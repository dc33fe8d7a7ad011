// End-to-end codegen integration: compile emitted kernels with the system
// compiler, load them, and compare their counts against the in-process
// engines — the "code generation and compilation" stage of Figure 3, now
// emitted from the plan IR. Covers plain and IEP plans, a multi-pattern
// forest kernel, the hub-index and no-hub graph views, and scalar vs SIMD
// runtime dispatch of the host ops table, plus the standalone programs
// that run on their own portable ops table.
#include <dlfcn.h>
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <tuple>
#include <vector>

#include "api/graphpi.h"
#include "codegen/codegen.h"
#include "codegen/kernel_abi.h"
#include "core/configuration.h"
#include "core/pattern_library.h"
#include "engine/forest.h"
#include "graph/generators.h"
#include "graph/vertex_set.h"

namespace graphpi {
namespace {

namespace fs = std::filesystem;

using SingleFn = unsigned long long (*)(const void* graph, const void* ops,
                                        const void* run);
using BatchFn = void (*)(const void* graph, const void* ops, const void* run,
                         unsigned long long* counts);

/// Compiles `source` into a shared object and returns the loaded symbol.
/// Returns nullptr (with a diagnostic) when no compiler is available.
void* compile_and_load(const std::string& source, const std::string& tag,
                       const std::string& symbol, void** handle_out) {
  const fs::path dir = fs::temp_directory_path();
  const fs::path cpp = dir / ("graphpi_gen_" + tag + ".cpp");
  const fs::path so = dir / ("graphpi_gen_" + tag + ".so");
  {
    std::ofstream out(cpp);
    out << source;
  }
  const std::string cmd = "g++ -O2 -shared -fPIC -std=c++17 -fopenmp -o " +
                          so.string() + " " + cpp.string() + " 2>/dev/null";
  if (std::system(cmd.c_str()) != 0) return nullptr;
  void* handle = dlopen(so.string().c_str(), RTLD_NOW);
  if (handle == nullptr) return nullptr;
  *handle_out = handle;
  return dlsym(handle, symbol.c_str());
}

Graph test_graph() { return clustered_power_law(150, 700, 2.3, 0.4, 29); }

/// Runs one loaded kernel over every execution-environment combination
/// the ABI supports and checks each against `want`.
void expect_kernel_matches(SingleFn kernel, const Graph& g, Count want,
                           const std::string& label) {
  g.ensure_hub_index();
  const codegen::KernelGraph with_hubs = codegen::make_kernel_graph(g);
  codegen::KernelGraph no_hubs = with_hubs;
  no_hubs.hub_slot = nullptr;
  no_hubs.hub_bits = nullptr;
  no_hubs.hub_words = 0;
  const codegen::KernelOps& ops = codegen::host_kernel_ops();

  EXPECT_EQ(kernel(&with_hubs, &ops, nullptr), want) << label << " hub+ops";
  EXPECT_EQ(kernel(&no_hubs, &ops, nullptr), want) << label << " nohub+ops";

  // Same kernel, explicit worker count: the OpenMP root partitioning must
  // reproduce the serial sum exactly (u64 adds commute).
  codegen::KernelRunOptions parallel;
  parallel.threads = 3;
  EXPECT_EQ(kernel(&with_hubs, &ops, &parallel), want)
      << label << " hub+ops 3 threads";

  // Same kernel, scalar dispatch: the ops table routes through the
  // runtime-selected kernel table, so forcing scalar applies to the
  // already-compiled kernel too.
  force_scalar_kernels(true);
  EXPECT_EQ(kernel(&with_hubs, &ops, nullptr), want)
      << label << " hub+ops scalar";
  force_scalar_kernels(false);
}

class CodegenExecTest
    : public ::testing::TestWithParam<std::tuple<const char*, Pattern, bool>> {
};

TEST_P(CodegenExecTest, GeneratedKernelMatchesEngine) {
  const auto& [tag, pattern, use_iep] = GetParam();
  const Graph g = test_graph();
  PlannerOptions planner;
  planner.use_iep = use_iep;
  const Configuration config =
      plan_configuration(pattern, GraphStats::of(g), planner);
  if (use_iep) {
    ASSERT_GT(config.iep.k, 0) << "expected an IEP plan for " << tag;
  }

  void* handle = nullptr;
  const auto kernel = reinterpret_cast<SingleFn>(
      compile_and_load(codegen::generate_source(config), tag,
                       "graphpi_generated_count", &handle));
  ASSERT_NE(kernel, nullptr) << "system compiler unavailable or codegen "
                                "emitted uncompilable source";

  expect_kernel_matches(kernel, g, count_embeddings(g, config), tag);
  dlclose(handle);
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, CodegenExecTest,
    ::testing::Values(
        std::make_tuple("triangle", patterns::clique(3), false),
        std::make_tuple("rectangle", patterns::rectangle(), false),
        std::make_tuple("house", patterns::house(), false),
        std::make_tuple("cycle6tri", patterns::cycle_6_tri(), false),
        std::make_tuple("clique4", patterns::clique(4), false),
        // IEP plans: suffix sets + inclusion–exclusion term products are
        // emitted inline (unsupported by the pre-IR generator).
        std::make_tuple("pentagon_iep", patterns::pentagon(), true),
        std::make_tuple("house_iep", patterns::house(), true)),
    [](const auto& info) { return std::get<0>(info.param); });

TEST(CodegenForestExec, ThreePatternForestMatchesEngines) {
  const Graph g = test_graph();
  const GraphPi engine(g);
  const std::vector<Pattern> batch = {patterns::clique(3),
                                      patterns::rectangle(),
                                      patterns::house()};
  const PlanForest forest = engine.plan_batch(batch);

  codegen::CodegenOptions opt;
  opt.function_name = "graphpi_forest_kernel";
  void* handle = nullptr;
  const auto kernel = reinterpret_cast<BatchFn>(
      compile_and_load(codegen::generate_forest_source(forest, opt),
                       "forest3", "graphpi_forest_kernel", &handle));
  ASSERT_NE(kernel, nullptr);

  // Three-way agreement: generated == the batch forest == each pattern
  // counted alone, across scalar and SIMD dispatch.
  const std::vector<Count> forest_counts = ForestExecutor(g, forest).count();
  g.ensure_hub_index();
  const codegen::KernelGraph view = codegen::make_kernel_graph(g);
  codegen::KernelRunOptions parallel;
  parallel.threads = 4;
  for (const bool scalar : {false, true}) {
    force_scalar_kernels(scalar);
    const codegen::KernelRunOptions* runs[] = {nullptr, &parallel};
    for (const codegen::KernelRunOptions* run : runs) {
      unsigned long long counts[3] = {};
      kernel(&view, &codegen::host_kernel_ops(), run, counts);
      for (std::size_t i = 0; i < batch.size(); ++i) {
        EXPECT_EQ(counts[i], forest_counts[i])
            << "plan " << i << (scalar ? " scalar" : " simd")
            << (run != nullptr ? " parallel" : "");
        EXPECT_EQ(counts[i], engine.count(batch[i]))
            << "plan " << i << (scalar ? " scalar" : " simd")
            << (run != nullptr ? " parallel" : "");
      }
    }
  }
  force_scalar_kernels(false);
  dlclose(handle);
}

TEST(CodegenForestExec, PatternLibrarySweepInOneKernel) {
  // Every named pattern_library pattern in ONE forest kernel (one
  // compiler invocation buys library-wide coverage), planned with IEP
  // where the planner finds a valid plan. Generated counts must equal
  // each pattern counted alone.
  const Graph g = test_graph();
  const GraphStats stats = GraphStats::of(g);
  // cycle(6) included: the planner's order-uniformity validation
  // (core/iep.cpp) now rejects the IEP plans whose divisor only held on
  // average, so every library pattern has a trustworthy reference count.
  std::vector<Pattern> library = {
      patterns::clique(3),  patterns::rectangle(), patterns::house(),
      patterns::pentagon(), patterns::hourglass(), patterns::cycle_6_tri(),
      patterns::clique(4),  patterns::clique(5),   patterns::cycle(5),
      patterns::cycle(6),   patterns::path(4),     patterns::path(5),
      patterns::star(4),    patterns::star(5)};
  PlannerOptions planner;
  planner.use_iep = true;
  std::vector<Plan> plans;
  std::vector<Count> want;
  for (const Pattern& p : library) {
    const Configuration config = plan_configuration(p, stats, planner);
    plans.push_back(compile_plan(config));
    want.push_back(count_embeddings(g, config));
  }
  const PlanForest forest(std::move(plans));

  codegen::CodegenOptions opt;
  opt.function_name = "graphpi_sweep_kernel";
  void* handle = nullptr;
  const auto kernel = reinterpret_cast<BatchFn>(
      compile_and_load(codegen::generate_forest_source(forest, opt), "sweep",
                       "graphpi_sweep_kernel", &handle));
  ASSERT_NE(kernel, nullptr);

  g.ensure_hub_index();
  const codegen::KernelGraph view = codegen::make_kernel_graph(g);
  std::vector<unsigned long long> counts(library.size(), 0);
  kernel(&view, &codegen::host_kernel_ops(), nullptr, counts.data());
  for (std::size_t i = 0; i < library.size(); ++i)
    EXPECT_EQ(counts[i], want[i]) << "pattern " << i;
  // Whole-library kernel again, root loop split across workers.
  codegen::KernelRunOptions parallel;
  parallel.threads = 4;
  std::fill(counts.begin(), counts.end(), 0);
  kernel(&view, &codegen::host_kernel_ops(), &parallel, counts.data());
  for (std::size_t i = 0; i < library.size(); ++i)
    EXPECT_EQ(counts[i], want[i]) << "pattern " << i << " parallel";
  dlclose(handle);
}

TEST(CodegenExec, StandaloneProgramsCompileAndRun) {
  // The standalone form (kernel + edge-list main + the portable ops
  // table) must build with nothing but a C++17 compiler and reproduce the
  // engine count. clique4 takes the size-only chain over 3 adjacencies;
  // the IEP plans take suffix sets, and the IEP division happens inside
  // the kernel.
  const Graph g = test_graph();
  const fs::path dir = fs::temp_directory_path();
  const fs::path edges = dir / "graphpi_gen_standalone_edges.txt";
  save_edge_list(g, edges.string());
  for (const auto& [tag, pattern, use_iep] :
       {std::tuple<const char*, Pattern, bool>{"clique4", patterns::clique(4),
                                               false},
        {"house_iep", patterns::house(), true},
        {"pentagon_iep", patterns::pentagon(), true}}) {
    PlannerOptions planner;
    planner.use_iep = use_iep;
    const Configuration config =
        plan_configuration(pattern, GraphStats::of(g), planner);
    if (use_iep) {
      ASSERT_GT(config.iep.k, 0) << tag;
    }
    const std::string stem = std::string("graphpi_gen_standalone_") + tag;
    const fs::path cpp = dir / (stem + ".cpp");
    const fs::path bin = dir / stem;
    const fs::path out_file = dir / (stem + "_out.txt");
    {
      std::ofstream out(cpp);
      out << codegen::generate_standalone(config);
    }
    ASSERT_EQ(std::system(("g++ -O2 -std=c++17 -o " + bin.string() + " " +
                           cpp.string() + " 2>/dev/null")
                              .c_str()),
              0)
        << tag << ": standalone program failed to compile";
    ASSERT_EQ(std::system((bin.string() + " " + edges.string() + " > " +
                           out_file.string())
                              .c_str()),
              0)
        << tag;
    std::ifstream result(out_file);
    unsigned long long count = 0;
    result >> count;
    EXPECT_EQ(count, count_embeddings(g, config)) << tag;
  }
}

TEST(CodegenExec, AbiVersionExported) {
  const Graph g = test_graph();
  const Configuration config = plan_configuration(
      patterns::clique(3), GraphStats::of(g), PlannerOptions{});
  void* handle = nullptr;
  const auto abi = reinterpret_cast<unsigned (*)()>(
      compile_and_load(codegen::generate_source(config), "abiprobe",
                       "graphpi_generated_count_abi", &handle));
  ASSERT_NE(abi, nullptr);
  EXPECT_EQ(abi(), codegen::kKernelAbiVersion);
  dlclose(handle);
}

}  // namespace
}  // namespace graphpi
