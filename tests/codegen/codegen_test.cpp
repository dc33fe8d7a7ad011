// Code generator: structural checks on the emitted source.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "codegen/codegen.h"
#include "core/configuration.h"
#include "core/pattern_library.h"
#include "core/plan.h"
#include "graph/generators.h"

namespace graphpi {
namespace {

Configuration house_config(bool use_iep = false) {
  const Graph g = clustered_power_law(200, 900, 2.3, 0.4, 3);
  PlannerOptions planner;
  planner.use_iep = use_iep;
  return plan_configuration(patterns::house(), GraphStats::of(g), planner);
}

std::size_t count_occurrences(const std::string& haystack,
                              const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + 1))
    ++n;
  return n;
}

TEST(Codegen, EmitsOneLoopPerScheduledVertex) {
  const Configuration config = house_config();
  const std::string src = codegen::generate_source(config);
  // One loop per non-leaf schedule position plus the prelude helpers'
  // loops; the counting leaf materializes nothing, so >= n - 1.
  EXPECT_GE(count_occurrences(src, "for ("),
            static_cast<std::size_t>(config.pattern.size() - 1));
}

TEST(Codegen, EmitsRestrictionWindows) {
  Configuration config = house_config();
  ASSERT_FALSE(config.restrictions.empty());
  const std::string src = codegen::generate_source(config);
  // Restriction windows appear as bound updates on the sorted candidates
  // with an early break (Figure 5(b)).
  EXPECT_NE(src.find("restriction early break"), std::string::npos);
  EXPECT_NE(src.find("u32 lo"), std::string::npos);
  EXPECT_NE(src.find(" = kNoBound;"), std::string::npos);
}

TEST(Codegen, EmitsSizeOnlyCountingLeaf) {
  const std::string src = codegen::generate_source(house_config());
  // The innermost loop of a plain plan is a size-only bounded count, not
  // a materialized candidate loop.
  EXPECT_NE(src.find("counting leaf"), std::string::npos);
  EXPECT_NE(src.find("isect_size"), std::string::npos);
}

TEST(Codegen, EmitsIepTermProducts) {
  const Configuration config = house_config(/*use_iep=*/true);
  ASSERT_GT(config.iep.k, 0);
  const std::string src = codegen::generate_source(config);
  EXPECT_NE(src.find("IEP leaf"), std::string::npos);
  EXPECT_NE(src.find("suffix set"), std::string::npos);
  EXPECT_NE(src.find("__int128"), std::string::npos);
  // The surviving-automorphism divisor is applied inside the kernel.
  EXPECT_NE(src.find("IEP surviving-automorphism factor"), std::string::npos);
}

TEST(Codegen, EmitsParallelRootLoop) {
  const std::string src = codegen::generate_source(house_config());
  // The root-vertex loop is partitioned across OpenMP workers with one
  // traversal state each, and the whole construct is #ifdef-guarded so
  // the same source still builds (serially) without -fopenmp.
  EXPECT_NE(src.find("void root0("), std::string::npos);
  EXPECT_NE(src.find("#pragma omp parallel"), std::string::npos);
  EXPECT_NE(src.find("#pragma omp for schedule(dynamic"), std::string::npos);
  EXPECT_NE(src.find("#if defined(_OPENMP)"), std::string::npos);
  EXPECT_NE(src.find("struct GenRun"), std::string::npos);
}

TEST(Codegen, EmitsHubProbes) {
  const std::string src = codegen::generate_source(house_config());
  // Multi-way intersections go through the hub-aware helpers.
  EXPECT_NE(src.find("hub_row"), std::string::npos);
}

TEST(Codegen, FunctionNameHonored) {
  codegen::CodegenOptions opt;
  opt.function_name = "my_custom_kernel";
  const std::string src = codegen::generate_source(house_config(), opt);
  EXPECT_NE(src.find("unsigned long long my_custom_kernel("),
            std::string::npos);
  EXPECT_NE(src.find("unsigned my_custom_kernel_abi()"), std::string::npos);
}

TEST(Codegen, StandaloneContainsMain) {
  const std::string src = codegen::generate_standalone(house_config());
  EXPECT_NE(src.find("int main(int argc, char** argv)"), std::string::npos);
  EXPECT_NE(src.find("graphpi_generated_count"), std::string::npos);
}

TEST(Codegen, MentionsConfigurationInHeaderComment) {
  const Configuration config = house_config();
  const std::string src = codegen::generate_source(config);
  EXPECT_NE(src.find("// Schedule: " + config.schedule.to_string()),
            std::string::npos);
  EXPECT_NE(src.find("// Restrictions: " + to_string(config.restrictions)),
            std::string::npos);
}

TEST(Codegen, PlanFormMentionsPlanString) {
  const Configuration config = house_config();
  const Plan plan = compile_plan(config);
  const std::string src = codegen::generate_source(plan);
  EXPECT_NE(src.find("// Plan 0: " + plan.to_string()), std::string::npos);
}

TEST(CodegenForest, OneNodeFunctionPerTrieNode) {
  const Graph g = clustered_power_law(200, 900, 2.3, 0.4, 3);
  const GraphStats stats = GraphStats::of(g);
  std::vector<Plan> plans;
  for (const Pattern& p : {patterns::clique(3), patterns::rectangle()})
    plans.push_back(compile_plan(plan_configuration(p, stats, {})));
  const PlanForest forest(std::move(plans));
  const std::string src = codegen::generate_forest_source(forest);
  // The root (node 0) is emitted as the per-root-vertex entry root0 so
  // run() can partition it; every other trie node keeps its function.
  EXPECT_NE(src.find("void root0("), std::string::npos);
  for (std::size_t i = 1; i < forest.nodes().size(); ++i)
    EXPECT_NE(src.find("void node" + std::to_string(i) + "("),
              std::string::npos)
        << "missing node function " << i;
  // Batch entry writes one count per plan.
  EXPECT_NE(src.find("unsigned long long* counts"), std::string::npos);
}

TEST(Codegen, JitSourcesIncludeNoLibraryHeaders) {
  // What a kernel costs to compile is mostly what it includes: the JIT
  // form holds only its plan's loop nest over the ops table, so it may
  // include <cstddef>, <cstdint> and <omp.h> and nothing that needs std::.
  const Graph g = clustered_power_law(200, 900, 2.3, 0.4, 3);
  const GraphStats stats = GraphStats::of(g);
  std::vector<Plan> census;
  for (const Pattern& p : patterns::connected_motifs(4))
    census.push_back(compile_plan(plan_configuration(p, stats, {})));
  const Configuration iep = house_config(/*use_iep=*/true);
  ASSERT_GT(iep.iep.k, 0);
  const std::pair<const char*, std::string> sources[] = {
      {"plain", codegen::generate_source(house_config())},
      {"iep", codegen::generate_source(iep)},
      {"census4", codegen::generate_forest_source(PlanForest(census))}};
  const std::set<std::string> allowed = {
      "#include <cstddef>", "#include <cstdint>", "#include <omp.h>"};
  for (const auto& [label, src] : sources) {
    std::istringstream lines(src);
    std::size_t includes = 0;
    for (std::string line; std::getline(lines, line);) {
      if (line.rfind("#include", 0) != 0) continue;
      ++includes;
      EXPECT_EQ(allowed.count(line), 1u) << label << ": " << line;
    }
    EXPECT_GT(includes, 0u) << label;
    EXPECT_EQ(src.find("std::"), std::string::npos) << label;
  }
}

}  // namespace
}  // namespace graphpi
