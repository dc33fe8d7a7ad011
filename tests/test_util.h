// Shared helpers for the GraphPi test suites.
#pragma once

#include <cstdint>
#include <vector>

#include "core/pattern.h"
#include "core/pattern_library.h"
#include "core/plan_forest.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/vertex_set.h"

namespace graphpi::testing {

/// Small deterministic graphs exercising different topologies; every
/// cross-engine consistency test sweeps these.
inline std::vector<Graph> small_test_graphs() {
  std::vector<Graph> graphs;
  graphs.push_back(erdos_renyi(60, 240, /*seed=*/1));
  graphs.push_back(erdos_renyi(40, 320, /*seed=*/2));  // denser
  graphs.push_back(power_law(80, 300, 2.3, /*seed=*/3));
  graphs.push_back(clustered_power_law(70, 280, 2.2, 0.5, /*seed=*/4));
  graphs.push_back(complete_graph(12));
  graphs.push_back(cycle_graph(24));
  graphs.push_back(star_graph(25));
  graphs.push_back(grid_graph(6, 7));
  graphs.push_back(random_regular(50, 6, /*seed=*/5));
  return graphs;
}

/// Pins the process-wide kernel dispatch table to `isa` for one scope,
/// restoring the previous selection on exit. The table is process
/// state, so only single-threaded tests may use this.
class IsaGuard {
 public:
  explicit IsaGuard(KernelIsa isa)
      : previous_(active_kernel_isa()), selected_(select_kernel_isa(isa)) {}
  ~IsaGuard() { select_kernel_isa(previous_); }
  IsaGuard(const IsaGuard&) = delete;
  IsaGuard& operator=(const IsaGuard&) = delete;
  [[nodiscard]] bool selected() const noexcept { return selected_; }

 private:
  KernelIsa previous_;
  bool selected_;
};

/// Patterns spanning the symmetry spectrum (|Aut| from 1 to 5040).
inline std::vector<Pattern> assorted_patterns() {
  using namespace graphpi::patterns;
  return {
      clique(3),         rectangle(),     tailed_triangle(), clique(4),
      house(),           pentagon(),      hourglass(),       cycle_6_tri(),
      star(5),           path(4),         clique(5),
      evaluation_pattern(2),              evaluation_pattern(4),
  };
}

/// True when some extension of `forest` copies a node's IEP suffix set as
/// its candidates instead of intersecting (Extension::reuse_suffix_def).
inline bool reuses_suffix_set(const PlanForest& forest) {
  for (const PlanForest::Node& node : forest.nodes())
    for (const PlanForest::Extension& ext : node.extensions)
      if (ext.reuse_suffix_def >= 0) return true;
  return false;
}

}  // namespace graphpi::testing
