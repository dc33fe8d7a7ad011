// Figure 12 — scalability of the distributed runtime. The paper scales
// to 1,024 Tianhe-2A nodes; on one core we measure the *real* per-task
// costs of each workload once, then replay them through the
// discrete-event cluster simulator (round-robin placement + work
// stealing), reporting modeled speedup for 1..1024 nodes. DESIGN.md
// documents the substitution.
//
// Expected shape: near-linear speedup while tasks-per-node stays large
// (Orkut panel, P1/P4/P5/P6 in the paper); flattening when a few huge
// tasks dominate (the Twitter panel's load imbalance).
#include <iostream>

#include "bench_util.h"
#include "core/configuration.h"
#include "core/pattern_library.h"
#include "core/plan_forest.h"
#include "dist/simulator.h"
#include "engine/forest.h"
#include "support/table.h"
#include "support/timer.h"

int main(int argc, char** argv) {
  using namespace graphpi;
  const double mult = bench::scale_multiplier(argc, argv);
  bench::banner("Figure 12", "simulated strong scaling, 1..1024 nodes");

  struct Panel {
    const char* graph;
    std::vector<int> patterns;
    std::vector<int> nodes;
  };
  const Panel panels[] = {
      {"orkut", {1, 2, 3, 4}, {1, 2, 4, 8, 16, 32, 64, 128}},
      {"twitter", {2, 3}, {128, 256, 512, 1024}},
  };

  for (const auto& panel : panels) {
    const Graph g = bench::bench_graph(panel.graph, mult);
    const GraphStats stats = GraphStats::of(g);
    std::cout << "-- " << panel.graph << " stand-in: " << g.vertex_count()
              << " vertices, " << g.edge_count() << " edges --\n";

    support::Table table({"pattern", "tasks", "nodes", "speedup",
                          "efficiency", "steals"});
    for (int pi : panel.patterns) {
      const Pattern p = patterns::evaluation_pattern(pi);
      PlannerOptions planner;
      planner.use_iep = true;
      const PlanForest forest({compile_plan(
          plan_configuration(p, stats, planner))});
      const ForestExecutor executor(g, forest);

      // Measure real per-task costs at the runtime's task granularity:
      // one root vertex.
      std::vector<double> task_costs;
      ForestExecutor::Workspace ws;
      executor.reset(ws);
      for (VertexId v = 0; v < g.vertex_count(); ++v) {
        support::Timer t;
        executor.accumulate_root(ws, v);
        task_costs.push_back(t.elapsed_seconds());
      }

      for (int nodes : panel.nodes) {
        const dist::SimResult r =
            dist::simulate_cluster(task_costs, nodes);
        table.add("P" + std::to_string(pi), task_costs.size(), nodes,
                  r.speedup_vs_serial(), r.efficiency(nodes), r.steals);
      }
    }
    table.print();
  }
  std::cout << "(speedup = measured total work / simulated makespan)\n";
  return 0;
}
