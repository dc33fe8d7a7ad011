// Figure 8 — overall performance: GraphPi vs the reproduced GraphZero vs
// the restriction-free enumerator (the paper's Fractal-class baseline),
// for patterns P1..P6 on five dataset stand-ins, all without IEP (the
// paper's single-node comparison protocol).
//
// Every cell runs under a wall-clock budget; "T" marks cut-off runs, the
// same convention the paper uses for >48h workloads. Expected shape:
// GraphPi <= GraphZero << naive everywhere, with the gap growing on
// larger/denser graphs and more symmetric patterns.
#include <iostream>
#include <optional>

#include "bench_util.h"
#include "core/automorphism.h"
#include "core/configuration.h"
#include "core/pattern_library.h"
#include "engine/graphzero.h"
#include "engine/naive.h"
#include "support/table.h"

namespace {
constexpr double kCellBudgetSeconds = 8.0;
}

int main(int argc, char** argv) {
  using namespace graphpi;
  const double mult = bench::scale_multiplier(argc, argv);
  bench::banner("Figure 8",
                "overall single-node performance, no IEP (seconds)");

  const char* graphs[] = {"wiki_vote", "mico", "patents", "livejournal",
                          "orkut"};
  support::Table table({"graph", "pattern", "embeddings", "graphpi",
                        "graphzero", "naive", "gz/gp", "naive/gp"});

  for (const char* name : graphs) {
    const Graph g = bench::bench_graph(name, 0.55 * mult);
    const GraphStats stats = GraphStats::of(g);
    for (int i = 1; i <= 6; ++i) {
      const Pattern p = patterns::evaluation_pattern(i);

      // GraphPi: full pipeline, plain enumeration (no IEP).
      const Configuration gp_config =
          plan_configuration(p, stats, PlannerOptions{});
      const bench::BudgetedRun gp =
          bench::count_with_budget(g, gp_config, kCellBudgetSeconds);

      // GraphZero reproduction: its schedule + its single restriction
      // set. Only attempted when GraphPi finished (it is the faster
      // system; a timed-out GraphPi implies a timed-out GraphZero).
      bench::BudgetedRun gz;
      if (gp.seconds.has_value()) {
        const Configuration gz_config = graphzero::plan(p, stats);
        gz = bench::count_with_budget(g, gz_config,
                                      2 * kCellBudgetSeconds);
        if (gz.seconds.has_value() && gz.count != gp.count) {
          std::cerr << "BUG: GraphZero disagreement on " << name << " P"
                    << i << "\n";
          return 1;
        }
      }

      // Naive baseline: |Aut|-fold redundant enumeration.
      bench::BudgetedRun naive;
      if (gp.seconds.has_value()) {
        Configuration naive_config;
        naive_config.pattern = p;
        naive_config.schedule = default_schedule(p);
        naive = bench::count_with_budget(g, naive_config,
                                         2 * kCellBudgetSeconds);
        if (naive.seconds.has_value()) {
          const Count aut = automorphism_count(p);
          if (naive.count != gp.count * aut) {
            std::cerr << "BUG: naive disagreement on " << name << " P" << i
                      << "\n";
            return 1;
          }
        }
      }

      auto ratio = [&gp](const bench::BudgetedRun& x) {
        return (gp.seconds.has_value() && x.seconds.has_value())
                   ? std::optional<double>(*x.seconds /
                                           std::max(*gp.seconds, 1e-9))
                   : std::nullopt;
      };
      table.add(name, "P" + std::to_string(i),
                gp.seconds.has_value() ? std::to_string(gp.count)
                                       : std::string("-"),
                bench::fmt_time(gp.seconds), bench::fmt_time(gz.seconds),
                bench::fmt_time(naive.seconds),
                bench::fmt_speedup(ratio(gz)),
                bench::fmt_speedup(ratio(naive)));
    }
  }
  table.print();
  std::cout << "(per-cell budget " << kCellBudgetSeconds
            << "s for GraphPi, 2x for baselines; T = cut off, as in the "
               "paper)\n";
  return 0;
}
