// Figure 10 — counting with vs without the Inclusion–Exclusion Principle,
// same configuration otherwise (the paper's protocol: "we use the same
// configuration selected by GraphPi's performance model ... we avoid the
// influence of schedules and sets of restrictions").
//
// Expected shape: IEP wins everywhere; the factor explodes for patterns
// with a large independent suffix (the paper reports up to 1110x for P2).
// "T" = cut off by the per-cell budget; the speedup column then shows a
// lower bound computed from the budget.
#include <iostream>
#include <optional>

#include "bench_util.h"
#include "core/configuration.h"
#include "core/pattern_library.h"
#include "support/table.h"

namespace {
constexpr double kIepBudgetSeconds = 4.0;
constexpr double kPlainBudgetSeconds = 8.0;
}

int main(int argc, char** argv) {
  using namespace graphpi;
  const double mult = bench::scale_multiplier(argc, argv);
  bench::banner("Figure 10", "counting with vs without IEP (seconds)");

  const char* graphs[] = {"wiki_vote", "mico", "patents", "livejournal",
                          "orkut"};
  support::Table table({"graph", "pattern", "k", "with IEP", "without",
                        "speedup"});

  for (const char* name : graphs) {
    const Graph g = bench::bench_graph(name, mult);
    const GraphStats stats = GraphStats::of(g);
    for (int i = 1; i <= 6; ++i) {
      const Pattern p = patterns::evaluation_pattern(i);
      PlannerOptions planner;
      planner.use_iep = true;
      const Configuration config = plan_configuration(p, stats, planner);

      const bench::BudgetedRun with_iep =
          bench::count_with_budget(g, config, kIepBudgetSeconds);

      bench::BudgetedRun plain;
      if (with_iep.seconds.has_value()) {
        plain =
            bench::count_plain_with_budget(g, config, kPlainBudgetSeconds);
        if (plain.seconds.has_value() && plain.count != with_iep.count) {
          std::cerr << "BUG: IEP/plain disagreement on " << name << " P"
                    << i << "\n";
          return 1;
        }
      }

      std::string speedup = "-";
      if (with_iep.seconds.has_value()) {
        if (plain.seconds.has_value()) {
          speedup = bench::fmt_speedup(*plain.seconds /
                                       std::max(*with_iep.seconds, 1e-9));
        } else {
          speedup = ">" + bench::fmt_speedup(
                              kPlainBudgetSeconds /
                              std::max(*with_iep.seconds, 1e-9));
        }
      }
      table.add(name, "P" + std::to_string(i), config.iep.k,
                bench::fmt_time(with_iep.seconds),
                bench::fmt_time(plain.seconds), speedup);
    }
  }
  table.print();
  return 0;
}
