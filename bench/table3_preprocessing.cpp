// Table III — preprocessing and code-generation overhead per pattern:
// restriction-set generation (Algorithm 1), schedule generation + the
// performance model sweep, and C++ code emission. The paper reports 8 ms
// (P1) to 2.53 s (P6); the overhead depends only on the pattern, not on
// the data graph. Planning uses the API's default IEP setting, so the
// numbers are what GraphPi::count(Pattern) pays.
#include <iostream>

#include "api/graphpi.h"
#include "bench_util.h"
#include "codegen/codegen.h"
#include "core/configuration.h"
#include "core/pattern_library.h"
#include "support/table.h"
#include "support/timer.h"

int main(int argc, char** argv) {
  using namespace graphpi;
  (void)argc;
  (void)argv;
  bench::banner("Table III", "preprocessing + codegen overhead (seconds)");

  // Any statistics work; the overhead is data-graph independent. Use the
  // wiki_vote stand-in statistics as the paper's setting.
  const Graph g = bench::bench_graph("wiki_vote", 1.0);
  const GraphStats stats = GraphStats::of(g);

  PlannerOptions planner;
  planner.use_iep = MatchOptions{}.use_iep;

  support::Table table({"pattern", "restr gen", "sched+model", "codegen",
                        "total", "configs evaluated", "iep validations"});
  for (int i = 1; i <= 6; ++i) {
    const Pattern p = patterns::evaluation_pattern(i);

    support::Timer t;
    const auto sets = generate_restriction_sets(p);
    const double restr_secs = t.elapsed_seconds();

    PlanningStats diag;
    t.reset();
    Configuration config = plan_configuration(p, stats, planner, &diag);
    const double plan_secs = t.elapsed_seconds();

    t.reset();
    const std::string source = codegen::generate_source(config);
    const double codegen_secs = t.elapsed_seconds();

    table.add("P" + std::to_string(i), restr_secs, plan_secs, codegen_secs,
              restr_secs + plan_secs + codegen_secs,
              diag.configurations_evaluated, diag.iep_validations);
    (void)sets;
    (void)source;
  }
  table.print();
  std::cout << "(paper range: 0.008s for P1 to 2.53s for P6)\n";
  return 0;
}
