// Ablation — IEP term evaluation strategy (DESIGN.md design choice):
// the paper's Section IV-D sum enumerates all 2^(k(k-1)/2) collision-pair
// subsets; GraphPi-the-library folds subsets with identical component
// partitions into one Möbius-weighted term (at most Bell(k) terms). Both
// are exact; this bench quantifies the evaluation-cost difference.
#include <iostream>

#include "bench_util.h"
#include "core/configuration.h"
#include "core/iep.h"
#include "core/pattern_library.h"
#include "support/table.h"

int main(int argc, char** argv) {
  using namespace graphpi;
  const double mult = bench::scale_multiplier(argc, argv);
  bench::banner("Ablation", "IEP term aggregation (partition Moebius fold)");

  support::Table table({"pattern", "k", "terms verbatim", "terms folded",
                        "verbatim(s)", "folded(s)", "speedup"});

  struct Workload {
    const char* name;
    Pattern pattern;
    const char* graph;
  };
  const Workload workloads[] = {
      {"house", patterns::house(), "patents"},
      {"cycle_6_tri", patterns::cycle_6_tri(), "mico"},
      {"P2", patterns::evaluation_pattern(2), "wiki_vote"},
  };

  for (const auto& w : workloads) {
    const Graph g = bench::bench_graph(w.graph, mult);
    PlannerOptions planner;
    planner.use_iep = true;
    Configuration folded = plan_configuration(w.pattern, GraphStats::of(g),
                                              planner);
    if (folded.iep.k == 0) continue;

    Configuration verbatim = folded;
    verbatim.iep =
        build_iep_plan(w.pattern, folded.schedule, folded.restrictions,
                       folded.iep.k, /*aggregate_partitions=*/false);

    Count n_folded = 0, n_verbatim = 0;
    const double folded_secs = bench::time_once(
        [&] { n_folded = count_embeddings(g, folded); });
    const double verbatim_secs = bench::time_once(
        [&] { n_verbatim = count_embeddings(g, verbatim); });
    if (n_folded != n_verbatim) {
      std::cerr << "BUG: term strategies disagree\n";
      return 1;
    }
    table.add(w.name, folded.iep.k, verbatim.iep.terms.size(),
              folded.iep.terms.size(), verbatim_secs, folded_secs,
              bench::fmt_speedup(verbatim_secs /
                                 std::max(folded_secs, 1e-9)));
  }
  table.print();
  return 0;
}
