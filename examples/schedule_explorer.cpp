// Schedule explorer: prints every efficient schedule of a pattern with
// its model-predicted cost and measured runtime — an interactive window
// into the Section IV-B/IV-C machinery (and a miniature Figure 9).
//
//   ./schedule_explorer [pattern_index 1..6] [dataset] [scale]
#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <string>

#include "api/graphpi.h"
#include "support/table.h"
#include "support/timer.h"

int main(int argc, char** argv) {
  using namespace graphpi;

  const int pattern_index = argc > 1 ? std::atoi(argv[1]) : 1;
  const std::string dataset = argc > 2 ? argv[2] : "wiki_vote";
  const double scale = argc > 3 ? std::atof(argv[3]) : 0.06;

  const Pattern pattern = patterns::evaluation_pattern(pattern_index);
  const Graph graph = datasets::load(dataset, scale);
  const GraphPi engine(graph);
  const GraphStats& stats = engine.stats();
  std::cout << "pattern P" << pattern_index << " " << pattern.to_string()
            << " on " << dataset << " (scale " << scale << ")\n";

  const auto generated = generate_schedules(pattern);
  const auto restriction_sets = generate_restriction_sets(pattern);
  std::cout << generated.phase1.size() << " phase-1 schedules, "
            << generated.efficient.size() << " efficient (k=" << generated.k
            << "), " << restriction_sets.size() << " restriction sets\n";

  struct Row {
    std::string schedule;
    std::string restrictions;
    double predicted;
    double measured;
    Count embeddings;
  };
  std::vector<Row> rows;
  for (const auto& sched : generated.efficient) {
    const Configuration config = best_configuration_for_schedule(
        pattern, sched, restriction_sets, stats);
    support::Timer timer;
    const Count n = engine.count(config);
    rows.push_back({sched.to_string(), to_string(config.restrictions),
                    config.predicted_cost, timer.elapsed_seconds(), n});
  }

  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.measured < b.measured; });

  support::Table table(
      {"rank", "schedule", "restrictions", "predicted", "measured(s)"});
  const std::size_t shown = std::min<std::size_t>(rows.size(), 15);
  for (std::size_t i = 0; i < shown; ++i)
    table.add(i + 1, rows[i].schedule, rows[i].restrictions,
              rows[i].predicted, rows[i].measured);
  table.print();
  if (rows.size() > shown)
    std::cout << "(" << rows.size() - shown << " more schedules omitted)\n";

  // Where did the model's pick land?
  const auto selected = std::min_element(
      rows.begin(), rows.end(),
      [](const Row& a, const Row& b) { return a.predicted < b.predicted; });
  std::cout << "model-selected schedule " << selected->schedule << " is "
            << selected->measured / std::max(rows.front().measured, 1e-9)
            << "x the oracle time; embeddings = " << selected->embeddings
            << "\n";
  return 0;
}
