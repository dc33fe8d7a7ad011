#include "engine/naive.h"

#include "core/automorphism.h"
#include "engine/forest.h"
#include "support/check.h"

namespace graphpi {

Schedule default_schedule(const Pattern& pattern) {
  const auto generated = generate_schedules(pattern);
  return generated.phase1.front();
}

Count naive_count_redundant(const Graph& graph, const Pattern& pattern) {
  Configuration config;
  config.pattern = pattern;
  config.schedule = default_schedule(pattern);
  // No restrictions, no IEP: every automorphic copy is enumerated.
  return count_embeddings(graph, config);
}

Count naive_count(const Graph& graph, const Pattern& pattern) {
  const Count redundant = naive_count_redundant(graph, pattern);
  const Count aut = automorphism_count(pattern);
  GRAPHPI_CHECK_MSG(redundant % aut == 0,
                    "restriction-free enumeration finds each embedding "
                    "exactly |Aut| times");
  return redundant / aut;
}

}  // namespace graphpi
