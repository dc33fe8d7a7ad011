// Brute-force correctness oracle.
//
// An intentionally independent implementation of embedding counting used
// by the test suite to validate the optimized engines. It shares no code
// with them: candidates come from per-vertex adjacency walks plus
// has_edge probes (no sorted-set algebra, no restrictions, no schedules).
// Only suitable for small graphs.
#pragma once

#include "core/pattern.h"
#include "graph/graph.h"
#include "graph/types.h"

namespace graphpi {

/// Counts distinct embeddings (automorphism-deduplicated) by enumerating
/// all injective maps and dividing by |Aut|.
[[nodiscard]] Count oracle_count(const Graph& graph, const Pattern& pattern);

}  // namespace graphpi
