#include "graph/triangle.h"

#include <algorithm>
#include <cstdint>

#include "graph/vertex_set.h"

namespace graphpi {

std::uint64_t count_triangles(const Graph& g) {
  const VertexId n = g.vertex_count();
  std::uint64_t total = 0;

  // GraphPi's constructor reaches this through GraphStats. Under
  // ThreadSanitizer it runs serially: libgomp is not instrumented, so a
  // team here reports false races in every test that builds a GraphPi.
#ifndef GRAPHPI_TSAN
#pragma omp parallel for schedule(dynamic, 64) reduction(+ : total)
#endif
  for (VertexId u = 0; u < n; ++u) {
    const auto adj_u = g.neighbors(u);
    // Tail of u's adjacency holding only ids greater than u.
    const auto first_gt =
        std::upper_bound(adj_u.begin(), adj_u.end(), u) - adj_u.begin();
    const std::span<const VertexId> tail_u =
        adj_u.subspan(static_cast<std::size_t>(first_gt));
    for (VertexId v : tail_u) {
      const auto adj_v = g.neighbors(v);
      const auto first_gt_v =
          std::upper_bound(adj_v.begin(), adj_v.end(), v) - adj_v.begin();
      total += intersect_size(
          tail_u, adj_v.subspan(static_cast<std::size_t>(first_gt_v)));
    }
  }
  return total;
}

}  // namespace graphpi
