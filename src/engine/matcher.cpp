#include "engine/matcher.h"

#include "engine/plan_exec.h"
#include "graph/vertex_set.h"

namespace graphpi {

Matcher::Matcher(const Graph& graph, const Configuration& config)
    : graph_(&graph), plan_(compile_plan(config)), n_(plan_.size()) {
  // Hub rows accelerate the multi-way intersections; building is
  // idempotent and must happen before the matcher is shared across
  // threads. Plans without any 2+-way intersection skip the index.
  if (plan_.wants_hub_index) graph.ensure_hub_index();
}

void Matcher::recurse(Workspace& ws, int depth,
                      const EmbeddingCallback& cb) const {
  if (depth == n_) {
    VertexId embedding[Pattern::kMaxVertices];
    for (int d = 0; d < n_; ++d)
      embedding[plan_.steps[static_cast<std::size_t>(d)].pattern_vertex] =
          ws.mapped[d];
    cb({embedding, static_cast<std::size_t>(n_)});
    return;
  }
  const auto& step = plan_.steps[static_cast<std::size_t>(depth)];
  const std::span<const VertexId> mapped{ws.mapped,
                                         static_cast<std::size_t>(depth)};
  const auto cands =
      exec::build_candidates(*graph_, step.predecessor_depths, mapped,
                             ws.buf_a[depth], ws.buf_b[depth],
                             ws.all_vertices);
  const exec::Window w = exec::bounded_window(ws.mapped, step);
  const auto range =
      w.unbounded() ? cands
                    : trim_to_window(cands, w.lo_inclusive, w.hi_exclusive);
  for (VertexId v : range) {
    if (exec::already_used(mapped, v)) continue;
    ws.mapped[depth] = v;
    recurse(ws, depth + 1, cb);
  }
}

void Matcher::enumerate(const EmbeddingCallback& cb) const {
  Workspace ws;
  recurse(ws, 0, cb);
}

void Matcher::enumerate_root(Workspace& ws, VertexId root,
                             const EmbeddingCallback& cb) const {
  // Depth 0 has no predecessors or bounds, so any vertex is a valid root.
  ws.mapped[0] = root;
  recurse(ws, 1, cb);
}

}  // namespace graphpi
