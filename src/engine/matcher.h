// The nested-loop embedding lister.
//
// Compiles its Configuration (schedule + restriction set) into a
// core::Plan at construction and walks that IR against a CSR data graph,
// reporting every embedding — the loops GraphPi's code generator would
// emit (Figure 5(b)):
//
//   * loop depth i searches the pattern vertex schedule[i];
//   * its candidate set is the intersection of the neighborhoods of the
//     already-mapped pattern neighbors (sorted, so intersections are
//     O(n + m) merges — vectorized, see graph/vertex_set.h);
//   * a restriction id(u) > id(v) is enforced in the loop of the
//     later-scheduled endpoint as a range bound on the sorted candidates.
//
// Listing only: counting runs the plan forest (engine/forest.h), whose
// innermost loop never materializes its candidates and which applies the
// configuration's IEP plan. Listing materializes every candidate and
// never uses IEP.
//
// The matcher is immutable after construction and safe to share across
// threads: all mutable state lives in a Workspace, which callers that
// list root by root (enumerate_parallel) construct once per worker.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "core/configuration.h"
#include "core/plan.h"
#include "graph/graph.h"
#include "graph/types.h"

namespace graphpi {

/// Receives one embedding as data-graph vertices indexed by *pattern
/// vertex* (not schedule position).
using EmbeddingCallback =
    std::function<void(std::span<const VertexId> embedding)>;

class Matcher {
 public:
  /// Mutable traversal state: the partial embedding plus reusable
  /// candidate buffers.
  struct Workspace {
    VertexId mapped[Pattern::kMaxVertices] = {};
    // Double-buffered candidate storage per depth (intersection chains).
    std::vector<VertexId> buf_a[Pattern::kMaxVertices];
    std::vector<VertexId> buf_b[Pattern::kMaxVertices];
    std::vector<VertexId> all_vertices;  // lazy iota for 0-pred depths
  };

  /// `config.schedule` must cover `config.pattern`; any IEP plan is
  /// ignored (IEP cannot list). The graph must satisfy the CSR
  /// invariants (see Graph). Builds the graph's hub bitmap index (with
  /// the automatic threshold) if not already built.
  Matcher(const Graph& graph, const Configuration& config);

  /// Enumerates all embeddings, invoking `cb` once per embedding.
  void enumerate(const EmbeddingCallback& cb) const;

  /// Enumerates the embeddings whose first schedule position maps to
  /// `root` — the per-root work unit of enumerate_parallel.
  void enumerate_root(Workspace& ws, VertexId root,
                      const EmbeddingCallback& cb) const;

 private:
  /// Emits every embedding extending mapped[0 .. depth).
  void recurse(Workspace& ws, int depth, const EmbeddingCallback& cb) const;

  const Graph* graph_;
  Plan plan_;  ///< compiled IR (see core/plan.h)
  int n_ = 0;  ///< pattern size
};

}  // namespace graphpi
