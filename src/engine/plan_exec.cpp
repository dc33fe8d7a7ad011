#include "engine/plan_exec.h"

#include <algorithm>
#include <numeric>

#include "graph/vertex_set.h"
#include "support/check.h"

namespace graphpi::exec {

namespace {
/// IEP partial sums can exceed 64 bits before the final division.
using SignedWide = __int128;
}  // namespace

void intersect_adjacencies(const Graph& g, VertexId u, VertexId v,
                           std::vector<VertexId>& out) {
  const auto adj_u = g.neighbors(u);
  const auto adj_v = g.neighbors(v);
  const std::uint64_t* bits_u = g.hub_bits(u);
  const std::uint64_t* bits_v = g.hub_bits(v);
  if (bits_v != nullptr && (bits_u == nullptr || adj_u.size() <= adj_v.size())) {
    intersect_bitmap(adj_u, bits_v, out);
  } else if (bits_u != nullptr) {
    intersect_bitmap(adj_v, bits_u, out);
  } else {
    intersect_adaptive(adj_u, adj_v, out);
  }
}

void intersect_with_vertex(const Graph& g, std::span<const VertexId> set,
                           VertexId v, std::vector<VertexId>& out) {
  if (const std::uint64_t* bits = g.hub_bits(v); bits != nullptr) {
    intersect_bitmap(set, bits, out);
  } else {
    intersect_adaptive(set, g.neighbors(v), out);
  }
}

std::span<const VertexId> build_candidates(const Graph& g,
                                           std::span<const int> preds,
                                           std::span<const VertexId> mapped,
                                           std::vector<VertexId>& out,
                                           std::vector<VertexId>& tmp,
                                           std::vector<VertexId>& all) {
  if (preds.empty()) {
    // Unconstrained loop over the whole vertex set (depth 0, or an
    // inefficient schedule kept for the Figure 9 sweep).
    if (all.size() != g.vertex_count()) {
      all.resize(g.vertex_count());
      std::iota(all.begin(), all.end(), VertexId{0});
    }
    return all;
  }
  if (preds.size() == 1) return g.neighbors(mapped[preds[0]]);

  intersect_adjacencies(g, mapped[preds[0]], mapped[preds[1]], out);
  for (std::size_t p = 2; p < preds.size(); ++p) {
    intersect_with_vertex(g, out, mapped[preds[p]], tmp);
    std::swap(out, tmp);
  }
  return out;
}

Count count_intersection_bounded(const Graph& g, std::span<const int> preds,
                                 std::span<const VertexId> mapped,
                                 VertexId lo_inclusive, VertexId hi_exclusive,
                                 std::vector<VertexId>& buf,
                                 std::vector<VertexId>& tmp) {
  if (lo_inclusive >= hi_exclusive) return 0;

  if (preds.empty()) {
    // Unconstrained innermost loop: the window over the whole id range.
    const std::uint64_t n = g.vertex_count();
    const std::uint64_t lo = lo_inclusive;
    const std::uint64_t hi = std::min<std::uint64_t>(hi_exclusive, n);
    return lo < hi ? hi - lo : 0;
  }

  if (preds.size() == 1) {
    return trim_to_window(g.neighbors(mapped[preds[0]]), lo_inclusive,
                          hi_exclusive)
        .size();
  }

  // Two or more predecessors: materialize the chain up to the last step,
  // then compute the final intersection size inside the window directly.
  const VertexId last = mapped[preds.back()];
  const std::uint64_t* last_bits = g.hub_bits(last);
  const auto last_adj = g.neighbors(last);

  if (preds.size() == 2) {
    const VertexId first = mapped[preds[0]];
    const std::uint64_t* first_bits = g.hub_bits(first);
    const auto first_adj = g.neighbors(first);
    if (first_bits != nullptr && last_bits != nullptr &&
        g.hub_words() * 4 <= first_adj.size() + last_adj.size()) {
      // Both endpoints are hubs and the rows are short relative to the
      // adjacencies: word-parallel AND+popcount over the window.
      return bitmap_and_popcount_bounded(first_bits, last_bits,
                                         g.vertex_count(), lo_inclusive,
                                         hi_exclusive);
    }
    if (last_bits != nullptr)
      return intersect_size_bitmap_bounded(first_adj, last_bits, lo_inclusive,
                                           hi_exclusive);
    if (first_bits != nullptr)
      return intersect_size_bitmap_bounded(last_adj, first_bits, lo_inclusive,
                                           hi_exclusive);
    return intersect_size_bounded_adaptive(first_adj, last_adj, lo_inclusive,
                                           hi_exclusive);
  }

  intersect_adjacencies(g, mapped[preds[0]], mapped[preds[1]], buf);
  for (std::size_t p = 2; p + 1 < preds.size(); ++p) {
    intersect_with_vertex(g, buf, mapped[preds[p]], tmp);
    std::swap(buf, tmp);
  }
  if (last_bits != nullptr)
    return intersect_size_bitmap_bounded(buf, last_bits, lo_inclusive,
                                         hi_exclusive);
  return intersect_size_bounded_adaptive(buf, last_adj, lo_inclusive,
                                         hi_exclusive);
}

Count count_used_in_intersection(const Graph& g, std::span<const int> preds,
                                 std::span<const VertexId> mapped,
                                 VertexId lo_inclusive,
                                 VertexId hi_exclusive) {
  Count used = 0;
  for (VertexId v : mapped) {
    if (v < lo_inclusive || v >= hi_exclusive) continue;
    bool member = true;
    for (int p : preds)
      if (!g.has_edge(mapped[p], v)) {
        member = false;
        break;
      }
    if (member) ++used;
  }
  return used;
}

void build_suffix_set(const Graph& g, std::span<const int> preds,
                      std::span<const VertexId> mapped,
                      std::vector<VertexId>& set,
                      std::vector<VertexId>& scratch) {
  if (preds.empty()) {
    // Degenerate (disconnected suffix vertex): every vertex is a
    // candidate.
    set.resize(g.vertex_count());
    std::iota(set.begin(), set.end(), VertexId{0});
  } else if (preds.size() == 1) {
    const auto adj = g.neighbors(mapped[preds[0]]);
    set.assign(adj.begin(), adj.end());
  } else {
    intersect_adjacencies(g, mapped[preds[0]], mapped[preds[1]], set);
    for (std::size_t p = 2; p < preds.size(); ++p) {
      intersect_with_vertex(g, set, mapped[preds[p]], scratch);
      std::swap(set, scratch);
    }
  }
  remove_all(set, mapped);
}

Count evaluate_iep_terms(std::span<const IepPlan::Term> terms,
                         const std::vector<std::vector<VertexId>>& sets,
                         std::span<const int> set_ids,
                         std::vector<VertexId>& scratch_a,
                         std::vector<VertexId>& scratch_b) {
  const auto set_of = [&sets, set_ids](int i) -> const std::vector<VertexId>& {
    return sets[static_cast<std::size_t>(set_ids[i])];
  };
  // Every term is a signed product over its blocks of |∩_{i∈B} S_i|. The
  // last step of every block product is size-only; single- and two-set
  // blocks materialize nothing at all.
  SignedWide sum = 0;
  for (const auto& term : terms) {
    SignedWide product = term.coefficient;
    for (const auto& block : term.blocks) {
      if (product == 0) break;
      std::size_t factor = 0;
      if (block.size() == 1) {
        factor = set_of(block[0]).size();
      } else if (block.size() == 2) {
        factor = intersect_size(set_of(block[0]), set_of(block[1]));
      } else {
        intersect(set_of(block[0]), set_of(block[1]), scratch_a);
        for (std::size_t b = 2; b + 1 < block.size(); ++b) {
          intersect(scratch_a, set_of(block[b]), scratch_b);
          std::swap(scratch_a, scratch_b);
        }
        factor = intersect_size(scratch_a, set_of(block.back()));
      }
      product *= static_cast<SignedWide>(factor);
    }
    sum += product;
  }
  GRAPHPI_CHECK_MSG(sum >= 0, "|S_IEP| is a tuple count and must be >= 0");
  // Per-leaf sums fit 64 bits comfortably (k <= 7 factors of set sizes).
  return static_cast<Count>(sum);
}

}  // namespace graphpi::exec
