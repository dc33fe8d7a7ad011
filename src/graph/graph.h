// Compressed-sparse-row (CSR) storage for undirected, unlabeled data graphs.
//
// This is the substrate Section IV-E of the GraphPi paper describes: the
// neighborhood of every vertex is sorted and contiguous in memory, so the
// intersection of two neighborhoods runs in O(n + m) and yields a sorted
// result "for free".
//
// Invariants (established by GraphBuilder, relied upon everywhere):
//   * adjacency lists are strictly ascending (no duplicate edges),
//   * no self loops,
//   * the graph is symmetric: (u,v) present implies (v,u) present.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/types.h"

namespace graphpi {

/// Immutable undirected graph in CSR form.
class Graph {
 public:
  Graph() = default;

  /// Takes ownership of prebuilt CSR arrays. `offsets` has n_vertices + 1
  /// entries; `neighbors[offsets[v] .. offsets[v+1])` is the sorted
  /// adjacency of v. Use GraphBuilder instead of calling this directly.
  Graph(std::vector<EdgeIndex> offsets, std::vector<VertexId> neighbors);

  [[nodiscard]] VertexId vertex_count() const noexcept {
    return offsets_.empty() ? 0 : static_cast<VertexId>(offsets_.size() - 1);
  }

  /// Number of undirected edges (half the CSR slot count).
  [[nodiscard]] std::uint64_t edge_count() const noexcept {
    return neighbors_.size() / 2;
  }

  /// Number of directed adjacency slots (2 * edge_count()).
  [[nodiscard]] std::uint64_t directed_edge_count() const noexcept {
    return neighbors_.size();
  }

  [[nodiscard]] std::uint32_t degree(VertexId v) const noexcept {
    return static_cast<std::uint32_t>(offsets_[v + 1] - offsets_[v]);
  }

  /// Sorted neighborhood of v as a non-owning view.
  [[nodiscard]] std::span<const VertexId> neighbors(VertexId v) const noexcept {
    return {neighbors_.data() + offsets_[v],
            neighbors_.data() + offsets_[v + 1]};
  }

  /// Binary-search adjacency test: O(log deg(u)).
  [[nodiscard]] bool has_edge(VertexId u, VertexId v) const noexcept;

  [[nodiscard]] std::uint32_t max_degree() const noexcept;

  /// Number of triangles (each counted once). Computed lazily on first call
  /// and cached; the performance model (Section IV-C) consumes this.
  [[nodiscard]] std::uint64_t triangle_count() const;

  /// Overrides the cached triangle count (used when a loader already knows
  /// it, or by tests exercising the perf model with synthetic statistics).
  void set_triangle_count(std::uint64_t t) const noexcept {
    cached_triangles_ = t;
    // Publish after the value: pairs with the acquire load in
    // has_cached_triangle_count(), so a thread that observes the flag
    // sees the count (same protocol as the hub index).
    std::atomic_ref<bool>(triangles_valid_)
        .store(true, std::memory_order_release);
  }

  /// Whether triangle_count() would return a cached value without
  /// computing (snapshot saving persists the count only when cached).
  [[nodiscard]] bool has_cached_triangle_count() const noexcept {
    return std::atomic_ref<bool>(triangles_valid_)
        .load(std::memory_order_acquire);
  }

  /// Raw CSR access for kernels that want the arrays directly.
  [[nodiscard]] const std::vector<EdgeIndex>& raw_offsets() const noexcept {
    return offsets_;
  }
  [[nodiscard]] const std::vector<VertexId>& raw_neighbors() const noexcept {
    return neighbors_;
  }

  /// Structural sanity check of all CSR invariants (sortedness, symmetry,
  /// no loops). O(m log d); used by tests and loaders.
  [[nodiscard]] bool validate() const;

  /// Isomorphic copy with vertices relabeled in descending degree order
  /// (ties by old id, so the relabeling is deterministic). Embedding
  /// counts of every pattern are invariant — a relabeling is a graph
  /// isomorphism, and the engines count label-independent embeddings —
  /// while set-kernel locality and snapshot delta compression improve:
  /// hubs cluster at small ids, so adjacency deltas shrink and candidate
  /// sets concentrate in the hot cache lines. When `old_to_new` is
  /// non-null it receives the permutation (new id = (*old_to_new)[old]).
  /// The cached triangle count carries over (it is relabel-invariant).
  [[nodiscard]] Graph reorder_by_degree(
      std::vector<VertexId>* old_to_new = nullptr) const;

  /// Writes this graph as a compressed, mmap-able snapshot — seekable
  /// blocks of delta-varint adjacency with per-block CRC framing
  /// (io/snapshot.h; format spec in docs/FORMAT.md). The labeling is
  /// saved as-is: pair with reorder_by_degree() for the best compression.
  /// Implemented in src/io/snapshot.cpp.
  void save_snapshot(const std::string& path) const;

  /// Loads a snapshot written by save_snapshot: the file is mmap-ed and
  /// every block is CRC-checked and decoded through the runtime-dispatched
  /// SIMD varint kernels (graph/vertex_set.h). Throws io::SnapshotError
  /// on truncated, corrupted, or version-mismatched input.
  [[nodiscard]] static Graph load_snapshot(const std::string& path);

  // -------------------------------------------------------------------------
  // Hub bitmap index.
  //
  // High-degree "hub" vertices additionally store their adjacency as a
  // bitmap row over the whole vertex space (one bit per vertex). A row
  // turns membership tests into O(1) probes and lets the set kernels
  // intersect a hub adjacency with any sorted set in O(|set|) — or two hub
  // rows word-parallel, 64 vertices per AND+popcount. Rows cost |V|/8
  // bytes each, so only vertices whose degree clears a threshold get one,
  // and the total row storage is capped at roughly the CSR size itself.
  //
  // Building mutates lazily-initialized state. ensure_hub_index() is
  // safe to call from concurrent threads (double-checked under a
  // process-wide build lock with acquire/release publication) — racing
  // first-compiles of generated kernels and concurrent ForestExecutor /
  // Matcher constructions all funnel through it. build_hub_index()
  // with an explicit threshold rebuilds unconditionally and must not run
  // while other threads use the graph.
  // -------------------------------------------------------------------------

  /// Slot marker for "not a hub".
  static constexpr std::uint32_t kNotAHub = 0xffffffffu;

  /// Builds the index with an explicit degree threshold. `min_degree == 0`
  /// selects the automatic threshold max(128, |V|/64); pass a value larger
  /// than max_degree() (e.g. UINT32_MAX) to build an empty index, which
  /// disables hub acceleration. Rebuilds if already built.
  void build_hub_index(std::uint32_t min_degree = 0) const;

  /// Builds the index with the automatic threshold unless already built.
  /// Thread-safe (see the section comment above).
  void ensure_hub_index() const;

  [[nodiscard]] bool has_hub_index() const noexcept {
    // Pairs with the release publication at the end of build_hub_index():
    // observing true guarantees the hub arrays are fully visible.
    return std::atomic_ref<bool>(hub_index_built_)
        .load(std::memory_order_acquire);
  }

  /// Number of vertices that received a bitmap row.
  [[nodiscard]] std::uint32_t hub_count() const noexcept { return hub_count_; }

  /// Degree threshold the built index used (0 when not built).
  [[nodiscard]] std::uint32_t hub_min_degree() const noexcept {
    return hub_min_degree_;
  }

  /// Words per bitmap row: ceil(|V| / 64).
  [[nodiscard]] std::size_t hub_words() const noexcept { return hub_words_; }

  /// Bitmap row of v, or nullptr when v has no row (not a hub, or index
  /// not built). Bit x of the row is set iff (v, x) is an edge.
  [[nodiscard]] const std::uint64_t* hub_bits(VertexId v) const noexcept {
    if (hub_slot_.empty()) return nullptr;
    const std::uint32_t slot = hub_slot_[v];
    if (slot == kNotAHub) return nullptr;
    return hub_bits_.data() + static_cast<std::size_t>(slot) * hub_words_;
  }

  /// Raw index arrays for kernels that take the whole structure (generated
  /// code; see codegen/kernel_abi.h). Empty spans when the index is not
  /// built. hub_slots()[v] is the row number of v or kNotAHub; row r
  /// occupies hub_rows()[r * hub_words() .. (r + 1) * hub_words()).
  [[nodiscard]] std::span<const std::uint32_t> hub_slots() const noexcept {
    return hub_slot_;
  }
  [[nodiscard]] std::span<const std::uint64_t> hub_rows() const noexcept {
    return hub_bits_;
  }

 private:
  std::vector<EdgeIndex> offsets_;
  std::vector<VertexId> neighbors_;
  // Lazily computed statistic; logically const.
  mutable std::uint64_t cached_triangles_ = 0;
  mutable bool triangles_valid_ = false;
  // Hub bitmap index (lazily built; logically const).
  mutable std::vector<std::uint32_t> hub_slot_;
  mutable std::vector<std::uint64_t> hub_bits_;
  mutable std::size_t hub_words_ = 0;
  mutable std::uint32_t hub_count_ = 0;
  mutable std::uint32_t hub_min_degree_ = 0;
  mutable bool hub_index_built_ = false;
};

}  // namespace graphpi
