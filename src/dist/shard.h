// Partitioned CSR shards for the distributed runtime (Section IV-E at
// production shape: no node holds the whole graph).
//
// A ShardedGraph splits the data graph's vertices across `nodes` logical
// owners (hash or degree-balanced range partitioning) and builds one
// Shard per node. A shard stores the full adjacency rows of
//
//   * its OWNED vertices, and
//   * its GHOST layer: every neighbor of an owned vertex (the 1-hop halo),
//     whose adjacency is replicated so a walk anchored at an owned vertex
//     can always take its first boundary-crossing step locally.
//
// Rows are kept in the GLOBAL vertex-id space (restriction windows and
// sorted-set intersections compare global ids, so shard-local results are
// bit-compatible with the shared-memory engines); the compact local id
// space — residents only — is exposed through local_id()/global_id() for
// per-resident bookkeeping. Adjacency of any vertex that is neither owned
// nor ghost is NOT stored: the sharded executor (dist/runtime.h) must
// ship the walk to that vertex's owner instead of reading it, and the
// `poison_nonresident` option fills exactly those rows with garbage so a
// test can prove it never cheats.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "graph/graph.h"
#include "graph/types.h"

namespace graphpi::dist {

enum class PartitionStrategy {
  kHash,   ///< multiplicative hash of the vertex id, modulo nodes
  kRange,  ///< contiguous id ranges balanced by adjacency-slot count
};

[[nodiscard]] const char* to_string(PartitionStrategy strategy) noexcept;

/// Parses "hash" / "range" (CLI flag form). Returns false on anything else.
[[nodiscard]] bool parse_partition(std::string_view name,
                                   PartitionStrategy& out) noexcept;

struct ShardOptions {
  int nodes = 2;
  PartitionStrategy strategy = PartitionStrategy::kHash;
  /// Testing hook: fill the adjacency rows of non-resident vertices with
  /// a deliberately wrong list instead of leaving them empty, so any
  /// executor that reads outside its shard produces loudly wrong counts
  /// (the shard-isolation test's whole point).
  bool poison_nonresident = false;
};

/// One node's slice of the data graph: owned rows + the ghost halo.
class Shard {
 public:
  static constexpr std::uint32_t kNotResident = 0xffffffffu;

  [[nodiscard]] int node() const noexcept { return node_; }

  /// Global-id-space CSR holding rows only for residents (see csr_row_slice).
  /// Intersections and restriction windows on this view produce exactly
  /// the same sorted global-id sets as the full graph would.
  [[nodiscard]] const Graph& view() const noexcept { return view_; }

  /// True when this shard stores v's adjacency (owned or ghost).
  [[nodiscard]] bool is_resident(VertexId v) const noexcept {
    return local_of_[v] != kNotResident;
  }

  [[nodiscard]] bool owns(VertexId v) const noexcept {
    return is_resident(v) && owned_mask_[local_of_[v]];
  }

  /// Sorted global ids of the vertices this node owns (its root domain).
  [[nodiscard]] std::span<const VertexId> owned() const noexcept {
    return owned_;
  }

  [[nodiscard]] std::uint32_t owned_count() const noexcept {
    return static_cast<std::uint32_t>(owned_.size());
  }
  [[nodiscard]] std::uint32_t ghost_count() const noexcept {
    return static_cast<std::uint32_t>(residents_.size() - owned_.size());
  }
  [[nodiscard]] std::uint32_t resident_count() const noexcept {
    return static_cast<std::uint32_t>(residents_.size());
  }

  /// Directed adjacency slots this shard stores (owned + replicated ghost
  /// rows) — the memory-footprint side of the replication factor.
  [[nodiscard]] std::uint64_t resident_slots() const noexcept {
    return resident_slots_;
  }

  /// Compact local id of a resident vertex (kNotResident otherwise).
  [[nodiscard]] std::uint32_t local_id(VertexId global) const noexcept {
    return local_of_[global];
  }
  /// local_id() of every global vertex: the residency map a shard
  /// ForestExecutor tests.
  [[nodiscard]] std::span<const std::uint32_t> local_ids() const noexcept {
    return local_of_;
  }
  /// Inverse of local_id for local < resident_count().
  [[nodiscard]] VertexId global_id(std::uint32_t local) const noexcept {
    return residents_[local];
  }

  /// Checked adjacency access: the executor-facing funnel that asserts the
  /// row is actually resident before returning it.
  [[nodiscard]] std::span<const VertexId> neighbors(VertexId v) const;

  /// Rebuilds a shard from its serialized parts (io/shard_snapshot.h):
  /// the resident-row view in global id space plus the sorted owned and
  /// resident id lists. Derives the local-id map, owned mask, and slot
  /// tally; GRAPHPI_CHECKs the lists are sorted, owned ⊆ residents, and
  /// non-residents have empty rows in `view`.
  [[nodiscard]] static Shard from_parts(int node, Graph view,
                                        std::vector<VertexId> owned,
                                        std::vector<VertexId> residents);

 private:
  friend class ShardedGraph;

  int node_ = 0;
  Graph view_;
  std::vector<VertexId> owned_;      ///< sorted global ids
  std::vector<VertexId> residents_;  ///< sorted global ids; index = local id
  std::vector<bool> owned_mask_;     ///< indexed by local id
  std::vector<std::uint32_t> local_of_;  ///< global -> local (kNotResident)
  std::uint64_t resident_slots_ = 0;
};

/// The partitioned graph: owner map + one Shard per node.
class ShardedGraph {
 public:
  struct Stats {
    std::vector<std::uint32_t> owned_per_node;
    std::vector<std::uint32_t> ghosts_per_node;
    /// Sum over shards of stored adjacency slots, divided by the parent
    /// graph's slots — 1.0 means no replication at all (nodes == 1).
    double replication_factor = 0.0;
  };

  /// Partitions `graph` (which must outlive the sharding). O(nodes * m).
  explicit ShardedGraph(const Graph& graph, const ShardOptions& options = {});

  /// Reassembles a sharding from per-node parts (the shard-snapshot
  /// loader's path: each node's shard was mmap-ed from its own file, so
  /// no parent Graph ever exists in memory). `owner[v]` must be a total
  /// ownership map consistent with the shards' owned sets; stats are
  /// recomputed. The result has_parent() == false.
  [[nodiscard]] static ShardedGraph from_parts(const ShardOptions& options,
                                               std::vector<int> owner,
                                               std::vector<Shard> shards);

  [[nodiscard]] int nodes() const noexcept {
    return static_cast<int>(shards_.size());
  }
  [[nodiscard]] int owner(VertexId v) const noexcept { return owner_[v]; }
  [[nodiscard]] const Shard& shard(int node) const {
    return shards_[static_cast<std::size_t>(node)];
  }

  /// Vertices in the (possibly never-materialized) whole graph.
  [[nodiscard]] VertexId vertex_count() const noexcept {
    return static_cast<VertexId>(owner_.size());
  }

  /// Whether a parent Graph is attached. Snapshot-reassembled shardings
  /// have none — every consumer that can should go through
  /// vertex_count()/shard() instead of parent().
  [[nodiscard]] bool has_parent() const noexcept { return parent_ != nullptr; }
  [[nodiscard]] const Graph& parent() const noexcept { return *parent_; }
  [[nodiscard]] const ShardOptions& options() const noexcept {
    return options_;
  }
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  /// Sum of owned() sizes across all shards — always the parent's vertex
  /// count (ownership is a partition). The async runtime seeds its
  /// termination counter with this: one in-flight unit per owned root.
  [[nodiscard]] std::uint64_t total_owned() const noexcept {
    std::uint64_t total = 0;
    for (const Shard& s : shards_) total += s.owned().size();
    return total;
  }

  /// Builds every shard view's hub bitmap index (auto threshold) unless
  /// already built — call before sharing across threads, mirroring
  /// Graph::ensure_hub_index. After construction (plus this call, when
  /// hub indexes are wanted) a ShardedGraph is immutable, so concurrent
  /// reads from many worker threads are safe without locks.
  void ensure_hub_indexes() const;

 private:
  ShardedGraph() = default;  // from_parts fills the members directly

  const Graph* parent_ = nullptr;
  ShardOptions options_;
  std::vector<int> owner_;
  std::vector<Shard> shards_;
  Stats stats_;
};

/// The owner map alone: owner_of(v) for every vertex under `strategy`.
/// Exposed so tests and tools can inspect partitions without building
/// shard views.
[[nodiscard]] std::vector<int> partition_owners(const Graph& graph, int nodes,
                                                PartitionStrategy strategy);

}  // namespace graphpi::dist
