// GPS1 snapshot round trips: CSR-exact save/load across topologies and
// block sizes, degree-reorder invariance, count equality across engines
// and kernel ISAs on snapshot-loaded graphs, lazy per-block decode, the
// per-shard snapshot path, and the io.snapshot.* metrics contract.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <numeric>
#include <string>
#include <vector>

#include "api/graphpi.h"
#include "dist/runtime.h"
#include "io/shard_snapshot.h"
#include "io/snapshot.h"
#include "test_util.h"

namespace graphpi {
namespace {

namespace fs = std::filesystem;

std::string temp_path(const std::string& name) {
  return (fs::temp_directory_path() / name).string();
}

/// RAII file (set) cleanup so failed assertions don't leak temp files.
struct TempFiles {
  std::vector<std::string> paths;
  ~TempFiles() {
    for (const auto& p : paths) fs::remove(p);
  }
  const std::string& add(std::string p) {
    paths.push_back(std::move(p));
    return paths.back();
  }
};

TEST(Snapshot, RoundTripPreservesCsrExactly) {
  TempFiles files;
  const auto& path = files.add(temp_path("graphpi_snap_roundtrip.gps"));
  int i = 0;
  for (const Graph& g : testing::small_test_graphs()) {
    const std::uint64_t triangles = g.triangle_count();  // prime the cache
    g.save_snapshot(path);
    const Graph loaded = Graph::load_snapshot(path);
    EXPECT_EQ(loaded.raw_offsets(), g.raw_offsets()) << "graph " << i;
    EXPECT_EQ(loaded.raw_neighbors(), g.raw_neighbors()) << "graph " << i;
    EXPECT_TRUE(loaded.validate()) << "graph " << i;
    // The cached triangle count travels in the header — no recount.
    EXPECT_TRUE(loaded.has_cached_triangle_count()) << "graph " << i;
    EXPECT_EQ(loaded.triangle_count(), triangles) << "graph " << i;
    ++i;
  }
}

TEST(Snapshot, HandlesEmptyAndIsolatedVertexGraphs) {
  TempFiles files;
  const auto& path = files.add(temp_path("graphpi_snap_edge_cases.gps"));

  const Graph empty(std::vector<EdgeIndex>{0}, {});
  empty.save_snapshot(path);
  EXPECT_EQ(Graph::load_snapshot(path).vertex_count(), 0u);

  // One edge surrounded by isolated vertices (empty rows at both ends
  // and in the middle of a block).
  const Graph sparse(std::vector<EdgeIndex>{0, 0, 1, 1, 2, 2}, {3, 1});
  sparse.save_snapshot(path);
  const Graph loaded = Graph::load_snapshot(path);
  EXPECT_EQ(loaded.raw_offsets(), sparse.raw_offsets());
  EXPECT_EQ(loaded.raw_neighbors(), sparse.raw_neighbors());
}

TEST(Snapshot, BlockVerticesSweepAndLazyBlockDecode) {
  TempFiles files;
  const Graph g = clustered_power_law(300, 1500, 2.3, 0.4, 11);
  for (const std::uint32_t bv : {1u, 3u, 64u, 5000u}) {
    const auto& path = files.add(
        temp_path("graphpi_snap_bv" + std::to_string(bv) + ".gps"));
    io::SnapshotOptions options;
    options.block_vertices = bv;
    io::save_snapshot(g, path, options);

    const io::MappedSnapshot snap(path);
    const std::uint32_t expected_blocks =
        (g.vertex_count() + bv - 1) / bv;
    EXPECT_EQ(snap.block_count(), expected_blocks) << "bv " << bv;
    EXPECT_EQ(snap.info().slot_count, g.directed_edge_count()) << "bv " << bv;

    // Reassemble the CSR from individually (lazily) decoded blocks.
    std::vector<std::uint32_t> degrees;
    std::vector<VertexId> neighbors;
    io::DecodedBlock block;
    for (std::uint32_t b = 0; b < snap.block_count(); ++b) {
      snap.decode_block(b, block);
      EXPECT_EQ(block.first_vertex, b * bv) << "bv " << bv;
      degrees.insert(degrees.end(), block.degrees.begin(),
                     block.degrees.end());
      neighbors.insert(neighbors.end(), block.neighbors.begin(),
                       block.neighbors.end());
    }
    EXPECT_EQ(neighbors, g.raw_neighbors()) << "bv " << bv;
    for (VertexId v = 0; v < g.vertex_count(); ++v)
      ASSERT_EQ(degrees[v], g.degree(v)) << "bv " << bv << " vertex " << v;

    EXPECT_EQ(Graph::load_snapshot(path).raw_neighbors(), g.raw_neighbors())
        << "bv " << bv;
  }
}

TEST(Snapshot, ReorderByDegreeIsACountPreservingIsomorphism) {
  const Graph g = clustered_power_law(200, 900, 2.3, 0.4, 21);
  std::vector<VertexId> old_to_new;
  const Graph reordered = g.reorder_by_degree(&old_to_new);

  EXPECT_TRUE(reordered.validate());
  ASSERT_EQ(old_to_new.size(), g.vertex_count());

  // old_to_new is a permutation...
  std::vector<bool> seen(g.vertex_count(), false);
  for (VertexId v : old_to_new) {
    ASSERT_LT(v, g.vertex_count());
    EXPECT_FALSE(seen[v]);
    seen[v] = true;
  }
  // ...that maps edges to edges and sorts degrees descending.
  for (VertexId v = 0; v < g.vertex_count(); ++v) {
    EXPECT_EQ(reordered.degree(old_to_new[v]), g.degree(v));
    for (VertexId w : g.neighbors(v))
      EXPECT_TRUE(reordered.has_edge(old_to_new[v], old_to_new[w]));
  }
  for (VertexId v = 1; v < reordered.vertex_count(); ++v)
    EXPECT_GE(reordered.degree(v - 1), reordered.degree(v));

  // Embedding counts are relabel-invariant.
  const GraphPi before(g);
  const GraphPi after(reordered);
  for (const Pattern& p :
       {patterns::clique(3), patterns::house(), patterns::rectangle()}) {
    EXPECT_EQ(after.count(p), before.count(p)) << p.to_string();
  }
}

TEST(Snapshot, CountsMatchAcrossBackendsAndKernelIsas) {
  TempFiles files;
  const auto& path = files.add(temp_path("graphpi_snap_isas.gps"));
  const Graph g = power_law(300, 1400, 2.3, 31);
  g.reorder_by_degree().save_snapshot(path);
  const Graph loaded = Graph::load_snapshot(path);

  const Pattern pattern = patterns::house();
  const Count expected = GraphPi(g).count(pattern);
  const GraphPi engine(loaded);
  for (const KernelIsa isa :
       {KernelIsa::kScalar, KernelIsa::kAvx2, KernelIsa::kAvx512}) {
    if (!cpu_supports(isa)) continue;
    const testing::IsaGuard guard(isa);
    MatchOptions options;
    EXPECT_EQ(engine.count(pattern, options), expected)
        << "serial " << to_string(isa);
    options.backend = Backend::kParallel;
    EXPECT_EQ(engine.count(pattern, options), expected)
        << "parallel " << to_string(isa);
  }
}

TEST(Snapshot, ShardSnapshotsRebuildTheShardingExactly) {
  TempFiles files;
  const Graph g = clustered_power_law(250, 1100, 2.3, 0.4, 41);
  for (const auto strategy :
       {dist::PartitionStrategy::kHash, dist::PartitionStrategy::kRange}) {
    dist::ShardOptions shard_options;
    shard_options.nodes = 3;
    shard_options.strategy = strategy;
    const dist::ShardedGraph built(g, shard_options);

    const std::string prefix =
        temp_path(std::string("graphpi_snap_shards_") +
                  dist::to_string(strategy));
    for (const std::string& p :
         io::save_shard_snapshots(built, prefix)) files.add(p);
    const dist::ShardedGraph loaded = io::load_shard_snapshots(prefix);

    EXPECT_FALSE(loaded.has_parent());
    ASSERT_EQ(loaded.nodes(), built.nodes());
    EXPECT_EQ(loaded.vertex_count(), g.vertex_count());
    EXPECT_EQ(loaded.options().strategy, strategy);
    for (VertexId v = 0; v < g.vertex_count(); ++v)
      ASSERT_EQ(loaded.owner(v), built.owner(v));
    for (int node = 0; node < built.nodes(); ++node) {
      const dist::Shard& a = built.shard(node);
      const dist::Shard& b = loaded.shard(node);
      EXPECT_EQ(b.view().raw_offsets(), a.view().raw_offsets());
      EXPECT_EQ(b.view().raw_neighbors(), a.view().raw_neighbors());
      ASSERT_EQ(b.resident_count(), a.resident_count());
      for (std::uint32_t local = 0; local < a.resident_count(); ++local)
        ASSERT_EQ(b.global_id(local), a.global_id(local));
      EXPECT_EQ(std::vector<VertexId>(b.owned().begin(), b.owned().end()),
                std::vector<VertexId>(a.owned().begin(), a.owned().end()));
    }
    EXPECT_DOUBLE_EQ(loaded.stats().replication_factor,
                     built.stats().replication_factor);

    // The reloaded sharding is drop-in for the distributed executor.
    const std::vector<Pattern> batch = {patterns::clique(3),
                                        patterns::house()};
    const PlanForest forest = GraphPi(g).plan_batch(batch);
    EXPECT_EQ(dist::distributed_count_batch(loaded, forest),
              dist::distributed_count_batch(built, forest))
        << dist::to_string(strategy);
  }
}

TEST(Snapshot, AmbiguousShardPrefixIsRejected) {
  // Two shard sets under one prefix (0-of-2 and 0-of-3): which set
  // loads must not depend on directory iteration order, so the loader
  // refuses instead of picking one.
  TempFiles files;
  const Graph g = erdos_renyi(80, 240, 71);
  const std::string prefix = temp_path("graphpi_snap_ambiguous");
  for (const int nodes : {2, 3}) {
    dist::ShardOptions options;
    options.nodes = nodes;
    for (const std::string& p :
         io::save_shard_snapshots(dist::ShardedGraph(g, options), prefix))
      files.add(p);
  }
  EXPECT_THROW((void)io::load_shard_snapshots(prefix), io::SnapshotError);
}

TEST(Snapshot, MetricsCountersAccountForSavesAndLoads) {
  TempFiles files;
  const auto& path = files.add(temp_path("graphpi_snap_metrics.gps"));
  const Graph g = erdos_renyi(120, 480, 51);
  const auto before = GraphPi::metrics_snapshot();
  g.save_snapshot(path);
  (void)Graph::load_snapshot(path);
  const auto delta = GraphPi::metrics_snapshot().diff(before);
  EXPECT_EQ(delta.counter_or("io.snapshot.saves"), 1u);
  EXPECT_EQ(delta.counter_or("io.snapshot.loads"), 1u);
  EXPECT_EQ(delta.counter_or("io.snapshot.opens"), 1u);
  EXPECT_GT(delta.counter_or("io.snapshot.bytes_written"), 0u);
  EXPECT_GT(delta.counter_or("io.snapshot.bytes_mapped"), 0u);
  EXPECT_GT(delta.counter_or("io.snapshot.blocks_decoded"), 0u);
  EXPECT_EQ(delta.counter_or("io.snapshot.crc_rejects"), 0u);
}

}  // namespace
}  // namespace graphpi
