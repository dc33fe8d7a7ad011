// Motif census: counts every connected k-vertex pattern (k = 3..5) on a
// social-network stand-in — the Motif Counting workload the paper cites
// as a major IEP beneficiary (Section IV-D: "many graph mining problems,
// such as Clique Counting and Motif Counting, only need ... the number of
// embeddings").
//
// The census runs BATCHED by default: all motif plans are compiled into
// the plan IR, merged into a prefix-sharing forest, and counted in one
// traversal of the data graph (GraphPi::count_batch). Pass mode
// "per-pattern" to run the historical one-schedule-per-motif loop, or
// "compare" to time both and print the speedup.
//
//   ./motif_census [dataset] [scale] [k] [batch|per-pattern|compare]
//                  [--nodes N] [--partition hash|range]
//
// Defaults: mico stand-in at scale 0.3, k = 4, batch. With --nodes N the
// batched census runs on the sharded distributed backend (one sharded
// batch traversal across N logical nodes) and reports the message/byte
// economy of the run.
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "api/graphpi.h"
#include "core/automorphism.h"
#include "support/table.h"
#include "support/timer.h"

namespace {

using namespace graphpi;

/// The pre-batch census: replan and rescan the data graph once per motif.
std::vector<Count> per_pattern_census(const GraphPi& engine,
                                      const std::vector<Pattern>& motifs) {
  std::vector<Count> counts;
  counts.reserve(motifs.size());
  for (const Pattern& motif : motifs)
    counts.push_back(engine.count(motif, MatchOptions{}));
  return counts;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace graphpi;

  int nodes = 0;  // 0 = in-process serial batch
  dist::PartitionStrategy partition = dist::PartitionStrategy::kHash;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--nodes" && i + 1 < argc) {
      nodes = std::atoi(argv[++i]);
    } else if (arg.rfind("--partition=", 0) == 0) {
      if (!dist::parse_partition(arg.substr(12), partition)) {
        std::cerr << "unknown partition strategy: " << arg << "\n";
        return 1;
      }
    } else if (arg == "--partition" && i + 1 < argc) {
      if (!dist::parse_partition(argv[++i], partition)) {
        std::cerr << "unknown partition strategy: " << argv[i] << "\n";
        return 1;
      }
    } else {
      positional.push_back(arg);
    }
  }
  const std::string dataset = positional.size() > 0 ? positional[0] : "mico";
  const double scale =
      positional.size() > 1 ? std::atof(positional[1].c_str()) : 0.3;
  const int k = positional.size() > 2 ? std::atoi(positional[2].c_str()) : 4;
  const std::string mode = positional.size() > 3 ? positional[3] : "batch";
  if (k < 3 || k > 5) {
    std::cerr << "motif size must be 3..5\n";
    return 1;
  }
  if (mode != "batch" && mode != "per-pattern" && mode != "compare") {
    std::cerr << "mode must be batch, per-pattern or compare\n";
    return 1;
  }

  const Graph graph = datasets::load(dataset, scale);
  std::cout << "dataset " << dataset << " (scale " << scale << "): "
            << graph.vertex_count() << " vertices, " << graph.edge_count()
            << " edges\n";
  const GraphPi engine(graph);
  const auto motifs = patterns::connected_motifs(k);

  std::vector<Count> counts;
  double batch_seconds = 0.0;
  double per_pattern_seconds = 0.0;

  if (mode != "per-pattern") {
    support::Timer timer;
    const PlanForest forest = engine.plan_batch(motifs);
    MatchOptions batch_options;
    dist::ClusterStats cluster;
    if (nodes > 0) {
      batch_options.backend = Backend::kDistributed;
      batch_options.nodes = nodes;
      batch_options.partition = partition;
      batch_options.cluster_stats = &cluster;
    }
    counts = engine.count_batch(forest, batch_options);
    batch_seconds = timer.elapsed_seconds();
    const auto& s = forest.stats();
    std::cout << "batched: " << s.plans << " plans -> " << s.nodes
              << " trie nodes, " << s.extensions << " loops ("
              << s.shared_steps << " shared), " << s.shared_suffix_sets
              << " shared IEP suffix sets\n";
    if (nodes > 0)
      std::cout << "sharded: " << nodes << " nodes ("
                << dist::to_string(partition) << "), messages "
                << cluster.messages << " (" << cluster.bytes
                << " B), shipped candidates "
                << cluster.shipped_set_vertices << " vertices, replication "
                << cluster.replication_factor << "\n";
  }
  if (mode != "batch") {
    support::Timer timer;
    const std::vector<Count> reference = per_pattern_census(engine, motifs);
    per_pattern_seconds = timer.elapsed_seconds();
    if (counts.empty()) {
      counts = reference;
    } else {
      // compare mode holds both answers — make it a correctness gate.
      for (std::size_t i = 0; i < motifs.size(); ++i) {
        if (counts[i] != reference[i]) {
          std::cerr << "MISMATCH: motif " << i + 1 << " batched " << counts[i]
                    << " != per-pattern " << reference[i] << "\n";
          return 1;
        }
      }
    }
  }

  support::Table table({"motif", "edges", "|Aut|", "embeddings"});
  Count total = 0;
  for (std::size_t i = 0; i < motifs.size(); ++i) {
    const Pattern& motif = motifs[i];
    total += counts[i];
    table.add("M" + std::to_string(i + 1) + " " + motif.adjacency_string(),
              motif.edge_count(), automorphism_count(motif), counts[i]);
  }
  table.print();
  std::cout << k << "-motif occurrences total: " << total << "\n";
  if (mode != "per-pattern")
    std::cout << "batched census: " << batch_seconds << " s\n";
  if (mode != "batch")
    std::cout << "per-pattern census: " << per_pattern_seconds << " s\n";
  if (mode == "compare" && batch_seconds > 0)
    std::cout << "speedup: " << per_pattern_seconds / batch_seconds << "x\n";
  return 0;
}
