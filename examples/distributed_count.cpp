// Sharded distributed counting demo: partitions the data graph into
// per-node CSR shards (hash or degree-balanced range), runs the sharded
// runtime — every node touches only its own shard, shipping candidate
// continuations across boundaries — and reports the message/byte economy
// plus the comm-cost model's projected makespan.
//
//   ./distributed_count [nodes] [dataset] [scale] [pattern_index]
//                       [--nodes N] [--partition hash|range]
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "api/graphpi.h"
#include "dist/runtime.h"
#include "dist/simulator.h"
#include "support/table.h"
#include "support/timer.h"

int main(int argc, char** argv) {
  using namespace graphpi;

  int nodes = 4;
  std::string dataset = "patents";
  double scale = 0.3;
  int pattern_index = 1;
  dist::PartitionStrategy partition = dist::PartitionStrategy::kHash;

  int positional = 0;
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
      switch (positional++) {
        case 0: nodes = std::atoi(arg.c_str()); break;
        case 1: dataset = arg; break;
        case 2: scale = std::atof(arg.c_str()); break;
        case 3: pattern_index = std::atoi(arg.c_str()); break;
        default:
          std::cerr << "unexpected argument: " << arg << "\n";
          return 1;
      }
    }
  }

  const Graph graph = datasets::load(dataset, scale);
  const Pattern pattern = patterns::evaluation_pattern(pattern_index);
  const GraphPi engine(graph);
  const Configuration config = engine.plan(pattern);

  std::cout << "pattern P" << pattern_index << " on " << dataset << " (scale "
            << scale << "), " << nodes << " sharded nodes, "
            << dist::to_string(partition) << " partition\n";

  // Reference run on one node holding the whole graph.
  support::Timer timer;
  const Count serial = engine.count(config);
  const double serial_secs = timer.elapsed_seconds();

  dist::ClusterOptions options;
  options.nodes = nodes;
  options.partition = partition;
  dist::ClusterStats stats;
  timer.reset();
  const Count distributed =
      dist::distributed_count(graph, config, options, &stats);
  const double dist_secs = timer.elapsed_seconds();

  if (distributed != serial) {
    std::cerr << "BUG: distributed count mismatch\n";
    return 1;
  }
  std::cout << "embeddings: " << distributed << " (serial " << serial_secs
            << "s, sharded sim wall " << dist_secs
            << "s on one physical core)\n"
            << "messages: " << stats.messages << " (" << stats.bytes
            << " B), continuations: " << stats.continuation_messages << " ("
            << stats.continuation_bytes << " B, "
            << stats.shipped_set_vertices
            << " candidate vertices shipped), replication factor: "
            << stats.replication_factor << "\n";

  support::Table table(
      {"node", "owned roots", "ghosts", "busy(s)", "sent msgs", "sent B"});
  for (std::size_t i = 0; i < stats.owned_per_node.size(); ++i)
    table.add(i, stats.owned_per_node[i], stats.ghosts_per_node[i],
              stats.seconds_per_node[i],
              stats.sent_messages_per_node[i], stats.sent_bytes_per_node[i]);
  table.print();

  // Project the run onto real interconnects with the measured counters.
  for (const double gbits : {10.0, 100.0}) {
    dist::CommCostModel model;
    model.bytes_per_second = gbits * 1e9 / 8.0;
    const dist::ShardSimResult sim = dist::simulate_sharded_cluster(
        stats.seconds_per_node, stats.sent_messages_per_node,
        stats.sent_bytes_per_node, model);
    std::cout << "projected @" << gbits << " Gb/s: makespan "
              << sim.makespan_seconds << "s (comm " << sim.comm_seconds
              << "s), speedup vs serial " << sim.speedup_vs_serial()
              << "x, efficiency " << sim.efficiency(nodes) << "\n";
  }
  return 0;
}
