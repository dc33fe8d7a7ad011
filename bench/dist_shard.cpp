// Sharded distributed runtime trajectory: the batched 4-motif census on
// the R-MAT reference input (the same graph motif_batch uses), executed
// by the sharded cluster at increasing node counts, recording wall time,
// the message/byte economy, and the comm-cost model's projected makespan.
//
// Two arms per node count:
//   * lockstep — the deterministic round-robin reference executor;
//   * async    — the worker-thread runtime with bounded mailboxes and
//                coalesced continuation flushes, whose wall-clock win
//                over lockstep (frames amortized, no global round scans)
//                is the headline the per-PR trajectory tracks, alongside
//                the flush/coalescing counters and mailbox high water.
//
// Modes:
//   * default: human-readable table;
//   * `dist_shard --json [path]`: machine-readable records in the
//     motif_batch schema — {name, ns_per_op, elements_per_s} — extended
//     with the run's messages, bytes, async counters and projected
//     makespan, written to `path` (default BENCH_dist_shard.json),
//     plus a `metrics` object embedding the end-of-run registry
//     snapshot (support/metrics.h).
#include <cstdio>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "api/graphpi.h"
#include "bench_util.h"
#include "dist/runtime.h"
#include "dist/simulator.h"
#include "graph/generators.h"
#include "support/timer.h"

namespace {

using namespace graphpi;

Graph bench_rmat() { return rmat(10, 14000, 17); }

struct Record {
  std::string name;
  double ns_per_op = 0.0;
  double elements_per_s = 0.0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  double projected_makespan_ns = 0.0;
  // Async-arm extras (zero in lockstep records).
  std::uint64_t flushes = 0;
  std::uint64_t coalesced_frames = 0;
  std::uint64_t coalesced_payloads = 0;
  std::uint64_t mailbox_stalls = 0;
  std::uint64_t mailbox_high_water = 0;
};

Record run_arm(const Graph& graph, const PlanForest& forest, int nodes,
               dist::ExecMode exec, bool verbose) {
  dist::ClusterOptions options;
  options.nodes = nodes;
  options.exec = exec;
  dist::ClusterStats stats;
  double best = -1.0;
  Count embeddings = 0;
  double total = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    dist::ClusterStats rep_stats;
    support::Timer t;
    const std::vector<Count> counts =
        dist::distributed_count_batch(graph, forest, options, &rep_stats);
    const double seconds = t.elapsed_seconds();
    total += seconds;
    if (best < 0 || seconds < best) {
      best = seconds;
      stats = rep_stats;
      embeddings = std::accumulate(counts.begin(), counts.end(), Count{0});
    }
    if (total > 4.0) break;
  }
  const dist::ShardSimResult sim = dist::simulate_sharded_cluster(
      stats.seconds_per_node, stats.sent_messages_per_node,
      stats.sent_bytes_per_node);
  Record r;
  r.name = "census4/nodes" + std::to_string(nodes) + "/hash";
  if (exec == dist::ExecMode::kAsync) r.name += "/async";
  r.ns_per_op = best * 1e9;
  r.elements_per_s = best > 0 ? static_cast<double>(embeddings) / best : 0.0;
  r.messages = stats.messages;
  r.bytes = stats.bytes;
  r.projected_makespan_ns = sim.makespan_seconds * 1e9;
  r.flushes = stats.flushes;
  r.coalesced_frames = stats.coalesced_frames;
  r.coalesced_payloads = stats.coalesced_payloads;
  r.mailbox_stalls = stats.mailbox_stalls;
  r.mailbox_high_water = stats.mailbox_high_water;
  if (verbose) {
    std::printf(
        "%s: wall %.1f ms, %llu msgs (%llu B, %llu candidate vertices "
        "shipped), replication %.2f, projected makespan %.2f ms\n",
        r.name.c_str(), r.ns_per_op / 1e6,
        static_cast<unsigned long long>(stats.messages),
        static_cast<unsigned long long>(stats.bytes),
        static_cast<unsigned long long>(stats.shipped_set_vertices),
        stats.replication_factor, r.projected_makespan_ns / 1e6);
    if (exec == dist::ExecMode::kAsync)
      std::printf(
        "  async: %llu continuations in %llu batch frames (%llu flushes), "
        "%llu mailbox stalls, high water %llu\n",
        static_cast<unsigned long long>(r.coalesced_payloads),
        static_cast<unsigned long long>(r.coalesced_frames),
        static_cast<unsigned long long>(r.flushes),
        static_cast<unsigned long long>(r.mailbox_stalls),
        static_cast<unsigned long long>(r.mailbox_high_water));
  }
  return r;
}

std::vector<Record> run_suite(bool verbose) {
  const Graph graph = bench_rmat();
  const GraphPi engine(graph);
  const std::vector<Pattern> motifs = patterns::connected_motifs(4);
  const PlanForest forest = engine.plan_batch(motifs);

  std::vector<Record> records;
  for (const int nodes : {1, 2, 4, 8}) {
    records.push_back(
        run_arm(graph, forest, nodes, dist::ExecMode::kLockstep, verbose));
    // nodes == 1 short-circuits to the local batch engine in both modes.
    if (nodes > 1)
      records.push_back(
          run_arm(graph, forest, nodes, dist::ExecMode::kAsync, verbose));
  }
  return records;
}

int write_json(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return 1;
  }
  const std::vector<Record> records = run_suite(/*verbose=*/false);
  std::fprintf(f,
               "{\n  \"input\": \"rmat(10, 14000, 17)\",\n"
               "  \"metrics\": %s,\n"
               "  \"results\": [\n",
               bench::metrics_snapshot_json().c_str());
  for (std::size_t i = 0; i < records.size(); ++i) {
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"ns_per_op\": %.3f, "
                 "\"elements_per_s\": %.3e, \"messages\": %llu, "
                 "\"bytes\": %llu, \"projected_makespan_ns\": %.3f, "
                 "\"flushes\": %llu, \"coalesced_frames\": %llu, "
                 "\"coalesced_payloads\": %llu, \"mailbox_stalls\": %llu, "
                 "\"mailbox_high_water\": %llu}%s\n",
                 records[i].name.c_str(), records[i].ns_per_op,
                 records[i].elements_per_s,
                 static_cast<unsigned long long>(records[i].messages),
                 static_cast<unsigned long long>(records[i].bytes),
                 records[i].projected_makespan_ns,
                 static_cast<unsigned long long>(records[i].flushes),
                 static_cast<unsigned long long>(records[i].coalesced_frames),
                 static_cast<unsigned long long>(
                     records[i].coalesced_payloads),
                 static_cast<unsigned long long>(records[i].mailbox_stalls),
                 static_cast<unsigned long long>(
                     records[i].mailbox_high_water),
                 i + 1 < records.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %zu sharded census records to %s\n", records.size(),
              path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      const std::string path =
          i + 1 < argc ? argv[i + 1] : "BENCH_dist_shard.json";
      return write_json(path);
    }
  }
  (void)run_suite(/*verbose=*/true);
  return 0;
}
