// graphpi — command-line front end.
//
// Subcommands:
//   stats <graph>                     structural statistics + analysis
//   count <graph> <pattern> [opts]    count embeddings (GraphPi pipeline)
//   list  <graph> <pattern> [limit]   print embeddings (up to limit)
//   plan  <graph> <pattern>           show the selected configuration
//   gen   <pattern> [out.cpp]         emit the generated C++ kernel
//   make  <kind> <n> <m> <seed> <out> write a synthetic graph
//   save  <graph> <out.gps> [opts]    write a compressed snapshot (io/)
//   load  <snapshot> [--verify]       map + decode a snapshot, print stats
//
// <graph> is an edge-list path, a GPS1 snapshot (sniffed by magic), or
// "dataset:NAME[:SCALE]" for the synthetic stand-ins
// (e.g. dataset:wiki_vote:0.2).
// <pattern> is a named pattern (triangle, rectangle, house, pentagon,
// hourglass, cycle6tri, p1..p6, cliqueK, cycleK, pathK, starK) or
// "N:ADJSTRING" (e.g. 5:0111010011100011100001100).
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>

#include "api/graphpi.h"
#include "codegen/codegen.h"
#include "core/automorphism.h"
#include "engine/jit.h"
#include "graph/analysis.h"
#include "service/server.h"
#include "support/parse.h"
#include "support/table.h"
#include "support/timer.h"

namespace {

using namespace graphpi;

/// Malformed flag value; main() prints it and exits with the usage
/// status instead of letting atoi-style parsing truncate silently.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

long long int_flag(const std::string& flag, const char* text,
                   long long min_value, long long max_value) {
  const auto parsed = support::parse_number<long long>(text);
  if (!parsed.has_value() || *parsed < min_value || *parsed > max_value)
    throw UsageError(flag + " expects an integer in [" +
                     std::to_string(min_value) + ", " +
                     std::to_string(max_value) + "], got '" +
                     std::string(text) + "'");
  return *parsed;
}

std::uint64_t u64_flag(const std::string& flag, const char* text) {
  const auto parsed = support::parse_number<std::uint64_t>(text);
  if (!parsed.has_value())
    throw UsageError(flag + " expects a non-negative integer, got '" +
                     std::string(text) + "'");
  return *parsed;
}

double ms_flag(const std::string& flag, const char* text) {
  constexpr double kMaxMs = 8.64e7;  // 24 hours
  const auto parsed = support::parse_number<double>(text);
  if (!parsed.has_value() || !(*parsed >= 0.0) || *parsed > kMaxMs)
    throw UsageError(flag + " expects milliseconds in [0, 8.64e7], got '" +
                     std::string(text) + "'");
  return *parsed;
}

double rate_flag(const std::string& flag, const char* text) {
  const auto parsed = support::parse_number<double>(text);
  if (!parsed.has_value() || !(*parsed >= 0.0) || *parsed > 1.0)
    throw UsageError(flag + " expects a probability in [0, 1], got '" +
                     std::string(text) + "'");
  return *parsed;
}

int usage() {
  std::cerr <<
      R"(usage: graphpi <command> [args]
  stats <graph>
  count <graph> <pattern> [--no-iep] [--parallel] [--nodes N]
        [--partition hash|range] [--exec lockstep|async] [--dist-workers W]
        [--mailbox CAP] [--threads T]
        [--backend serial|parallel|generated] [--emit <file.cpp>]
        [--timeout-ms X] [--budget N] [--poll-stride S]
        [--metrics-json <file>] [--trace-json <file>]
        [--fault-drop P] [--fault-duplicate P] [--fault-reorder P]
        [--fault-corrupt P] [--fault-seed S]
  list  <graph> <pattern> [limit]
  plan  <graph> <pattern>
  gen   <pattern> [out.cpp] [--no-iep]
  make  <er|powerlaw|clustered> <n> <m> <seed> <out>
  save  <graph> <out.gps> [--block-vertices N] [--no-reorder]
  load  <snapshot.gps> [--verify]
graph:   path to an edge list or GPS1 snapshot, or dataset:NAME[:SCALE]
pattern: triangle|rectangle|house|pentagon|hourglass|cycle6tri|
         tailed_triangle|p1..p6|clique<K>|cycle<K>|path<K>|star<K>|
         N:ADJSTRING
--backend generated runs the plan through the self-compiling kernel cache
(emit -> system compiler -> dlopen; falls back to the interpreter when no
compiler is found). Generated kernels run their root loop in parallel;
--threads caps the worker count for both the parallel and generated
backends (default: all cores); both split the work by root vertex.
--emit writes the planned configuration as a standalone C++ program
(kernel plus an edge-list main; builds with g++ -O2 -std=c++17) without
requiring that backend.
--timeout-ms / --budget bound the run (any backend): on expiry the count
is a best-effort partial and a "status:" line reports why it stopped and
how many root vertices completed. --fault-* inject seeded deterministic
faults into the distributed backend's channel (probability per message);
the reliability layer recovers them, so counts are unchanged while the
stats line reports the injected/recovered event tallies.
--metrics-json writes the delta of the engine metrics registry across the
run (counters, gauges, latency histograms) as JSON; --trace-json writes
the run's trace spans in Chrome trace-event format (open in
chrome://tracing or Perfetto).
save writes a compressed, mmap-able snapshot (docs/FORMAT.md): vertices
are relabeled in descending degree order first (counts are unchanged;
--no-reorder keeps the input labeling) and adjacency is stored as
delta-varint blocks that load back through the SIMD decode kernels.
Any <graph> argument accepts a snapshot path directly.
)";
  return 2;
}

// Shared with graphpi_serve: GPS1-sniffing graph loader (hardened
// dataset SCALE parsing) and the strict pattern-spec parser.
Graph parse_graph(const std::string& spec) { return service::load_graph(spec); }

Pattern parse_pattern(const std::string& spec) {
  return patterns::parse_spec(spec);
}

int cmd_stats(const std::string& graph_spec) {
  const Graph g = parse_graph(graph_spec);
  const auto cores = core_decomposition(g);
  const auto comps = connected_components(g);
  support::Table table({"metric", "value"});
  table.add("vertices", g.vertex_count());
  table.add("edges", g.edge_count());
  table.add("max degree", g.max_degree());
  table.add("triangles", g.triangle_count());
  table.add("global clustering", global_clustering_coefficient(g));
  table.add("avg local clustering", average_local_clustering(g));
  table.add("degeneracy", cores.degeneracy);
  table.add("components", comps.count);
  table.add("largest component", comps.largest());
  table.print();
  return 0;
}

int cmd_count(const std::string& graph_spec, const std::string& pattern_spec,
              int argc, char** argv) {
  MatchOptions options;
  std::string emit_path;
  std::string metrics_path;
  std::string trace_path;
  dist::FaultPlan::Rates fault_rates;
  std::uint64_t fault_seed = dist::FaultPlan{}.seed;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    // The value of a value flag; a value flag given last has none.
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) throw UsageError(arg + " expects a value");
      return argv[++i];
    };
    if (arg == "--no-iep") {
      options.use_iep = false;
    } else if (arg == "--parallel") {
      options.backend = Backend::kParallel;
    } else if (arg == "--nodes") {
      options.backend = Backend::kDistributed;
      options.nodes = static_cast<int>(int_flag(arg, value(), 1, 1024));
    } else if (arg == "--threads") {
      options.threads = static_cast<int>(int_flag(arg, value(), 0, 4096));
    } else if (arg == "--partition") {
      if (!dist::parse_partition(value(), options.partition)) {
        std::cerr << "unknown partition strategy: " << argv[i] << "\n";
        return 2;
      }
    } else if (arg == "--exec") {
      if (!dist::parse_exec_mode(value(), options.dist_exec)) {
        std::cerr << "unknown exec mode: " << argv[i] << "\n";
        return 2;
      }
    } else if (arg == "--dist-workers") {
      options.dist_workers = static_cast<int>(int_flag(arg, value(), 1, 64));
    } else if (arg == "--mailbox") {
      options.dist_mailbox_capacity =
          static_cast<int>(int_flag(arg, value(), 0, 1 << 24));
    } else if (arg == "--backend") {
      const std::string backend = value();
      if (backend == "serial") {
        options.backend = Backend::kSerial;
      } else if (backend == "parallel") {
        options.backend = Backend::kParallel;
      } else if (backend == "generated") {
        options.backend = Backend::kGenerated;
      } else {
        std::cerr << "unknown backend: " << backend << "\n";
        return 2;
      }
    } else if (arg == "--emit") {
      emit_path = value();
    } else if (arg == "--metrics-json") {
      metrics_path = value();
    } else if (arg == "--trace-json") {
      trace_path = value();
    } else if (arg == "--timeout-ms") {
      options.timeout_ms = ms_flag(arg, value());
    } else if (arg == "--budget") {
      options.work_budget = u64_flag(arg, value());
    } else if (arg == "--poll-stride") {
      options.poll_stride =
          static_cast<std::uint32_t>(int_flag(arg, value(), 0, 1 << 20));
    } else if (arg == "--fault-drop") {
      fault_rates.drop = rate_flag(arg, value());
    } else if (arg == "--fault-duplicate") {
      fault_rates.duplicate = rate_flag(arg, value());
    } else if (arg == "--fault-reorder") {
      fault_rates.reorder = rate_flag(arg, value());
    } else if (arg == "--fault-corrupt") {
      fault_rates.corrupt = rate_flag(arg, value());
    } else if (arg == "--fault-seed") {
      fault_seed = u64_flag(arg, value());
    } else {
      throw UsageError("unknown flag for count: '" + arg + "'");
    }
  }
  options.faults = dist::FaultPlan::uniform(fault_seed, fault_rates.drop,
                                            fault_rates.duplicate,
                                            fault_rates.reorder,
                                            fault_rates.corrupt);
  // Baseline before graph loading so the delta covers io.snapshot.*
  // counters when <graph> is a snapshot file.
  const support::metrics::Snapshot metrics_before =
      metrics_path.empty() ? support::metrics::Snapshot{}
                           : GraphPi::metrics_snapshot();
  const Graph g = parse_graph(graph_spec);
  const Pattern p = parse_pattern(pattern_spec);
  const GraphPi engine(g);
  const Configuration config = engine.plan(p, options);
  if (!emit_path.empty()) {
    std::ofstream out(emit_path);
    if (!out) {
      std::cerr << "cannot write " << emit_path << "\n";
      return 1;
    }
    const std::string source = codegen::generate_standalone(config);
    out << source;
    // Diagnostic on stderr: stdout stays parseable (first line = count).
    std::cerr << "emitted " << source.size() << " bytes of generated program"
              << " to " << emit_path << "\n";
  }
  dist::ClusterStats stats;
  if (options.backend == Backend::kDistributed) options.cluster_stats = &stats;
  if (options.backend == Backend::kGenerated && !jit::compiler_available())
    std::cerr << "note: no system compiler found; running the interpreter\n";
  const bool bounded = options.timeout_ms > 0.0 || options.work_budget != 0;
  support::trace::TraceBuffer trace_buf;
  if (!trace_path.empty()) options.trace_sink = &trace_buf;
  support::RunReport report;
  support::Timer t;
  const Count n = engine.count(config, options, bounded ? &report : nullptr);
  std::cout << n << " embeddings in " << t.elapsed_seconds() << "s\n";
  if (!metrics_path.empty()) {
    std::ofstream out(metrics_path);
    if (!out) {
      std::cerr << "cannot write " << metrics_path << "\n";
      return 1;
    }
    out << GraphPi::metrics_snapshot().diff(metrics_before).to_json() << "\n";
    std::cerr << "wrote metrics delta to " << metrics_path << "\n";
  }
  if (!trace_path.empty()) {
    std::ofstream out(trace_path);
    if (!out) {
      std::cerr << "cannot write " << trace_path << "\n";
      return 1;
    }
    out << trace_buf.to_chrome_json() << "\n";
    std::cerr << "wrote " << trace_buf.events().size() << " trace spans to "
              << trace_path << "\n";
  }
  if (bounded)
    std::cout << "status: " << support::to_string(report.status)
              << " (completed " << report.completed_roots << " roots)\n";
  if (options.backend == Backend::kDistributed) {
    std::cout << "sharded run: " << options.nodes << " nodes ("
              << dist::to_string(options.partition) << ", "
              << dist::to_string(options.dist_exec) << "), messages "
              << stats.messages << " (" << stats.bytes
              << " B), shipped candidate vertices "
              << stats.shipped_set_vertices << "\n";
    if (options.dist_exec == dist::ExecMode::kAsync)
      std::cout << "async runtime: " << options.dist_workers
                << " workers/node, " << stats.flushes << " flushes, "
                << stats.coalesced_payloads << " continuations in "
                << stats.coalesced_frames << " batch frames, "
                << stats.mailbox_stalls << " mailbox stalls (high water "
                << stats.mailbox_high_water << ")\n";
    if (options.faults.active())
      std::cout << "fault injection: dropped " << stats.injected_drops
                << ", duplicated " << stats.injected_duplicates
                << ", reordered " << stats.injected_reorders << ", corrupted "
                << stats.injected_corruptions << "; recovered via "
                << stats.retransmits << " retransmits, "
                << stats.corrupt_frames_detected << " CRC rejects, "
                << stats.duplicates_suppressed << " dedups\n";
  }
  if (options.backend == Backend::kGenerated) {
    const auto cache = jit::KernelCache::instance().stats();
    std::cout << "kernel cache: " << cache.compiles << " compiled, "
              << cache.memory_hits << " memory hits, " << cache.disk_hits
              << " disk hits (" << jit::KernelCache::instance().cache_dir()
              << ", " << active_isa() << " kernels)\n";
  }
  return 0;
}

int cmd_list(const std::string& graph_spec, const std::string& pattern_spec,
             std::uint64_t limit) {
  const Graph g = parse_graph(graph_spec);
  const Pattern p = parse_pattern(pattern_spec);
  const GraphPi engine(g);
  std::uint64_t shown = 0, total = 0;
  engine.find_all(p, [&](std::span<const VertexId> emb) {
    ++total;
    if (shown < limit) {
      ++shown;
      for (std::size_t i = 0; i < emb.size(); ++i)
        std::cout << (i ? " " : "") << emb[i];
      std::cout << "\n";
    }
  });
  std::cout << "# " << total << " embeddings (" << shown << " shown)\n";
  return 0;
}

int cmd_plan(const std::string& graph_spec, const std::string& pattern_spec) {
  const Graph g = parse_graph(graph_spec);
  const Pattern p = parse_pattern(pattern_spec);
  PlanningStats diag;
  const Configuration config =
      GraphPi(g).plan(p, MatchOptions{}, &diag);
  std::cout << "pattern:        " << p.to_string() << "\n"
            << "|Aut|:          " << automorphism_count(p) << "\n"
            << "configuration:  " << config.to_string() << "\n"
            << "predicted cost: " << config.predicted_cost << "\n"
            << "schedules:      " << diag.schedules_total << " -> "
            << diag.schedules_phase1 << " -> " << diag.schedules_efficient
            << "\n"
            << "restr sets:     " << diag.restriction_sets << "\n"
            << "combos scored:  " << diag.configurations_evaluated << "\n"
            << "planning time:  " << diag.planning_seconds << "s\n";
  return 0;
}

int cmd_gen(const std::string& pattern_spec, const char* out_path,
            bool use_iep) {
  const Pattern p = parse_pattern(pattern_spec);
  const Graph g = datasets::load("wiki_vote", 0.1);
  MatchOptions options;
  // The plan-IR generator emits IEP leaves inline, so IEP plans are
  // standalone-compilable too (the pre-IR generator could not).
  options.use_iep = use_iep;
  const Configuration config = GraphPi(g).plan(p, options);
  const std::string source = codegen::generate_standalone(config);
  if (out_path == nullptr) {
    std::cout << source;
  } else {
    std::ofstream out(out_path);
    if (!out) {
      std::cerr << "cannot write " << out_path << "\n";
      return 1;
    }
    out << source;
    std::cout << "wrote " << source.size() << " bytes to " << out_path
              << "\n";
  }
  return 0;
}

int cmd_save(const std::string& graph_spec, const std::string& out_path,
             int argc, char** argv) {
  io::SnapshotOptions snapshot_options;
  bool reorder = true;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--block-vertices" && i + 1 < argc)
      snapshot_options.block_vertices =
          static_cast<std::uint32_t>(int_flag(arg, argv[++i], 1, 1 << 24));
    if (arg == "--no-reorder") reorder = false;
  }
  Graph g = parse_graph(graph_spec);
  if (reorder) g = g.reorder_by_degree();
  snapshot_options.degree_ordered = reorder;
  support::Timer t;
  io::save_snapshot(g, out_path, snapshot_options);
  const double seconds = t.elapsed_seconds();
  // Reopen through the validated reader so the numbers we print are the
  // file's own (and a broken write fails loudly right here).
  const io::MappedSnapshot snap(out_path);
  const io::SnapshotInfo& info = snap.info();
  const double bits_per_slot =
      info.slot_count > 0 ? 8.0 * static_cast<double>(info.payload_bytes) /
                                static_cast<double>(info.slot_count)
                          : 0.0;
  std::cout << "wrote " << info.file_bytes << " bytes (" << g.vertex_count()
            << " vertices, " << g.edge_count() << " edges, "
            << info.block_count << " blocks, " << bits_per_slot
            << " bits/slot" << (reorder ? ", degree-ordered" : "") << ") to "
            << out_path << " in " << seconds << "s\n";
  return 0;
}

int cmd_load(const std::string& path, bool verify) {
  support::Timer t_open;
  const io::MappedSnapshot snap(path);
  const double open_seconds = t_open.elapsed_seconds();
  support::Timer t_decode;
  const Graph g = snap.decode_graph();
  const double decode_seconds = t_decode.elapsed_seconds();
  const io::SnapshotInfo& info = snap.info();
  support::Table table({"metric", "value"});
  table.add("vertices", info.vertex_count);
  table.add("edges", g.edge_count());
  table.add("blocks", info.block_count);
  table.add("block vertices", info.block_vertices);
  table.add("degree ordered", info.degree_ordered ? "yes" : "no");
  table.add("file bytes", info.file_bytes);
  table.add("payload bytes", info.payload_bytes);
  if (info.has_triangles) table.add("triangles (cached)", info.triangle_count);
  table.add("map seconds", open_seconds);
  table.add("decode seconds", decode_seconds);
  if (decode_seconds > 0.0)
    table.add("decode GB/s", static_cast<double>(info.payload_bytes) /
                                 decode_seconds / 1e9);
  table.print();
  std::cout << "kernels: " << active_isa() << "\n";
  if (verify) {
    if (!g.validate()) {
      std::cerr << "snapshot FAILED full CSR validation\n";
      return 1;
    }
    std::cout << "validate: ok (sorted, symmetric, loop-free)\n";
  }
  return 0;
}

int cmd_make(const std::string& kind, VertexId n, std::uint64_t m,
             std::uint64_t seed, const std::string& out) {
  Graph g;
  if (kind == "er") {
    g = erdos_renyi(n, m, seed);
  } else if (kind == "powerlaw") {
    g = power_law(n, m, 2.3, seed);
  } else if (kind == "clustered") {
    g = clustered_power_law(n, m, 2.3, 0.4, seed);
  } else {
    std::cerr << "unknown generator kind: " << kind << "\n";
    return 2;
  }
  save_edge_list(g, out);
  std::cout << "wrote " << g.vertex_count() << " vertices / "
            << g.edge_count() << " edges to " << out << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
#ifdef SIGPIPE
  // Piping into `head` must truncate the output, not kill the process:
  // with SIGPIPE ignored the write fails with EPIPE, ostream badbit set,
  // and we exit normally.
  std::signal(SIGPIPE, SIG_IGN);
#endif
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "stats" && argc >= 3) return cmd_stats(argv[2]);
    if (cmd == "count" && argc >= 4)
      return cmd_count(argv[2], argv[3], argc - 4, argv + 4);
    if (cmd == "list" && argc >= 4)
      return cmd_list(argv[2], argv[3],
                      argc > 4 ? u64_flag("list limit", argv[4]) : 20);
    if (cmd == "plan" && argc >= 4) return cmd_plan(argv[2], argv[3]);
    if (cmd == "gen" && argc >= 3) {
      bool use_iep = true;
      const char* out = nullptr;
      for (int i = 3; i < argc; ++i) {
        if (std::strcmp(argv[i], "--no-iep") == 0) {
          use_iep = false;
        } else {
          out = argv[i];
        }
      }
      return cmd_gen(argv[2], out, use_iep);
    }
    if (cmd == "save" && argc >= 4)
      return cmd_save(argv[2], argv[3], argc - 4, argv + 4);
    if (cmd == "load" && argc >= 3)
      return cmd_load(argv[2],
                      argc > 3 && std::strcmp(argv[3], "--verify") == 0);
    if (cmd == "make" && argc >= 7)
      return cmd_make(
          argv[2],
          static_cast<VertexId>(int_flag("make n", argv[3], 0, 0xffffffffLL)),
          u64_flag("make m", argv[4]), u64_flag("make seed", argv[5]),
          argv[6]);
  } catch (const UsageError& e) {
    std::cerr << "graphpi: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "graphpi: " << e.what() << "\n";
    return 1;
  }
  return usage();
}
