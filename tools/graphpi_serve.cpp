// graphpi_serve: the long-running pattern-matching query service.
//
//   graphpi_serve --graph <spec> [options]     serve a full graph
//   graphpi_serve --shards <prefix> [options]  serve reassembled shards
//
// Loads the data graph ONCE, then answers concurrent queries over
// newline-delimited JSON on a local TCP socket (protocol:
// src/service/protocol.h, docs/SERVICE.md). Planning is memoized per
// canonical pattern and generated-backend kernels come from the
// process-wide JIT cache, so repeated queries skip both costs. A bounded
// admission queue sheds excess load with an immediate structured
// rejection; GET /metrics on the same port serves the Prometheus
// exposition of the engine's metrics registry. SIGTERM/SIGINT drain
// in-flight queries under a deadline before exiting.
#include <csignal>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>
#include <thread>

#include "api/graphpi.h"
#include "service/server.h"
#include "support/parse.h"

namespace {

using namespace graphpi;

volatile std::sig_atomic_t g_stop = 0;

void on_signal(int) { g_stop = 1; }

int usage() {
  std::cerr <<
      R"(usage: graphpi_serve (--graph <spec> | --shards <prefix>) [options]
graph spec: edge-list path, GPS1 snapshot, or dataset:NAME[:SCALE];
--shards serves the per-node snapshot set "<prefix>.shard<k>-of-<n>.gps"
(io/shard_snapshot.h) with the distributed backend, no full graph in
memory.
options:
  --port N            TCP port on 127.0.0.1 (default 0 = ephemeral; the
                      chosen port is printed on stdout)
  --workers N         query worker threads (default 2)
  --queue N           admission queue capacity (default 64); a request
                      arriving with the queue full is shed immediately
  --max-line BYTES    longest accepted request line (default 65536)
  --drain-ms MS       shutdown drain deadline (default 5000)
  --max-timeout-ms MS largest per-query timeout accepted (default 3.6e6)
  --max-threads N     largest per-query thread count accepted (default 256)
  --allow-debug       enable {"cmd":"sleep"} (deterministic load tests)
  --dist-exec MODE    shards mode: lockstep|async (default lockstep)
  --dist-workers N    shards mode, async: workers per node (default 1)
The server answers one JSON object per request line; see docs/SERVICE.md
for the wire protocol. SIGTERM/SIGINT drain and exit.
)";
  return 2;
}

/// Structured usage error for a malformed flag value: prints the
/// message and exits with the usage status via exception-free flow.
struct ArgError {
  std::string message;
};

const char* need_value(int argc, char** argv, int& i) {
  if (i + 1 >= argc)
    throw ArgError{std::string(argv[i]) + " expects a value"};
  return argv[++i];
}

int int_arg(int argc, char** argv, int& i, long min_value, long max_value) {
  const char* flag = argv[i];
  const char* text = need_value(argc, argv, i);
  const auto parsed = support::parse_number<long>(text);
  if (!parsed.has_value() || *parsed < min_value || *parsed > max_value)
    throw ArgError{std::string(flag) + " expects an integer in [" +
                   std::to_string(min_value) + ", " +
                   std::to_string(max_value) + "], got '" + text + "'"};
  return static_cast<int>(*parsed);
}

double ms_arg(int argc, char** argv, int& i, double max_value) {
  const char* flag = argv[i];
  const char* text = need_value(argc, argv, i);
  const auto parsed = support::parse_number<double>(text);
  if (!parsed.has_value() || !(*parsed >= 0.0) || *parsed > max_value)
    throw ArgError{std::string(flag) + " expects milliseconds in [0, " +
                   std::to_string(max_value) + "], got '" + text + "'"};
  return *parsed;
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);
  std::string graph_spec;
  std::string shards_prefix;
  service::ServiceConfig config;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--graph") {
        graph_spec = need_value(argc, argv, i);
      } else if (arg == "--shards") {
        shards_prefix = need_value(argc, argv, i);
      } else if (arg == "--port") {
        config.port = int_arg(argc, argv, i, 0, 65535);
      } else if (arg == "--workers") {
        config.workers = int_arg(argc, argv, i, 1, 256);
      } else if (arg == "--queue") {
        config.queue_capacity = static_cast<std::size_t>(
            int_arg(argc, argv, i, 1, 1 << 20));
      } else if (arg == "--max-line") {
        config.max_line_bytes = static_cast<std::size_t>(
            int_arg(argc, argv, i, 64, 1 << 24));
      } else if (arg == "--drain-ms") {
        config.drain_timeout_ms = ms_arg(argc, argv, i, 3.6e6);
      } else if (arg == "--max-timeout-ms") {
        config.limits.max_timeout_ms = ms_arg(argc, argv, i, 8.64e7);
      } else if (arg == "--max-threads") {
        config.limits.max_threads = int_arg(argc, argv, i, 1, 4096);
      } else if (arg == "--allow-debug") {
        config.limits.allow_debug_commands = true;
      } else if (arg == "--dist-exec") {
        const std::string mode = need_value(argc, argv, i);
        if (mode == "lockstep") config.dist_exec = dist::ExecMode::kLockstep;
        else if (mode == "async") config.dist_exec = dist::ExecMode::kAsync;
        else throw ArgError{"--dist-exec expects lockstep|async, got '" +
                            mode + "'"};
      } else if (arg == "--dist-workers") {
        config.dist_workers = int_arg(argc, argv, i, 1, 64);
      } else if (arg == "--help" || arg == "-h") {
        return usage();
      } else {
        throw ArgError{"unknown flag: " + arg};
      }
    }
    if (graph_spec.empty() == shards_prefix.empty())
      throw ArgError{"exactly one of --graph / --shards is required"};
  } catch (const ArgError& e) {
    std::cerr << "graphpi_serve: " << e.message << "\n";
    return usage();
  }

  try {
    // The loaded graph/shards must outlive the server: declared first,
    // destroyed last.
    std::optional<Graph> graph;
    std::optional<dist::ShardedGraph> shards;
    std::optional<service::Server> server;
    if (!graph_spec.empty()) {
      graph = service::load_graph(graph_spec);
      std::cerr << "graphpi_serve: loaded " << graph->vertex_count()
                << " vertices / " << graph->edge_count() << " edges from "
                << graph_spec << "\n";
      server.emplace(*graph, config);
    } else {
      shards = io::load_shard_snapshots(shards_prefix);
      std::cerr << "graphpi_serve: loaded " << shards->nodes()
                << " shards covering " << shards->vertex_count()
                << " vertices from " << shards_prefix << "\n";
      server.emplace(*shards, config);
    }
    server->start();
    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);
    // The one line scripts parse: the chosen port, on stdout.
    std::cout << "graphpi_serve listening on 127.0.0.1:" << server->port()
              << std::endl;
    while (g_stop == 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    std::cerr << "graphpi_serve: signal received, draining (deadline "
              << config.drain_timeout_ms << " ms)\n";
    server->shutdown();
    const service::ServerStats stats = server->stats();
    std::cerr << "graphpi_serve: served " << stats.served << "/"
              << stats.requests << " requests (" << stats.shed << " shed, "
              << stats.errors << " rejected) over " << stats.connections
              << " connections\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "graphpi_serve: " << e.what() << "\n";
    return 1;
  }
}
