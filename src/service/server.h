// Long-running pattern-matching query service.
//
// A Server binds one loaded data graph (or one reassembled shard set)
// and admits concurrent queries over the newline-delimited JSON
// protocol of protocol.h on a TCP socket. The moving parts:
//
//   * one accept thread + one reader thread per connection: reads
//     length-bounded lines, parses/validates requests, and either
//     answers immediately (parse errors, pings, shed rejections) or
//     enqueues a job;
//   * a bounded MPMC admission queue (support/mpmc_queue.h): when it is
//     full the request is REJECTED IMMEDIATELY with {"status":"shed"}
//     instead of queueing unbounded latency — clients retry with
//     backoff; queue depth is the only buffering in the server;
//   * a fixed worker pool executing queries through the one shared
//     GraphPi engine. Plans are memoized per canonical pattern (the
//     planner is deterministic, so one plan serves every isomorphic
//     respelling); generated-backend kernels are reused across queries
//     by the process-wide jit::KernelCache. Per-query deadlines/budgets
//     map to an ExecControl through the same make_control as every
//     GraphPi call, and every query additionally observes the server's
//     shutdown cancel flag;
//   * GET /metrics: a connection opening with an HTTP GET line gets a
//     one-shot Prometheus text exposition of the process registry
//     (Snapshot::to_prometheus()) and is closed.
//
// Shutdown (shutdown(), also triggered by the serve tool's SIGTERM/
// SIGINT handler) drains: stop accepting, reject new requests with an
// error, let queued + in-flight queries finish within
// `drain_timeout_ms`, then flip the cancel flag so stragglers return
// their partial counts, and only then tear the threads down. Writes are
// EPIPE-safe throughout (MSG_NOSIGNAL + dead-connection latching);
// clients that vanish mid-response never take the process down.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "api/graphpi.h"
#include "service/protocol.h"
#include "support/mpmc_queue.h"

namespace graphpi::service {

struct ServiceConfig {
  /// TCP port to bind on 127.0.0.1; 0 picks an ephemeral port (read it
  /// back with Server::port() — the tool prints it on stdout).
  int port = 0;
  /// Query worker threads (>= 1).
  int workers = 2;
  /// Admission queue depth; a request arriving with the queue full is
  /// shed immediately.
  std::size_t queue_capacity = 64;
  /// Longest accepted request line (bytes, newline included). A client
  /// exceeding it gets one error response and its connection closed.
  std::size_t max_line_bytes = std::size_t{1} << 16;
  /// How long shutdown() waits for queued + in-flight queries before
  /// cancelling them cooperatively.
  double drain_timeout_ms = 5000.0;
  /// Per-request validation bounds (protocol.h).
  RequestLimits limits;
  /// Distributed execution shape for shard-serving mode.
  dist::ExecMode dist_exec = dist::ExecMode::kLockstep;
  int dist_workers = 1;
};

/// Monotonic service totals (also mirrored into the metrics registry
/// under service.*).
struct ServerStats {
  std::uint64_t connections = 0;
  std::uint64_t requests = 0;
  std::uint64_t served = 0;
  std::uint64_t shed = 0;
  std::uint64_t errors = 0;
  std::uint64_t metrics_requests = 0;
};

class Server {
 public:
  /// Serves `graph` (caller keeps it alive for the server's lifetime)
  /// with the serial / parallel / generated backends.
  Server(const Graph& graph, ServiceConfig config);
  /// Serves a reassembled shard set with the distributed backend only
  /// (no full graph exists in memory). Planning statistics use exact
  /// vertex/edge tallies from the owned shard rows; the triangle count
  /// is unavailable without the parent graph, so plans lean on degree
  /// statistics alone.
  Server(const dist::ShardedGraph& shards, ServiceConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds + listens + spawns the threads. Throws std::runtime_error
  /// when the socket cannot be bound.
  void start();
  /// The bound TCP port (valid after start()).
  [[nodiscard]] int port() const noexcept { return port_; }
  [[nodiscard]] bool running() const noexcept {
    return running_.load(std::memory_order_acquire);
  }

  /// Graceful drain + stop; idempotent, also run by the destructor.
  void shutdown();

  [[nodiscard]] ServerStats stats() const noexcept;

 private:
  struct Conn;
  struct Job;
  struct PlanEntry;

  void accept_loop();
  void reader_loop(std::shared_ptr<Conn> conn);
  void worker_loop();
  void handle_line(const std::shared_ptr<Conn>& conn, std::string line);
  void handle_metrics_get(const std::shared_ptr<Conn>& conn,
                          const std::string& request_line);
  void run_job(Job& job);
  /// Looks up / plans the configuration for a validated request;
  /// `cache_hit` reports whether the plan was memoized. Returns nullptr
  /// and fills `error` when the pattern spec is invalid.
  std::shared_ptr<const PlanEntry> plan_for(const Request& request,
                                            std::string* error,
                                            bool* cache_hit);
  static void write_to(const std::shared_ptr<Conn>& conn,
                       const std::string& data);
  void close_all_connections();

  const Graph* graph_ = nullptr;                   // local mode
  const dist::ShardedGraph* shards_ = nullptr;     // shard mode
  ServiceConfig config_;
  GraphStats stats_model_;
  std::unique_ptr<GraphPi> engine_;  // local mode only

  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> cancel_{false};  ///< MatchOptions::cancel of every query
  /// Queries admitted (queued or running) whose response has not been
  /// written yet — the drain condition of shutdown().
  std::atomic<int> active_jobs_{0};
  std::mutex shutdown_mu_;  ///< serializes shutdown() callers

  support::BoundedMpmcQueue<Job> queue_;
  std::thread accept_thread_;
  std::vector<std::thread> workers_;
  std::mutex conns_mu_;
  std::vector<std::shared_ptr<Conn>> conns_;
  std::vector<std::thread> readers_;

  std::mutex plans_mu_;
  std::unordered_map<std::string, std::shared_ptr<const PlanEntry>> plans_;

  std::atomic<std::uint64_t> n_connections_{0};
  std::atomic<std::uint64_t> n_requests_{0};
  std::atomic<std::uint64_t> n_served_{0};
  std::atomic<std::uint64_t> n_shed_{0};
  std::atomic<std::uint64_t> n_errors_{0};
  std::atomic<std::uint64_t> n_metrics_{0};
};

/// Shared graph-spec loader of the serve tool and CLI: "dataset:NAME
/// [:SCALE]" synthetic stand-ins, GPS1 snapshots (sniffed by magic), or
/// plain edge-list files. SCALE is parsed with std::from_chars and
/// range-checked to (0, 100]; malformed specs throw
/// std::invalid_argument instead of silently defaulting.
[[nodiscard]] Graph load_graph(const std::string& spec);

}  // namespace graphpi::service
