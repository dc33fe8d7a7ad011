#include "service/server.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/pattern_canon.h"
#include "support/timer.h"

namespace graphpi::service {

namespace {

namespace metrics = support::metrics;

void count_metric(const char* name) {
  if (metrics::enabled()) metrics::metric_counter(name).inc();
}

}  // namespace

/// One client connection. Readers, workers, and shutdown all hold
/// shared_ptr references; the fd closes when the last one drops. Writes
/// are serialized by `write_mu` so pipelined responses never interleave
/// bytes; `dead` latches on the first EPIPE/ECONNRESET so later
/// responses for a vanished client are dropped instead of retried.
struct Server::Conn {
  int fd = -1;
  std::mutex write_mu;
  std::atomic<bool> dead{false};

  ~Conn() {
    if (fd >= 0) ::close(fd);
  }
};

struct Server::Job {
  std::shared_ptr<Conn> conn;
  Request request;
};

struct Server::PlanEntry {
  Configuration config;
  /// One-plan forest for the distributed backend (which executes
  /// forests, not configurations).
  std::shared_ptr<const PlanForest> forest;
};

Server::Server(const Graph& graph, ServiceConfig config)
    : graph_(&graph),
      config_(std::move(config)),
      // Computes the triangle count once, up front and single-threaded —
      // every query's planning statistics come from this copy.
      stats_model_(GraphStats::of(graph)),
      engine_(std::make_unique<GraphPi>(graph)),
      queue_(config_.queue_capacity) {
  config_.limits.allow_local_backends = true;
  config_.limits.allow_distributed = false;
}

Server::Server(const dist::ShardedGraph& shards, ServiceConfig config)
    : shards_(&shards), config_(std::move(config)),
      queue_(config_.queue_capacity) {
  config_.limits.allow_local_backends = false;
  config_.limits.allow_distributed = true;
  // No parent graph exists: derive exact vertex/edge tallies from the
  // owned shard rows (ownership is a partition, so each directed slot is
  // counted exactly once). The triangle tally would need a full
  // traversal; leave it 0 and let the cost model rank schedules on
  // degree statistics.
  stats_model_.vertices = static_cast<double>(shards.vertex_count());
  std::uint64_t slots = 0;
  for (int node = 0; node < shards.nodes(); ++node) {
    const dist::Shard& s = shards.shard(node);
    for (const VertexId v : s.owned()) slots += s.view().degree(v);
  }
  stats_model_.edges = static_cast<double>(slots) / 2.0;
  stats_model_.triangles = 0.0;
}

Server::~Server() { shutdown(); }

void Server::start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0)
    throw std::runtime_error(std::string("socket: ") + std::strerror(errno));
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(config_.port));
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 64) != 0) {
    const std::string why = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("bind 127.0.0.1:" + std::to_string(config_.port) +
                             ": " + why);
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  port_ = static_cast<int>(ntohs(bound.sin_port));

  running_.store(true, std::memory_order_release);
  const int workers = std::max(1, config_.workers);
  workers_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i)
    workers_.emplace_back([this] { worker_loop(); });
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void Server::accept_loop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listen socket shut down (or fatal): stop accepting
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<Conn>();
    conn->fd = fd;
    n_connections_.fetch_add(1, std::memory_order_relaxed);
    count_metric("service.connections");
    std::lock_guard<std::mutex> lock(conns_mu_);
    if (stopping_.load(std::memory_order_acquire)) {
      ::shutdown(fd, SHUT_RDWR);  // raced shutdown(); Conn dtor closes fd
      continue;
    }
    conns_.push_back(conn);
    readers_.emplace_back([this, conn] { reader_loop(std::move(conn)); });
  }
}

void Server::reader_loop(std::shared_ptr<Conn> conn) {
  std::string buf;
  bool sniffed = false;
  bool http = false;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
    if (n == 0) break;
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    buf.append(chunk, static_cast<std::size_t>(n));
    if (!sniffed && buf.size() >= 4) {
      sniffed = true;
      http = buf.compare(0, 4, "GET ") == 0;
    }
    if (http) {
      if (const auto eol = buf.find('\n'); eol != std::string::npos) {
        std::string line = buf.substr(0, eol);
        if (!line.empty() && line.back() == '\r') line.pop_back();
        handle_metrics_get(conn, line);
        break;  // one-shot: respond and close
      }
      if (buf.size() > config_.max_line_bytes) break;
      continue;
    }
    std::size_t start = 0;
    bool overflow = false;
    for (;;) {
      const auto eol = buf.find('\n', start);
      if (eol == std::string::npos) break;
      std::string line = buf.substr(start, eol - start);
      start = eol + 1;
      if (line.size() > config_.max_line_bytes) {
        overflow = true;
        break;
      }
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (!line.empty()) handle_line(conn, std::move(line));
    }
    if (!overflow) {
      buf.erase(0, start);
      overflow = buf.size() > config_.max_line_bytes;
    }
    if (overflow) {
      n_errors_.fetch_add(1, std::memory_order_relaxed);
      count_metric("service.errors");
      write_to(conn, error_response(
                         "", "request line exceeds " +
                                 std::to_string(config_.max_line_bytes) +
                                 " bytes; connection closed"));
      break;
    }
    if (conn->dead.load(std::memory_order_relaxed)) break;
  }
  conn->dead.store(true, std::memory_order_relaxed);
  ::shutdown(conn->fd, SHUT_RDWR);
  std::lock_guard<std::mutex> lock(conns_mu_);
  std::erase(conns_, conn);
}

void Server::handle_line(const std::shared_ptr<Conn>& conn, std::string line) {
  n_requests_.fetch_add(1, std::memory_order_relaxed);
  count_metric("service.requests");
  Request req;
  if (const auto err = parse_request(line, config_.limits, req)) {
    n_errors_.fetch_add(1, std::memory_order_relaxed);
    count_metric("service.errors");
    write_to(conn, error_response(req.id_json, *err));
    return;
  }
  if (req.cmd == "ping") {
    write_to(conn, pong_response(req.id_json));
    return;
  }
  if (draining_.load(std::memory_order_acquire)) {
    n_errors_.fetch_add(1, std::memory_order_relaxed);
    count_metric("service.errors");
    write_to(conn, error_response(req.id_json, "server is draining"));
    return;
  }
  Job job{conn, std::move(req)};
  active_jobs_.fetch_add(1, std::memory_order_acq_rel);
  if (!queue_.try_push(std::move(job))) {
    // try_push leaves the item untouched on failure.
    active_jobs_.fetch_sub(1, std::memory_order_acq_rel);
    n_shed_.fetch_add(1, std::memory_order_relaxed);
    count_metric("service.shed");
    write_to(conn,
             shed_response(job.request.id_json, config_.queue_capacity));
    return;
  }
  if (metrics::enabled())
    metrics::metric_gauge("service.queue_high_water")
        .record_max(static_cast<std::int64_t>(queue_.size()));
}

void Server::worker_loop() {
  Job job;
  for (;;) {
    if (queue_.pop_wait(job, std::chrono::milliseconds(100))) {
      run_job(job);
      job = Job{};  // release the connection reference promptly
      active_jobs_.fetch_sub(1, std::memory_order_acq_rel);
    } else if (stopping_.load(std::memory_order_acquire) && queue_.empty()) {
      break;
    }
  }
}

std::shared_ptr<const Server::PlanEntry> Server::plan_for(
    const Request& request, std::string* error, bool* cache_hit) {
  std::optional<Pattern> pattern;
  try {
    pattern = patterns::parse_spec(request.pattern_spec);
  } catch (const std::exception& e) {
    *error = e.what();
    return nullptr;
  }
  const std::string key =
      canonical_string(*pattern) + (request.use_iep ? "|iep" : "|plain");
  {
    std::lock_guard<std::mutex> lock(plans_mu_);
    if (const auto it = plans_.find(key); it != plans_.end()) {
      *cache_hit = true;
      count_metric("service.plan_cache.hits");
      return it->second;
    }
  }
  // Plan outside the lock: planning a 7-vertex pattern takes long enough
  // that holding plans_mu_ would serialize unrelated queries. Two
  // concurrent misses may both plan; the planner is deterministic, so
  // whichever insertion wins is equivalent.
  auto entry = std::make_shared<PlanEntry>();
  PlannerOptions planner;
  planner.use_iep = request.use_iep;
  entry->config = plan_configuration(*pattern, stats_model_, planner);
  entry->forest = std::make_shared<const PlanForest>(
      std::vector<Plan>{compile_plan(entry->config)});
  *cache_hit = false;
  count_metric("service.plan_cache.misses");
  std::lock_guard<std::mutex> lock(plans_mu_);
  return plans_.emplace(key, std::move(entry)).first->second;
}

void Server::run_job(Job& job) {
  const Request& req = job.request;
  if (req.cmd == "sleep") {
    // Deterministic worker occupancy for queue-full tests; observes the
    // shutdown cancel flag so a drain never waits on a sleeper.
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double, std::milli>(req.sleep_ms));
    while (std::chrono::steady_clock::now() < deadline &&
           !cancel_.load(std::memory_order_relaxed))
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    n_served_.fetch_add(1, std::memory_order_relaxed);
    count_metric("service.served");
    write_to(job.conn, pong_response(req.id_json));
    return;
  }
  try {
    std::string plan_error;
    bool cache_hit = false;
    const auto entry = plan_for(req, &plan_error, &cache_hit);
    if (entry == nullptr) {
      n_errors_.fetch_add(1, std::memory_order_relaxed);
      count_metric("service.errors");
      write_to(job.conn, error_response(req.id_json, plan_error));
      return;
    }
    MatchOptions options;
    options.backend = req.backend;
    options.use_iep = req.use_iep;
    options.threads = req.threads;
    options.timeout_ms = req.timeout_ms;
    options.work_budget = req.work_budget;
    options.poll_stride = req.poll_stride;
    options.cancel = &cancel_;
    options.dist_exec = config_.dist_exec;
    options.dist_workers = config_.dist_workers;
    support::RunReport report;
    Count count = 0;
    const support::Timer timer;
    if (req.backend == Backend::kDistributed) {
      // The graph is sharded once at start-up, so this path runs the
      // forest on the resident shards instead of GraphPi::count.
      const support::ExecControl control = make_control(options);
      count = dist::distributed_count_batch(*shards_, *entry->forest,
                                            cluster_options(options, &control),
                                            nullptr, &report)
                  .front();
    } else {
      count = engine_->count(entry->config, options, &report);
    }
    const double elapsed_ms = timer.elapsed_millis();
    ResultFields fields;
    fields.count = count;
    fields.status = report.status;
    fields.completed_roots = report.completed_roots;
    fields.elapsed_ms = elapsed_ms;
    fields.plan_cached = cache_hit;
    fields.backend = req.backend;
    n_served_.fetch_add(1, std::memory_order_relaxed);
    count_metric("service.served");
    if (metrics::enabled())
      metrics::metric_histogram("service.request_ms").observe(elapsed_ms);
    write_to(job.conn, result_response(req.id_json, fields));
  } catch (const std::exception& e) {
    // Defensive: validation should have rejected anything that throws,
    // but a malformed request must never take the service down.
    n_errors_.fetch_add(1, std::memory_order_relaxed);
    count_metric("service.errors");
    write_to(job.conn, error_response(req.id_json, e.what()));
  }
}

void Server::handle_metrics_get(const std::shared_ptr<Conn>& conn,
                                const std::string& request_line) {
  n_metrics_.fetch_add(1, std::memory_order_relaxed);
  count_metric("service.metrics_requests");
  // "GET <path> HTTP/1.x"
  std::string path;
  const auto sp1 = request_line.find(' ');
  if (sp1 != std::string::npos) {
    const auto sp2 = request_line.find(' ', sp1 + 1);
    path = request_line.substr(
        sp1 + 1, (sp2 == std::string::npos ? request_line.size() : sp2) -
                     sp1 - 1);
  }
  std::string status = "200 OK";
  std::string body;
  if (path == "/metrics") {
    body = GraphPi::metrics_snapshot().to_prometheus();
  } else {
    status = "404 Not Found";
    body = "only /metrics is served here\n";
  }
  std::ostringstream os;
  os << "HTTP/1.0 " << status
     << "\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8"
     << "\r\nContent-Length: " << body.size()
     << "\r\nConnection: close\r\n\r\n"
     << body;
  write_to(conn, os.str());
}

void Server::write_to(const std::shared_ptr<Conn>& conn,
                      const std::string& data) {
  std::lock_guard<std::mutex> lock(conn->write_mu);
  if (conn->dead.load(std::memory_order_relaxed)) return;
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(conn->fd, data.data() + off, data.size() - off,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      // EPIPE / ECONNRESET: the client vanished mid-response. Latch and
      // drop the rest; nothing here may raise SIGPIPE or throw.
      conn->dead.store(true, std::memory_order_relaxed);
      return;
    }
    off += static_cast<std::size_t>(n);
  }
}

void Server::close_all_connections() {
  std::vector<std::shared_ptr<Conn>> open;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    open = conns_;
  }
  for (const auto& conn : open) {
    conn->dead.store(true, std::memory_order_relaxed);
    ::shutdown(conn->fd, SHUT_RDWR);  // unblocks the reader's recv()
  }
}

void Server::shutdown() {
  std::lock_guard<std::mutex> shutdown_lock(shutdown_mu_);
  if (!running_.load(std::memory_order_acquire)) return;

  // 1. Refuse new queries (readers answer "server is draining") and stop
  //    accepting connections. shutdown() on the listening socket wakes
  //    the blocked accept() with an error.
  draining_.store(true, std::memory_order_release);
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;

  // 2. Drain: give queued + in-flight queries drain_timeout_ms to finish.
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double, std::milli>(config_.drain_timeout_ms));
  while (active_jobs_.load(std::memory_order_acquire) > 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));

  // 3. Cancel stragglers cooperatively: every query runs with cancel_ as
  //    its MatchOptions::cancel, so past-deadline work stops at the next
  //    poll and its client still receives a partial-count response.
  cancel_.store(true, std::memory_order_release);
  stopping_.store(true, std::memory_order_release);
  queue_.close();  // workers drain what remains, then exit
  for (std::thread& w : workers_)
    if (w.joinable()) w.join();
  workers_.clear();

  // 4. Responses are all written; now force the readers off their
  //    sockets and join them.
  close_all_connections();
  for (std::thread& r : readers_)
    if (r.joinable()) r.join();
  readers_.clear();
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns_.clear();
  }
  running_.store(false, std::memory_order_release);
}

ServerStats Server::stats() const noexcept {
  ServerStats s;
  s.connections = n_connections_.load(std::memory_order_relaxed);
  s.requests = n_requests_.load(std::memory_order_relaxed);
  s.served = n_served_.load(std::memory_order_relaxed);
  s.shed = n_shed_.load(std::memory_order_relaxed);
  s.errors = n_errors_.load(std::memory_order_relaxed);
  s.metrics_requests = n_metrics_.load(std::memory_order_relaxed);
  return s;
}

Graph load_graph(const std::string& spec) {
  constexpr std::string_view kPrefix = "dataset:";
  if (spec.rfind(kPrefix, 0) == 0) {
    std::string rest = spec.substr(kPrefix.size());
    double scale = 0.2;
    if (const auto colon = rest.find(':'); colon != std::string::npos) {
      const std::string digits = rest.substr(colon + 1);
      double parsed = 0.0;
      const auto [end, ec] = std::from_chars(
          digits.data(), digits.data() + digits.size(), parsed);
      if (ec != std::errc() || end != digits.data() + digits.size() ||
          !(parsed > 0.0) || parsed > 100.0)
        throw std::invalid_argument("graph spec '" + spec +
                                    "': SCALE must be a number in (0, 100]");
      scale = parsed;
      rest = rest.substr(0, colon);
    }
    return datasets::load(rest, scale);
  }
  // Sniff the snapshot magic so every graph argument accepts either
  // format.
  if (std::ifstream probe(spec, std::ios::binary); probe) {
    char magic[4] = {};
    if (probe.read(magic, 4) && std::memcmp(magic, "GPS1", 4) == 0)
      return Graph::load_snapshot(spec);
  }
  return load_edge_list(spec);
}

}  // namespace graphpi::service
