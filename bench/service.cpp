// Service trajectory: what the long-running server (src/service/) buys
// over cold per-query process startup, measured over a real TCP socket.
//
// Arms, per concurrency level N in {1, 4, 8}:
//   * cold p50/p99 — each client's first round of generated-backend
//     queries against a fresh Server with an empty plan cache and a
//     fresh on-disk kernel cache (GRAPHPI_KERNEL_CACHE_DIR is pointed
//     at a throwaway temp dir before the first JIT use): every query
//     pays planning + JIT compilation, the life of a one-shot CLI run.
//     Each level uses its own pattern set so its cold round really
//     compiles.
//   * warm p50/p99 + queries/sec — subsequent rounds of the same
//     queries: plans come from the server's memo, kernels from the
//     process cache. The CI gate asserts warm p50 << cold p50.
//   * shed arm — a workers=1 / queue_capacity=2 server under a burst of
//     50 queries behind a sleeping debug job: fraction shed and the
//     immediacy of the rejection (shed responses must return in
//     microseconds, not queue time).
//
// Modes: default human table; `service --json [path]` writes
// BENCH_service.json ({levels: [...], shed: {...}} plus an embedded
// metrics registry snapshot).
#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "graph/generators.h"
#include "service/server.h"
#include "support/timer.h"

namespace {

using namespace graphpi;

/// Per-level pattern sets, disjoint so every level's cold round compiles
/// its own kernels instead of inheriting the previous level's.
// Cheap-to-execute patterns on the bench graph, so both the cold and
// warm arms are dominated by how the query got a runnable kernel
// (planning + JIT compile vs cache hits) rather than by enumeration.
const std::vector<std::vector<std::string>> kLevelPatterns = {
    {"triangle", "rectangle", "house"},
    {"tailed_triangle", "clique4", "star5"},
    {"hourglass", "clique5", "path4"},
};
const std::vector<int> kLevels = {1, 4, 8};
constexpr int kWarmRounds = 12;

/// Blocking line client (same shape as tests/service/service_test.cpp).
class Client {
 public:
  explicit Client(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }
  [[nodiscard]] bool ok() const noexcept { return fd_ >= 0; }

  bool send_line(const std::string& line) {
    const std::string data = line + "\n";
    std::size_t sent = 0;
    while (sent < data.size()) {
      const ssize_t n = ::send(fd_, data.data() + sent, data.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    return true;
  }

  bool read_line(std::string* out, int timeout_ms = 120000) {
    for (;;) {
      const std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        *out = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return true;
      }
      pollfd pfd{fd_, POLLIN, 0};
      if (::poll(&pfd, 1, timeout_ms) <= 0) return false;
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return false;
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(xs.size() - 1) + 0.5);
  return xs[std::min(idx, xs.size() - 1)];
}

struct LevelResult {
  int clients = 0;
  double cold_p50_ms = 0, cold_p99_ms = 0;
  double warm_p50_ms = 0, warm_p99_ms = 0;
  double queries_per_s = 0;
  std::uint64_t served = 0;
};

/// Queries whose response was missing or not {"status":"ok"}; any one
/// fails the bench, since an error round trip is no latency sample.
std::atomic<std::uint64_t> g_failed_queries{0};

/// One round-trip query; returns latency in ms (negative on failure).
double timed_query(Client& c, const std::string& spec) {
  support::Timer t;
  std::string line;
  if (!c.send_line("{\"pattern\":\"" + spec +
                   "\",\"backend\":\"generated\"}") ||
      !c.read_line(&line) ||
      line.find("\"status\":\"ok\"") == std::string::npos) {
    g_failed_queries.fetch_add(1);
    std::fprintf(stderr, "service bench: query '%s' failed: %s\n",
                 spec.c_str(), line.c_str());
    return -1.0;
  }
  return t.elapsed_seconds() * 1e3;
}

LevelResult run_level(const Graph& g, int n_clients,
                      const std::vector<std::string>& specs) {
  service::ServiceConfig config;
  config.workers = 2;
  service::Server server(g, config);
  server.start();

  std::vector<std::vector<double>> cold(static_cast<std::size_t>(n_clients));
  std::vector<std::vector<double>> warm(static_cast<std::size_t>(n_clients));
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(n_clients));
  for (int i = 0; i < n_clients; ++i) {
    threads.emplace_back([&, i] {
      Client c(server.port());
      if (!c.ok()) return;
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (int round = 0; round <= kWarmRounds; ++round)
        for (const std::string& spec : specs) {
          const double ms = timed_query(c, spec);
          if (ms < 0) return;
          (round == 0 ? cold : warm)[static_cast<std::size_t>(i)].push_back(ms);
        }
    });
  }
  while (ready.load() < n_clients) std::this_thread::yield();
  support::Timer wall;
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  const double wall_s = wall.elapsed_seconds();
  server.shutdown();

  std::vector<double> all_cold, all_warm;
  for (const auto& v : cold) all_cold.insert(all_cold.end(), v.begin(), v.end());
  for (const auto& v : warm) all_warm.insert(all_warm.end(), v.begin(), v.end());

  LevelResult r;
  r.clients = n_clients;
  r.cold_p50_ms = percentile(all_cold, 0.50);
  r.cold_p99_ms = percentile(all_cold, 0.99);
  r.warm_p50_ms = percentile(all_warm, 0.50);
  r.warm_p99_ms = percentile(all_warm, 0.99);
  r.served = all_cold.size() + all_warm.size();
  r.queries_per_s = static_cast<double>(r.served) / wall_s;
  return r;
}

struct ShedResult {
  std::uint64_t sent = 0;
  std::uint64_t shed = 0;
  std::uint64_t served = 0;
  double shed_rate = 0;
  double shed_p99_ms = 0;  ///< rejection latency — must be immediate
};

ShedResult run_shed(const Graph& g) {
  service::ServiceConfig config;
  config.workers = 1;
  config.queue_capacity = 2;
  config.limits.allow_debug_commands = true;
  service::Server server(g, config);
  server.start();

  ShedResult r;
  Client c(server.port());
  if (!c.ok()) return r;
  // Park the single worker, then PIPELINE a burst well past queue
  // capacity — a request/response loop would never hold more than one
  // query in flight and the queue could never fill.
  c.send_line("{\"cmd\":\"sleep\",\"ms\":400}");
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  constexpr int kBurst = 50;
  support::Timer burst_t;
  for (int i = 0; i < kBurst; ++i)
    if (c.send_line("{\"pattern\":\"house\"}")) ++r.sent;
  // Shed rejections must come back while the worker is still parked;
  // their arrival offset from the burst start is the rejection latency.
  std::vector<double> shed_ms;
  std::string line;
  for (std::uint64_t i = 0; i < r.sent + 1; ++i) {
    if (!c.read_line(&line)) break;
    if (line.find("\"status\":\"shed\"") != std::string::npos)
      shed_ms.push_back(burst_t.elapsed_seconds() * 1e3);
  }
  const service::ServerStats stats = server.stats();
  server.shutdown();
  r.shed = stats.shed;
  r.served = stats.served;
  r.shed_rate = r.sent > 0 ? static_cast<double>(r.shed) /
                                 static_cast<double>(r.sent)
                           : 0.0;
  r.shed_p99_ms = percentile(shed_ms, 0.99);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);
  // Fresh kernel cache: the cold arms must pay JIT compilation the way
  // a first-ever process run would. Must precede the first JIT use
  // (the singleton reads the env once at construction).
  const std::string cache_dir =
      (std::filesystem::temp_directory_path() /
       ("graphpi-bench-service-" + std::to_string(::getpid())))
          .string();
  std::filesystem::create_directories(cache_dir);
  ::setenv("GRAPHPI_KERNEL_CACHE_DIR", cache_dir.c_str(), 1);

  const bool json_mode = argc > 1 && std::strcmp(argv[1], "--json") == 0;
  const std::string json_path =
      argc > 2 ? argv[2] : "BENCH_service.json";

  const Graph g = clustered_power_law(300, 2400, 2.2, 0.5, /*seed=*/17);

  bench::banner("service", "query service throughput + latency");
  std::vector<LevelResult> levels;
  for (std::size_t li = 0; li < kLevels.size(); ++li) {
    levels.push_back(run_level(g, kLevels[li], kLevelPatterns[li]));
    const LevelResult& r = levels.back();
    std::printf(
        "clients=%d  cold p50/p99 = %8.3f / %8.3f ms   "
        "warm p50/p99 = %8.3f / %8.3f ms   %7.1f q/s\n",
        r.clients, r.cold_p50_ms, r.cold_p99_ms, r.warm_p50_ms, r.warm_p99_ms,
        r.queries_per_s);
  }
  const ShedResult shed = run_shed(g);
  std::printf(
      "shed: %llu/%llu rejected (rate %.2f), rejection p99 = %.3f ms\n",
      static_cast<unsigned long long>(shed.shed),
      static_cast<unsigned long long>(shed.sent), shed.shed_rate,
      shed.shed_p99_ms);

  std::filesystem::remove_all(cache_dir);

  if (json_mode) {
    std::ofstream out(json_path);
    out << "{\n  \"input\": \"clustered_power_law(300, 2400, 2.2, 0.5, 17)\","
        << "\n  \"levels\": [\n";
    for (std::size_t i = 0; i < levels.size(); ++i) {
      const LevelResult& r = levels[i];
      char buf[512];
      std::snprintf(buf, sizeof(buf),
                    "    {\"clients\": %d, \"cold_p50_ms\": %.3f, "
                    "\"cold_p99_ms\": %.3f, \"warm_p50_ms\": %.3f, "
                    "\"warm_p99_ms\": %.3f, \"queries_per_s\": %.1f, "
                    "\"served\": %llu}%s\n",
                    r.clients, r.cold_p50_ms, r.cold_p99_ms, r.warm_p50_ms,
                    r.warm_p99_ms, r.queries_per_s,
                    static_cast<unsigned long long>(r.served),
                    i + 1 < levels.size() ? "," : "");
      out << buf;
    }
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "  ],\n  \"shed\": {\"sent\": %llu, \"shed\": %llu, "
                  "\"served\": %llu, \"shed_rate\": %.3f, "
                  "\"shed_p99_ms\": %.3f},\n",
                  static_cast<unsigned long long>(shed.sent),
                  static_cast<unsigned long long>(shed.shed),
                  static_cast<unsigned long long>(shed.served), shed.shed_rate,
                  shed.shed_p99_ms);
    out << buf << "  \"metrics\": " << bench::metrics_snapshot_json()
        << "\n}\n";
    std::printf("wrote %s\n", json_path.c_str());
  }
  if (g_failed_queries.load() != 0) {
    std::fprintf(stderr, "service bench: %llu queries failed\n",
                 static_cast<unsigned long long>(g_failed_queries.load()));
    return 1;
  }
  return 0;
}
