// End-to-end tests of the query service over a real TCP socket: an
// in-process Server on an ephemeral port, hammered by a minimal
// blocking client. Covers the hostile-input surface (oversized lines,
// garbage JSON, mid-response disconnects), the admission-control path
// (queue-full shedding), bounded execution (deadline timeout + partial
// flag), the /metrics endpoint, and drain-on-shutdown — and checks that
// served counts are bit-identical to direct engine calls.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <string>
#include <thread>
#include <vector>

#include "api/graphpi.h"
#include "service/json.h"
#include "service/server.h"
#include "test_util.h"

namespace graphpi::service {
namespace {

/// Minimal blocking line client. Reads are poll-bounded so a server bug
/// fails the test instead of hanging it.
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
  ~Client() { close(); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  [[nodiscard]] bool ok() const noexcept { return fd_ >= 0; }

  bool send_raw(std::string_view data) {
    std::size_t sent = 0;
    while (sent < data.size()) {
      const ssize_t n = ::send(fd_, data.data() + sent, data.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    return true;
  }

  bool send_line(const std::string& line) { return send_raw(line + "\n"); }

  /// Next '\n'-terminated line (newline stripped); false on timeout or
  /// orderly EOF with no buffered line.
  bool read_line(std::string* out, int timeout_ms = 30000) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    for (;;) {
      const std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        *out = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return true;
      }
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      if (left.count() <= 0) return false;
      pollfd pfd{fd_, POLLIN, 0};
      if (::poll(&pfd, 1, static_cast<int>(left.count())) <= 0) return false;
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return false;  // EOF or error
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  /// True once the peer has closed (orderly EOF observed).
  bool at_eof(int timeout_ms = 5000) {
    std::string line;
    while (read_line(&line, timeout_ms)) {
    }
    pollfd pfd{fd_, POLLIN, 0};
    if (::poll(&pfd, 1, timeout_ms) <= 0) return false;
    char chunk[256];
    return ::recv(fd_, chunk, sizeof(chunk), 0) == 0;
  }

  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

json::Value parse_response(const std::string& line) {
  std::string error;
  auto v = json::Value::parse(line, &error);
  EXPECT_TRUE(v.has_value()) << "unparseable response '" << line
                             << "': " << error;
  return v.value_or(json::Value{});
}

std::string status_of(const json::Value& v) {
  const json::Value* s = v.get("status");
  return s != nullptr ? s->as_string() : "";
}

struct ServerFixture {
  explicit ServerFixture(ServiceConfig config = {},
                         Graph g = testing::small_test_graphs()[3])
      : graph(std::move(g)), server(graph, config) {
    // The client side of write() races the server's EPIPE handling;
    // neither side may die on a broken pipe.
    std::signal(SIGPIPE, SIG_IGN);
    server.start();
  }
  Graph graph;
  Server server;
};

TEST(ServiceSocket, ServedCountsMatchDirectEngine) {
  ServerFixture fx;
  const GraphPi direct(fx.graph);
  const std::vector<std::string> specs = {"triangle", "rectangle", "house",
                                          "tailed_triangle"};
  const std::vector<std::string> backends = {"serial", "parallel"};

  Client c(fx.server.port());
  ASSERT_TRUE(c.ok());
  int id = 0;
  for (const std::string& spec : specs)
    for (const std::string& backend : backends)
      ASSERT_TRUE(c.send_line("{\"id\":" + std::to_string(id++) +
                              ",\"pattern\":\"" + spec + "\",\"backend\":\"" +
                              backend + "\"}"));
  for (std::size_t i = 0; i < specs.size() * backends.size(); ++i) {
    std::string line;
    ASSERT_TRUE(c.read_line(&line)) << "missing response " << i;
    const json::Value v = parse_response(line);
    ASSERT_EQ(status_of(v), "ok") << line;
    const auto idx =
        static_cast<std::size_t>(v.get("id")->as_int64().value_or(-1));
    ASSERT_LT(idx, specs.size() * backends.size()) << line;
    const std::string& spec = specs[idx / backends.size()];
    const Count expected = direct.count(patterns::parse_spec(spec));
    EXPECT_EQ(v.get("count")->as_uint64().value_or(0), expected) << line;
    EXPECT_FALSE(v.get("partial")->as_bool()) << line;
  }
}

// completed_roots counts root vertices fully processed, so a complete run
// reports |V| on every in-memory backend and in the service response,
// with or without an armed control (a deadline that never fires).
TEST(CompletedRoots, CompleteRunsReportEveryRootOnEveryPath) {
  ServerFixture fx;
  const GraphPi engine(fx.graph);
  const auto roots = static_cast<std::uint64_t>(fx.graph.vertex_count());
  const Backend backends[] = {Backend::kSerial, Backend::kParallel,
                              Backend::kGenerated};
  for (const Backend backend : backends) {
    for (const bool armed : {false, true}) {
      MatchOptions options;
      options.backend = backend;
      options.threads = 2;
      if (armed) options.timeout_ms = 6e5;
      support::RunReport report;
      (void)engine.count(patterns::house(), options, &report);
      EXPECT_EQ(report.status, support::RunStatus::kOk);
      EXPECT_EQ(report.completed_roots, roots)
          << "backend " << static_cast<int>(backend) << " armed " << armed;
    }
  }

  Client c(fx.server.port());
  ASSERT_TRUE(c.ok());
  for (const char* backend : {"serial", "parallel", "generated"}) {
    for (const char* bound : {"", ",\"timeout_ms\":600000"}) {
      ASSERT_TRUE(c.send_line(std::string("{\"id\":1,\"pattern\":\"house\","
                                          "\"backend\":\"") +
                              backend + "\"" + bound + "}"));
      std::string line;
      ASSERT_TRUE(c.read_line(&line));
      const json::Value v = parse_response(line);
      ASSERT_EQ(status_of(v), "ok") << line;
      EXPECT_EQ(v.get("completed_roots")->as_uint64().value_or(0), roots)
          << line;
    }
  }
}

TEST(ServiceSocket, PlanCacheHitsAcrossConnections) {
  ServerFixture fx;
  for (int round = 0; round < 2; ++round) {
    Client c(fx.server.port());
    ASSERT_TRUE(c.ok());
    ASSERT_TRUE(c.send_line("{\"id\":1,\"pattern\":\"house\"}"));
    std::string line;
    ASSERT_TRUE(c.read_line(&line));
    const json::Value v = parse_response(line);
    ASSERT_EQ(status_of(v), "ok") << line;
    EXPECT_EQ(v.get("plan_cached")->as_bool(), round > 0) << line;
  }
}

TEST(ServiceSocket, GarbageInputGetsErrorsConnectionSurvives) {
  ServerFixture fx;
  Client c(fx.server.port());
  ASSERT_TRUE(c.ok());
  const std::vector<std::string> hostile = {
      "{not json at all",
      "[1,2,3]",                                  // not an object
      "{\"pattern\":17}",                         // wrong type
      "{\"pattern\":\"no_such_pattern\"}",        // unknown spec
      "{\"pattern\":\"3:xyzxyzxyz\"}",            // malformed adjacency
      "{\"cmd\":\"reboot\"}",                     // unknown command
      "{\"pattern\":\"house\",\"timeout_ms\":-5}",      // out of range
      "{\"pattern\":\"house\",\"threads\":100000}",     // beyond limit
      "{\"pattern\":\"house\",\"work_budget\":-1}",     // negative budget
      "{\"pattern\":\"house\",\"backend\":\"quantum\"}",
      "{\"cmd\":\"sleep\",\"ms\":50}",            // debug cmd not enabled
  };
  for (const std::string& line : hostile) ASSERT_TRUE(c.send_line(line));
  for (std::size_t i = 0; i < hostile.size(); ++i) {
    std::string line;
    ASSERT_TRUE(c.read_line(&line)) << "no response to: " << hostile[i];
    const json::Value v = parse_response(line);
    EXPECT_EQ(status_of(v), "error") << "accepted: " << hostile[i];
    EXPECT_NE(v.get("error"), nullptr) << line;
  }
  // The connection is still serviceable after every rejection.
  ASSERT_TRUE(c.send_line("{\"id\":\"after\",\"pattern\":\"triangle\"}"));
  std::string line;
  ASSERT_TRUE(c.read_line(&line));
  EXPECT_EQ(status_of(parse_response(line)), "ok") << line;
}

TEST(ServiceSocket, OversizedLineRejectedThenClosed) {
  ServiceConfig config;
  config.max_line_bytes = 256;
  ServerFixture fx(config);
  Client c(fx.server.port());
  ASSERT_TRUE(c.ok());
  ASSERT_TRUE(c.send_raw(std::string(4096, 'x') + "\n"));
  std::string line;
  ASSERT_TRUE(c.read_line(&line));
  const json::Value v = parse_response(line);
  EXPECT_EQ(status_of(v), "error") << line;
  EXPECT_TRUE(c.at_eof()) << "connection should close after oversized line";
  // The server itself is unharmed: a fresh connection works.
  Client c2(fx.server.port());
  ASSERT_TRUE(c2.ok());
  ASSERT_TRUE(c2.send_line("{\"cmd\":\"ping\"}"));
  ASSERT_TRUE(c2.read_line(&line));
  EXPECT_NE(line.find("\"pong\":true"), std::string::npos) << line;
}

TEST(ServiceSocket, MidResponseDisconnectLeavesServerAlive) {
  ServerFixture fx;
  for (int round = 0; round < 3; ++round) {
    Client c(fx.server.port());
    ASSERT_TRUE(c.ok());
    // Queue work, then vanish before the response can be written.
    ASSERT_TRUE(c.send_line("{\"id\":1,\"pattern\":\"house\"}"));
    ASSERT_TRUE(c.send_line("{\"id\":2,\"pattern\":\"rectangle\"}"));
    c.close();
  }
  // Give the abandoned jobs time to hit the dead sockets, then verify
  // the server still answers.
  Client c(fx.server.port());
  ASSERT_TRUE(c.ok());
  ASSERT_TRUE(c.send_line("{\"id\":\"alive\",\"pattern\":\"triangle\"}"));
  std::string line;
  ASSERT_TRUE(c.read_line(&line));
  EXPECT_EQ(status_of(parse_response(line)), "ok") << line;
  EXPECT_TRUE(fx.server.running());
}

TEST(ServiceSocket, QueueFullShedsImmediately) {
  ServiceConfig config;
  config.workers = 1;
  config.queue_capacity = 1;
  config.limits.allow_debug_commands = true;
  ServerFixture fx(config);
  Client c(fx.server.port());
  ASSERT_TRUE(c.ok());
  // One sleep occupies the single worker ...
  ASSERT_TRUE(c.send_line("{\"id\":\"busy\",\"cmd\":\"sleep\",\"ms\":800}"));
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  // ... the next occupies the whole queue ...
  ASSERT_TRUE(c.send_line("{\"id\":\"queued\",\"cmd\":\"sleep\",\"ms\":10}"));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  // ... so a burst beyond capacity must shed, immediately.
  constexpr int kBurst = 4;
  for (int i = 0; i < kBurst; ++i)
    ASSERT_TRUE(c.send_line("{\"id\":\"b" + std::to_string(i) +
                            "\",\"pattern\":\"house\"}"));
  int ok = 0, shed = 0;
  for (int i = 0; i < kBurst + 2; ++i) {
    std::string line;
    ASSERT_TRUE(c.read_line(&line)) << "missing response " << i;
    const std::string status = status_of(parse_response(line));
    if (status == "ok") ++ok;
    else if (status == "shed") ++shed;
    else FAIL() << "unexpected status in: " << line;
  }
  EXPECT_EQ(ok + shed, kBurst + 2);
  EXPECT_GE(shed, 1) << "burst beyond queue capacity must shed";
  EXPECT_GE(fx.server.stats().shed, static_cast<std::uint64_t>(shed));
}

TEST(ServiceSocket, DeadlineTimeoutReportsPartial) {
  // A dense-enough graph that a 5-clique count cannot finish within a
  // microsecond deadline polled every root.
  ServerFixture fx(ServiceConfig{}, clustered_power_law(400, 6000, 2.1, 0.6,
                                                        /*seed=*/9));
  const GraphPi direct(fx.graph);
  const Count full = direct.count(patterns::clique(5));
  Client c(fx.server.port());
  ASSERT_TRUE(c.ok());
  ASSERT_TRUE(c.send_line(
      "{\"id\":1,\"pattern\":\"clique5\",\"timeout_ms\":0.001,"
      "\"poll_stride\":1}"));
  std::string line;
  ASSERT_TRUE(c.read_line(&line));
  const json::Value v = parse_response(line);
  EXPECT_EQ(status_of(v), "timeout") << line;
  EXPECT_TRUE(v.get("partial")->as_bool()) << line;
  EXPECT_LT(v.get("completed_roots")->as_uint64().value_or(~0ull),
            static_cast<std::uint64_t>(fx.graph.vertex_count()))
      << line;
  EXPECT_LE(v.get("count")->as_uint64().value_or(~0ull), full) << line;
}

TEST(ServiceSocket, WorkBudgetStopsEarly) {
  ServerFixture fx(ServiceConfig{}, clustered_power_law(400, 6000, 2.1, 0.6,
                                                        /*seed=*/9));
  Client c(fx.server.port());
  ASSERT_TRUE(c.ok());
  ASSERT_TRUE(c.send_line(
      "{\"id\":1,\"pattern\":\"clique5\",\"work_budget\":5,"
      "\"poll_stride\":1}"));
  std::string line;
  ASSERT_TRUE(c.read_line(&line));
  const json::Value v = parse_response(line);
  EXPECT_EQ(status_of(v), "budget") << line;
  EXPECT_TRUE(v.get("partial")->as_bool()) << line;
}

TEST(ServiceSocket, MetricsEndpointServesPrometheus) {
  ServerFixture fx;
  {
    Client c(fx.server.port());
    ASSERT_TRUE(c.ok());
    ASSERT_TRUE(c.send_line("{\"id\":1,\"pattern\":\"triangle\"}"));
    std::string line;
    ASSERT_TRUE(c.read_line(&line));
  }
  Client m(fx.server.port());
  ASSERT_TRUE(m.ok());
  ASSERT_TRUE(m.send_raw("GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n"));
  std::string body, line;
  while (m.read_line(&line, 5000)) body += line + "\n";
  EXPECT_NE(body.find("200 OK"), std::string::npos) << body;
  EXPECT_NE(body.find("graphpi_service_requests"), std::string::npos) << body;
  EXPECT_NE(body.find("graphpi_service_connections"), std::string::npos)
      << body;
}

TEST(ServiceSocket, ShutdownDrainsInFlightQueries) {
  ServiceConfig config;
  config.workers = 1;
  config.limits.allow_debug_commands = true;
  ServerFixture fx(config);
  Client c(fx.server.port());
  ASSERT_TRUE(c.ok());
  ASSERT_TRUE(c.send_line("{\"id\":\"slow\",\"cmd\":\"sleep\",\"ms\":400}"));
  ASSERT_TRUE(c.send_line("{\"id\":\"q\",\"pattern\":\"rectangle\"}"));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  fx.server.shutdown();
  // Both admitted requests were answered before their sockets closed.
  std::string l1, l2;
  ASSERT_TRUE(c.read_line(&l1, 5000));
  ASSERT_TRUE(c.read_line(&l2, 5000));
  EXPECT_NE((l1 + l2).find("\"pong\":true"), std::string::npos) << l1;
  EXPECT_EQ(status_of(parse_response(l2)), "ok") << l2;
  EXPECT_FALSE(fx.server.running());
  // New connections are refused once the listener is down.
  Client late(fx.server.port());
  std::string line;
  EXPECT_TRUE(!late.ok() || !late.read_line(&line, 500));
  EXPECT_EQ(fx.server.stats().served, 2u);
}

}  // namespace
}  // namespace graphpi::service
