// Workload `served`: cheap queries through the TCP query service.
//
// An in-process service::Server (2 workers) serves the wiki_vote
// stand-in. Four client connections, each a closed loop, send a seeded
// mix of cheap patterns over the serial, parallel (threads=2) and
// generated backends; every (pattern, backend) pair is warmed during
// set-up, so the planner runs only through the server's plan memo.
// Execution takes a few milliseconds, so parse, queueing, the memo and
// the write are a visible share of each request's latency.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <csignal>
#include <thread>

#include "engine/jit.h"
#include "harness.h"
#include "service/json.h"
#include "service/server.h"

namespace perfbench {
namespace {

using namespace graphpi;
namespace metrics = graphpi::support::metrics;

constexpr const char* kPatterns[] = {"triangle", "rectangle", "house",
                                     "clique4",  "tailed_triangle",
                                     "p1",       "p2"};
constexpr Backend kBackends[] = {Backend::kSerial, Backend::kParallel,
                                 Backend::kGenerated};
constexpr int kClients = 4;
/// Times each (pattern, backend) pair is requested per pass, across all
/// clients: every pass sends the same multiset of requests, and the seed
/// decides only their order and which client sends them.
constexpr int kRepeatsPerPass = 4;

/// Blocking newline-delimited JSON client over loopback TCP.
class Client {
 public:
  explicit Client(int port) : fd_(::socket(AF_INET, SOCK_STREAM, 0)) {
    if (fd_ < 0) throw std::runtime_error("socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd_);
      throw std::runtime_error("cannot connect to the query service");
    }
  }
  ~Client() { ::close(fd_); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Sends one request line and reads one response line; false on a
  /// transport failure.
  bool round_trip(const std::string& request, std::string& response) {
    const std::string data = request + "\n";
    for (std::size_t sent = 0; sent < data.size();) {
      const ssize_t n = ::send(fd_, data.data() + sent, data.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    for (;;) {
      if (const auto nl = buf_.find('\n'); nl != std::string::npos) {
        response = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return true;
      }
      pollfd pfd{fd_, POLLIN, 0};
      if (::poll(&pfd, 1, 60000) <= 0) return false;
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return false;
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_;
  std::string buf_;
};

struct Request {
  std::size_t pattern;
  Backend backend;
};

/// What one response said, after validation.
struct Outcome {
  bool ok = false;
  std::string error;
  Count count = 0;
  double elapsed_ms = 0.0;
  bool plan_cached = false;
};

Outcome query(Client& client, std::uint64_t id, const Request& r) {
  Outcome out;
  std::string request = "{\"id\":" + std::to_string(id) + ",\"pattern\":\"" +
                        kPatterns[r.pattern] + "\",\"backend\":\"" +
                        service::backend_name(r.backend) + "\"";
  if (r.backend != Backend::kSerial) request += ",\"threads\":2";
  request += "}";
  std::string line;
  if (!client.round_trip(request, line)) {
    out.error = "transport failure";
    return out;
  }
  const auto doc = service::json::Value::parse(line);
  const service::json::Value* status = doc ? doc->get("status") : nullptr;
  const service::json::Value* rid = doc ? doc->get("id") : nullptr;
  const service::json::Value* count = doc ? doc->get("count") : nullptr;
  const service::json::Value* elapsed = doc ? doc->get("elapsed_ms") : nullptr;
  const service::json::Value* cached = doc ? doc->get("plan_cached") : nullptr;
  if (status == nullptr || !status->is_string() ||
      status->as_string() != "ok") {
    out.error = "non-ok response: " + line;
  } else if (rid == nullptr || rid->as_uint64() != id || count == nullptr ||
             !count->as_uint64() || elapsed == nullptr ||
             !elapsed->is_number() || cached == nullptr || !cached->is_bool()) {
    out.error = "malformed response: " + line;
  } else {
    out.ok = true;
    out.count = *count->as_uint64();
    out.elapsed_ms = elapsed->as_double();
    out.plan_cached = cached->as_bool();
  }
  return out;
}

class Served final : public Workload {
 public:
  ~Served() override {
    clients_.clear();
    if (server_) server_->shutdown();
  }

  void setup(const Options& o, RunRecord& run) override {
    std::signal(SIGPIPE, SIG_IGN);
    {
      const Span span(Layer::kGraph, "graph.build");
      graph_ = service::load_graph("dataset:wiki_vote");
    }
    const std::uint64_t stats_start = now_ns();
    GraphPi reference_engine = [&] {
      const Span span(Layer::kGraph, "graph.stats");
      return GraphPi(graph_);
    }();
    run.layer["graph.stats_s"] = seconds_since(stats_start);
    for (const char* spec : kPatterns) {
      const Span span(Layer::kEngine, std::string("engine.reference.") + spec);
      reference_.push_back(reference_engine.count(patterns::parse_spec(spec)));
    }
    {
      const Span span(Layer::kService, "service.start");
      service::ServiceConfig config;
      config.workers = 2;
      server_ = std::make_unique<service::Server>(graph_, config);
      server_->start();
      for (int c = 0; c < kClients; ++c)
        clients_.push_back(std::make_unique<Client>(server_->port()));
    }
    // Warm every (pattern, backend) pair: plans into the memo, kernels
    // into the kernel cache.
    const std::uint64_t compiles_before =
        jit::KernelCache::instance().stats().compiles;
    for (std::size_t p = 0; p < std::size(kPatterns); ++p)
      for (Backend b : kBackends) {
        const Span span(Layer::kService, std::string("service.warm.") +
                                             kPatterns[p] + "." +
                                             backend_key(b));
        const Outcome out = query(*clients_[0], next_id_++, {p, b});
        if (!out.ok) throw std::runtime_error("warm-up failed: " + out.error);
      }
    run.setup_exact["jit.compiles"] =
        jit::KernelCache::instance().stats().compiles - compiles_before;
    std::vector<Request> requests;
    for (int r = 0; r < kRepeatsPerPass; ++r)
      for (std::size_t p = 0; p < std::size(kPatterns); ++p)
        for (Backend b : kBackends) requests.push_back({p, b});
    std::mt19937_64 rng(o.seed);
    std::shuffle(requests.begin(), requests.end(), rng);
    plan_.resize(kClients);
    for (std::size_t i = 0; i < requests.size(); ++i)
      plan_[i % kClients].push_back(requests[i]);
  }

  void pass(const Options& /*o*/, RunRecord& run, PassSample& sample,
            CountCheck& check) override {
    struct Sample {
      Backend backend;
      double latency_ms;
      double elapsed_ms;
      bool plan_cached;
    };
    std::vector<std::vector<Sample>> samples(kClients);
    std::vector<std::thread> threads;
    const std::uint64_t first_id = next_id_;
    next_id_ += static_cast<std::uint64_t>(kClients) * plan_[0].size();
    for (int c = 0; c < kClients; ++c)
      threads.emplace_back([&, c] {
        const auto client_index = static_cast<std::size_t>(c);
        Client& client = *clients_[client_index];
        const std::vector<Request>& requests = plan_[client_index];
        for (std::size_t i = 0; i < requests.size(); ++i) {
          const Request& r = requests[i];
          const std::uint64_t id =
              first_id + client_index * plan_[0].size() + i;
          const std::uint64_t start = now_ns();
          Outcome out;
          {
            const Span span(Layer::kService, "service.request");
            out = query(client, id, r);
          }
          const double ms = seconds_since(start) * 1e3;
          if (out.ok && out.count != reference_[r.pattern]) {
            out.ok = false;
            out.error = "count " + std::to_string(out.count) +
                        ", in-process serial reference " +
                        std::to_string(reference_[r.pattern]);
          }
          if (!out.ok) {
            check.add_failure(std::string(kPatterns[r.pattern]) + " on " +
                              backend_key(r.backend) + ": " + out.error);
            continue;
          }
          check.add(kPatterns[r.pattern], backend_key(r.backend), out.count);
          samples[static_cast<std::size_t>(c)].push_back(
              {r.backend, ms, out.elapsed_ms, out.plan_cached});
        }
      });
    for (std::thread& t : threads) t.join();

    std::vector<double> exec_ms;
    std::vector<double> overhead_ms;
    double cached = 0.0;
    for (const auto& per_client : samples)
      for (const Sample& s : per_client) {
        sample.call_ms.push_back(s.latency_ms);
        sample.backend_s[backend_key(s.backend)] += s.latency_ms * 1e-3;
        exec_ms.push_back(s.elapsed_ms);
        overhead_ms.push_back(s.latency_ms - s.elapsed_ms);
        cached += s.plan_cached ? 1.0 : 0.0;
      }
    all_overhead_ms_.insert(all_overhead_ms_.end(), overhead_ms.begin(),
                            overhead_ms.end());
    run.sample("service.exec_p50_ms", median(exec_ms));
    run.sample("service.overhead_p50_ms", median(overhead_ms));
    if (!exec_ms.empty())
      run.sample("service.plan_cache_hit_rate",
                 cached / static_cast<double>(exec_ms.size()));
  }

  void finish(const Options& o, RunRecord& run) override {
    run.layer["service.overhead_p99_ms"] = percentile(all_overhead_ms_, 99.0);
    const metrics::Snapshot snapshot = GraphPi::metrics_snapshot();
    if (const auto level = snapshot.gauges.find("service.queue_high_water");
        level != snapshot.gauges.end())
      run.layer["service.queue_high_water"] = static_cast<double>(level->second);
    run.layer["graph.intersect_gelems"] = intersect_gelems(graph_, o.seed);
  }

 private:
  Graph graph_;
  std::unique_ptr<service::Server> server_;
  std::vector<std::unique_ptr<Client>> clients_;
  std::vector<Count> reference_;  ///< in-process serial count per pattern
  std::vector<std::vector<Request>> plan_;
  std::vector<double> all_overhead_ms_;
  std::uint64_t next_id_ = 1;
};

}  // namespace

std::unique_ptr<Workload> make_served() { return std::make_unique<Served>(); }

}  // namespace perfbench
