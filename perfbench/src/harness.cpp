#include "harness.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "service/json.h"

namespace perfbench {

const char* layer_name(Layer layer) noexcept {
  switch (layer) {
    case Layer::kGraph: return "graph";
    case Layer::kIo: return "io";
    case Layer::kCore: return "core";
    case Layer::kEngine: return "engine";
    case Layer::kJit: return "jit";
    case Layer::kDist: return "dist";
    case Layer::kService: return "service";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

namespace {

std::uint32_t this_thread_id() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t id = next.fetch_add(1);
  return id;
}

/// Open spans of the calling thread, innermost last.
std::vector<std::int64_t>& open_spans() {
  thread_local std::vector<std::int64_t> stack;
  return stack;
}

}  // namespace

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

std::int64_t Tracer::begin(Layer layer, std::string name) {
  std::vector<std::int64_t>& stack = open_spans();
  Event event;
  event.layer = layer;
  event.name = std::move(name);
  event.tid = this_thread_id();
  event.parent = stack.empty() ? -1 : stack.back();
  std::int64_t index = 0;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    index = static_cast<std::int64_t>(events_.size());
    events_.push_back(std::move(event));
    events_.back().start_ns = now_ns();
  }
  stack.push_back(index);
  return index;
}

void Tracer::end(std::int64_t index) {
  const std::uint64_t t = now_ns();
  open_spans().pop_back();
  const std::lock_guard<std::mutex> lock(mu_);
  events_[static_cast<std::size_t>(index)].end_ns = t;
}

std::vector<double> Tracer::self_seconds(std::uint64_t from_ns,
                                         std::uint64_t to_ns) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> child_ns(events_.size(), 0.0);
  for (const Event& e : events_)
    if (e.parent >= 0)
      child_ns[static_cast<std::size_t>(e.parent)] +=
          static_cast<double>(e.end_ns - e.start_ns);
  std::vector<double> self(kLayerCount, 0.0);
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const Event& e = events_[i];
    if (e.start_ns < from_ns || e.start_ns >= to_ns) continue;
    self[static_cast<std::size_t>(e.layer)] +=
        (static_cast<double>(e.end_ns - e.start_ns) - child_ns[i]) * 1e-9;
  }
  return self;
}

double Tracer::coverage(std::uint64_t from_ns, std::uint64_t to_ns) const {
  if (to_ns <= from_ns) return 0.0;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> spans;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    for (const Event& e : events_) {
      if (e.parent >= 0) continue;
      const std::uint64_t lo = std::max(e.start_ns, from_ns);
      const std::uint64_t hi = std::min(e.end_ns, to_ns);
      if (lo < hi) spans.emplace_back(lo, hi);
    }
  }
  std::sort(spans.begin(), spans.end());
  std::uint64_t covered = 0;
  std::uint64_t cursor = from_ns;
  for (const auto& [lo, hi] : spans) {
    const std::uint64_t start = std::max(lo, cursor);
    if (hi > start) {
      covered += hi - start;
      cursor = hi;
    }
  }
  return static_cast<double>(covered) / static_cast<double>(to_ns - from_ns);
}

std::string Tracer::to_chrome_json() const {
  const std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t epoch = events_.empty() ? 0 : events_.front().start_ns;
  std::ostringstream out;
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const Event& e = events_[i];
    if (i > 0) out << ",";
    // Span names are harness-chosen identifiers: no characters that
    // need escaping.
    out << "{\"name\":\"" << e.name << "\",\"cat\":\"" << layer_name(e.layer)
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << e.tid
        << ",\"ts\":" << static_cast<double>(e.start_ns - epoch) * 1e-3
        << ",\"dur\":" << static_cast<double>(e.end_ns - e.start_ns) * 1e-3
        << "}";
  }
  out << "]}\n";
  return out.str();
}

// ---------------------------------------------------------------------------
// Run bookkeeping
// ---------------------------------------------------------------------------

void RunRecord::fail(const std::string& what) {
  ++failed;
  if (errors.size() < 8) errors.push_back(what);
}

void CountCheck::add(const std::string& label, const std::string& backend,
                     Count got) {
  const std::lock_guard<std::mutex> lock(mu_);
  entries_.push_back({label, backend, got});
}

void CountCheck::add_failure(const std::string& what) {
  const std::lock_guard<std::mutex> lock(mu_);
  failures_.push_back(what);
}

void CountCheck::settle(RunRecord& run) {
  const std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, Count> serial;
  for (const Entry& e : entries_)
    if (e.backend == "serial") serial.emplace(e.label, e.got);
  for (const Entry& e : entries_) {
    ++run.attempted;
    const std::string where = e.label + " on " + e.backend + ": got " +
                              std::to_string(e.got);
    const auto want = expected_.find(e.label);
    if (want == expected_.end()) {
      run.fail(where + ", no expected count");
    } else if (e.got != want->second) {
      run.fail(where + ", expected " + std::to_string(want->second));
    } else if (const auto ref = serial.find(e.label);
               ref != serial.end() && e.got != ref->second) {
      run.fail(where + ", serial reference " + std::to_string(ref->second));
    }
  }
  for (const std::string& f : failures_) {
    ++run.attempted;
    run.fail(f);
  }
  entries_.clear();
  failures_.clear();
}

std::map<std::string, Count> load_expected(const std::string& path,
                                           const std::string& workload) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read expected counts: " + path);
  std::stringstream text;
  text << in.rdbuf();
  std::string error;
  const auto doc = graphpi::service::json::Value::parse(text.str(), &error);
  if (!doc) throw std::runtime_error(path + ": " + error);
  const auto* section = doc->get(workload);
  if (section == nullptr || !section->is_object())
    throw std::runtime_error(path + ": no section for " + workload);
  std::map<std::string, Count> out;
  for (const auto& [label, value] : section->members()) {
    const auto count = value.as_uint64();
    if (!count) throw std::runtime_error(path + ": bad count for " + label);
    out.emplace(label, *count);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double percentile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q / 100.0 * static_cast<double>(xs.size())));
  return xs[std::clamp<std::size_t>(rank, 1, xs.size()) - 1];
}

double intersect_gelems(const graphpi::Graph& graph, std::uint64_t seed) {
  using graphpi::VertexId;
  std::mt19937_64 rng(seed);
  const VertexId n = graph.vertex_count();
  std::vector<std::pair<VertexId, VertexId>> pairs;
  for (int tries = 0; pairs.size() < 4096 && tries < 1 << 20; ++tries) {
    const auto u = static_cast<VertexId>(rng() % n);
    const auto row = graph.neighbors(u);
    if (row.empty()) continue;
    pairs.emplace_back(u, row[rng() % row.size()]);
  }
  std::vector<VertexId> out(graph.max_degree() + 16);
  std::uint64_t elements = 0;
  std::uint64_t found = 0;
  const std::uint64_t start = now_ns();
  do {
    for (const auto& [u, v] : pairs) {
      const auto a = graph.neighbors(u);
      const auto b = graph.neighbors(v);
      found += graphpi::intersect_into(a, b, out.data());
      elements += a.size() + b.size();
    }
  } while (seconds_since(start) < 0.2);
  const double secs = seconds_since(start);
  // Keeps the intersections' results observable.
  static std::atomic<std::uint64_t> sink{0};
  sink.fetch_add(found, std::memory_order_relaxed);
  return static_cast<double>(elements) / secs * 1e-9;
}

const char* backend_key(graphpi::Backend backend) noexcept {
  switch (backend) {
    case graphpi::Backend::kSerial: return "serial";
    case graphpi::Backend::kParallel: return "parallel";
    case graphpi::Backend::kGenerated: return "generated";
    case graphpi::Backend::kDistributed: return "distributed";
  }
  return "unknown";
}

}  // namespace perfbench
