// Shared machinery of the GraphPi benchmark harness: run options, the
// span recorder used in traced runs, correctness bookkeeping, and the
// per-run record every workload fills.
//
// A workload is driven in three steps. prepare() makes untimed inputs
// (a snapshot file, say) that the timed set-up then reads; setup() is
// the timed set-up; pass() runs the workload's fixed list of calls once.
// main() repeats pass() until the measured time is spent, so every
// pass does the same work and per-pass figures can be compared by
// median.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <vector>

#include "api/graphpi.h"

namespace perfbench {

using graphpi::Count;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  bool setup_only = false;
  int max_passes = 0;         ///< 0 = repeat passes until `seconds` spent
  std::string tmp_dir;        ///< per-run scratch (snapshots, shard files)
  std::string expected_path;  ///< committed expected counts (JSON)
  std::string trace_out;      ///< Chrome-trace output of a traced run
  int threads = 4;            ///< worker cap: min(4, hardware threads)
};

[[nodiscard]] inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// ---------------------------------------------------------------------------
// Spans. Recorded only in traced runs, around each call the harness makes
// into a layer of the library. Spans nest per thread; a span's self time
// is its duration minus that of its direct children.
// ---------------------------------------------------------------------------

enum class Layer { kGraph, kIo, kCore, kEngine, kJit, kDist, kService };
inline constexpr int kLayerCount = 7;
[[nodiscard]] const char* layer_name(Layer layer) noexcept;

class Tracer {
 public:
  struct Event {
    Layer layer = Layer::kGraph;
    std::string name;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::uint32_t tid = 0;
    std::int64_t parent = -1;  ///< index of the enclosing span, -1 = none
  };

  static Tracer& instance();
  void enable(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Opens a span on the calling thread; returns its index (-1 when off).
  std::int64_t begin(Layer layer, std::string name);
  void end(std::int64_t index);

  /// Self seconds per layer, over spans starting in [from_ns, to_ns).
  [[nodiscard]] std::vector<double> self_seconds(std::uint64_t from_ns,
                                                 std::uint64_t to_ns) const;
  /// Share of [from_ns, to_ns) covered by the union of top-level spans.
  [[nodiscard]] double coverage(std::uint64_t from_ns,
                                std::uint64_t to_ns) const;
  [[nodiscard]] std::string to_chrome_json() const;

 private:
  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<Event> events_;
};

/// RAII span; free when tracing is off.
class Span {
 public:
  Span(Layer layer, std::string name)
      : index_(Tracer::instance().enabled()
                   ? Tracer::instance().begin(layer, std::move(name))
                   : -1) {}
  ~Span() {
    if (index_ >= 0) Tracer::instance().end(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::int64_t index_;
};

// ---------------------------------------------------------------------------
// Per-run record.
// ---------------------------------------------------------------------------

/// One pass: its wall time, the latency of each of its calls, the seconds
/// its calls spent per backend, and the program's exact counts for the
/// pass (which must repeat exactly in every pass and in the traced run).
struct PassSample {
  double wall_s = 0.0;
  std::vector<double> call_ms;
  std::map<std::string, double> backend_s;
  std::map<std::string, std::uint64_t> exact;
};

struct RunRecord {
  double setup_s = 0.0;
  std::vector<PassSample> passes;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< first few failure descriptions
  /// Exact counts of the set-up (e.g. kernels compiled).
  std::map<std::string, std::uint64_t> setup_exact;
  /// Per-layer metrics (medians over passes where per pass).
  std::map<std::string, double> layer;
  /// Per-pass values of per-layer metrics, reduced to medians at the end.
  std::map<std::string, std::vector<double>> layer_samples;
  std::uint64_t measure_start_ns = 0;
  std::uint64_t measure_end_ns = 0;

  void fail(const std::string& what);
  /// Records a per-pass sample of a per-layer metric.
  void sample(const std::string& name, double value) {
    layer_samples[name].push_back(value);
  }
};

/// Compares every count a pass produced: each (label, backend) count
/// must equal the serial reference computed in the same pass and the
/// committed expected count for the label.
class CountCheck {
 public:
  explicit CountCheck(std::map<std::string, Count> expected)
      : expected_(std::move(expected)) {}

  /// Thread-safe.
  void add(const std::string& label, const std::string& backend, Count got);
  /// Marks a call that produced no usable count (error, shed, partial).
  void add_failure(const std::string& what);
  /// Settles the pass into `run`: attempted / failed / errors.
  void settle(RunRecord& run);

 private:
  struct Entry {
    std::string label;
    std::string backend;
    Count got = 0;
  };
  std::map<std::string, Count> expected_;
  std::mutex mu_;
  std::vector<Entry> entries_;
  std::vector<std::string> failures_;
};

/// Expected counts of one workload from the committed JSON file.
[[nodiscard]] std::map<std::string, Count> load_expected(
    const std::string& path, const std::string& workload);

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

class Workload {
 public:
  virtual ~Workload() = default;
  /// Untimed input preparation (shared across the run's processes).
  virtual void prepare(const Options& /*options*/) {}
  /// Timed set-up; fills set-up per-layer metrics into `run`.
  virtual void setup(const Options& options, RunRecord& run) = 0;
  /// One pass of the measured phase.
  virtual void pass(const Options& options, RunRecord& run,
                    PassSample& sample, CountCheck& check) = 0;
  /// Untimed per-layer measurements after the measured phase (traced
  /// runs only).
  virtual void finish(const Options& /*options*/, RunRecord& /*run*/) {}
};

[[nodiscard]] std::unique_ptr<Workload> make_oneshot();
[[nodiscard]] std::unique_ptr<Workload> make_exec();
[[nodiscard]] std::unique_ptr<Workload> make_served();
[[nodiscard]] std::unique_ptr<Workload> make_sharded();

// ---------------------------------------------------------------------------
// Helpers shared by the workloads.
// ---------------------------------------------------------------------------

/// Seconds elapsed since `start_ns`.
[[nodiscard]] inline double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

[[nodiscard]] double median(std::vector<double> xs);
/// Nearest-rank percentile, q in (0, 100].
[[nodiscard]] double percentile(std::vector<double> xs, double q);

/// Dispatched-kernel throughput on adjacency pairs sampled from `graph`:
/// billions of input elements intersected per second.
[[nodiscard]] double intersect_gelems(const graphpi::Graph& graph,
                                      std::uint64_t seed);

[[nodiscard]] const char* backend_key(graphpi::Backend backend) noexcept;

}  // namespace perfbench
