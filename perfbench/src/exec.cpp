// Workload `exec`: pre-planned execution on every shared-memory backend.
//
// An untimed prepare step writes a degree-ordered GPS1 snapshot of the
// orkut stand-in (scale 0.2). The timed set-up loads it, plans every
// pattern, builds the 4-motif census forest and compiles every generated
// kernel. A pass then runs count(Configuration) for each pattern on the
// serial, parallel and generated backends, and the census forest through
// count_batch on serial and parallel. The set kernels, the trie walk, the
// IEP and the leaf memo do almost all of the work; the planner none.
#include <algorithm>
#include <filesystem>

#include "engine/jit.h"
#include "harness.h"

namespace perfbench {
namespace {

using namespace graphpi;
namespace metrics = graphpi::support::metrics;

// Pentagon is left out: on this graph one serial count takes ~7.5 s,
// longer than a whole pass of everything else. It runs in `sharded`.
constexpr const char* kPatterns[] = {"p1",    "p2",        "p3",     "p4",
                                     "house", "cycle6tri", "clique5"};
constexpr const char* kCensus = "census4";

struct Call {
  std::size_t pattern;  ///< index into kPatterns, or npos for the census
  Backend backend;
};

std::string snapshot_path(const Options& o) {
  return (std::filesystem::path(o.tmp_dir) / "orkut-0.2.gps").string();
}

/// Per-layer metric name of one call's time.
std::string engine_metric(const Call& call) {
  if (call.pattern == std::string::npos)
    return call.backend == Backend::kSerial
               ? "engine.forest.census4_ms"
               : "engine.forest_parallel.census4_ms";
  const char* arm = call.backend == Backend::kSerial     ? "matcher"
                    : call.backend == Backend::kParallel ? "parallel"
                                                         : "generated";
  return std::string("engine.") + arm + "." + kPatterns[call.pattern] + "_ms";
}

class Exec final : public Workload {
 public:
  void prepare(const Options& o) override {
    const std::string path = snapshot_path(o);
    if (std::filesystem::exists(path)) return;
    const Graph raw = datasets::load("orkut", 0.2);
    (void)raw.triangle_count();  // cached, so the snapshot carries it
    io::SnapshotOptions options;
    options.degree_ordered = true;
    const std::string partial = path + ".part";
    io::save_snapshot(raw.reorder_by_degree(), partial, options);
    std::filesystem::rename(partial, path);
  }

  void setup(const Options& o, RunRecord& run) override {
    const std::string path = snapshot_path(o);
    run.layer["io.snapshot_bytes"] =
        static_cast<double>(std::filesystem::file_size(path));
    std::uint64_t start = now_ns();
    {
      const Span span(Layer::kIo, "io.snapshot_load");
      graph_ = io::load_snapshot(path);
    }
    run.layer["io.snapshot_load_s"] = seconds_since(start);
    start = now_ns();
    {
      const Span span(Layer::kGraph, "graph.stats");
      engine_ = std::make_unique<GraphPi>(graph_);
    }
    run.layer["graph.stats_s"] = seconds_since(start);
    {
      const Span span(Layer::kGraph, "graph.hub_index");
      graph_.ensure_hub_index();
    }
    for (const char* spec : kPatterns) {
      const Span span(Layer::kCore, std::string("core.plan.") + spec);
      configs_.push_back(engine_->plan(patterns::parse_spec(spec)));
    }
    start = now_ns();
    {
      const Span span(Layer::kCore, "core.forest_build");
      census_ = std::make_unique<PlanForest>(
          engine_->plan_batch(patterns::connected_motifs(4)));
    }
    run.layer["core.forest_build_ms"] = seconds_since(start) * 1e3;
    const std::uint64_t compiles_before =
        jit::KernelCache::instance().stats().compiles;
    start = now_ns();
    for (std::size_t i = 0; i < configs_.size(); ++i) {
      const Span span(Layer::kJit, std::string("jit.compile.") + kPatterns[i]);
      (void)jit::KernelCache::instance().get(
          PlanForest({compile_plan(configs_[i])}));
    }
    run.layer["jit.compile_s"] = seconds_since(start);
    run.setup_exact["jit.compiles"] =
        jit::KernelCache::instance().stats().compiles - compiles_before;

    for (std::size_t i = 0; i < configs_.size(); ++i)
      for (Backend b : {Backend::kSerial, Backend::kParallel,
                        Backend::kGenerated})
        calls_.push_back({i, b});
    calls_.push_back({std::string::npos, Backend::kSerial});
    calls_.push_back({std::string::npos, Backend::kParallel});
    std::mt19937_64 rng(o.seed);
    std::shuffle(calls_.begin(), calls_.end(), rng);
  }

  void pass(const Options& o, RunRecord& run, PassSample& sample,
            CountCheck& check) override {
    std::uint64_t iep_terms = 0;
    std::uint64_t memo_lookups = 0;
    std::uint64_t memo_hits = 0;
    double parallel_s = 0.0;
    double busy_ms = 0.0;
    for (const Call& call : calls_) {
      MatchOptions options;
      options.backend = call.backend;
      options.threads = o.threads;
      const metrics::Snapshot before = GraphPi::metrics_snapshot();
      const std::string metric = engine_metric(call);
      const std::uint64_t start = now_ns();
      std::vector<Count> counts;
      {
        const Span span(Layer::kEngine, metric);
        counts = call.pattern == std::string::npos
                     ? engine_->count_batch(*census_, options)
                     : std::vector<Count>{
                           engine_->count(configs_[call.pattern], options)};
      }
      const double call_s = seconds_since(start);
      sample.call_ms.push_back(call_s * 1e3);
      sample.backend_s[backend_key(call.backend)] += call_s;
      run.sample(metric, call_s * 1e3);
      for (std::size_t i = 0; i < counts.size(); ++i)
        check.add(call.pattern == std::string::npos
                      ? std::string(kCensus) + "." + std::to_string(i)
                      : std::string(kPatterns[call.pattern]),
                  backend_key(call.backend), counts[i]);
      const metrics::Snapshot delta = GraphPi::metrics_snapshot().diff(before);
      if (call.backend == Backend::kSerial) {
        iep_terms += delta.counter_or("engine.iep.terms_evaluated");
        memo_lookups += delta.counter_or("engine.memo.lookups");
        memo_hits += delta.counter_or("engine.memo.hits");
      }
      if (call.backend == Backend::kParallel) {
        parallel_s += call_s;
        if (const auto busy =
                delta.histograms.find("engine.parallel.worker_busy_ms");
            busy != delta.histograms.end())
          busy_ms += busy->second.sum;
      }
    }
    // An instrument missing from the registry would read 0 above; fail
    // instead, so a renamed counter cannot pass as a perfect figure.
    const metrics::Snapshot registry = GraphPi::metrics_snapshot();
    for (const char* name : {"engine.iep.terms_evaluated",
                             "engine.memo.lookups", "engine.memo.hits"})
      if (!registry.counters.contains(name))
        check.add_failure(std::string("no counter ") + name + " in registry");
    if (!registry.histograms.contains("engine.parallel.worker_busy_ms"))
      check.add_failure("no histogram engine.parallel.worker_busy_ms");
    sample.exact["engine.iep_terms"] = iep_terms;
    if (memo_lookups > 0)
      run.sample("engine.memo_hit_rate", static_cast<double>(memo_hits) /
                                             static_cast<double>(memo_lookups));
    // Worker busy time is a histogram, observed only in traced runs.
    if (o.traced && parallel_s > 0.0)
      run.sample("engine.parallel.busy_frac",
                 busy_ms * 1e-3 / (parallel_s * o.threads));
  }

  void finish(const Options& o, RunRecord& run) override {
    run.layer["graph.intersect_gelems"] = intersect_gelems(graph_, o.seed);
  }

 private:
  Graph graph_;
  std::unique_ptr<GraphPi> engine_;
  std::vector<Configuration> configs_;
  std::unique_ptr<PlanForest> census_;
  std::vector<Call> calls_;
};

}  // namespace

std::unique_ptr<Workload> make_exec() { return std::make_unique<Exec>(); }

}  // namespace perfbench
