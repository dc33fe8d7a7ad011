// Workload `oneshot`: the command-line user's "pattern in, count out".
//
// A single caller parses each pattern spec and counts it on the
// livejournal stand-in (scale 0.2), planning every call afresh; the
// generated-backend calls compile into this process's empty kernel
// cache. The planner and the kernel compiler do most of the work here,
// execution little. run.py runs one pass per process, so every pass
// compiles from an empty cache.
//
// Left out: cycle6, whose serial count on this graph runs for more than
// 20 s, and P6, whose ~10 s of planning made a pass ~15 s long (one or two
// passes per run) and moved by up to 40% between rounds of runs tens of
// minutes apart on a shared 4-vCPU Xeon VM, more than any bound allows.
#include <algorithm>

#include "core/restriction.h"
#include "engine/jit.h"
#include "harness.h"

namespace perfbench {
namespace {

using namespace graphpi;

struct Call {
  std::string spec;
  Backend backend;
};

class Oneshot final : public Workload {
 public:
  void setup(const Options& o, RunRecord& run) override {
    {
      const Span span(Layer::kGraph, "graph.build");
      graph_ = datasets::load("livejournal", 0.2);
    }
    const std::uint64_t stats_start = now_ns();
    {
      const Span span(Layer::kGraph, "graph.stats");
      engine_ = std::make_unique<GraphPi>(graph_);
    }
    run.layer["graph.stats_s"] = seconds_since(stats_start);
    {
      // Built lazily by the first count otherwise, which would charge it
      // to whichever backend the seed puts first.
      const Span span(Layer::kGraph, "graph.hub_index");
      graph_.ensure_hub_index();
    }
    // P1-P5 plus the paper's named patterns on the serial backend, and a
    // cheap, a mid and a dense pattern on the multi-threaded backends.
    for (const char* spec : {"house", "p1", "p2", "p3", "p4", "p5", "clique5",
                             "cycle6tri"})
      calls_.push_back({spec, Backend::kSerial});
    for (const char* spec : {"house", "p2", "clique5"}) {
      calls_.push_back({spec, Backend::kGenerated});
      calls_.push_back({spec, Backend::kParallel});
    }
    std::mt19937_64 rng(o.seed);
    std::shuffle(calls_.begin(), calls_.end(), rng);
  }

  void pass(const Options& o, RunRecord& run, PassSample& sample,
            CountCheck& check) override {
    double plan_s = 0.0;
    double plan_max_ms = 0.0;
    double compile_s = 0.0;
    std::uint64_t configs_scored = 0;
    std::uint64_t restriction_sets = 0;
    const std::uint64_t compiles_before =
        jit::KernelCache::instance().stats().compiles;
    for (const Call& call : calls_) {
      MatchOptions options;
      options.backend = call.backend;
      options.threads = o.threads;
      const std::uint64_t call_start = now_ns();
      Pattern pattern;
      {
        const Span span(Layer::kCore, "core.parse_spec");
        pattern = patterns::parse_spec(call.spec);
      }
      // GraphPi::count(Pattern) is plan() followed by count(Configuration);
      // the two halves are called separately so that each can be timed.
      const std::uint64_t plan_start = now_ns();
      PlanningStats diag;
      Configuration config;
      {
        const Span span(Layer::kCore, "core.plan." + call.spec);
        config = engine_->plan(pattern, options, &diag);
      }
      const double plan_call_s = seconds_since(plan_start);
      plan_s += plan_call_s;
      plan_max_ms = std::max(plan_max_ms, plan_call_s * 1e3);
      configs_scored += diag.configurations_evaluated;
      restriction_sets += diag.restriction_sets;
      if (call.backend == Backend::kGenerated) {
        // The compile count(Configuration) would do on its first use,
        // done first so it can be timed apart from execution.
        const std::uint64_t compile_start = now_ns();
        const Span span(Layer::kJit, "jit.compile." + call.spec);
        (void)jit::KernelCache::instance().get(
            PlanForest({compile_plan(config)}));
        compile_s += seconds_since(compile_start);
      }
      Count count = 0;
      {
        const Span span(Layer::kEngine, std::string("engine.") +
                                            backend_key(call.backend) + "." +
                                            call.spec);
        count = engine_->count(config, options);
      }
      const double ms = seconds_since(call_start) * 1e3;
      sample.call_ms.push_back(ms);
      sample.backend_s[backend_key(call.backend)] += ms * 1e-3;
      check.add(call.spec, backend_key(call.backend), count);
    }
    sample.exact["core.configs_scored"] = configs_scored;
    sample.exact["core.restriction_sets"] = restriction_sets;
    sample.exact["jit.compiles"] =
        jit::KernelCache::instance().stats().compiles - compiles_before;
    run.sample("core.plan_s", plan_s);
    run.sample("core.plan_max_ms", plan_max_ms);
    run.sample("jit.compile_s", compile_s);
  }

  void finish(const Options& o, RunRecord& run) override {
    // Algorithm 1 alone, for every pattern of the pass, outside the
    // measured phase.
    const std::uint64_t start = now_ns();
    for (const Call& call : calls_) {
      if (call.backend != Backend::kSerial) continue;
      RestrictionGenOptions gen;
      gen.max_sets = MatchOptions{}.max_restriction_sets;
      (void)generate_restriction_sets(patterns::parse_spec(call.spec), gen);
    }
    run.layer["core.restriction_gen_s"] = seconds_since(start);
    run.layer["graph.intersect_gelems"] = intersect_gelems(graph_, o.seed);
  }

 private:
  Graph graph_;
  std::unique_ptr<GraphPi> engine_;
  std::vector<Call> calls_;
};

}  // namespace

std::unique_ptr<Workload> make_oneshot() { return std::make_unique<Oneshot>(); }

}  // namespace perfbench
