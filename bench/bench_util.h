// Shared helpers for the experiment harnesses.
//
// Every bench binary regenerates one table or figure of the paper's
// evaluation (Section V) on the synthetic dataset stand-ins (DESIGN.md
// documents the substitution). Absolute numbers differ from the paper's
// Tianhe-2A measurements by construction; the *shape* — who wins and by
// roughly what factor — is the reproduction target recorded in
// EXPERIMENTS.md.
#pragma once

#include <cstdlib>
#include <functional>
#include <iostream>
#include <optional>
#include <string>

#include "core/configuration.h"
#include "core/plan_forest.h"
#include "engine/forest.h"
#include "graph/datasets.h"
#include "graph/graph.h"
#include "support/exec_control.h"
#include "support/metrics.h"
#include "support/timer.h"

namespace graphpi::bench {

/// Per-dataset scale factors calibrated so the full default bench suite
/// finishes on one core in minutes. Pass a multiplier as argv[1] to grow
/// or shrink every workload (e.g. `./fig08_overall 2.0`).
inline double calibrated_scale(const std::string& dataset) {
  // Stand-in sizes in datasets.cpp are already budget-calibrated.
  (void)dataset;
  return 1.0;
}

/// Global multiplier from argv (default 1.0).
inline double scale_multiplier(int argc, char** argv) {
  return argc > 1 ? std::atof(argv[1]) : 1.0;
}

/// Loads a dataset at its calibrated bench scale times `mult`.
inline Graph bench_graph(const std::string& dataset, double mult) {
  return datasets::load(dataset, calibrated_scale(dataset) * mult);
}

/// Times a callable once, returning seconds.
template <typename F>
double time_once(F&& fn) {
  support::Timer t;
  std::forward<F>(fn)();
  return t.elapsed_seconds();
}

/// Result of a budgeted counting run: seconds + count when the run
/// finished inside the budget, nullopt when it was cut off (rendered as
/// the paper's "T").
struct BudgetedRun {
  std::optional<double> seconds;
  Count count = 0;
};

/// Counts `config`'s embeddings serially (a one-plan forest) under a
/// wall-clock deadline polled after every root vertex (an armed
/// ForestExecutor::count walks the vertex range root by root), so the
/// overshoot is bounded by one root subtree. Exact when it completes.
inline BudgetedRun count_with_budget(const Graph& g,
                                     const Configuration& config,
                                     double budget_seconds) {
  const PlanForest forest({compile_plan(config)});
  const ForestExecutor executor(g, forest);  // builds the hub index
  ForestExecutor::Workspace ws;
  support::RunReport report;
  support::Timer t;
  support::ExecControl control;
  control.arm_deadline_ms(budget_seconds * 1e3);
  control.set_poll_stride(1);
  const Count n = executor.count(ws, &control, &report).front();
  if (!report.complete()) return {};
  return {t.elapsed_seconds(), n};
}

/// Budgeted plain-enumeration count for a configuration (strips any IEP
/// plan first).
inline BudgetedRun count_plain_with_budget(const Graph& g,
                                           Configuration config,
                                           double budget_seconds) {
  config.iep = IepPlan{};
  return count_with_budget(g, config, budget_seconds);
}

/// Formats a measurement; nullopt renders as "T" — the paper's marker for
/// runs exceeding the time budget.
inline std::string fmt_time(std::optional<double> seconds) {
  if (!seconds.has_value()) return "T";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", *seconds);
  return buf;
}

inline std::string fmt_speedup(std::optional<double> x) {
  if (!x.has_value()) return "-";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1fx", *x);
  return buf;
}

/// Prints the standard bench banner.
inline void banner(const std::string& experiment, const std::string& what) {
  std::cout << "==== " << experiment << " — " << what << " ====\n";
}

/// JSON snapshot of the process-wide metrics registry, for embedding in
/// BENCH_* files so a bench run records what the engine actually did
/// (memo hit rates, JIT compiles, message volume) next to its timings.
inline std::string metrics_snapshot_json() {
  return support::metrics::Registry::instance().snapshot().to_json();
}

}  // namespace graphpi::bench
